"""Shims that watch piworkbench from outside: call counts and self time of
public functions, fragment and engine sizes, verdict tallies and memo-table
sizes.

A shim replaces a function at every place a piworkbench module binds it
(``from .semantics import build_fragment`` makes a second binding), so calls
made inside the package are seen as well.  Nothing under ``src/`` changes.
A name a later version of the package no longer has is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Public functions timed in a traced run, by layer module.
TRACED = {
    "text": ("parse_term", "render_term"),
    "syntax": ("substitute",),
    "congruence": ("normalize", "congruent"),
    "semantics": ("build_fragment", "diverges", "reduce_once"),
    "encodings": ("encode",),
    "observables": ("strong_barbs",),
    "equivalences": ("saturate", "check_bisim"),
    "correspondence": ("check_soundness", "check_completeness"),
    "harness": ("generate_corpus", "run_suite"),
}

# Modules whose process-wide memo tables are counted.
MEMO_MODULES = ("syntax", "congruence", "semantics", "encodings", "observables", "text")

# Memoised functions whose hit ratio is reported, as (module, function, metric).
HIT_RATIOS = (
    ("text", "render_term", "text.render_term.hit_ratio"),
    ("syntax", "_subst", "syntax.subst.hit_ratio"),
    ("congruence", "_normalize", "congruence.normalize.hit_ratio"),
)


def _rebind(orig, replacement) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "piworkbench" or modname.startswith("piworkbench."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)


def _memo_tables(mod) -> list:
    """The lru_cache tables a module defines (not the ones it imports)."""
    return [
        fn for fn in vars(mod).values()
        if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__
    ]


class Probe:
    """Observers installed in every run; timing spans only when traced.

    ``counts`` holds exact counts that must repeat bit-for-bit for the same
    input.  ``self_s`` and ``calls`` are filled by ``trace()``."""

    def __init__(self, pkg, keep_related: bool):
        self.pkg = pkg
        self.keep_related = keep_related
        self.counts = Counter()
        self.related = []  # arguments of `related` bisim verdicts, for the audit
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._stack = []
        # taken before any shim replaces a memoised function
        self._memo = {m: _memo_tables(getattr(pkg, m)) for m in MEMO_MODULES}
        self._ratio_fns = [
            (getattr(getattr(pkg, m), f, None), metric) for m, f, metric in HIT_RATIOS
        ]
        self._observe()

    def _wrap(self, module: str, name: str, make):
        mod = getattr(self.pkg, module)
        orig = getattr(mod, name, None)
        if orig is not None:
            _rebind(orig, functools.wraps(orig)(make(orig)))

    def _observe(self) -> None:
        counts = self.counts

        def fragment(orig):
            def shim(*args, **kwargs):
                frag = orig(*args, **kwargs)
                counts["semantics.fragments"] += 1
                counts["semantics.fragment_states"] += len(frag.states)
                counts["semantics.fragment_transitions"] += len(frag.transitions)
                counts["semantics.frontier_states"] += len(frag.frontier)
                return frag
            return shim

        def engine(orig):
            def shim(*args, **kwargs):
                eng = orig(*args, **kwargs)
                counts["equivalences.engines"] += 1
                counts["equivalences.pairs"] += len(eng.fa.states) * len(eng.fb.states)
                return eng
            return shim

        def bisim(orig):
            def shim(*args, **kwargs):
                verdict = orig(*args, **kwargs)
                counts["equivalences.verdict." + verdict.status] += 1
                counts["equivalences.relation_size"] += len(verdict.relation)
                if self.keep_related and verdict.status == "related":
                    self.related.append((args, kwargs))
                return verdict
            return shim

        self._wrap("semantics", "build_fragment", fragment)
        self._wrap("equivalences", "_build_engine", engine)
        self._wrap("equivalences", "check_bisim", bisim)

    def trace(self) -> None:
        """Time every function in TRACED; self time excludes nested spans."""
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def span(metric):
            def make(orig):
                def shim(*args, **kwargs):
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        return orig(*args, **kwargs)
                    finally:
                        dt = clock() - t0
                        self_s[metric] += dt - stack.pop()
                        calls[metric] += 1
                        if stack:
                            stack[-1] += dt
                return shim
            return make

        for module, names in TRACED.items():
            for name in names:
                self._wrap(module, name, span(f"{module}.{name}"))

    def memo_counts(self) -> dict:
        out = {
            f"{m}.cache_entries": sum(fn.cache_info().currsize for fn in fns)
            for m, fns in self._memo.items()
        }
        out["congruence.canon_memo.entries"] = len(
            getattr(self.pkg.congruence, "_CANON_MEMO", ())
        )
        return out

    def hit_ratios(self) -> dict:
        out = {}
        for fn, metric in self._ratio_fns:
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            looked = info.hits + info.misses if info else 0
            out[metric] = info.hits / looked if looked else 0.0
        return out
