"""The memo registry: every derived-fact table comes from `memo`, and
`memo.clear()` empties them all, so a suite keeps no dead term alive."""

import gc
import importlib
import pkgutil

import piworkbench
from piworkbench import congruence, memo, syntax
from piworkbench.encodings import Boudol, encode
from piworkbench.harness import (CheckSpec, GenConfig, Limits,
                                 generate_corpus, run_suite)
from piworkbench.semantics import build_fragment
from piworkbench.text import parse_term


def _memo_functions() -> list:
    """Every memoised function defined in a piworkbench module."""
    out = []
    for info in pkgutil.iter_modules(piworkbench.__path__):
        mod = importlib.import_module(f"piworkbench.{info.name}")
        out += [
            fn for fn in vars(mod).values()
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__
        ]
    return out


def test_clear_empties_every_table():
    p = parse_term("!(nu a)(a!b | a?(c).c!x) | x?(y).y!x")
    congruence.congruent(p, encode(Boudol, p), 1)
    build_fragment(encode(Boudol, p), 3)
    fns = _memo_functions()
    assert len(fns) >= 14
    assert {id(fn) for fn in fns} <= {id(table) for table in memo._TABLES}
    assert any(fn.cache_info().currsize for fn in fns)
    memo.clear()
    assert [fn for fn in fns if fn.cache_info().currsize] == []
    assert not hasattr(congruence, "_CANON_MEMO")


def test_suite_leaves_no_interned_term_alive():
    cfg = GenConfig(seed=5, max_size=8, communication_bias=0.6, allow_replication=True)
    corpus = generate_corpus(cfg, 12)
    assert any("Repl(" in repr(t) for t in corpus)
    checks = [
        CheckSpec("v-wbb", "bisim-validity", {"scheme": "boudol", "relation": "wbb"}),
        CheckSpec("crit-s", "criterion", {"scheme": "boudol", "criterion": "s", "depth": 2}),
        CheckSpec("l6", "lemma", {"lemma": "l6", "depth": 3}),
        CheckSpec("div", "divergence", {"scheme": "ht", "depth": 3}),
    ]
    memo.clear()
    gc.collect()
    before = len(syntax._TABLE)
    report = run_suite(corpus, checks, Limits(depth=4))
    gc.collect()
    assert len(report.reports) == 48
    assert len(syntax._TABLE) == before
