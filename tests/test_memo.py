"""The memo registry: every derived-fact table comes from `memo`, and
`memo.clear()` empties them all, so a suite keeps no dead term alive.  No
table keeps a term that is built and normalized once, such as a
transition target.  A job leaves no cyclic garbage, so `memo.paused_gc`
loses nothing."""

import contextlib
import gc
import importlib
import pkgutil

import pytest

import piworkbench
from piworkbench import congruence, memo, syntax
from piworkbench.encodings import Boudol, encode
from piworkbench.equivalences import WBB, check_bisim
from piworkbench.harness import (CHECKS, CheckSpec, GenConfig, Limits,
                                 generate_corpus, run_suite)
from piworkbench.semantics import (_PLACEHOLDER, _fresh_representative, _level_moves,
                                   _spine, _state_level, build_fragment, default_universe,
                                   reduce_once)
from piworkbench.syntax import Name
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
    congruence.congruent(p, encode(Boudol, p))
    root = congruence.normalize(encode(Boudol, p))
    build_fragment(root, 3, universe=default_universe(root))
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
        CheckSpec("barbs", "barb-preservation", {"scheme": "ht"}),
        CheckSpec("chan-barbs", "chan-barb-preservation", {"scheme": "boudol"}),
        CheckSpec("succ", "success", {"scheme": "boudol", "depth": 3}),
        CheckSpec("bad", "no-such-kind", {}),
    ]
    assert {c.kind for c in checks} > set(CHECKS)
    memo.clear()
    gc.collect()
    before = len(syntax._TABLE)
    gc.disable()
    try:
        report = run_suite(corpus, checks, Limits(depth=4))
        # a suite makes no cyclic garbage: the paused collector misses nothing
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(report.reports) == 96
    assert {r.status for r in report.reports if r.check_id == "bad"} == {"fail"}
    assert len(syntax._TABLE) == before


def test_check_leaves_no_cyclic_garbage():
    p = parse_term("!(nu a)(a?(c).(nu b)(b!a | b?(a).0) | a!b.a!a.c?(b).a!a)")
    q = encode(Boudol, p)
    memo.clear()
    gc.collect()
    gc.disable()
    try:
        assert check_bisim(WBB, p, q, 8).status == "unknown"
        assert gc.collect() == 0
    finally:
        gc.enable()
    memo.clear()


REPLICATED = GenConfig(seed=7, max_size=16, communication_bias=0.9, allow_replication=True)
SOURCES = 10
FRAGMENT_DEPTH = 3


def _subterms(p, seen: set) -> None:
    stack = [p]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(getattr(t, f) for f in type(t).__match_args__
                         if not isinstance(getattr(t, f), (Name, int)))


def _built(piece) -> list:
    """The spines that the pending levels of a move's piece stand for: the
    terms that PAR, RES, COM, CLOSE and REPL would build for the move,
    outermost first.  A level of one piece and no binder stands for the
    piece itself."""
    if not isinstance(piece, tuple):
        return []
    binders, pieces = piece
    inner = [t for q in pieces for t in _built(q)]
    return [_spine(piece), *inner] if binders or len(pieces) > 1 else inner


def _probes(frag, term):
    """(state, bound name) for every derivation the run made: the state
    `reduce_once` was asked about, and each fragment state with the name
    its labelled moves were derived with."""
    yield term, _PLACEHOLDER
    for s in frag.states:
        yield s, _fresh_representative(s, frag.universe) or _PLACEHOLDER


def test_fresh_targets_are_not_retained():
    sources = [t for t in generate_corpus(REPLICATED, 100) if "Repl(" in repr(t)][:SOURCES]
    assert len(sources) == SOURCES
    terms = sources + [encode(Boudol, t) for t in sources]
    memo.clear()
    gc.collect()
    frags, reducts = [], []
    for p in terms:
        reducts.append(reduce_once(p))
        frags.append(build_fragment(p, FRAGMENT_DEPTH,
                                    universe=default_universe(congruence.normalize(p))))
    # only the roots were normalized through the table
    assert congruence._normalize.cache_info().currsize == len(set(terms))

    gc.collect()
    alive = [r() for r in list(syntax._TABLE.values())]
    alive_ids = {id(t) for t in alive if t is not None}
    kept: set = set()
    for t in [*terms, *(s for f in frags for s in f.states), *(t for r in reducts for t in r)]:
        _subterms(t, kept)
    # a move's pieces are subterms and substitution results, which `_subst`
    # keeps, under pending levels; the spine a pending level stands for is
    # built here, after the run, and no table may have kept it
    fresh = retained = 0
    for frag, term in zip(frags, terms):
        for s, w in _probes(frag, term):
            for _, target in _level_moves(*_state_level(s), w):
                for t in _built(target):
                    if id(t) not in kept:
                        fresh += 1
                        retained += id(t) in alive_ids
    assert retained == 0, (fresh, retained)
    assert fresh > 100, fresh
    memo.clear()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_paused_gc_restores_the_collector_state(enabled, raises):
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            with memo.paused_gc():
                assert not gc.isenabled()
                if raises:
                    raise RuntimeError("check crashed")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
