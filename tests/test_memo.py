"""The memo registry: every derived-fact table comes from `memo`, and
`memo.clear()` empties them all, so a suite keeps no dead term alive.  A
job leaves no cyclic garbage, so `memo.paused_gc` loses nothing."""

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
