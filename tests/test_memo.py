"""The memo registry: every derived-fact table comes from `memo` and
lives as long as the outermost `memo.job`, so a loop of checks or a suite
keeps no dead term alive.  No table keeps a term that is built and
normalized once, such as a transition target.  A job leaves no cyclic
garbage, so pausing the collector for it loses nothing."""

import contextlib
import gc
import importlib
import pkgutil
import sys
import threading
import time
from collections import Counter

import pytest

import piworkbench
from piworkbench import cli, congruence, harness, memo, syntax
from piworkbench.correspondence import (Criterion, check_completeness, check_compositionality,
                                        check_lemma, check_name_invariance, check_soundness,
                                        check_success_sensitiveness)
from piworkbench.encodings import Boudol, Op, encode
from piworkbench.equivalences import WBB, audit_relation, check_bisim, relate
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


def _entries() -> int:
    return sum(table.cache_info().currsize for table in memo._TABLES)


# an asynchronous term, so that every lemma applies, and its T_B image,
# related to it by wbb at depth 6
P = parse_term("(nu c)(c!a | c?(x).x!b) | a?(y).y!b")
Q = encode(Boudol, P)

ENTRY_POINTS = {
    "check_bisim": lambda: check_bisim(WBB, P, Q, 6),
    "relate": lambda: relate(WBB, [(P, Q), (Q, P)], 6),
    "audit_relation": lambda: audit_relation(WBB, P, Q, 6, check_bisim(WBB, P, Q, 6).relation),
    "check_lemma": lambda: check_lemma("l6", P, 3),
    "check_completeness": lambda: check_completeness(Boudol, P),
    "check_soundness": lambda: check_soundness(Criterion("w"), Boudol, P, 2),
    "check_success_sensitiveness": lambda: check_success_sensitiveness(Boudol, P, 3),
    "check_name_invariance": lambda: check_name_invariance(Boudol, P, {Name("a"): Name("b")}, 4),
    "check_compositionality": lambda: check_compositionality(Boudol, Op("par"), (P, Q)),
    "run_suite": lambda: run_suite(
        [P, Q], [CheckSpec("v", "bisim-validity", {"scheme": "boudol", "relation": "wbb"})],
        Limits(depth=4)),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_an_entry_point_leaves_every_table_empty(name):
    ENTRY_POINTS[name]()
    assert _entries() == 0


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_call_inside_a_job_keeps_its_entries_until_the_job_ends(name):
    with memo.job():
        ENTRY_POINTS[name]()
        kept = _entries()
        ENTRY_POINTS[name]()
        assert _entries() >= kept > 0
    assert _entries() == 0


def test_checks_in_a_loop_leave_every_table_empty():
    # ROADMAP item 18's loop, with no outer job and no clear
    cfg = GenConfig(seed=1, max_size=12, communication_bias=0.8, allow_replication=False)
    for p in generate_corpus(cfg, 400):
        check_bisim(WBB, p, encode(Boudol, p), 6)
    assert _entries() == 0


def test_validate_empties_the_tables_after_each_corpus_term(monkeypatch, capsys):
    seen = []
    run_check = harness._run_check

    def watched(spec, index, term, limits):
        before = _entries()
        report = run_check(spec, index, term, limits)
        seen.append((index, before, _entries()))
        return report

    monkeypatch.setattr(harness, "_run_check", watched)
    code = cli.main(["validate", "--scheme", "boudol", "--kind", "wbb", "--depth", "4",
                     "--corpus-seed", "3", "--corpus-size", "6", "--max-size", "8",
                     "--no-replication"])
    capsys.readouterr()
    assert code in (0, 2)
    assert [index for index, _, _ in seen] == list(range(6))
    # every term fills the tables, and the next one starts from none
    assert all(after > 0 for _, _, after in seen)
    assert [before for index, before, _ in seen if index > 0] == [0] * 5
    assert _entries() == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_a_job_restores_the_collector_state(enabled, raises):
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
            with memo.job():
                with memo.job():
                    congruence.normalize(P)
                # the inner job leaves the pause and the tables to the outer one
                assert not gc.isenabled() and _entries() > 0
                if raises:
                    raise RuntimeError("check crashed")
        assert gc.isenabled() is enabled
        assert memo.job.depth == 0 and _entries() == 0
    finally:
        gc.enable()


def test_a_job_ending_on_one_thread_leaves_the_tables_of_another():
    calls = Counter()

    @memo.memo
    def computed(key):
        calls[key] += 1
        return key

    def worker(k):
        for r in range(200):
            with memo.job():
                computed((k, r))
                time.sleep(0)
                # no other thread's job may have emptied the table meanwhile
                computed((k, r))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        memo._TABLES.remove(computed)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 800 and set(calls.values()) == {1}
    assert memo.job.depth == 0 and gc.isenabled()
