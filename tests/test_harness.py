import os
import threading
from unittest import mock

import pytest

from _oracle import size
from piworkbench import harness
from piworkbench.equivalences import RelationKind
from piworkbench.harness import (CheckSpec, GenConfig, Limits, generate_corpus,
                                 run_suite)
from piworkbench.syntax import Input, Output, Par, Repl, is_async, names
from piworkbench.text import parse_term, render_term


def test_generation_deterministic():
    cfg = GenConfig(seed=9, max_size=10, communication_bias=0.5)
    assert generate_corpus(cfg, 25) == generate_corpus(cfg, 25)


def test_generation_respects_max_size():
    cfg = GenConfig(seed=10, max_size=1)
    corpus = generate_corpus(cfg, 30)
    assert all(size(t) == 1 for t in corpus)


def test_generation_size_bound_and_namespace():
    cfg = GenConfig(seed=11, max_size=12)
    for t in generate_corpus(cfg, 80):
        assert 1 <= size(t) <= 12
        assert all(not n.reserved for n in names(t))


def test_no_replication_flag():
    cfg = GenConfig(seed=12, max_size=10, allow_replication=False)

    def has_repl(t):
        match t:
            case Repl(_):
                return True
            case Output(_, _, k) | Input(_, _, k):
                return has_repl(k)
            case Par(l, r):
                return has_repl(l) or has_repl(r)
            case _:
                return (
                    has_repl(t.body)
                    if hasattr(t, "body")
                    else False
                )

    assert not any(has_repl(t) for t in generate_corpus(cfg, 60))


def test_async_flag():
    cfg = GenConfig(seed=13, max_size=10, asynchronous=True, communication_bias=0.6)
    assert all(is_async(t) for t in generate_corpus(cfg, 60))


def test_communication_bias_produces_complementary_pairs():
    # with bias 1 every parallel node big enough to hold a send/receive
    # pair on a shared channel has one at its root
    cfg = GenConfig(seed=14, max_size=9, communication_bias=1.0)

    def pars(t):
        if isinstance(t, Par):
            yield t
            yield from pars(t.left)
            yield from pars(t.right)
        elif hasattr(t, "cont"):
            yield from pars(t.cont)
        elif hasattr(t, "body"):
            yield from pars(t.body)

    seen = 0
    for t in generate_corpus(cfg, 100):
        for node in pars(t):
            if size(node) < 5:
                continue
            l, r = node.left, node.right
            assert (
                isinstance(l, Output) and isinstance(r, Input) and l.chan == r.chan
            ) or (
                isinstance(r, Output) and isinstance(l, Input) and l.chan == r.chan
            ), render_term(t)
            seen += 1
    assert seen >= 25


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_size=0)
    with pytest.raises(ValueError):
        GenConfig(communication_bias=1.5)
    # an unknown tag was once drawn as "par", below the budget "par" needs
    with pytest.raises(ValueError, match="restriction"):
        GenConfig(seed=1, weights={"output": 1, "restriction": 50})


def test_run_suite_empty_corpus_rejected_by_generate():
    with pytest.raises(ValueError):
        generate_corpus(GenConfig(), 0)


def test_run_suite_counts_and_order():
    cfg = GenConfig(seed=15, max_size=6, allow_replication=False)
    corpus = generate_corpus(cfg, 8)
    checks = [
        CheckSpec("b-barbs", "barb-preservation", {"scheme": "boudol"}),
        CheckSpec("a-chan", "chan-barb-preservation", {"scheme": "ht"}),
    ]
    rep = run_suite(corpus, checks, Limits(depth=6), config={"seed": 15})
    assert rep.passed == len(rep.reports) == 16
    assert rep.failed == rep.unknown == 0
    ids = [r.check_id for r in rep.reports]
    assert ids == sorted(ids)
    assert rep.to_dict()["summary"] == {"pass": 16, "fail": 0, "unknown": 0}


def test_run_suite_never_aborts_on_crash():
    corpus = generate_corpus(GenConfig(seed=16, max_size=4), 3)
    checks = [CheckSpec("bad", "lemma", {"lemma": "l1"})]  # sync terms crash l1
    rep = run_suite(corpus, checks)
    assert len(rep.reports) == 3
    assert all(r.status in ("pass", "fail") for r in rep.reports)


def test_run_suite_runs_every_check_on_the_calling_thread():
    corpus = generate_corpus(GenConfig(seed=17, max_size=6, allow_replication=False), 6)
    checks = [CheckSpec("b", "barb-preservation", {"scheme": "boudol"}),
              CheckSpec("d", "divergence", {"scheme": "ht", "depth": 3})]
    threads = []

    def recording(check):
        def run(*args):
            threads.append(threading.get_ident())
            return check(*args)
        return run

    spied = {kind: recording(check) for kind, check in harness.CHECKS.items()}
    with mock.patch.dict(harness.CHECKS, spied), \
            mock.patch.dict(os.environ, {"WORKBENCH_THREADS": "4"}):
        rep = run_suite(corpus, checks)
    assert len(rep.reports) == len(threads) == 12
    assert set(threads) == {threading.get_ident()}


# one spec per check kind, without its scheme
UNSCHEMED = [
    ("barb-preservation", {}),
    ("chan-barb-preservation", {}),
    ("bisim-validity", {"relation": "wbb"}),
    ("success", {"depth": 3}),
    ("divergence", {"depth": 3}),
    ("criterion", {"criterion": "c"}),
    ("lemma", {"lemma": "l6", "depth": 3}),
]


@pytest.mark.parametrize("kind,params", UNSCHEMED, ids=[k for k, _ in UNSCHEMED])
def test_spec_without_scheme_checks_boudol(kind, params):
    corpus = (parse_term("x!z.y!w"), parse_term("x!a | x?(y).y!b"), parse_term("!x?(y).ok"))
    unschemed = run_suite(corpus, [CheckSpec("k", kind, params)], Limits(depth=4))
    boudol = run_suite(corpus, [CheckSpec("k", kind, {**params, "scheme": "boudol"})],
                       Limits(depth=4))
    assert unschemed.to_dict() == boudol.to_dict()
    assert not any("error" in r.details for r in unschemed.reports)
    if kind == "barb-preservation":
        # T_HT turns the output x!z into an input on x
        assert unschemed.reports[0].status == "pass"


@pytest.mark.parametrize("criterion", ["w", "g", "cp"])
def test_criterion_equivalence_named_by_string(criterion):
    corpus = (parse_term("x!z | x?(y).0"),)
    named, given = (
        run_suite(corpus, [CheckSpec("k", "criterion",
                                     {"criterion": criterion, "equivalence": eq, "depth": 2})])
        for eq in ("wbb", RelationKind("wbb")))
    assert named.to_dict() == given.to_dict()
    assert not any("error" in r.details for r in named.reports)


def test_criterion_c_rejects_an_equivalence():
    corpus = (parse_term("x!z | x?(y).0"),)
    spec = CheckSpec("k", "criterion", {"criterion": "c", "equivalence": "wbb"})
    (rep,) = run_suite(corpus, [spec]).reports
    assert rep.status == "fail"
    assert rep.details["error"].startswith("ValueError: criterion 'c'")


def test_malformed_check_spec():
    corpus = generate_corpus(GenConfig(seed=18, max_size=3), 1)
    rep = run_suite(corpus, [CheckSpec("oops", "no-such-kind", {})])
    assert rep.failed == 1
    assert "error" in rep.reports[0].details


def test_suite_report_independent_of_call_history():
    cfg = GenConfig(seed=23, max_size=7, allow_replication=False, communication_bias=0.8,
                    insert_success_probability=0.2)
    corpus = generate_corpus(cfg, 12)
    checks = [
        CheckSpec("v-ewb", "bisim-validity", {"scheme": "boudol", "relation": "ewb"}),
        CheckSpec("crit-w", "criterion", {"scheme": "ht", "criterion": "w", "depth": 2}),
        CheckSpec("div", "divergence", {"scheme": "ht", "depth": 3}),
        CheckSpec("l6", "lemma", {"lemma": "l6", "depth": 4}),
    ]

    def report(terms, specs):
        return run_suite(terms, specs, Limits(depth=6), {"seed": 23}).to_dict()

    first = report(corpus, checks)
    report(corpus[::-1], checks[::-1])
    assert report(corpus, checks) == first
    assert any("witness" in r["details"] for r in first["reports"])
