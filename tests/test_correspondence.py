import pytest

from _oracle import oracle_bisim
from piworkbench import congruence, correspondence, memo
from piworkbench.congruence import normalize
from piworkbench.correspondence import (_MATCH_DEPTH, Criterion,
                                        check_completeness,
                                        check_compositionality, check_lemma,
                                        check_name_invariance,
                                        check_soundness,
                                        check_success_sensitiveness,
                                        inert_steps)
from piworkbench.encodings import Boudol, HondaTokoro, Op, _encode, encode
from piworkbench.equivalences import SRWRB, Verdict, check_bisim
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.semantics import build_fragment, diverges, reduce_once
from piworkbench.syntax import Input, Name, Output, Par, Repl, Restrict
from piworkbench.text import parse_term, render_term

x, y, z = Name("x"), Name("y"), Name("z")
COMM = parse_term("x!z | x?(y).0")


def test_inert_step_basic():
    got = inert_steps(parse_term("(nu v)(v!a | 0 | v?(z).z!b)"))
    assert got == frozenset({normalize(parse_term("a!b"))})


def test_inert_requires_restriction():
    assert inert_steps(parse_term("x!a | x?(z).0")) == frozenset()


def test_inert_side_condition_blocks_leftover_channel():
    # v stays free in the leftover component, so the step is not inert
    assert inert_steps(parse_term("(nu v)(v!a | v?(z).0 | v!b)")) == frozenset()


def test_inert_rejects_synchronous_terms():
    with pytest.raises(ValueError):
        inert_steps(parse_term("x!a.y!b"))


def test_inert_appendix_shape():
    # (nu v)(P* | v(y).T(Q)) with P* = v!z | T(P)
    p = parse_term("(nu v)(v!z | x!a | v?(y).y!b)")
    got = inert_steps(p)
    assert got == frozenset({normalize(parse_term("x!a | z!b"))})


def test_inert_steps_under_replication_unfold():
    p = parse_term("(nu v)(v!a | !(v?(q).0))")
    # one unfolding exposes the receiver; v stays free in the leftover
    # replica, so the step is still blocked
    assert inert_steps(p) == frozenset()


def test_inert_steps_read_unfoldings_without_normalize_entries():
    p = parse_term("!(x!a | x?(y).0) | (nu c)(c!b | c?(d).d!a)")
    memo.clear()
    got = inert_steps(p)
    # only the term itself is normalized through the table; its unfolding
    # comes from `_variants`
    assert congruence._normalize.cache_info().currsize == 1
    assert sorted(map(render_term, got)) == [
        "!(x!a | x?(%r0).0) | b!a",
        "!(x!a | x?(%r0).0) | b!a | x!a | x?(%r0).0",
    ]
    memo.clear()


def test_inert_subset_of_reductions_lemma1():
    cfg = GenConfig(seed=51, max_size=10, asynchronous=True, communication_bias=0.8)
    for term in generate_corpus(cfg, 80):
        rep = check_lemma("l1", term)
        assert rep.passed, (render_term(term), rep.details)


def test_lemma2_diamond_on_corpus():
    from piworkbench.syntax import Par

    cfg = GenConfig(seed=52, max_size=8, asynchronous=True, communication_bias=0.8)
    stream = generate_corpus(cfg, 300)
    inert_ready = [t for t in stream if inert_steps(t)]
    active = [t for t in stream if reduce_once(normalize(t))]
    composites = [Par(a, b) for a, b in zip(inert_ready, active)]
    obligations = 0
    for term in list(stream[:60]) + composites:
        rep = check_lemma("l2", term)
        assert rep.passed, (render_term(term), rep.details)
        obligations += rep.details["obligations"]
    assert obligations >= 10  # the diamond premise actually fires


def test_postponed_barbs_on_corpus():
    cfg = GenConfig(seed=53, max_size=10, asynchronous=True, communication_bias=0.8)
    for term in generate_corpus(cfg, 60):
        rep = check_lemma("pb", term)
        assert rep.passed, (render_term(term), rep.details)


def test_lemma5_appendix_chain_length():
    rep = check_lemma("l5", COMM)
    assert rep.passed
    assert rep.details["reducts"][0]["path_length"] == 3


def test_lemma6_on_communication_example():
    for scheme in (Boudol, HondaTokoro):
        rep = check_lemma("l6", COMM, depth=6, scheme=scheme)
        assert rep.passed, rep.details


def test_lemma6_cut_off_closure_is_unknown_not_fail():
    # under Boudol the one target's inert closure needs two steps to reach
    # the image of the source reduct: at depth 1 the bound, not the lemma,
    # leaves it unmatched
    target = "(nu %r0)(nu %r1)(%r0?(%r2).0 | %r1!%r0 | %r1?(%r2).%r2!z)"
    rep = check_lemma("l6", COMM, depth=1)
    assert rep.status == "unknown"
    assert rep.details == {"failures": [], "undecided": [target]}
    rep = check_lemma("l6", COMM, depth=4)
    assert rep.status == "pass"
    assert rep.details == {"failures": [], "undecided": []}


def test_lemma_l2star():
    rep = check_lemma("l2star", parse_term("(nu v)(v!a | v?(q).(nu w)(w!q | w?(r).r!b))"), depth=4)
    assert rep.passed


# terms whose inert closures meet only up to one replication unfolding:
# the first consumes its private pair into `!a!a`, and unfolding the
# replica under the input prefix first yields `!a!a | a!a`
L2STAR_UNFOLDING_TERMS = [
    "(nu c)(c!a | c?(a).!a!a)",
    "(nu b)(b!b | b?(c).a?(c).!(nu b)(nu b)c?(a).0)",
]


@pytest.mark.parametrize("text", L2STAR_UNFOLDING_TERMS)
@pytest.mark.parametrize("depth", [1, 4])
def test_lemma_l2star_matches_closures_up_to_one_unfolding(text, depth):
    rep = check_lemma("l2star", parse_term(text), depth=depth)
    assert rep.passed, rep.details


def test_lemma_l2star_passes_on_replicated_async_corpus():
    cfg = GenConfig(seed=51, max_size=14, asynchronous=True, communication_bias=0.9)
    for term in generate_corpus(cfg, 400):
        for depth in (1, 4):
            rep = check_lemma("l2star", term, depth=depth)
            assert rep.passed, (render_term(term), depth, rep.details)


def test_completeness_boudol_three_steps():
    rep = check_completeness(Boudol, COMM)
    assert rep.passed
    assert [r["path_length"] for r in rep.details["reducts"]] == [3]


def test_completeness_ht_two_steps():
    rep = check_completeness(HondaTokoro, COMM)
    assert rep.passed
    assert [r["path_length"] for r in rep.details["reducts"]] == [2]


def test_completeness_vacuous():
    rep = check_completeness(Boudol, parse_term("x!z"))
    assert rep.passed
    assert rep.details["reducts"] == []


def test_criterion_i_fails_for_nonprompt_encodings():
    for scheme in (Boudol, HondaTokoro):
        rep = check_soundness(Criterion("i"), scheme, COMM, 4)
        assert rep.status == "fail", rep.details


def test_criterion_s_satisfied():
    rep = check_soundness(Criterion("s"), Boudol, COMM, 4)
    assert rep.passed, rep.details


def test_criterion_w_satisfied_with_srwrb():
    for scheme in (Boudol, HondaTokoro):
        rep = check_soundness(Criterion("w"), scheme, COMM, 6)
        assert rep.passed, rep.details


def test_criterion_g_satisfied():
    rep = check_soundness(Criterion("g"), Boudol, COMM, 6)
    assert rep.passed, rep.details


def test_criterion_w_report_invariant_under_renaming():
    # Criterion w stops at the first source image related to a target, and
    # tries the images in BFS order, which follows the rendered text of the
    # reducts; so how many `check_bisim` calls run depends on how the names
    # are spelled (ROADMAP item 6), but the report must not
    texts = ("z!e.(z?(e).z?(e).0 | z!s.z!e) | z?(e).z!e.(0 | ok)",
             "l!b.(l?(b).l?(b).0 | l!c.l!b) | l?(b).l!b.(0 | ok)")
    a, b = (check_soundness(Criterion("w"), HondaTokoro, parse_term(t), 4) for t in texts)
    assert a.status == b.status == "unknown"
    assert a.details["targets"] == b.details["targets"] == 16
    assert len(a.details["undecided"]) == len(b.details["undecided"]) == 1


@pytest.mark.parametrize("scheme", [Boudol, HondaTokoro])
def test_soundness_miss_past_the_source_bound_is_undecided(scheme):
    # ROADMAP item 7, mutant M7: at depth 1 one target's match is a source
    # state past the source bound, so s, w and g leave that target
    # undecided; a rule that ignores the source frontier makes it an s
    # failure.  At depth 2, s and g find the match
    term = parse_term("c!a.(b?(a).0 | b!a) | c?(c).0")
    s = check_soundness(Criterion("s"), scheme, term, 1)
    assert len(s.details["undecided"]) == 1
    for tag in "swg":
        rep = check_soundness(Criterion(tag), scheme, term, 1)
        assert rep.status == "unknown" and not rep.details["failures"], tag
        assert set(s.details["undecided"]) <= set(rep.details["undecided"]), tag
    for tag in "sg":
        assert check_soundness(Criterion(tag), scheme, term, 2).passed, tag


@pytest.mark.parametrize("scheme", [Boudol, HondaTokoro])
def test_completeness_match_cut_off_by_its_bound_is_undecided(scheme, monkeypatch):
    # ROADMAP item 7, mutant M9: a cp reduct whose match checks all say
    # unknown is undecided, and only one whose checks all say not_related
    # fails.  No natural instance is known, so the checks are patched
    term = parse_term("x!z | x?(y).0")
    crit = Criterion("cp", SRWRB)
    monkeypatch.setattr(correspondence, "check_bisim", lambda *a: Verdict("unknown"))
    rep = check_soundness(crit, scheme, term, 2)
    assert rep.status == "unknown", rep.details
    assert [r["path_length"] for r in rep.details["reducts"]] == [None]
    monkeypatch.setattr(correspondence, "check_bisim", lambda *a: Verdict("not_related"))
    assert check_soundness(crit, scheme, term, 2).status == "fail"


def _guardedness(p, guarded=False) -> list:
    """Whether each replication in p sits under a prefix."""
    match p:
        case Repl(body):
            return [guarded] + _guardedness(body, guarded)
        case Par(left, right):
            return _guardedness(left, guarded) + _guardedness(right, guarded)
        case Restrict(_, body):
            return _guardedness(body, guarded)
        case Output(_, _, cont) | Input(_, _, cont):
            return _guardedness(cont, True)
    return []


def _w_and_cp_games(scheme, term, depth) -> list:
    """The (kind, pairs, depth) of one game over every pair a criterion w
    report checks, (target, source image), and one over every pair a
    `Criterion("cp", SRWRB)` report checks, (reached state, reduct image)."""
    factor = scheme.protocol_steps
    images = [_encode(scheme, s) for s in build_fragment(term, depth, universe=None).states]
    targets = build_fragment(encode(scheme, term), factor * depth, universe=None).states
    reached = build_fragment(encode(scheme, term), factor, universe=None).states
    reducts = [_encode(scheme, s) for s in reduce_once(normalize(term))]
    return [(SRWRB, [(t, img) for t in targets for img in images], depth),
            (SRWRB, [(u, r) for r in reducts for u in reached], _MATCH_DEPTH)]


def test_shared_game_keeps_every_definite_per_pair_status(monkeypatch):
    # `relate` plays one game over every pair it is given: criterion g asks
    # it once per report, and the pairs of w and cp reports are built here.
    # A status a per-pair `check_bisim` decides must come out the same, and
    # one that only the shared game decides must be the naive fixpoint
    # oracle's wherever the oracle's tau graph closes.  The replicated
    # corpus keeps its terms with a reduction and only guarded replication
    # (on a top-level one, cp and g run for minutes: ROADMAP item 5), at
    # depth 2, where per-pair checks leave some of its pairs undecided
    calls = []
    relate = correspondence.relate

    def recording(kind, pairs, depth):
        pairs = list(pairs)
        calls.append((kind, pairs, depth, relate(kind, pairs, depth)))
        return calls[-1][-1]

    monkeypatch.setattr(correspondence, "relate", recording)
    suite = generate_corpus(GenConfig(seed=3, max_size=16, communication_bias=0.9,
                                      insert_success_probability=0.2,
                                      allow_replication=False), 100)
    replicated = [
        t for t in generate_corpus(GenConfig(seed=7, max_size=12, communication_bias=0.9), 600)
        if reduce_once(normalize(t)) and _guardedness(t) and all(_guardedness(t))
    ]
    assert len(replicated) >= 10
    checked = {4: 0, 2: 0}  # decided only by the shared game, per corpus depth
    for term, depth in [*((t, 4) for t in suite), *((t, 2) for t in replicated)]:
        with memo.job():
            for scheme in (Boudol, HondaTokoro):
                calls.clear()
                check_soundness(Criterion("g"), scheme, term, depth)
                assert len(calls) == 1, render_term(term)
                games = calls + [(kind, pairs, d, relate(kind, pairs, d))
                                 for kind, pairs, d in _w_and_cp_games(scheme, term, depth)]
                for kind, pairs, game_depth, statuses in games:
                    for (p, q), status in zip(pairs, statuses):
                        alone = check_bisim(kind, p, q, game_depth).status
                        if alone != "unknown":
                            assert status == alone, (render_term(p), render_term(q), alone)
                        elif status != "unknown":
                            want = oracle_bisim(kind.kind, p, q, repl_unfolds=2, cap=300)
                            if want is not None:
                                checked[depth] += 1
                                assert status == ("related" if want else "not_related"), (
                                    render_term(p), render_term(q), status)
    assert checked[4] > 100 and checked[2] > 20, checked


def test_criterion_c_exact_completeness():
    rep = check_soundness(Criterion("c"), Boudol, COMM, 4)
    assert rep.passed


def test_success_sensitiveness_examples():
    rep = check_success_sensitiveness(Boudol, parse_term("x!z.ok | x?(y).0"), 4)
    assert rep.passed
    assert rep.details["source_succeeds"] and rep.details["target_succeeds"]
    rep = check_success_sensitiveness(HondaTokoro, parse_term("ok"), 4)
    assert rep.passed
    rep = check_success_sensitiveness(Boudol, parse_term("x!z.ok"), 4)
    assert rep.passed
    assert not rep.details["source_succeeds"]
    assert not rep.details["target_succeeds"]


def test_name_invariance_identity():
    rep = check_name_invariance(Boudol, COMM, {})
    assert rep.passed


def test_name_invariance_swap_exact():
    rep = check_name_invariance(Boudol, parse_term("x!z | y?(w).0"), {x: y, y: x})
    assert rep.passed
    assert rep.instance["injective"]


def test_name_invariance_collapse_semantic():
    rep = check_name_invariance(Boudol, parse_term("x!z | y?(w).0"), {y: x}, depth=8)
    assert not rep.instance["injective"]
    assert rep.passed, rep.details


def test_name_invariance_rejects_reserved():
    with pytest.raises(ValueError):
        check_name_invariance(Boudol, COMM, {x: Name("u1", reserved=True)})


def test_compositionality_regimes():
    rep = check_compositionality(Boudol, Op("par"), (parse_term("x!a"), parse_term("y?(q).0")))
    assert rep.passed and rep.details["exact_with_n_context"]
    rep = check_compositionality(Boudol, Op("nil"), ())
    assert rep.passed
    # engineered collision: default context would capture the argument
    coll = parse_term("%u1!a", allow_reserved=True)
    rep = check_compositionality(Boudol, Op("output", (x, z)), (coll,))
    assert rep.passed
    assert not rep.details["exact_with_default_context"]
    assert rep.details["alpha_with_default_context"]


def test_divergence_reflection_and_preservation_examples():
    bang = parse_term("!(x!a | x?(y).0)")
    assert diverges(bang, 6).status == "yes"
    for scheme in (Boudol, HondaTokoro):
        assert diverges(encode(scheme, bang), 6).status == "yes"
    cfg = GenConfig(seed=54, max_size=8, allow_replication=False, communication_bias=0.6)
    for term in generate_corpus(cfg, 25):
        assert diverges(term, 12).status == "no"
        for scheme in (Boudol, HondaTokoro):
            assert diverges(encode(scheme, term), 16).status == "no"


# each check on the corpus below, and the status every term must get
# (criterion i, the strictest, fails on some of them)
UNFOLDING_CHECKS = {
    "s": (lambda t: check_soundness(Criterion("s"), Boudol, t, 3), "pass"),
    "c": (lambda t: check_soundness(Criterion("c"), Boudol, t, 3), "pass"),
    "i": (lambda t: check_soundness(Criterion("i"), Boudol, t, 3), None),
    "l6": (lambda t: check_lemma("l6", t, depth=3), "pass"),
}


@pytest.mark.parametrize("check", list(UNFOLDING_CHECKS))
def test_check_builds_each_terms_unfoldings_once(monkeypatch, check):
    # every comparison up to one unfolding goes through `congruence._variants`,
    # the one table of unfoldings, keyed by normal form; in `congruence` only
    # `_variants` unfolds, so with the tables emptied before each term every
    # outermost call of `unfold_once` is one build, and unfolds a normal form
    roots = []
    unfold_once = congruence.unfold_once
    nested = 0

    def counting(p):
        nonlocal nested
        if not nested:
            roots.append(p)
        nested += 1
        try:
            return unfold_once(p)
        finally:
            nested -= 1

    monkeypatch.setattr(congruence, "unfold_once", counting)
    run, status = UNFOLDING_CHECKS[check]
    cfg = GenConfig(seed=3, max_size=10, communication_bias=0.9)
    built = 0
    # two independent redexes: each image reduct meets every source image
    two_redexes = parse_term("x!a | x?(y).0 | z!b | z?(w).0")
    for t in [*generate_corpus(cfg, 40), two_redexes]:
        memo.clear()
        roots.clear()
        assert status in (None, run(t).status)
        assert len(roots) == len(set(roots)), render_term(t)
        assert all(normalize(r) is r for r in roots), render_term(t)
        built += len(roots)
    assert built > 0
