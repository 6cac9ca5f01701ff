import itertools
import random
from collections import Counter

import pytest

from _oracle import enum_terms, oracle_bisim
from test_correspondence import _guardedness
from test_semantics import _labelled
from piworkbench import equivalences
from piworkbench.congruence import normalize
from piworkbench.encodings import Boudol, HondaTokoro, encode
from piworkbench.equivalences import (AWBB, EWB, KINDS, SRWRB, WAB, WBB, WCB,
                                      WOT, RelationKind, audit_relation,
                                      check_bisim, relate, saturate)
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.semantics import FreeOutput, build_fragment
from piworkbench.syntax import Name, _free, names, substitute_all
from piworkbench.text import parse_term, render_term

x, z = Name("x"), Name("z")
XZ = parse_term("x!z")


def test_kind_validation():
    with pytest.raises(ValueError):
        RelationKind("nope")
    with pytest.raises(ValueError):
        RelationKind("ewb", branching=True)
    assert RelationKind("wbb").reduction_based


def test_saturate_trivial_fragment():
    sat = saturate(_labelled(parse_term("0"), 3))
    assert sat.tau_closure[0] == (frozenset({0}), True)
    assert sat.weak_moves[0] == ((), True)
    sat = saturate(build_fragment(parse_term("0"), 3, universe=None))
    assert sat.tau_closure[0] == (frozenset({0}), True)
    assert sat.weak_moves is None


def test_weak_moves_are_incomplete_when_a_target_closure_is_cut_off():
    # ROADMAP item 7, mutant M6: at depth 1 the tau step after a!b is not
    # explored, so the weak a!b moves of the root are cut off; a mutant that
    # reads only the root's own closure calls them complete
    sat = saturate(_labelled(parse_term("a!b.(x!y | x?(z).0)"), 1))
    assert sat.weak_moves[0][1] is False


def test_saturate_weak_edge_through_tau():
    # a --tau--> . --x!z--> . gives a weak x!z move from the root
    p = parse_term("y!a | y?(q).x!z")
    moves, complete = saturate(_labelled(p, 4)).weak_moves[0]
    assert complete
    assert any(lab == FreeOutput(x, z) for lab, _ in moves)


def test_saturate_boudol_weak_bound_output():
    moves, _ = saturate(_labelled(encode(Boudol, XZ), 4, 3)).weak_moves[0]
    assert any(type(lab).__name__ == "BoundOutput" and lab.chan == x for lab, _ in moves)


def test_wbb_boudol_valid():
    v = check_bisim(WBB, XZ, encode(Boudol, XZ), 8)
    assert v.is_related
    assert audit_relation(WBB, XZ, encode(Boudol, XZ), 8, v.relation) == ()


def test_ewb_boudol_not_valid_with_input_witness():
    v = check_bisim(EWB, XZ, encode(Boudol, XZ), 8)
    assert v.is_not_related
    assert v.witness.category == "input-move"
    assert v.witness.side == "right"
    assert "?" in v.witness.label


def test_wot_boudol_free_vs_bound_output_witness():
    v = check_bisim(WOT, XZ, encode(Boudol, XZ), 8)
    assert v.is_not_related
    assert v.witness.category == "output-move"
    assert v.witness.label == "x!z"
    assert any(lab.startswith("x!(") for lab in v.witness.near_miss)


def test_awbb_ht_not_valid_missing_output_barb():
    v = check_bisim(AWBB, XZ, encode(HondaTokoro, XZ), 8)
    assert v.is_not_related
    assert v.witness.category == "barb"
    assert v.witness.label == "out x"


def test_wcb_ht_valid():
    assert check_bisim(WCB, XZ, encode(HondaTokoro, XZ), 8).is_related


def test_wbb_ht_not_valid():
    assert check_bisim(WBB, XZ, encode(HondaTokoro, XZ), 8).is_not_related


def test_srwrb_both_schemes_valid_on_example():
    src = parse_term("x!z.ok | x?(y).0")
    for scheme in (Boudol, HondaTokoro):
        assert check_bisim(SRWRB, src, encode(scheme, src), 10).is_related


def test_wab_async_buffering_law():
    # 0 and x(y).x!y are weak asynchronous bisimilar but not EWB
    buf = parse_term("x?(y).x!y")
    assert check_bisim(WAB, parse_term("0"), buf, 6).is_related
    v = check_bisim(EWB, parse_term("0"), buf, 6)
    assert v.is_not_related
    assert v.witness.category == "input-move"


def test_reflexivity_all_kinds():
    terms = [
        parse_term("x?(y).(y!a | ok) | x!b | (nu q)(q!c | q?(r).0)"),
        parse_term("!(x!a | x?(y).0)"),  # unbounded tau graph
    ]
    for p in terms:
        for kind in (EWB, WOT, WAB, WBB, AWBB, WCB, SRWRB):
            assert check_bisim(kind, p, p, 6).is_related, kind.kind


def test_symmetry_of_verdicts():
    pairs = [
        (XZ, encode(Boudol, XZ)),
        (XZ, encode(HondaTokoro, XZ)),
        (parse_term("0"), parse_term("x?(y).x!y")),
        (parse_term("x!a | x?(y).0"), parse_term("x!a.x?(y).0")),
    ]
    for kind in (EWB, WOT, WAB, WBB, AWBB, WCB, SRWRB):
        for p, q in pairs:
            assert (
                check_bisim(kind, p, q, 8).status == check_bisim(kind, q, p, 8).status
            ), (kind.kind, render_term(p), render_term(q))


def test_divergence_preserving_flag():
    dloop = parse_term("!(x!a | x?(y).0)")
    quiet = parse_term("(nu q)(q!a | q?(r).0)")  # one tau then stuck
    # the replicated side's tau graph keeps growing, so the plain check
    # can only say unknown at a bounded depth
    assert check_bisim(SRWRB, quiet, dloop, 6).is_unknown
    # ... but the divergence disagreement is definite evidence
    divk = RelationKind("srwrb", divergence_preserving=True)
    v = check_bisim(divk, quiet, dloop, 6)
    assert v.status == "not_related"
    assert v.witness.category == "divergence"
    assert check_bisim(divk, dloop, dloop, 6).is_related


def test_branching_variant_still_validates_boudol():
    src = parse_term("x!z.ok | x?(y).0")
    br = RelationKind("srwrb", branching=True)
    assert check_bisim(br, src, encode(Boudol, src), 10).is_related
    brdiv = RelationKind("srwrb", divergence_preserving=True, branching=True)
    assert check_bisim(brdiv, src, encode(Boudol, src), 10).is_related


def test_branching_distinguishes_committing_stutter():
    # a!a + internal choice shape: branching is strictly finer than weak;
    # the classic counterexample needs choice, so here we only check that
    # branching never relates terms weak rejects
    p = parse_term("x!a | x?(y).ok")
    q = parse_term("ok")
    br = RelationKind("srwrb", branching=True)
    assert check_bisim(br, p, q, 6).status == check_bisim(SRWRB, p, q, 6).status


def test_unknown_when_frontier_blocks():
    # replicated terms at tiny depth: tau graph cannot close
    p = parse_term("!(x!a | x?(y).0)")
    q = parse_term("!(x!a | x?(y).0) | x!a")
    v = check_bisim(WBB, p, q, 1)
    assert v.is_unknown


def test_ewb_approximation_note_present():
    v = check_bisim(EWB, XZ, XZ, 4)
    assert v.approximations


def test_identity_verdicts_pass_audit_for_every_kind():
    # alpha-variants share a normal form, so the check takes the identity path
    pairs = [
        ("x?(y).y?(z).z!y", "x?(u).u?(v).v!u"),
        ("x?(y).(nu a)(y!a | a?(u).x!u)", "x?(w).(nu b)(w!b | b?(c).x!c)"),
        ("!(x!a | x?(y).0) | y?(z).z!a", "y?(c).c!a | !(x?(q).0 | x!a)"),
    ]
    for left, right in pairs:
        p, q = parse_term(left), parse_term(right)
        assert normalize(p) == normalize(q)
        for kind in KINDS:
            variants = [RelationKind(kind), RelationKind(kind, divergence_preserving=True)]
            if kind in ("wbb", "awbb", "wcb", "srwrb"):
                variants.append(RelationKind(kind, branching=True))
            for rk in variants:
                v = check_bisim(rk, p, q, 4)
                assert v.is_related, (left, rk)
                assert audit_relation(rk, p, q, 4, v.relation) == (), (left, rk)


def test_related_relations_pass_audit():
    cfg = GenConfig(seed=41, max_size=6, allow_replication=False,
                    communication_bias=0.7)
    for term in generate_corpus(cfg, 15):
        for kind in (WBB, WCB, SRWRB):
            v = check_bisim(kind, term, encode(Boudol, term), 10)
            if v.is_related:
                assert audit_relation(kind, term, encode(Boudol, term), 10, v.relation) == ()


def test_hierarchy_no_inversions_small():
    cfg = GenConfig(seed=42, max_size=6, allow_replication=False,
                    communication_bias=0.6)
    corpus = generate_corpus(cfg, 12)
    chains = [("ewb", "wab"), ("wab", "wot"), ("wot", "awbb"),
              ("ewb", "wbb"), ("wbb", "awbb"), ("wbb", "wcb")]
    pairs = [(t, encode(Boudol, t)) for t in corpus]
    pairs += list(zip(corpus, corpus[1:]))
    for p, q in pairs:
        verdicts = {k: check_bisim(RelationKind(k), p, q, 10).status
                    for k in ("ewb", "wab", "wot", "awbb", "wbb", "wcb")}
        for finer, coarser in chains:
            if verdicts[finer] == "related":
                assert verdicts[coarser] == "related", (
                    render_term(p), render_term(q), finer, coarser, verdicts)


def test_checker_agrees_with_naive_fixpoint_oracle():
    pool = [Name(c) for c in "ab"]
    terms = enum_terms(3, pool)[:40]
    cfg = GenConfig(seed=43, max_size=6, allow_replication=False,
                    communication_bias=0.8, name_pool=2,
                    insert_success_probability=0.2)
    active = list(generate_corpus(cfg, 12))
    sample = terms[:10] + active
    for kind in ("wbb", "awbb", "wcb", "srwrb"):
        for p, q in itertools.product(sample, repeat=2):
            got = check_bisim(RelationKind(kind), p, q, 12)
            want = oracle_bisim(kind, p, q)
            assert got.status == ("related" if want else "not_related"), (
                kind, render_term(p), render_term(q), got.status, want)


def test_engine_builds_obligations_only_near_the_root(monkeypatch):
    built = []
    build = equivalences._build_engine

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(equivalences, "_build_engine", recording)
    anchor = parse_term("b!b.b!b | b?(c).c!b | b?(c).c!a.c!b")
    v = check_bisim(EWB, anchor, encode(Boudol, anchor), 4)
    assert v.is_not_related and v.witness.category == "input-move"
    (eng,) = built
    assert len(eng.table) * 10 < len(eng.fa.states) * len(eng.fb.states)


def _reachable_pairs(eng) -> set:
    """Pairs reachable from the root pair through the pairs clauses name."""
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        obs = eng.obligations(stack.pop())
        for q in equivalences._named_pairs((clause for clause, _ in obs), set()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def test_related_relations_stay_within_the_root_closure():
    cfg = GenConfig(seed=44, max_size=6, allow_replication=False,
                    communication_bias=0.8, insert_success_probability=0.2)
    related = 0
    for term in generate_corpus(cfg, 12):
        for scheme in (Boudol, HondaTokoro):
            image = encode(scheme, term)
            for kind in (WAB, WOT, WBB, WCB, SRWRB, RelationKind("wbb", branching=True)):
                v = check_bisim(kind, term, image, 6)
                if not v.is_related or normalize(term) == normalize(image):
                    continue
                related += 1
                fresh = equivalences._build_engine(kind, [(term, image)], 6)
                reach = {(fresh.fa.states[i], fresh.fb.states[j])
                         for i, j in _reachable_pairs(fresh)}
                assert (fresh.fa.states[0], fresh.fb.states[0]) in v.relation
                assert set(v.relation) <= reach
                assert audit_relation(kind, term, image, 6, v.relation) == ()
    assert related > 20


_FAIL, _TAINT, _OK = equivalences._FAIL, equivalences._TAINT, equivalences._OK


def _reading(clause, live) -> int:
    """A clause's value with every pair of `live` matched and any other
    pair failed: the two-valued reading of a refinement that removes pairs."""
    if isinstance(clause, int):
        return clause
    if type(clause) is tuple:
        return _OK if clause in live else _FAIL
    values = [_reading(part, live) for part in clause]
    if isinstance(clause, equivalences._Any):
        return max(values, default=_FAIL)
    return min(values, default=_OK)


def _sweep_every_pair(eng, live: set, strict: bool) -> tuple:
    """Reference refinement: sweep the pairs of `live` in sorted order, as
    often as a sweep removes something, removing a pair when one of its
    clauses fails (or, when strict, falls short of `_OK`); returns the pairs
    left and the blames of each removed pair."""
    live = set(live)
    blames = {}
    changed = True
    while changed:
        changed = False
        for pair in sorted(live):
            values = [_reading(clause, live) for clause, _ in eng.table[pair]]
            fails = tuple(blame for (_, blame), v in zip(eng.table[pair], values) if v == _FAIL)
            if fails or (strict and _TAINT in values):
                live.discard(pair)
                blames[pair] = fails
                changed = True
    return live, blames


def _random_clause(rng, pairs: list, depth: int):
    """A random clause: a pair, a value, or any-of / all-of nodes over
    random clauses, nested at most `depth` deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return rng.choice(pairs)
    if roll < 0.6:
        return rng.choice((_FAIL, _TAINT, _OK))
    node = rng.choice((equivalences._Any, equivalences._All))
    return node(_random_clause(rng, pairs, depth - 1) for _ in range(rng.randint(0, 3)))


def _random_rules(rng, n):
    """Random obligations for each of n x n pairs."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rules = {}
    for pair in pairs:
        obs = [(_TAINT, None)] if rng.random() < 0.15 else []
        for k in range(rng.randint(0, 3)):
            blame = equivalences.Blame("left", "tau-move", k)
            obs.append((_random_clause(rng, pairs, rng.randint(0, 3)), blame))
        rules[pair] = tuple(obs)
    return rules


def _random_game(rules):
    """An engine that builds its obligations from `rules`."""
    eng = object.__new__(equivalences._Engine)
    eng._pair_obligations = lambda side, x, y: rules[x, y] if side == "left" else ()
    eng.table, eng.status, eng.blames = {}, {}, {}
    return eng


def test_refine_in_batches_matches_sweeps_over_every_pair():
    # the reference is a loose pass, where a pair not removed counts as a
    # match, then a strict one over its survivors: a pair is `_FAIL` when
    # the loose pass removed it, with the blames it recorded, `_OK` when the
    # strict pass kept it, and `_TAINT` otherwise
    rng = random.Random(45)
    for _ in range(400):
        rules = _random_rules(rng, rng.randint(2, 6))
        everything = _random_game(rules)
        everything.explore(rules)
        loose, want_blames = _sweep_every_pair(everything, set(rules), strict=False)
        strict, _ = _sweep_every_pair(everything, loose, strict=True)
        want = {pair: _OK if pair in strict else _TAINT if pair in loose else _FAIL
                for pair in rules}
        # settle a few roots at a time, as the verdict and witness passes do;
        # each explored pair has the status and blames of sweeps over all
        eng = _random_game(rules)
        order = list(rules)
        rng.shuffle(order)
        while order:
            eng.settle([order.pop() for _ in range(min(len(order), rng.randint(1, 4)))])
            assert eng.status == {pair: want[pair] for pair in eng.table}
            assert eng.blames == {p: b for p, b in want_blames.items() if p in eng.table}
        assert eng.table.keys() == rules.keys()


def test_bound_outputs_on_different_channels_are_told_apart():
    # ROADMAP item 7, mutant M1: a bound output must be matched by a bound
    # output on the same channel; dropping the channel test relates these
    # two, and the self-audit, which replays the same obligations, agrees
    p, q = parse_term("(nu z)a!z"), parse_term("(nu z)b!z")
    for kind in (EWB, WOT, WAB):
        v = check_bisim(kind, p, q, 4)
        assert v.is_not_related, (kind.kind, v.status)
        assert v.witness.category == "output-move", (kind.kind, v.witness)


def test_cut_off_weak_moves_keep_an_ewb_check_unknown():
    # ROADMAP item 7, mutant M6: at depth 2 some weak moves are cut off
    # behind a visible move, so the check cannot be decided; counting them
    # complete makes it `not_related`
    term = parse_term("a?(a).a!b.a!a")
    assert check_bisim(EWB, term, encode(Boudol, term), 2).is_unknown


def test_audit_relation_rejects_a_depth_below_one():
    # at depth 0 no pair has a clause, so any relation would pass vacuously
    image = parse_term("(nu u)(x!u | u?(v).(v!z | 0))")
    relation = check_bisim(WBB, XZ, image, 8).relation
    for depth in (0, -3):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            audit_relation(WBB, XZ, image, depth, relation)


def test_definite_verdicts_stay_put_as_the_depth_grows():
    # ROADMAP item 7: a deeper fragment holds every state of a shallower
    # one, so once a verdict is definite it is the answer at every larger
    # depth; a mutant that treats a barb missing from a cut-off weak-barb
    # search as a definite failure (M5) breaks this on three terms
    cfg = GenConfig(seed=7, max_size=10, communication_bias=0.6, allow_replication=True)
    cases = ((EWB, Boudol), (WOT, Boudol), (EWB, HondaTokoro), (WAB, HondaTokoro),
             (WBB, Boudol))
    for term in generate_corpus(cfg, 150):
        for kind, scheme in cases:
            image = encode(scheme, term)
            definite = None
            for depth in (2, 3, 5):
                status = check_bisim(kind, term, image, depth).status
                if definite is not None:
                    assert status == definite, (
                        kind.kind, scheme.tag, render_term(term), depth, status, definite)
                elif status != "unknown":
                    definite = status


def test_label_kinds_relate_each_pair_alone(monkeypatch):
    # a label kind's universe depends on the pair's terms, and a shared
    # fragment could turn a per-pair `related` into `unknown` (see
    # `relate`), so each pair plays alone and gets `check_bisim`'s status;
    # the reduction kinds play every pair in one game
    sizes = []
    build = equivalences._build_engine

    def recording(kind, pairs, depth):
        sizes.append(len(pairs))
        return build(kind, pairs, depth)

    monkeypatch.setattr(equivalences, "_build_engine", recording)
    cfg = GenConfig(seed=3, max_size=12, communication_bias=0.9, allow_replication=False)
    decided = 0
    for term in generate_corpus(cfg, 20):
        for scheme in (Boudol, HondaTokoro):
            pairs = [(u, v) for u in build_fragment(term, 1, universe=None).states
                     for v in build_fragment(encode(scheme, term), 2, universe=None).states]
            for kind in (EWB, WOT, WAB, WBB):
                sizes.clear()
                statuses = relate(kind, pairs, 3)
                if kind.reduction_based:
                    assert len(sizes) <= 1
                    continue
                assert set(sizes) <= {1}
                alone = [check_bisim(kind, p, q, 3).status for p, q in pairs]
                assert list(statuses) == alone, (kind.kind, render_term(term))
                decided += sum(s != "unknown" for s in alone)
    assert decided > 100, decided


def _pair_leaves(clause):
    """Every pair a clause names, once per place it is named."""
    if type(clause) is tuple:
        yield clause
    elif not isinstance(clause, int):
        for part in clause:
            yield from _pair_leaves(part)


def test_each_pair_is_one_object_in_its_game(monkeypatch):
    # the tables, the roots and every clause that names a pair share its one
    # tuple, and every tau move of a side shares one blame; the ewb anchor
    # is refuted, so the witness walk adds pairs too
    engines, roots = [], []
    build, decide = equivalences._build_engine, equivalences._Engine.decide

    def recording(*args):
        engines.append(build(*args))
        return engines[-1]

    def deciding(eng, rs):
        roots.append((eng, list(rs)))
        return decide(eng, rs)

    monkeypatch.setattr(equivalences, "_build_engine", recording)
    monkeypatch.setattr(equivalences._Engine, "decide", deciding)
    anchors = (
        (WBB, "!(nu a)(a?(c).(nu b)(b!a | b?(a).0) | a!b.a!a.c?(b).a!a)", 4, "unknown"),
        (EWB, "b!b.b!b | b?(c).c!b | b?(c).c!a.c!b", 4, "not_related"),
    )
    for kind, text, depth, status in anchors:
        engines.clear()
        roots.clear()
        term = parse_term(text)
        assert check_bisim(kind, term, encode(Boudol, term), depth).status == status
        (eng,) = engines
        (((_, rs),)) = roots
        one = eng.pairs
        assert all(one[pair] is pair for pair in rs)
        assert all(one[pair] is pair for pair in eng.table)
        assert all(one[pair] is pair for pair in eng.status)
        assert all(one[pair] is pair for pair in eng.blames)
        named = 0
        for obs in eng.table.values():
            for clause, blame in obs:
                for pair in _pair_leaves(clause):
                    assert one[pair] is pair
                    named += 1
                if blame is not None and blame.category == "tau-move":
                    assert blame is eng.tau_blame[blame.side]
        assert named > len(eng.table)


def _spelled_apart(term):
    """`term` with its free names renamed injectively to fresh user names,
    in the reverse of their sorted order."""
    free = sorted(_free(term))
    fresh = [Name(f"q{i}") for i in reversed(range(len(free)))]
    assert not set(fresh) & names(term)
    return substitute_all(term, dict(zip(free, fresh)))


def test_verdicts_do_not_depend_on_how_free_names_are_spelled():
    # ROADMAP item 6: an injective renaming of the free names keeps every
    # status, for every kind and against both images, over replication-free
    # terms and over replicated ones whose every replication is under a
    # prefix (on a top-level one, checks run far longer: ROADMAP item 5)
    plain = generate_corpus(GenConfig(seed=5, max_size=8, communication_bias=0.7,
                                      allow_replication=False), 30)
    replicated = [t for t in generate_corpus(GenConfig(seed=5, max_size=10,
                                                       communication_bias=0.7), 400)
                  if _guardedness(t) and all(_guardedness(t))]
    assert len(replicated) == 36
    statuses = Counter()
    for term in [*plain, *replicated]:
        renamed = _spelled_apart(term)
        for scheme in (Boudol, HondaTokoro):
            for k in KINDS:
                kind = RelationKind(k)
                want = check_bisim(kind, term, encode(scheme, term), 4).status
                got = check_bisim(kind, renamed, encode(scheme, renamed), 4).status
                assert got == want, (k, scheme.tag, render_term(term), render_term(renamed))
                statuses[want, term in replicated] += 1
    assert sum(statuses.values()) == (30 + 36) * 2 * len(KINDS)
    assert all(statuses[status, True] for status in ("related", "not_related", "unknown"))
