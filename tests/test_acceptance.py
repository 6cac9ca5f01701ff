"""Acceptance suite: one test per criterion, each printing a PASS line.

Corpora are deterministic (seeded); where a criterion demands exact
verdicts the generated stream is filtered to terms whose bounded
fragments close (frontier-free), extending the stream as needed.
"""

import itertools

from _oracle import enum_terms, oracle_bisim
from piworkbench import memo
from piworkbench.congruence import congruent, normalize
from piworkbench.correspondence import (Criterion, check_completeness,
                                        check_compositionality,
                                        check_name_invariance,
                                        check_soundness, inert_steps)
from piworkbench.encodings import Boudol, HondaTokoro, Op, encode
from piworkbench.equivalences import (AWBB, EWB, SRWRB, WBB, WCB, WOT,
                                      RelationKind, check_bisim)
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.observables import CHAN, IN, OUT, Barb, strong_barbs
from piworkbench.semantics import build_fragment, default_universe, diverges, reduce_once
from piworkbench.syntax import Input, Name, Output, Par, Repl, Restrict
from piworkbench.text import parse_term, render_term

COMM = parse_term("x!z | x?(y).0")
XZ = parse_term("x!z")


def _corpus_where(count, predicate, **cfg_kwargs):
    n = count
    while True:
        terms = generate_corpus(GenConfig(**cfg_kwargs), n)
        picked = [t for t in terms if predicate(t)]
        if len(picked) >= count:
            return picked[:count]
        n *= 2


def _io_barbs(term):
    return {b for b in strong_barbs(term) if b.kind in (IN, OUT)}


def _closes(term, depth):
    return not build_fragment(term, depth, universe=None).frontier


def test_criterion_01_lemma_barbs():
    corpus = generate_corpus(
        GenConfig(seed=101, max_size=12, communication_bias=0.5,
                  insert_success_probability=0.1), 500)
    failures = [t for t in corpus if _io_barbs(t) != _io_barbs(encode(Boudol, t))]
    assert not failures, [render_term(t) for t in failures[:3]]
    print("\nACCEPTANCE 01 lemma-barbs (T_B preserves strong in/out barbs, 500 terms): PASS")


def test_criterion_02_channel_barbs_and_swap():
    corpus = generate_corpus(
        GenConfig(seed=101, max_size=12, communication_bias=0.5,
                  insert_success_probability=0.1), 500)
    for t in corpus:
        want = {b for b in strong_barbs(t) if b.kind == CHAN}
        have = {b for b in strong_barbs(encode(HondaTokoro, t)) if b.kind == CHAN}
        assert want == have, render_term(t)
    prefix_rooted = [t for t in corpus if isinstance(t, (Output, Input))]
    assert len(prefix_rooted) >= 50
    for t in prefix_rooted:
        image_barbs = strong_barbs(encode(HondaTokoro, t))
        if isinstance(t, Output):
            assert Barb(IN, t.chan) in image_barbs, render_term(t)
        else:
            assert Barb(OUT, t.chan) in image_barbs, render_term(t)
    print("ACCEPTANCE 02 channel barbs preserved by T_HT + barb swap on "
          f"{len(prefix_rooted)} prefix-rooted terms: PASS")


def test_criterion_03_appendix_chain():
    e0 = normalize(encode(Boudol, COMM))
    chain = [e0]
    for _ in range(3):
        reducts = reduce_once(chain[-1])
        assert len(reducts) == 1, [render_term(r) for r in reducts]
        chain.append(reducts[0])
    assert congruent(chain[3], encode(Boudol, parse_term("0 | 0")))
    assert inert_steps(chain[0]) == frozenset()
    assert chain[2] in inert_steps(chain[1])
    assert chain[3] in inert_steps(chain[2])
    print("ACCEPTANCE 03 appendix chain (3 reductions, steps 2-3 and only those inert): PASS")


def _has_restriction(t):
    match t:
        case Restrict(_, _):
            return True
        case Output(_, _, k) | Input(_, _, k) | Repl(k):
            return _has_restriction(k)
        case Par(l, r):
            return _has_restriction(l) or _has_restriction(r)
        case _:
            return False


def test_criterion_04_inert_lemmas():
    corpus = _corpus_where(
        300, _has_restriction,
        seed=104, max_size=10, asynchronous=True, communication_bias=0.8,
        weights={"output": 3.0, "input": 3.0, "par": 3.0, "restrict": 2.5, "repl": 0.4},
    )
    # single terms of size 10 rarely hold both an inert redex and an
    # independent one, which makes the L2 diamond vacuous; parallel
    # composites of corpus terms supply non-vacuous instances
    stream = generate_corpus(
        GenConfig(seed=104, max_size=8, asynchronous=True, communication_bias=0.8,
                  weights={"output": 3.0, "input": 3.0, "par": 4.0,
                           "restrict": 2.0, "repl": 0.3}), 800)
    inert_ready = [t for t in stream if inert_steps(t)]
    active = [t for t in stream if reduce_once(normalize(t))]
    composites = [Par(a, b) for a, b in zip(inert_ready, active)][:30]
    l1 = l2 = pb = 0
    for t in corpus + composites:
        nf = normalize(t)
        steps = inert_steps(t)
        reducts = reduce_once(nf)
        for q in steps:
            assert any(congruent(q, r) for r in reducts), (
                render_term(t), render_term(q))
            l1 += 1
            want = _io_barbs(nf)
            assert want <= _io_barbs(q), (render_term(t), render_term(q))
            pb += 1
            for p2 in reducts:
                if congruent(p2, q):
                    continue
                assert any(
                    congruent(q2, r)
                    for q2 in reduce_once(q)
                    for r in inert_steps(p2)
                ), (render_term(t), render_term(q), render_term(p2))
                l2 += 1
    assert l1 >= 60 and l2 >= 15 and pb >= 60
    print(f"ACCEPTANCE 04 lemmas 1/2/postponed-barbs on 300 async terms + "
          f"{len(composites)} composites (obligations: L1 {l1}, L2 {l2}, PB {pb}, "
          f"zero violations): PASS")


def test_criterion_05_operational_completeness():
    corpus = _corpus_where(
        200, lambda t: bool(reduce_once(normalize(t))),
        seed=105, max_size=8, communication_bias=0.8)
    with memo.job():
        for scheme, bound in ((Boudol, 3), (HondaTokoro, 2)):
            for t in corpus:
                rep = check_completeness(scheme, t)
                assert rep.passed, (scheme.tag, render_term(t), rep.details)
                assert all(r["path_length"] <= bound for r in rep.details["reducts"])
    print("ACCEPTANCE 05 completeness: every reduct of 200 source terms matched "
          "within 3 target steps (Boudol) / 2 (Honda-Tokoro): PASS")


def _exact_corpus(seed, count, depth, success=0.0, max_size=7):
    def ok(t):
        return _closes(t, depth) and all(
            _closes(encode(s, t), depth) for s in (Boudol, HondaTokoro))

    return _corpus_where(
        count, ok, seed=seed, max_size=max_size, allow_replication=False,
        communication_bias=0.6, insert_success_probability=success)


def test_criterion_06_wbb_validity_of_boudol():
    corpus = _exact_corpus(106, 100, 10)
    for t in corpus:
        v = check_bisim(WBB, t, encode(Boudol, t), 10)
        assert v.is_related, (render_term(t), v.status)
    print("ACCEPTANCE 06 weak barbed bisimilarity: T_B valid on 100 "
          "replication-free terms (exact, frontier-free): PASS")


def test_criterion_07_ewb_and_wot_counterexamples():
    v = check_bisim(EWB, XZ, encode(Boudol, XZ), 8)
    assert v.is_not_related
    assert v.witness.category == "input-move"
    assert "?" in v.witness.label
    w = check_bisim(WOT, XZ, encode(Boudol, XZ), 8)
    assert w.is_not_related
    assert w.witness.category == "output-move"
    assert w.witness.label == "x!z"
    assert any(n.startswith("x!(") for n in w.witness.near_miss)
    print("ACCEPTANCE 07 counterexamples: EWB rejects T_B with an unmatched "
          "input move; weak o-tau rejects with free-vs-bound output: PASS")


def test_criterion_08_awbb_wcb():
    v = check_bisim(AWBB, XZ, encode(HondaTokoro, XZ), 8)
    assert v.is_not_related
    assert v.witness.category == "barb" and v.witness.label == "out x"
    assert check_bisim(WCB, XZ, encode(HondaTokoro, XZ), 8).is_related
    corpus = _exact_corpus(106, 100, 10)
    for t in corpus:
        w = check_bisim(WCB, t, encode(HondaTokoro, t), 10)
        assert w.is_related, (render_term(t), w.status)
    print("ACCEPTANCE 08 asynchronous barbed rejects T_HT (missing out x); "
          "weak channel bisimilarity validates it on 100 terms: PASS")


def test_criterion_09_srwrb_and_soundness_ladder():
    corpus = _exact_corpus(109, 100, 10, success=0.3)
    for t in corpus:
        for scheme in (Boudol, HondaTokoro):
            v = check_bisim(SRWRB, t, encode(scheme, t), 10)
            assert v.is_related, (scheme.tag, render_term(t), v.status)
    wcrit = Criterion("w", SRWRB)
    for t in corpus:
        for scheme in (Boudol, HondaTokoro):
            rep = check_soundness(wcrit, scheme, t, 4)
            assert rep.passed, (scheme.tag, render_term(t), rep.details)
    for scheme in (Boudol, HondaTokoro):
        rep = check_soundness(Criterion("i"), scheme, COMM, 4)
        assert rep.status == "fail"
    print("ACCEPTANCE 09 success-respecting reduction bisimilarity validates both "
          "encodings (100 terms); criterion W satisfied, criterion I refuted: PASS")


def test_criterion_10_hierarchy():
    kinds = {k: RelationKind(k) for k in ("ewb", "wab", "wot", "awbb", "wbb", "wcb")}
    edges = [("ewb", "wab"), ("wab", "wot"), ("wot", "awbb"),
             ("ewb", "wbb"), ("wbb", "awbb"), ("wbb", "wcb")]

    def label_closes(t):
        return not build_fragment(t, 10, universe=default_universe(normalize(t), 10)).frontier

    corpus = _corpus_where(
        75, lambda t: label_closes(t) and all(
            label_closes(encode(s, t)) for s in (Boudol, HondaTokoro)),
        seed=110, max_size=6, allow_replication=False, communication_bias=0.6)
    pairs = [(t, encode(Boudol, t)) for t in corpus]
    pairs += list(zip(corpus, corpus[1:] + corpus[:1]))
    assert len(pairs) == 150
    checked = 0
    with memo.job():
        for p, q in pairs:
            verdicts = {k: check_bisim(kind, p, q, 10).status for k, kind in kinds.items()}
            for finer, coarser in edges:
                if verdicts[finer] == "related":
                    checked += 1
                    assert verdicts[coarser] == "related", (
                        render_term(p), render_term(q), finer, coarser, verdicts)
    print(f"ACCEPTANCE 10 hierarchy: no inversion across {len(pairs)} pairs "
          f"({checked} finer-implies-coarser obligations): PASS")


def test_criterion_11_divergence():
    corpus = generate_corpus(
        GenConfig(seed=111, max_size=8, allow_replication=False,
                  communication_bias=0.6), 100)
    for t in corpus:
        assert diverges(t, 30).status == "no", render_term(t)
        for scheme in (Boudol, HondaTokoro):
            assert diverges(encode(scheme, t), 30).status == "no", render_term(t)
    bang = parse_term("!(x!a | x?(y).0)")
    assert diverges(bang, 6).status == "yes"
    for scheme in (Boudol, HondaTokoro):
        assert diverges(encode(scheme, bang), 6).status == "yes"
    print("ACCEPTANCE 11 divergence: 100 replication-free terms and images all "
          "converge; replicated example and both images diverge by depth 6: PASS")


def test_criterion_12_oracle_agreement():
    pool = [Name("a"), Name("b")]
    small = enum_terms(3, pool)
    active = list(generate_corpus(
        GenConfig(seed=112, max_size=6, allow_replication=False, name_pool=2,
                  communication_bias=0.9, insert_success_probability=0.2), 40))
    pairs = [(p, q) for i, p in enumerate(small) for q in small[i:]]
    pairs += list(itertools.product(active, repeat=2))
    kinds = ("wbb", "awbb", "wcb", "srwrb")
    with memo.job():
        for kind in kinds:
            rk = RelationKind(kind)
            for p, q in pairs:
                got = check_bisim(rk, p, q, 12)
                want = oracle_bisim(kind, p, q)
                assert got.status == ("related" if want else "not_related"), (
                    kind, render_term(p), render_term(q), got.status, want)
    print(f"ACCEPTANCE 12 oracle agreement on {len(pairs)} term pairs x "
          f"{len(kinds)} kinds ({len(pairs) * len(kinds)} checks): PASS")


def test_criterion_13_compositionality_and_name_invariance():
    import random

    x, y, z = Name("x"), Name("y"), Name("z")
    corpus = generate_corpus(
        GenConfig(seed=113, max_size=7, communication_bias=0.5), 40)
    plain_ops = [Op("par"), Op("restrict", (y,)), Op("repl"), Op("nil")]
    for scheme in (Boudol, HondaTokoro):
        for op in plain_ops:
            args = tuple(corpus[: op.arity])
            rep = check_compositionality(scheme, op, args)
            assert rep.details["exact_with_n_context"], (scheme.tag, op.tag)
            assert rep.details["exact_with_default_context"], (scheme.tag, op.tag)
    prefix_ops = [Op("output", (x, z)), Op("input", (x, y))]
    for scheme in (Boudol, HondaTokoro):
        for op in prefix_ops:
            for arg in corpus[:10]:
                rep = check_compositionality(scheme, op, (arg,))
                assert rep.details["alpha_with_default_context"], (
                    scheme.tag, op.tag, render_term(arg))
            collider = parse_term("%u1!a | x?(q).%v1!q.0", allow_reserved=True)
            rep = check_compositionality(scheme, op, (collider,))
            assert rep.details["alpha_with_default_context"]
            assert not rep.details["exact_with_default_context"]
    rng = random.Random(113)
    pool = [Name(c) for c in "abcdexyzpqrs"]
    done = 0
    for t in corpus * 3:
        perm = pool[:]
        rng.shuffle(perm)
        sigma = {a: b for a, b in zip(pool, perm)}
        rep = check_name_invariance(Boudol, t, sigma)
        assert rep.instance["injective"]
        assert rep.passed, (render_term(t), rep.instance["sigma"])
        done += 1
        if done == 100:
            break
    assert done == 100
    print("ACCEPTANCE 13 compositionality regimes (exact for nil/par/restrict/repl, "
          "up-to-alpha for prefixes incl. engineered collision) and 100 injective "
          "renamings exact: PASS")
