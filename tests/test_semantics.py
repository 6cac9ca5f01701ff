import random

import pytest

from _oracle import oracle_reducts, scramble
from piworkbench import semantics
from piworkbench.congruence import congruent, normalize
from piworkbench.encodings import Boudol, encode
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.observables import weak_barbs
from piworkbench.semantics import (BoundOutput, FreeOutput, InputLab, Tau,
                                   _steps, build_fragment, default_universe,
                                   diverges, label_bn, label_fn, reduce_once)
from piworkbench.syntax import Name, _free
from piworkbench.text import parse_term, render_term

x, z = Name("x"), Name("z")


def test_label_name_sets():
    assert label_fn(Tau()) == frozenset()
    assert label_fn(FreeOutput(x, z)) == {x, z}
    assert label_bn(FreeOutput(x, z)) == frozenset()
    assert label_fn(InputLab(x, z)) == {x}
    assert label_bn(InputLab(x, z)) == {z}
    assert label_bn(BoundOutput(x, z)) == {z}


def test_output_act():
    p = parse_term("x!z")
    steps = _steps(p, default_universe(p))
    assert steps == ((FreeOutput(x, z), normalize(parse_term("0"))),)


def test_bound_output_from_boudol_image():
    p = parse_term("(nu u)(x!u | u?(v).(v!z | 0))")
    steps = _steps(p, default_universe(p))
    assert len(steps) == 1
    lab, target = steps[0]
    assert isinstance(lab, BoundOutput) and lab.chan == x
    # target is the canonical form of (nu u)(0 | c(v).(v!z|0)) with c the
    # fresh representative carried by the label
    want = normalize(
        parse_term("(nu u)(0 | %w1?(v).(v!z | 0))", allow_reserved=True)
    )
    assert lab.datum == Name("w1", reserved=True)
    assert target == want


def test_no_transitions_for_nil():
    p = parse_term("0")
    assert _steps(p, default_universe(p)) == ()


def test_reduce_once_communication():
    got = reduce_once(parse_term("x!z | x?(y).y!w.0"))
    assert got == (normalize(parse_term("z!w")),)


def test_reduce_once_boudol_first_step():
    # T_B(x!z.P' | x?(y).Q') has the single reduct
    # (u)(u(v).(v!z | T(P')) | (v)(u!v | v(y).T(Q')))
    from piworkbench.syntax import NIL, Input, Output, Par, Restrict

    src = parse_term("x!z.p!a | x?(y).q!b")
    reducts = reduce_once(encode(Boudol, src))
    assert len(reducts) == 1
    u, v, y = Name("u"), Name("v"), Name("y")
    tp = encode(Boudol, parse_term("p!a"))
    tq = encode(Boudol, parse_term("q!b"))
    want = Restrict(
        u,
        Par(
            Input(u, v, Par(Output(v, z, NIL), tp)),
            Restrict(v, Par(Output(u, v, NIL), Input(v, y, tq))),
        ),
    )
    assert congruent(reducts[0], want, 0)


def test_reduce_once_empty():
    assert reduce_once(parse_term("0")) == ()


def _labelled(p, depth, extra=1):
    """The fragment of `p` over the free names of its normal form and
    `extra` fresh names."""
    return build_fragment(p, depth, universe=default_universe(normalize(p), extra))


def test_fragment_single_edge():
    frag = _labelled(parse_term("x!z"), 1)
    assert len(frag.states) == 2
    assert len(frag.transitions) == 1
    assert not frag.frontier


def test_fragment_boudol_chain():
    frag = _labelled(encode(Boudol, parse_term("x!z")), 3, 2)
    assert len(frag.states) == 4
    assert len(frag.transitions) == 3
    assert not frag.frontier
    kinds = [type(lab).__name__ for _, lab, _ in frag.transitions]
    assert kinds == ["BoundOutput", "InputLab", "FreeOutput"]


def test_fragment_trivial():
    frag = _labelled(parse_term("0"), 5)
    assert len(frag.states) == 1
    assert not frag.transitions
    assert not frag.frontier


def test_fragment_frontier_marks_horizon():
    p = parse_term("x!a | x?(y).(x!a | x?(q).x!b)")
    frag = build_fragment(p, 1, universe=None)
    assert frag.frontier


def test_fragment_from_several_roots():
    # a one-root tuple builds the one-root fragment; several roots start at
    # distance 0, and every caller states its universe
    p, q = parse_term("x!a | x?(y).y!b"), encode(Boudol, parse_term("x!z"))
    uni = default_universe(normalize(p)) | default_universe(normalize(q))
    for universe in (uni, None):
        assert build_fragment((p,), 2, universe=universe) == build_fragment(p, 2, universe=universe)
    both = build_fragment((p, q), 2, universe=None)
    assert both.states[:2] == [normalize(p), normalize(q)]
    assert both.dist[:2] == [0, 0] and both.universe is None
    assert set(build_fragment(q, 2, universe=None).states) <= set(both.states)
    labelled = build_fragment((p, q), 2, universe=uni)
    assert labelled.states[:2] == both.states[:2] and labelled.universe == uni
    with pytest.raises(TypeError):
        build_fragment(p, 2)


def test_diverges_nil():
    assert diverges(parse_term("0"), 5).status == "no"


def test_diverges_replicated_communication():
    d = diverges(parse_term("!(x!a | x?(y).0)"), 4)
    assert d.status == "yes"
    # a tau cycle: each state reduces to the next, the last to the first
    c = d.cycle
    assert c and all(b in reduce_once(a) for a, b in zip(c, c[1:] + c[:1]))


def test_diverges_finite_chain():
    assert diverges(parse_term("x!z | x?(y).y!w.0"), 3).status == "no"


def test_replication_free_terms_never_diverge():
    cfg = GenConfig(seed=5, max_size=9, allow_replication=False, communication_bias=0.6)
    for term in generate_corpus(cfg, 40):
        assert diverges(term, 12).status == "no"


def test_harmony_transitions_invariant_under_congruence():
    # P == Q (budget 0) implies matching labels with congruent targets
    rng = random.Random(21)
    cfg = GenConfig(seed=6, max_size=8, communication_bias=0.5)
    for term in generate_corpus(cfg, 25):
        q = scramble(term, rng, steps=4)
        uni = (_free(term) | _free(q)) | frozenset(
            [Name("hfresh"), Name("hfresh2")]
        )
        sp = _steps(term, uni)
        sq = _steps(q, uni)

        def keyed(steps):
            out = {}
            for lab, tgt in steps:
                if label_bn(lab):
                    key = (type(lab).__name__, lab.chan)
                else:
                    key = (type(lab).__name__,) + tuple(sorted(label_fn(lab)))
                out.setdefault(key, set()).add(tgt)
            return out

        kp, kq = keyed(sp), keyed(sq)
        assert set(kp) == set(kq), (render_term(term), render_term(q))
        for key, targets in kp.items():
            for t in targets:
                assert any(congruent(t, u, 1) for u in kq[key])


def test_reduce_once_agrees_with_reduction_oracle():
    # LTS tau-steps vs the reduction-axiom oracle (Harmony, clause 2)
    cfg = GenConfig(seed=8, max_size=9, allow_replication=False, communication_bias=0.7)
    for term in generate_corpus(cfg, 60):
        assert frozenset(reduce_once(normalize(term))) == oracle_reducts(
            term, repl_unfolds=0
        ), render_term(term)


def test_fresh_representative_stable_across_universe_extension():
    p = parse_term("x?(y).y!a")
    uni1 = default_universe(p, 1)
    uni2 = default_universe(p, 3)
    (l1, t1), = _steps(p, uni1)
    (l2, t2), = _steps(p, uni2)
    assert l1 == l2
    assert t1 == t2


def test_step_labels_invariant_under_fresh_choice():
    # a different fresh universe name yields the same transitions up to
    # renaming the label's bound name
    from piworkbench.syntax import substitute

    p = parse_term("x?(y).y!a | (nu u)(x!u | u?(v).0)")
    base = _steps(p, default_universe(p))
    odd = Name("odd_fresh")
    other = _steps(p, _free(p) | {odd})
    assert len(base) == len(other)
    for (la, ta), (lb, tb) in zip(base, other):
        assert type(la) is type(lb)
        if label_bn(la):
            assert la.chan == lb.chan
            assert normalize(substitute(tb, lb.datum, la.datum)) == ta
        else:
            assert (la, ta) == (lb, tb)


def test_tau_steps_are_derived_once_by_reduce_once(monkeypatch):
    # tau-only fragments, divergence and weak barbs all read the tau steps
    # that reduce_once cached; none of them derives them again
    p = parse_term("!(x!a | x?(y).y!b) | x?(z).z!c | b?(v).0")
    first = build_fragment(p, 4, universe=None)
    assert first.transitions == tuple(
        (i, a, j) for i, moves in enumerate(first.out) for a, j in moves)
    calls = []
    steps = semantics._steps

    def spy(*args, **kwargs):
        calls.append(args[0])
        return steps(*args, **kwargs)

    monkeypatch.setattr(semantics, "_steps", spy)
    assert build_fragment(p, 4, universe=None) == first
    assert diverges(p, 4).status == "unknown"
    barbs, exhaustive = weak_barbs(p, 4)
    assert barbs and not exhaustive
    assert calls == []
