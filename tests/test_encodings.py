import pytest

from piworkbench.encodings import (Boudol, Context, HondaTokoro, Op,
                                   apply_op, encode, encoding_context, fill,
                                   fresh_pair, scheme_from_string)
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.syntax import (NIL, OK, Hole, Input, Name, Output, Par,
                                Repl, Restrict, _free, alpha_eq, is_async,
                                substitute_all)
from piworkbench.text import parse_term, render_term

x, y, z = Name("x"), Name("y"), Name("z")
U1 = Name("u1", reserved=True)
V1 = Name("v1", reserved=True)


def test_boudol_output_clause():
    got = encode(Boudol, parse_term("x!z"))
    assert alpha_eq(got, parse_term("(nu u)(x!u | u?(v).(v!z | 0))"))
    assert render_term(got) == "(nu %u1)(x!%u1 | %u1?(%v1).(%v1!z | 0))"


def test_ht_output_clause():
    got = encode(HondaTokoro, parse_term("x!z"))
    assert alpha_eq(got, parse_term("x?(u).(u!z | 0)"))


def test_ht_input_clause():
    got = encode(HondaTokoro, parse_term("x?(y).0"))
    assert render_term(got) == "(nu %u1)(x!%u1 | %u1?(y).0)"


def test_boudol_input_clause():
    got = encode(Boudol, parse_term("x?(y).y!a"))
    want = parse_term("x?(u).(nu v)(u!v | v?(y).(nu w)(y!w | w?(q).(q!a | 0)))")
    assert alpha_eq(got, want)


def test_homomorphic_clauses():
    p, q = parse_term("x!a"), parse_term("y?(w).0")
    for scheme in (Boudol, HondaTokoro):
        assert encode(scheme, Par(p, q)) == Par(encode(scheme, p), encode(scheme, q))
        assert encode(scheme, Restrict(x, p)) == Restrict(x, encode(scheme, p))
        assert encode(scheme, Repl(p)) == Repl(encode(scheme, p))
        assert encode(scheme, NIL) == NIL
        assert encode(scheme, OK) == OK


def test_encode_rejects_reserved_names():
    bad = parse_term("%u1!a", allow_reserved=True)
    with pytest.raises(ValueError):
        encode(Boudol, bad)


def test_encoded_terms_are_asynchronous():
    cfg = GenConfig(seed=13, max_size=10, communication_bias=0.4,
                    insert_success_probability=0.2)
    for term in generate_corpus(cfg, 60):
        for scheme in (Boudol, HondaTokoro):
            assert is_async(encode(scheme, term))


def test_encoding_preserves_free_names():
    cfg = GenConfig(seed=14, max_size=10, communication_bias=0.4)
    for term in generate_corpus(cfg, 60):
        for scheme in (Boudol, HondaTokoro):
            assert _free(encode(scheme, term)) == _free(term)


def test_fresh_pair_first_two():
    assert fresh_pair(set()) == (U1, V1)


def test_fresh_pair_skips_avoided():
    assert fresh_pair({U1}) == (V1, Name("u2", reserved=True))


def test_encode_fresh_avoidance_matches_clause():
    # encode picks the pair outside fn(P) + {x, z}; with source-only
    # names the reserved pool is always untouched
    got = encode(Boudol, parse_term("x!z.u1!v1"))
    u = got.binder
    assert u == U1


def test_encode_rejects_a_missing_scheme():
    with pytest.raises(ValueError):
        encode(None, parse_term("x!z"))


def test_context_univariate_validation():
    with pytest.raises(ValueError):
        Context(Par(Hole(1), Hole(1)), 1)
    with pytest.raises(ValueError):
        Context(Hole(1), 2)


def test_apply_op_checks_the_subject_against_the_tag():
    # output and input take a subject and an object, restrict one binder,
    # and the other operators no name
    with pytest.raises(ValueError):
        apply_op(Op("output"), (NIL,))
    with pytest.raises(ValueError):
        apply_op(Op("nil", (x,)), ())
    with pytest.raises(ValueError):
        encoding_context(Boudol, Op("restrict", (x, y)), frozenset())
    assert apply_op(Op("output", (x, z)), (NIL,)) == parse_term("x!z")
    assert apply_op(Op("restrict", (x,)), (NIL,)) == Restrict(x, NIL)


def test_encoding_context_par():
    ctx = encoding_context(Boudol, Op("par"), frozenset())
    assert ctx.term == Par(Hole(1), Hole(2))
    filled = fill(ctx, (parse_term("x!a"), parse_term("y!b")))
    assert filled == parse_term("x!a | y!b")


def test_encoding_context_output_boudol():
    ctx = encoding_context(Boudol, Op("output", (x, z)), frozenset())
    want = Restrict(
        U1, Par(Output(x, U1, NIL), Input(U1, V1, Par(Output(V1, z, NIL), Hole(1))))
    )
    assert ctx.term == want


def test_encoding_context_input_ht():
    ctx = encoding_context(HondaTokoro, Op("input", (x, y)), frozenset())
    want = Restrict(U1, Par(Output(x, U1, NIL), Input(U1, y, Hole(1))))
    assert ctx.term == want
    assert y in ctx.protected


def test_compositionality_up_to_alpha_on_corpus():
    cfg = GenConfig(seed=15, max_size=7, communication_bias=0.4)
    corpus = generate_corpus(cfg, 25)
    ops = [Op("output", (x, z)), Op("input", (x, y)), Op("restrict", (y,)), Op("repl")]
    for term in corpus:
        for scheme in (Boudol, HondaTokoro):
            for op in ops:
                direct = encode(scheme, apply_op(op, (term,)))
                ctx = encoding_context(scheme, op, frozenset())
                assert alpha_eq(direct, fill(ctx, (encode(scheme, term),),
                                             capture_avoiding=True))
                # the names-aware context picks the translation's own names
                ctx_n = encoding_context(scheme, op, _free(term))
                assert fill(ctx_n, (encode(scheme, term),)) == direct


def test_name_invariance_injective_exact():
    sigma = {x: y, y: x}
    for scheme in (Boudol, HondaTokoro):
        for text in ("x!z | y?(w).w!x", "(nu q)(x!q | y?(r).0)", "!(x?(a).a!y)"):
            term = parse_term(text)
            lhs = encode(scheme, substitute_all(term, sigma))
            rhs = substitute_all(encode(scheme, term), sigma)
            assert alpha_eq(lhs, rhs)


def test_scheme_from_string():
    assert scheme_from_string("boudol") is Boudol
    assert scheme_from_string("ht") is HondaTokoro
    with pytest.raises(ValueError):
        scheme_from_string("nope")
