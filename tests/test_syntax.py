import hypothesis.strategies as st
from hypothesis import given, settings

from piworkbench import memo, syntax
from piworkbench.congruence import assemble
from piworkbench.syntax import (NIL, OK, Input, Name, Output, Par, Repl,
                                Restrict, _bound, _free, alpha_eq,
                                alpha_normalize, fresh_variant, is_async,
                                names, size, substitute, substitute_all)
from piworkbench.text import parse_term, render_term

x, y, z, a, b, w = (Name(n) for n in "xyzabw")


def test_name_namespaces_disjoint():
    assert Name("u1") != Name("u1", reserved=True)
    assert str(Name("u1", reserved=True)) == "%u1"


def test_free_names_nil():
    assert _free(NIL) == _bound(NIL) == names(NIL) == frozenset()


def test_free_names_output():
    p = parse_term("x!z")
    assert _free(p) == {x, z}
    assert _bound(p) == frozenset()


def test_free_names_boudol_image():
    # hand-checked structural recursion over the Boudol image of x!z.0
    p = parse_term("(nu u)(x!u | u?(v).(v!z | 0))")
    assert _free(p) == {x, z}
    assert _bound(p) == {Name("u"), Name("v")}
    assert names(p) == _free(p) | _bound(p)


def test_substitute_bound_occurrence_unchanged():
    p = parse_term("x?(y).y!a.0")
    assert substitute(p, y, b) == p


def test_substitute_free_occurrence():
    assert substitute(parse_term("y!a"), y, w) == parse_term("w!a")


def test_substitute_capture_renames_binder():
    # (x?(w).y!w.0){w/y} must alpha-convert the binder w first
    p = parse_term("x?(w).y!w.0")
    q = substitute(p, y, w)
    assert alpha_eq(q, parse_term("x?(q).w!q.0"))
    assert w in _free(q)
    assert y not in _free(q)


def test_substitute_all_simultaneous_swap():
    p = parse_term("x!y")
    q = substitute_all(p, {x: y, y: x})
    assert q == parse_term("y!x")


def test_substitute_all_keys_the_memo_by_free_names_only():
    # mappings that differ only in a name not free in the term are one
    # substitution, and `_subst` caches it once
    p = parse_term("memo_x!memo_y.memo_y?(q).q!memo_x")
    before = syntax._subst.cache_info().currsize
    q = substitute_all(p, {Name("memo_x"): z})
    once = syntax._subst.cache_info().currsize
    assert substitute_all(p, {Name("memo_x"): z, Name("memo_absent"): w}) == q
    assert once > before
    assert syntax._subst.cache_info().currsize == once


def test_render_long_parallel_composition():
    # a Par spine longer than the recursion limit still renders
    p = parse_term(" | ".join(["a!b"] * 3000))
    assert render_term(p) == " | ".join(["a!b"] * 3000)


def _block(k: int):
    """A k-binder restriction block over the outputs x0!x0 and x1!x1."""
    return assemble([Name(f"x{i}") for i in range(k)], [parse_term("x0!x0"), parse_term("x1!x1")])


def test_render_long_restriction_block():
    # rendering takes no frame per binder, so a 600-binder block renders
    prefix = "".join(f"(nu x{i})" for i in range(600))
    assert render_term(_block(600)) == prefix + "(x0!x0 | x1!x1)"


def test_render_restriction_block_in_one_entry():
    # the block's suffixes get no entries of their own
    memo.clear()
    p = _block(40)
    body = p
    while isinstance(body, Restrict):
        body = body.body
    render_term(body)
    before = render_term.cache_info().currsize
    render_term(p)
    assert render_term.cache_info().currsize == before + 1


def test_alpha_normalize_restriction():
    p = parse_term("(nu y)y!a.0")
    q = parse_term("(nu w)w!a.0")
    assert alpha_normalize(p) == alpha_normalize(q)


def test_alpha_normalize_nil():
    assert alpha_normalize(NIL) == NIL


def test_alpha_normalize_shadowing():
    # inner binder shadows outer; both get distinct canonical names
    p = parse_term("x?(y).(nu y)y!y.0")
    n = alpha_normalize(p)
    assert isinstance(n, Input)
    inner = n.cont
    assert isinstance(inner, Restrict)
    assert inner.binder != n.binder
    body = inner.body
    assert body.chan == body.datum == inner.binder


def test_alpha_eq_reflexive():
    p = parse_term("x!a | (nu q)q?(r).r!b.0")
    assert alpha_eq(p, p)


def test_alpha_eq_free_names_differ():
    assert not alpha_eq(parse_term("x!a"), parse_term("x!b"))


def test_is_async():
    assert is_async(parse_term("x!z | y?(q).q!a"))
    assert not is_async(parse_term("x!z.y!a"))


def test_size():
    assert size(NIL) == 1
    assert size(parse_term("x!z")) == 2
    assert size(parse_term("x!z | 0")) == 4


def test_fresh_variant():
    got = fresh_variant(w, {w, Name("w'")})
    assert got == Name("w''")


# --- property tests ---------------------------------------------------

_names = st.sampled_from([x, y, z, a, b])


def _terms():
    leaves = st.sampled_from([NIL, OK])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(Output, _names, _names, kids),
            st.builds(Input, _names, _names, kids),
            st.builds(Par, kids, kids),
            st.builds(Restrict, _names, kids),
            st.builds(Repl, kids),
        ),
        max_leaves=12,
    )


@given(_terms(), _names, _names)
@settings(max_examples=150, deadline=None)
def test_substitution_free_name_law(p, old, new):
    got = _free(substitute(p, old, new))
    expected_sub = (_free(p) - {old}) | {new}
    if old in _free(p):
        assert got == expected_sub if old != new else got == _free(p)
    else:
        assert got == _free(p)


@given(_terms())
@settings(max_examples=150, deadline=None)
def test_alpha_normalize_idempotent_and_fn_preserving(p):
    n = alpha_normalize(p)
    assert alpha_normalize(n) == n
    assert _free(n) == _free(p)


@given(_terms(), _terms(), _terms())
@settings(max_examples=60, deadline=None)
def test_alpha_eq_equivalence_relation(p, q, r):
    assert alpha_eq(p, p)
    assert alpha_eq(p, q) == alpha_eq(q, p)
    if alpha_eq(p, q) and alpha_eq(q, r):
        assert alpha_eq(p, r)


@given(_terms(), _names)
@settings(max_examples=100, deadline=None)
def test_substitute_commutes_with_alpha_normalize(p, old):
    fresh = fresh_variant(Name("f"), names(p))
    assert alpha_eq(
        substitute(p, old, fresh),
        substitute(alpha_normalize(p), old, fresh),
    )


@given(_terms())
@settings(max_examples=100, deadline=None)
def test_render_parse_round_trip(p):
    assert alpha_eq(parse_term(render_term(p), allow_reserved=True), p)
