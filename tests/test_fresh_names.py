"""`syntax.fresh_names` and the first reserved name each of its users picks:
canonical alpha binders (`%b`), normal-form level binders (`%r`), the
transition bound-name placeholder (`%t..'`) and the universe's fresh names
(`%w`)."""

import itertools

from piworkbench.congruence import normalize
from piworkbench.semantics import _temp_bound_name, universe_fresh_names
from piworkbench.syntax import Name, Output, Restrict, NIL, alpha_normalize, fresh_names
from piworkbench.text import parse_term, render_term


def reserved(ident):
    return Name(ident, reserved=True)


def first(n, it):
    return list(itertools.islice(it, n))


def test_fresh_names_follow_the_template_from_start():
    assert first(3, fresh_names("b{}", frozenset())) == [reserved("b0"), reserved("b1"),
                                                          reserved("b2")]
    assert first(2, fresh_names("t{}'", frozenset(), 4)) == [reserved("t4'"), reserved("t5'")]


def test_fresh_names_skip_avoid():
    avoid = {reserved("x0"), reserved("x2"), Name("x1")}
    assert first(3, fresh_names("x{}", avoid)) == [reserved("x1"), reserved("x3"),
                                                   reserved("x4")]
    assert first(1, fresh_names("x{}", avoid, 2)) == [reserved("x3")]


def test_alpha_binders_start_at_b0():
    assert render_term(alpha_normalize(parse_term("(nu a)(x!a)"))) == "(nu %b0)x!%b0"
    taken = Restrict(Name("a"), Output(Name("a"), reserved("b0"), NIL))
    assert render_term(alpha_normalize(taken)) == "(nu %b1)%b1!%b0"


def test_level_binders_start_at_r0():
    assert render_term(normalize(parse_term("(nu a)(x!a)"))) == "(nu %r0)x!%r0"
    taken = parse_term("(nu a)(a!%r0)", allow_reserved=True)
    assert render_term(normalize(taken)) == "(nu %r1)%r1!%r0"


def test_transition_placeholder_starts_at_t0_prime():
    assert _temp_bound_name(parse_term("x!y")) == reserved("t0'")
    assert _temp_bound_name(Output(Name("x"), reserved("t0'"), NIL)) == reserved("t1'")


def test_universe_names_start_at_w1():
    assert universe_fresh_names(frozenset(), 2) == (reserved("w1"), reserved("w2"))
    assert universe_fresh_names({reserved("w1")}, 1) == (reserved("w2"),)
    assert universe_fresh_names({reserved("w0")}, 1) == (reserved("w1"),)
