"""`syntax.fresh_names` and the first reserved name each of its users picks:
canonical alpha binders (`%b`), normal-form level binders (`%r`) and the
universe's fresh names (`%w`).  Moves derived with no universe name fresh
for the state use the one bound-name placeholder, which no state holds."""

import itertools

from test_normal_form_golden import CORPUS, CORPUS_SIZE, DEPTH, SCHEMES

from piworkbench.congruence import normalize
from piworkbench.encodings import encode
from piworkbench.harness import generate_corpus
from piworkbench.semantics import (_PLACEHOLDER, build_fragment, default_universe,
                                   universe_fresh_names)
from piworkbench.syntax import Name, Output, Restrict, NIL, alpha_normalize, fresh_names, names
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


def test_no_fragment_state_holds_the_placeholder():
    # every tau move of a tau-only fragment is derived with the placeholder,
    # and so is every move of a labelled state whose universe has no name
    # fresh for it; kept tau targets bind it or substitute it away, and a
    # visible move that would hold it free is not kept
    placeheld = 0
    for term in generate_corpus(CORPUS, CORPUS_SIZE):
        for _, scheme in SCHEMES:
            p = normalize(term if scheme is None else encode(scheme, term))
            for universe in (None, default_universe(p)):
                frag = build_fragment(p, DEPTH, universe=universe)
                for s in frag.states:
                    assert _PLACEHOLDER not in names(s), render_term(s)
                    placeheld += universe is not None and universe <= names(s)
    assert placeheld


def test_universe_names_start_at_w1():
    assert universe_fresh_names(frozenset(), 2) == (reserved("w1"), reserved("w2"))
    assert universe_fresh_names({reserved("w1")}, 1) == (reserved("w2"),)
    assert universe_fresh_names({reserved("w0")}, 1) == (reserved("w1"),)
