"""The path for terms normalized once gives the normal form `normalize`
does, and the shared name sets stay right.

A transition target, a replication unfolding or an inert reduct is
normalized once and dropped: `normalize_transient` gives it the very
normal form `normalize` returns, with no table entry keyed by the term,
and a move's substitution into its pieces stands for the substituted
term.
`_free`, `_bound` and `caps` give what a naive recomputation gives, and
return an operand's set itself when a union or difference leaves it
unchanged.  `caps` and `names` read a state through its restriction block
and parallel spine, so only the components under it get table entries."""

from _oracle import raw_transitions
from test_normal_form_golden import CORPUS, CORPUS_SIZE, DEPTH, SCHEMES

from piworkbench import memo
from piworkbench.congruence import (_canon, _level_names, level, normalize,
                                    normalize_transient)
from piworkbench.encodings import Boudol, encode
from piworkbench.harness import generate_corpus
from piworkbench.observables import strong_barbs
from piworkbench.semantics import (_PLACEHOLDER, BoundOutput, FreeOutput, InputLab,
                                   Tau, _fresh_representative, _spine, _subst_piece,
                                   build_fragment, caps, default_universe, has_moves)
from piworkbench.syntax import (Input, Output, Par, Repl, Restrict, Success, _bound, _free,
                                names, substitute)
from piworkbench.text import parse_term


def _naive_free(p) -> set:
    match p:
        case Output(c, d, k):
            return {c, d} | _naive_free(k)
        case Input(c, b, k):
            return {c} | (_naive_free(k) - {b})
        case Par(l, r):
            return _naive_free(l) | _naive_free(r)
        case Restrict(b, k):
            return _naive_free(k) - {b}
        case Repl(k):
            return _naive_free(k)
    return set()


def _naive_bound(p) -> set:
    match p:
        case Output(_, _, k) | Repl(k):
            return _naive_bound(k)
        case Input(_, b, k) | Restrict(b, k):
            return {b} | _naive_bound(k)
        case Par(l, r):
            return _naive_bound(l) | _naive_bound(r)
    return set()


def _naive_success(p) -> bool:
    match p:
        case Success():
            return True
        case Par(l, r):
            return _naive_success(l) or _naive_success(r)
        case Restrict(_, k) | Repl(k):
            return _naive_success(k)
    return False


def _naive_caps(p) -> tuple:
    moves = raw_transitions(p, _PLACEHOLDER)
    return (
        {a.chan for a, _ in moves if isinstance(a, (FreeOutput, BoundOutput))},
        {a.chan for a, _ in moves if isinstance(a, InputLab)},
        any(isinstance(a, Tau) for a, _ in moves),
        _naive_success(p),
    )


def _golden_targets():
    """Every target the reference derivation builds for the depth-2
    fragment states of the golden corpus and its images, with both bound
    names a state's moves use."""
    for term in generate_corpus(CORPUS, CORPUS_SIZE):
        for _, scheme in SCHEMES:
            p = term if scheme is None else encode(scheme, term)
            frag = build_fragment(p, DEPTH, universe=default_universe(normalize(p)))
            for s in frag.states:
                rep = _fresh_representative(s, frag.universe)
                for w in dict.fromkeys((rep or _PLACEHOLDER, _PLACEHOLDER)):
                    for _, t in raw_transitions(s, w):
                        yield s, t


def test_transient_path_gives_the_normal_form():
    memo.clear()
    count = 0
    for _, t in _golden_targets():
        nf = normalize_transient(t)
        # the top-level `_canon` entry `normalize` read before, with its
        # skip set read off the whole term
        assert nf is _canon(t, (), 0, _level_names(t, ()))
        assert nf is normalize(t)
        count += 1
    assert count > 1500


def test_transient_substitution_gives_the_substitution():
    memo.clear()
    for s, t in _golden_targets():
        # into a fresh name, and into a name bound in `t`, which must be renamed
        for old in sorted(_free(t))[:2]:
            for new in dict.fromkeys((_PLACEHOLDER, *sorted(_bound(t))[:2])):
                assert _spine(_subst_piece(t, old, new)) is substitute(t, old, new)


def test_name_sets_match_a_naive_recomputation():
    memo.clear()
    for s, t in _golden_targets():
        for p in (s, t):
            assert _free(p) == _naive_free(p)
            assert _bound(p) == _naive_bound(p)
            assert caps(p) == _naive_caps(p)
            assert names(p) == _naive_free(p) | _naive_bound(p)


def test_unchanged_name_sets_are_shared():
    p = parse_term("(nu c)(x!y.y!x | x?(z).z!y)")
    body = p.body
    assert _free(p) is _free(body) is _free(body.left)
    assert _free(body.left) is _free(body.left.cont)
    assert _bound(body) is _bound(body.right)
    outs, ins, _, _ = caps(p)
    assert outs is caps(body.left)[0]
    assert ins is caps(body.right)[1]


def _read(terms) -> int:
    """Entries that the barb, move-probe and name reads of `terms` add to
    empty memo tables: those behind `caps`, `_free` and `_bound`, and one
    `strong_barbs` entry per term."""
    memo.clear()
    for p in terms:
        strong_barbs(p)
        has_moves(p, tau_only=True)
        has_moves(p, tau_only=False)
        names(p)
    return sum(table.cache_info().currsize for table in memo._TABLES)


def test_state_spines_get_no_table_entries():
    anchor = parse_term("!(nu a)(a?(c).(nu b)(b!a | b?(a).0) | a!b.a!a.c?(b).a!a)")
    frag = build_fragment(encode(Boudol, anchor), 2, universe=None)
    state = next(s for s in frag.states if all(len(part) >= 3 for part in level(s)))
    _, comps = level(state)
    # the state's one `strong_barbs` entry against one per component
    assert _read([state]) + len(comps) - 1 <= _read(comps)
