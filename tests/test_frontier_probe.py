"""The frontier probe `has_moves` against the probe it replaced: running the
full successor function and testing its result against ().  `diverges`
against a depth-first cycle search after every level, and the states
`tau_divergent` keeps against a scan of tau closures.  The capability
table behind the probe and behind the strong barbs against the reference
transitions of `tests/_oracle.py` and `reduce_once`."""

from functools import partial

import pytest
from _oracle import raw_transitions

from piworkbench.congruence import normalize
from piworkbench.encodings import Boudol, HondaTokoro, encode
from piworkbench.equivalences import saturate
from piworkbench.explore import Exploration, explore
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.observables import IN, OUT, strong_barbs
from piworkbench.semantics import (_PLACEHOLDER, BoundOutput, Diverges,
                                   FreeOutput, InputLab, Tau,
                                   _steps, _tau_steps, build_fragment, caps,
                                   default_universe, diverges, has_moves,
                                   reduce_once, tau_divergent)
from piworkbench.syntax import Repl, _free
from piworkbench.text import parse_term


def _old_frontier(ex, moves) -> frozenset:
    return frozenset(
        i for i in ex.horizon if ex.dist[i] < ex.bound or moves(ex.states[i]) != ()
    )


def tau_cycle(graph, start: int = 0):
    """A tau-cycle reachable from `start`, if any, in a fragment or an
    exploration, by depth-first search."""
    color = {start: 1}
    stack = [(start, iter([t for a, t in graph.out[start] if isinstance(a, Tau)]))]
    path = [start]
    while stack:
        node, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            color[node] = 2
            stack.pop()
            path.pop()
            continue
        c = color.get(nxt)
        if c == 1:
            k = path.index(nxt)
            return tuple(graph.states[i] for i in path[k:])
        if c is None:
            color[nxt] = 1
            path.append(nxt)
            stack.append((nxt, iter([t for a, t in graph.out[nxt] if isinstance(a, Tau)])))
    return None


def _old_diverges(p, depth) -> Diverges:
    ex = Exploration((normalize(p),), _tau_steps, depth)
    while ex.grow():
        cyc = tau_cycle(ex)
        if cyc is not None:
            return Diverges("yes", cycle=cyc)
    if _old_frontier(ex, _tau_steps):
        return Diverges("unknown", reason="frontier hit before the tau graph closed")
    return Diverges("no")


def _corpus() -> list:
    cfg = GenConfig(seed=17, max_size=9, communication_bias=0.6, allow_replication=True)
    terms = list(generate_corpus(cfg, 40))
    terms += [encode(Boudol, t) for t in terms[:15]] + [encode(HondaTokoro, t) for t in terms[:15]]
    terms += [parse_term(s) for s in (
        "!(nu a)(a?(c).(nu b)(b!a | b?(a).0) | a!b.a!a.c?(b).a!a)",
        "!x!y | !x?(z).z!x",
        "(nu a)(a!a | a?(b).b!b)",
        "0",
    )]
    return terms


CORPUS = _corpus()

# replicated terms, several of which diverge, by scheme: the first corpus
# terms under `!` and two replicated exchanges, then their two images
_SOURCES = [Repl(t) for t in CORPUS[:20]] + [parse_term(s) for s in (
    "!(x!a | x?(y).0)",
    "!(x!a | x?(y).0) | (nu c)(c!c | !c?(d).c!d)",  # several cycles to choose from
)]
REPLICATED = {
    "source": _SOURCES,
    "boudol": [encode(Boudol, t) for t in _SOURCES],
    "honda-tokoro": [encode(HondaTokoro, t) for t in _SOURCES],
}


def _is_tau_cycle(cycle) -> bool:
    """Whether each state of `cycle` reduces to the next, the last to the first."""
    return bool(cycle) and all(b in reduce_once(a) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def _universes(root):
    # the default one, and one with no name fresh for the root left
    return (("default", default_universe(root)), ("exhausted", frozenset(_free(root))))


def _moves(uni, tau_only: bool):
    return _tau_steps if tau_only else partial(_steps, universe=uni)


@pytest.mark.parametrize("label_mode", ["all_labels", "tau_only"])
def test_has_moves_equals_successor_emptiness(label_mode):
    tau_only = label_mode == "tau_only"
    exhausted = 0
    for p in CORPUS:
        root = normalize(p)
        for _, uni in _universes(root):
            moves = _moves(uni, tau_only)
            states = explore(root, moves, 2).states
            for s in states:
                old = moves(s)
                exhausted += old is None
                assert has_moves(s, tau_only) == (old != ()), s
    if not tau_only:
        assert exhausted > 0  # the exhausted universe was exercised


@pytest.mark.parametrize("label_mode", ["all_labels", "tau_only"])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_fragment_frontier_equals_old_probe(label_mode, depth):
    tau_only = label_mode == "tau_only"
    for p in CORPUS:
        root = normalize(p)
        for _, uni in _universes(root):
            moves = _moves(uni, tau_only)
            ex = explore(root, moves, depth)
            frag = build_fragment(p, depth, universe=None if tau_only else uni)
            assert frag.states == ex.states
            assert frag.frontier == _old_frontier(ex, moves), p


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_tau_only_fragment_and_diverges_equal_old_probe(depth):
    yes = set()
    for scheme, terms in (("corpus", CORPUS), *REPLICATED.items()):
        for p in terms:
            ex = explore(normalize(p), _tau_steps, depth)
            frag = build_fragment(p, depth, universe=None)
            assert frag.states == ex.states and frag.dist == ex.dist, p
            assert frag.frontier == _old_frontier(ex, _tau_steps), p
            d = diverges(p, depth)
            assert d == _old_diverges(p, depth), p
            if d.status == "yes":
                yes.add(scheme)
                assert _is_tau_cycle(d.cycle), p
    if depth == 4:
        assert yes >= set(REPLICATED), yes


def _old_divergent(frag) -> frozenset:
    """The states whose tau closure holds a state on a tau cycle."""
    closure = [cl for cl, _ in saturate(frag).tau_closure]
    cyclic = {i for i, moves in enumerate(frag.out) for a, t in moves
              if isinstance(a, Tau) and i in closure[t]}
    return frozenset(i for i, cl in enumerate(closure) if cl & cyclic)


@pytest.mark.parametrize("label_mode", ["all_labels", "tau_only"])
def test_tau_divergent_equals_closure_scan(label_mode):
    diverging = 0
    for p in CORPUS + [t for terms in REPLICATED.values() for t in terms]:
        uni = None if label_mode == "tau_only" else default_universe(normalize(p))
        frag = build_fragment(p, 3, universe=uni)
        got = tau_divergent(frag)
        assert got == _old_divergent(frag), p
        diverging += bool(got)
    assert diverging


def test_caps_equal_raw_transitions():
    for p in CORPUS:
        root = normalize(p)
        states = explore(root, partial(_steps, universe=default_universe(root)), 2).states
        for s in (p, *states):
            raw = [a for a, _ in raw_transitions(s, _PLACEHOLDER)]
            barbs = strong_barbs(s)
            assert {b.chan for b in barbs if b.kind == OUT} == {
                a.chan for a in raw if isinstance(a, (FreeOutput, BoundOutput))}, s
            assert {b.chan for b in barbs if b.kind == IN} == {
                a.chan for a in raw if isinstance(a, InputLab)}, s
            _, _, tau, _ = caps(s)
            assert tau == bool(reduce_once(s)), s
