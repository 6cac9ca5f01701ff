"""Labelled transition semantics, bounded LTS fragments, divergence.

Transitions are derived structurally (OUTPUT/INPUT-ACT, PAR, COM, CLOSE,
RES, OPEN and the three replication rules); the reduction relation is the
tau fragment of the labelled one, which by the Harmony Lemma represents
reduction up to structural congruence.  `build_fragment` is the one
builder of bounded transition graphs: over a universe of names it derives
every move, with none only the tau moves, so weak barbs and every tau-reach
search read a tau-only fragment.  Divergence grows its own exploration level
by level.  Both grow an `explore.Exploration`; a fragment is plain
data: states, their moves and distances, frontier, universe and the
explorer's index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional

from .congruence import normalize, normalize_transient
from .explore import Exploration
from .memo import memo
from .syntax import (Hole, Input, Name, Nil, Output, Par, Process, Repl,
                     Restrict, Success, _free, _union, _without, fresh_names, names,
                     substitute, substitute_transient)
from .text import render_term


@dataclass(frozen=True)
class Tau:
    pass


@dataclass(frozen=True)
class FreeOutput:
    chan: Name
    datum: Name


@dataclass(frozen=True)
class BoundOutput:
    chan: Name
    datum: Name


@dataclass(frozen=True)
class InputLab:
    chan: Name
    datum: Name


Label = Tau | FreeOutput | BoundOutput | InputLab
TAU = Tau()


def label_fn(a: Label) -> frozenset:
    match a:
        case Tau():
            return frozenset()
        case FreeOutput(c, d):
            return frozenset((c, d))
        case BoundOutput(c, _) | InputLab(c, _):
            return frozenset((c,))
    raise TypeError(f"not a label: {a!r}")


def label_bn(a: Label) -> frozenset:
    match a:
        case BoundOutput(_, d) | InputLab(_, d):
            return frozenset((d,))
        case _:
            return frozenset()


def label_names(a: Label) -> frozenset:
    return label_fn(a) | label_bn(a)


def render_label(a: Label) -> str:
    match a:
        case Tau():
            return "tau"
        case FreeOutput(c, d):
            return f"{c}!{d}"
        case BoundOutput(c, d):
            return f"{c}!({d})"
        case InputLab(c, d):
            return f"{c}?({d})"
    raise TypeError(f"not a label: {a!r}")


def _label_key(a: Label):
    order = {Tau: 0, FreeOutput: 1, BoundOutput: 2, InputLab: 3}
    return (order[type(a)],) + tuple(sorted(label_names(a)))


def _raw_transitions(p: Process, w: Name) -> list:
    """All Table-style transitions of p, with `w` (fresh for the whole
    term) as the single bound-name representative."""
    match p:
        case Output(x, z, k):
            return [(FreeOutput(x, z), k)]
        case Input(x, y, k):
            return [(InputLab(x, w), substitute(k, y, w))]
        case Par(l, r):
            lt = _raw_transitions(l, w)
            rt = _raw_transitions(r, w)
            out = []
            for a, t in lt:
                out.append((a, Par(t, r)))
            for b, u in rt:
                out.append((b, Par(l, u)))
            for a, t in lt:
                for b, u in rt:
                    out.extend(_sync(a, t, b, u, w))
                    out.extend(_sync(b, u, a, t, w, swap=True))
            return out
        case Restrict(y, body):
            out = []
            for a, t in _raw_transitions(body, w):
                if y not in label_names(a):
                    out.append((a, Restrict(y, t)))
                elif isinstance(a, FreeOutput) and a.datum == y and a.chan != y:
                    out.append((BoundOutput(a.chan, w), substitute_transient(t, y, w)))
            return out
        case Repl(body):
            base = _raw_transitions(body, w)
            out = [(a, Par(t, p)) for a, t in base]
            for a, t in base:
                for b, u in base:
                    out.extend((TAU, Par(s, p)) for _, s in _sync(a, t, b, u, w))
            return out
        case _:
            return []


def _sync(a: Label, t: Process, b: Label, u: Process, w: Name, swap: bool = False):
    """COM and CLOSE between a sender transition (a, t) and a receiver
    transition (b, u); `swap` restores the original component order."""
    if not isinstance(b, InputLab):
        return
    pair = (lambda s, r: Par(r, s)) if swap else Par
    if isinstance(a, FreeOutput) and a.chan == b.chan:
        yield (TAU, pair(t, substitute_transient(u, w, a.datum)))
    if isinstance(a, BoundOutput) and a.chan == b.chan:
        yield (TAU, Restrict(w, pair(t, u)))


def _temp_bound_name(p: Process) -> Name:
    return next(fresh_names("t{}'", names(p)))


def universe_fresh_names(avoid, count: int) -> tuple:
    """First `count` names of the reserved fresh pool outside `avoid`."""
    return tuple(itertools.islice(fresh_names("w{}", avoid, 1), count))


def _fresh_representative(p: Process, universe: frozenset) -> Optional[Name]:
    np = names(p)
    cands = sorted(n for n in universe if n not in np)
    if not cands:
        return None
    pooled = [n for n in cands if n.reserved]
    return pooled[0] if pooled else cands[0]


def _steps(p: Process, universe: frozenset) -> Optional[tuple]:
    """Canonical moves of `p`, sorted; None when `p` has a visible move but
    the universe has no name left that is fresh for it.  Moves are derived
    with the universe's fresh representative as their bound name or, when
    it has none, with a temporary name, which only tau targets hold, bound."""
    rep = _fresh_representative(p, universe)
    out = set()
    for a, t in _raw_transitions(p, rep or _temp_bound_name(p)):
        if rep is None and not isinstance(a, Tau):
            return None
        out.add((a, normalize_transient(t)))
    return tuple(sorted(out, key=lambda at: (_label_key(at[0]), render_term(at[1]))))


def default_universe(p: Process, extra: int = 1) -> frozenset:
    """The free names of `p` and the first `extra` reserved names fresh for
    it: the universe of a fragment of `p` alone, as `piwb lts` builds it."""
    return frozenset(_free(p)) | frozenset(universe_fresh_names(names(p), extra))


@dataclass(frozen=True)
class LtsFragment:
    """Bounded, canonical fragment of the transition system.

    The roots come first, and `out[i]` holds the (label, target index) moves
    of state i and `dist[i]` its distance from the nearest root.  States in
    `frontier` have derivable successors that were not expanded.  `universe`
    holds the names visible moves were derived over, or is None when only
    tau moves were.  `index` maps a state to its number.  These are the
    explorer's own lists and dict, handed over without a copy, and no one
    changes them.
    """

    states: list
    out: list
    dist: list
    frontier: frozenset
    universe: Optional[frozenset]
    index: dict = field(compare=False, repr=False)

    @property
    def transitions(self) -> tuple:
        """Every move as (source index, Label, target index)."""
        return tuple((i, a, j) for i, moves in enumerate(self.out) for a, j in moves)


def caps(p: Process) -> tuple:
    """What `p` can do at once, by structure: (the subjects of its
    unguarded outputs, those of its unguarded inputs, whether it has a tau
    transition, whether it reports success).  The subjects are those of
    the visible transitions of `_raw_transitions`.  Restriction blocks and
    parallel spines are read through, and only the components under them
    get table entries (`_caps`): a state's spine is asked about once."""
    match p:
        case Par(l, r):
            louts, lins, ltau, lsucc = caps(l)
            routs, rins, rtau, rsucc = caps(r)
            tau = ltau or rtau or not (louts.isdisjoint(rins) and routs.isdisjoint(lins))
            return _union(louts, routs), _union(lins, rins), tau, lsucc or rsucc
        case Restrict(y, body):
            outs, ins, tau, succ = caps(body)
            return _without(outs, y), _without(ins, y), tau, succ
    return _caps(p)


@memo
def _caps(p: Process) -> tuple:
    """`caps` of a component: a term that is neither a restriction nor a
    parallel composition."""
    match p:
        case Output(c, _, _):
            return frozenset((c,)), frozenset(), False, False
        case Input(c, _, _):
            return frozenset(), frozenset((c,)), False, False
        case Success():
            return frozenset(), frozenset(), False, True
        case Repl(body):
            # a body whose outputs meet its inputs has a tau of its own, so
            # two copies add none
            return caps(body)
        case Nil() | Hole():
            return frozenset(), frozenset(), False, False
    raise TypeError(f"not a process: {p!r}")


def has_moves(p: Process, tau_only: bool) -> bool:
    """Whether `_steps` gives `p` any move (or None), in any universe, read
    from its capabilities: no transition is derived."""
    outs, ins, tau, _ = caps(p)
    return tau or (not tau_only and bool(outs or ins))


def _frontier(ex: Exploration, tau_only: bool) -> frozenset:
    """States of the horizon that have moves: those at the bound with a
    derivable step, and those that could not be expanded at all."""
    return frozenset(
        i for i in ex.horizon if ex.dist[i] < ex.bound or has_moves(ex.states[i], tau_only)
    )


@memo
def reduce_once(p: Process) -> tuple:
    """Canonical tau-successors, sorted: by the Harmony Lemma, the one-step
    reducts up to structural congruence.  The only cache of tau steps."""
    raw = _raw_transitions(p, _temp_bound_name(p))
    return tuple(sorted({normalize_transient(t) for a, t in raw if isinstance(a, Tau)},
                        key=render_term))


def _tau_steps(p: Process) -> tuple:
    """The labelled view of `reduce_once`."""
    return tuple((TAU, t) for t in reduce_once(p))


def build_fragment(p, depth: int, *, universe: Optional[Iterable[Name]]) -> LtsFragment:
    """Breadth-first bounded exploration over canonical states, from the
    term `p` or, for a tuple of terms, from each of them at distance 0.
    Over a `universe` every move is derived, the visible ones with names
    from it; with None only the tau moves are."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    roots = tuple(map(normalize, p if isinstance(p, tuple) else (p,)))
    if universe is None:
        moves = _tau_steps
    else:
        universe = frozenset(universe)
        moves = partial(_steps, universe=universe)
    ex = Exploration(roots, moves, depth)
    while ex.grow():
        pass
    return LtsFragment(
        states=ex.states,
        out=ex.out,
        dist=ex.dist,
        frontier=_frontier(ex, tau_only=universe is None),
        universe=universe,
        index=ex.index,
    )


@dataclass(frozen=True)
class Diverges:
    """Tri-state divergence evidence."""

    status: str  # "yes" | "no" | "unknown"
    cycle: tuple = ()
    reason: str = ""


def tau_divergent(graph) -> frozenset:
    """The states of `graph` (anything with per-state `out` moves, such as a
    fragment or an exploration) from which a tau-cycle can be reached.
    States are peeled off, again and again, once every tau move of theirs
    leads to a peeled state; the states left over diverge."""
    left = [0] * len(graph.out)
    preds = [[] for _ in graph.out]
    for i, moves in enumerate(graph.out):
        for a, j in moves:
            if isinstance(a, Tau):
                left[i] += 1
                preds[j].append(i)
    peeled = [i for i, n in enumerate(left) if not n]
    for j in peeled:
        for i in preds[j]:
            left[i] -= 1
            if not left[i]:
                peeled.append(i)
    return frozenset(i for i, n in enumerate(left) if n)


def diverges(p: Process, depth: int) -> Diverges:
    """Detect a reachable tau-cycle among canonical states.

    The tau graph is explored once, level by level, and peeled after each
    level, so an early cycle is found without expanding the whole horizon.
    The cycle is the first one met by always taking the first tau move
    that stays among the diverging states.  Exact when the bounded graph
    closed (empty frontier); Unknown when the horizon was hit cycle-free.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ex = Exploration((normalize(p),), _tau_steps, depth)
    while ex.grow():
        divergent = tau_divergent(ex)
        if 0 in divergent:
            path = [0]
            while (nxt := next(t for _, t in ex.out[path[-1]] if t in divergent)) not in path:
                path.append(nxt)
            return Diverges("yes", cycle=tuple(ex.states[i] for i in path[path.index(nxt):]))
    if _frontier(ex, tau_only=True):
        return Diverges("unknown", reason="frontier hit before the tau graph closed")
    return Diverges("no")
