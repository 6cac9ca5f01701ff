"""Labelled transition semantics, bounded LTS fragments, divergence.

Transitions are read off a state's level, its binders and components.
Each component's own moves (OUTPUT/INPUT-ACT and the three replication
rules, a replication body being a level too) are derived once per bound
name; PAR, COM, CLOSE, RES and OPEN are written once, over a level; and
a successor's normal form comes from the pieces a move produced, with no
spine built.  The reduction relation is the tau fragment of the labelled
one, which by the Harmony Lemma represents reduction up to structural
congruence.  `build_fragment` is the one
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

from .congruence import (assemble, level, normalize, normalize_level, normalize_transient,
                         peel_components)
from .explore import Exploration
from .memo import memo
from .syntax import (Hole, Input, Name, Nil, Output, Par, Process, Repl,
                     Restrict, Success, _free, _Term, _union, _without, fresh_names, names,
                     substitute)
from .text import render_term


# Transition labels are hash-consed like terms, one object per distinct label.
# Both fields are names: `datum` is an output's object or a move's bound name.
class Tau(_Term):
    __slots__ = ()


class FreeOutput(_Term):
    __slots__ = __match_args__ = ("chan", "datum")


class BoundOutput(_Term):
    __slots__ = __match_args__ = ("chan", "datum")


class InputLab(_Term):
    __slots__ = __match_args__ = ("chan", "datum")


Label = Tau | FreeOutput | BoundOutput | InputLab
TAU = Tau()
_LABEL_ORDER = {Tau: 0, FreeOutput: 1, BoundOutput: 2, InputLab: 3}


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
    return (_LABEL_ORDER[type(a)],) + tuple(sorted(label_names(a)))


@memo
def _raw_transitions(c: Process, w: Name) -> tuple:
    """The moves of the component `c` by its own rules (OUTPUT-ACT,
    INPUT-ACT and the three replication rules, a replication body being a
    level), with `w`, fresh for the whole state, as the bound name: (label,
    piece) pairs, a piece being a derivative subterm, a substitution
    result or a pending level of `normalize_level` over such pieces."""
    match c:
        case Output(x, z, k):
            return ((FreeOutput(x, z), k),)
        case Input(x, y, k):
            return ((InputLab(x, w), substitute(k, y, w)),)
        case Repl(body):
            base = _level_moves(*level(body), w)
            return (*((a, ((), (t, c))) for a, t in base),
                    *((TAU, (close, (s, r, c))) for close, s, r in _syncs(base, base, w)))
    return ()


def _level_moves(binders, comps, w: Name, base=None) -> list:
    """Every move of the level `binders` over `comps`, with `w` as the
    bound name, as (label, pending level): PAR moves one component, COM
    and CLOSE meet two, in either order, and RES and OPEN filter through
    the binders, innermost first.  A target's binders are the kept ones in
    order, then a CLOSE's fresh binder, and its pieces stand in the
    components' places, as in the spine the rules would build.  A move
    leaves the pieces of `base` (default `comps`, or components peeled
    under `binders`) in place, except after an OPEN, which renumbers the
    binders and substitutes into `comps`."""
    base = comps if base is None else base
    moves = [_raw_transitions(c, w) for c in comps]
    found = [(a, (), ((i, t),)) for i, ms in enumerate(moves) for a, t in ms]
    for j, right in enumerate(moves):
        for i, left in enumerate(moves[:j]):
            found += [(TAU, close, ((i, s), (j, r))) for close, s, r in _syncs(left, right, w)]
            found += [(TAU, close, ((i, r), (j, s))) for close, s, r in _syncs(right, left, w)]
    out = []
    for a, close, changes in found:
        kept, opened, seen = [], None, label_names(a)
        for y in reversed(binders):
            if y not in seen:
                kept.append(y)
            elif isinstance(a, FreeOutput) and a.datum == y and a.chan != y:
                a, opened, seen = BoundOutput(a.chan, w), y, frozenset((a.chan, w))
            else:
                break
        else:
            if opened is None:
                pieces = _put(base, changes)
            else:
                pieces = tuple(_subst_piece(q, opened, w) for q in _put(comps, changes))
            out.append((a, ((*reversed(kept), *close), pieces)))
    return out


def _put(comps, changes) -> tuple:
    """`comps` with the (position, piece) `changes` in place."""
    pieces = list(comps)
    for i, t in changes:
        pieces[i] = t
    return tuple(pieces)


def _syncs(senders, receivers, w: Name):
    """COM and CLOSE between a move of `senders` that outputs and a move of
    `receivers` that inputs on the same channel: (the fresh binder a CLOSE
    adds, the sender's piece, the receiver's piece)."""
    for a, t in senders:
        if not isinstance(a, (FreeOutput, BoundOutput)):
            continue
        for b, u in receivers:
            if isinstance(b, InputLab) and b.chan == a.chan:
                if isinstance(a, FreeOutput):
                    yield (), t, _subst_piece(u, w, a.datum)
                else:
                    yield (w,), t, u


def _subst_piece(piece, old: Name, new: Name):
    """`substitute` into a piece without building a spine: a parallel
    composition or a restriction block becomes a pending level, and only
    the components under it go through `_subst`.  Only a binder that is
    `old` or `new` has its spine built and substituted whole, as
    capture-avoiding substitution renames it."""
    if isinstance(piece, tuple):
        binders, pieces = piece
        for k, b in enumerate(binders):
            if b == old or b == new:
                return binders[:k], (substitute(_spine((binders[k:], pieces)), old, new),)
        return binders, tuple(_subst_piece(q, old, new) for q in pieces)
    match piece:
        case Par(l, r):
            return (), (_subst_piece(l, old, new), _subst_piece(r, old, new))
        case Restrict(b, body) if b != old and b != new:
            return (b,), (_subst_piece(body, old, new),)
    return substitute(piece, old, new)


def _spine(piece) -> Process:
    """The term a piece stands for."""
    if isinstance(piece, tuple):
        binders, pieces = piece
        return assemble(binders, [_spine(q) for q in pieces])
    return piece


def _is_component(c: Process) -> bool:
    """Whether `c` can be a component of a level, as in a normal form:
    neither a parallel composition nor a restriction, and a replication
    only of a level."""
    match c:
        case Par() | Restrict():
            return False
        case Repl(body):
            return all(map(_is_component, level(body)[1]))
    return True


def _state_level(p: Process) -> tuple:
    """The level the moves of `p` are read off: its own, or its normal
    form's when `p` is not a level."""
    binders, comps = level(p)
    if all(map(_is_component, comps)):
        return binders, comps
    return level(normalize_transient(p))


def _state_moves(p: Process, w: Name) -> list:
    """`_level_moves` of the level of `p`, with the components a move
    leaves alone peeled once for all the moves."""
    binders, comps = _state_level(p)
    return _level_moves(binders, comps, w, peel_components(binders, comps))


# The bound name of moves derived with no universe name fresh for the state:
# one the parser cannot spell, and which no state holds (see `_steps`).
_PLACEHOLDER = Name("t#", reserved=True)


def universe_fresh_names(avoid, count: int) -> tuple:
    """First `count` names of the reserved fresh pool outside `avoid`."""
    return tuple(itertools.islice(fresh_names("w{}", avoid, 1), count))


def _fresh_representative(p: Process, universe: frozenset) -> Optional[Name]:
    return min(universe - names(p), key=lambda n: (not n.reserved, n), default=None)


def _steps(p: Process, universe: frozenset) -> Optional[tuple]:
    """Canonical moves of `p`, sorted; None when `p` has a visible move but
    the universe has no name left that is fresh for it.  Moves are derived
    with the universe's fresh representative as their bound name or, when
    it has none, with `_PLACEHOLDER`: tau targets bind it (CLOSE) or
    substitute it away (COM), and a visible move would hold it free."""
    rep = _fresh_representative(p, universe)
    out = set()
    for a, (binders, pieces) in _state_moves(p, rep or _PLACEHOLDER):
        if rep is None and not isinstance(a, Tau):
            return None
        out.add((a, normalize_level(binders, pieces)))
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
    moves = _state_moves(p, _PLACEHOLDER)
    return tuple(sorted({normalize_level(*t) for a, t in moves if isinstance(a, Tau)},
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
