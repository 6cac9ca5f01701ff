"""Structural congruence via a canonical normal form.

The normal form at every parallel level is a block of restrictions (in
positional order) over a flat, text-sorted multiset of components, with
0-units, void restrictions and alpha-variance removed.  Two terms are
congruent iff their normal forms are syntactically identical.  Replication
unfolding (!P == P | !P) is not part of the normal form: `congruent`
matches up to one unfolding, as two sets of `variants` that meet.
`normalize_level` gives the normal form of a level from its binders and
pieces, such as a transition target, without building it.
"""

from __future__ import annotations

import functools
import itertools
import re

from .memo import memo
from .syntax import (NIL, Hole, Input, Name, Nil, Output, Par, Process, Repl,
                     Restrict, Success, _free, fresh_names)
from .text import render_term

_LEVEL_RE = re.compile(r"r\d+$")


@memo
def _level_name(slot: int, skip: frozenset) -> Name:
    return next(itertools.islice(fresh_names("r{}", skip), slot, None))


def normalize(p: Process) -> Process:
    """Canonical representative of the congruence class of `p`.

    The normal form never unfolds replication (see `congruent`).
    """
    return _normalize(p)


def normalize_level(binders, pieces) -> Process:
    """The normal form of `assemble(binders, pieces)`, without building it.

    A piece is a term, a component from `peel_components`, or a pending
    level: a pair (binders, pieces) of terms and pending levels, read as
    its restriction block over the parallel composition of its pieces.
    The level is peeled, and the names its binders must skip are read off
    its components, so only the components get table entries."""
    parts, names = _level_parts(binders, pieces)
    return _canon_parts(parts, 0, frozenset().union(*names))


def _level_parts(binders, pieces) -> tuple:
    """The parts `normalize_level` canonicalizes, in peel order, and the
    level names each brings in: a piece from `peel_components` is taken
    as it is, and every other piece is peeled in its place."""
    ren = {b: n for n, b in enumerate(binders)}
    n = len(binders)
    parts: list = []
    names: list = []
    for q in pieces:
        if type(q) is _Peeled:
            parts.append(q.part)
            names.append(q.names)
        else:
            start = len(parts)
            n = _peel(q, (), ren, parts, n)
            names += [_level_names(c, outer, local) for c, local, outer in parts[start:]]
    return parts, names


class _Peeled:
    """A component of a state's level peeled once by `peel_components`:
    its part, as `_peel` records it under the level's binders, and the
    level names it brings in."""

    __slots__ = ("part", "names")

    def __init__(self, part: tuple):
        self.part = part
        self.names = _level_names(part[0], part[2], part[1])


def peel_components(binders, comps) -> tuple:
    """The components of the level `binders` over `comps`, peeled once: a
    piece for `normalize_level` that stands for its component in a level
    whose binders begin with `binders`, so that a component a move leaves
    unchanged is not peeled again for every move."""
    ren = {b: n for n, b in enumerate(binders)}
    out = []
    for c in comps:
        parts: list = []
        _peel(c, (), ren, parts, len(binders))
        out.append(_Peeled(*parts) if parts else c)
    return tuple(out)


def normalize_transient(p: Process) -> Process:
    """`normalize` for a term built to be normalized once, such as a
    replication unfolding: the same normal form, with no table entry
    keyed by its parallel level (`normalize_level` of one piece)."""
    return normalize_level((), (p,))


_normalize = memo(normalize_transient)


def _level_names(p: Process, env: tuple, local: tuple = ()) -> frozenset:
    """The level names among the images of the free names of `p` under the
    renaming `env`: the names `_canon` must skip so that its binders never
    capture them.  The names of `local`, the local renaming of a component
    peeled off a level, are left out: the level binds them, even when one
    is spelled like a level name."""
    m = dict(env)
    mine = {y for y, _ in local}
    images = (m.get(n, n) for n in _free(p) if n not in mine)
    return frozenset(w for w in images if w.reserved and _LEVEL_RE.match(w.ident))


def _restrict(env: tuple, p: Process) -> tuple:
    """The entries of the renaming `env` for free names of `p`: `_canon`
    is keyed by exactly what the normal form of `p` depends on."""
    fp = _free(p)
    return tuple((y, w) for y, w in env if y in fp)


@memo
def _canon(p: Process, env: tuple, depth: int, skip: frozenset) -> Process:
    m = dict(env)
    match p:
        case Nil() | Success() | Hole():
            return p
        case Output(c, d, k):
            return Output(m.get(c, c), m.get(d, d), _canon(k, _restrict(env, k), depth, skip))
        case Input(c, b, k):
            nb = _level_name(depth, skip)
            return Input(m.get(c, c), nb,
                         _canon(k, _restrict(env + ((b, nb),), k), depth + 1, skip))
        case Repl(body):
            return Repl(_canon(body, env, depth, skip))
        case Par(_, _) | Restrict(_, _):
            return _canon_level(p, env, depth, skip)
    raise TypeError(f"not a process: {p!r}")


def _peel(p: Process, env: tuple, ren: dict, parts: list, n: int) -> int:
    # Flatten the parallel level (pure alpha + maximal outward scope
    # extrusion): restriction binders are numbered in peel order, and each
    # component is kept as it is, with its local renaming (free name ->
    # binder number) and the outer renaming of its other free names.  A
    # pending level of `normalize_level` peels as the spine it stands for.
    # Returns the number of binders peeled so far.
    match p:
        case Par(l, r):
            return _peel(r, env, ren, parts, _peel(l, env, ren, parts, n))
        case Restrict(b, body):
            return _peel(body, env, {**ren, b: n}, parts, n + 1)
        case Nil():
            return n
        case (binders, pieces):
            for b in binders:
                ren = {**ren, b: n}
                n += 1
            for q in pieces:
                n = _peel(q, env, ren, parts, n)
            return n
        case _:
            fp = _free(p)
            local = tuple((y, k) for y, k in ren.items() if y in fp)
            outer = tuple((y, w) for y, w in env if y in fp and y not in ren)
            parts.append((p, local, outer))
            return n


def _canon_level(p: Process, env: tuple, depth: int, skip: frozenset) -> Process:
    parts: list = []
    _peel(p, env, {}, parts, 0)
    return _canon_parts(parts, depth, skip)


def _canon_parts(parts: list, depth: int, skip: frozenset) -> Process:
    live = sorted({k for _, local, _ in parts for _, k in local})
    inner_depth = depth + len(live)
    # Every candidate renders as the same restriction prefix followed by
    # its components, so candidates compare by the components' texts
    # alone, and only the winner is built: no table keeps a loser.
    best = None
    best_text = None
    for order in _binder_orders(live, parts):
        level = {k: _level_name(depth + i, skip) for i, k in enumerate(order)}
        cs = sorted(
            (_canon(c, outer + tuple((y, level[k]) for y, k in local), inner_depth, skip)
             for c, local, outer in parts),
            key=render_term,
        )
        text = " | ".join(map(render_term, cs))
        if len(cs) > 1:
            text = f"({text})"
        if best_text is None or text < best_text:
            best, best_text = cs, text
    return assemble([_level_name(depth + i, skip) for i in range(len(live))], best)


def assemble(binders, comps) -> Process:
    """The restriction block `binders`, outermost first, over the
    left-nested parallel composition of `comps`: how a normal form's level
    is built, and the inverse of `level`."""
    body = functools.reduce(Par, comps) if comps else NIL
    for b in reversed(binders):
        body = Restrict(b, body)
    return body


def level(nf: Process) -> tuple:
    """The top level of the normal form `nf`: its restriction binders,
    outermost first, and its components, in order.  The inverse of
    `assemble`."""
    binders = []
    while isinstance(nf, Restrict):
        binders.append(nf.binder)
        nf = nf.body
    comps = []
    while isinstance(nf, Par):
        comps.append(nf.right)
        nf = nf.left
    if nf != NIL:
        comps.append(nf)
    comps.reverse()
    return binders, comps


# markers use '#', which the concrete syntax cannot produce, so signature
# renders can never collide with real names
_SELF = Name("s#", reserved=True)

_ORDER_CAP = 24


def _binder_orders(live: list, parts: list):
    """Candidate canonical orders of a restriction block, as tuples of the
    binder numbers of `_peel`.

    Binders are partitioned by an order-independent usage signature: the
    sorted canonical renders of the components that use the binder, each
    read from the `_canon` table under the outer renaming plus a blinding
    that maps the component's local names to markers: this binder's to
    self, the others' to their current group.  No blinded copy is built:
    `_canon` under a renaming renders like the normal form of the renamed
    component, given the level names that the renaming brings in as
    skipped names.  The partition is refined until stable or discrete; only
    tied binders are permuted, capped at _ORDER_CAP candidates.  Residual
    ties need not be block automorphisms: in 65 of the 74 tied levels of a
    `wbb-repl-anchor` check, the candidate orders render differently."""
    if len(live) <= 1:
        return [tuple(live)]

    # per binder, the components that use it: each with its local renaming,
    # its outer renaming and the level names the outer renaming brings in
    users: dict = {k: [] for k in live}
    for c, local, outer in parts:
        if local:
            use = (c, local, outer, _level_names(c, outer, local))
            for _, k in local:
                users[k].append(use)
    group_of = {k: 0 for k in live}

    def signature(t):
        # invariant across congruent presentations of the level
        sigs = []
        for c, local, outer, skip in users[t]:
            blind = tuple(
                (y, _SELF if k == t else Name(f"g{group_of[k]}#", reserved=True))
                for y, k in local
            )
            sigs.append(render_term(_canon(c, outer + blind, 0, skip)))
        return tuple(sorted(sigs))

    while True:
        # refine only: the key keeps the old group, so partitions never merge
        sigs = {t: (group_of[t], signature(t)) for t in live}
        buckets: dict = {}
        for t in live:
            buckets.setdefault(sigs[t], []).append(t)
        new_group_of = {}
        for idx, key in enumerate(sorted(buckets)):
            for t in buckets[key]:
                new_group_of[t] = idx
        # a discrete partition cannot be refined further
        if new_group_of == group_of or len(buckets) == len(live):
            break
        group_of = new_group_of

    ordered_groups = [buckets[key] for key in sorted(buckets)]
    total = 1
    for g in ordered_groups:
        for i in range(2, len(g) + 1):
            total *= i
    if total > _ORDER_CAP:
        # beyond the cap: deterministic but potentially incomplete order
        return [tuple(t for g in ordered_groups for t in g)]
    perms = [itertools.permutations(g) for g in ordered_groups]
    return [
        tuple(t for part in combo for t in part)
        for combo in itertools.product(*perms)
    ]


def unfold_once(p: Process) -> frozenset:
    """All terms obtained by one application of !P == P | !P, at any
    position, under prefixes too."""
    match p:
        case Output(c, d, k):
            return frozenset(Output(c, d, u) for u in unfold_once(k))
        case Input(c, b, k):
            return frozenset(Input(c, b, u) for u in unfold_once(k))
        case Par(l, r):
            return (frozenset(Par(u, r) for u in unfold_once(l))
                    | frozenset(Par(l, u) for u in unfold_once(r)))
        case Restrict(b, body):
            return frozenset(Restrict(b, u) for u in unfold_once(body))
        case Repl(body):
            return frozenset(Repl(u) for u in unfold_once(body)) | {Par(body, p)}
    return frozenset()


@memo
def _variants(nf: Process) -> frozenset:
    """The normal form `nf` and the normal forms of its one-step
    replication unfoldings: the one table of unfoldings."""
    return frozenset({nf, *map(normalize_transient, unfold_once(nf))})


def variants(terms) -> frozenset:
    """The normal forms within one replication unfolding of any of `terms`:
    two terms are congruent up to one unfolding iff their sets meet."""
    return frozenset().union(*(_variants(_normalize(t)) for t in terms))


def congruent(p: Process, q: Process) -> bool:
    """Decide structural congruence up to one replication unfolding on
    each side.  Sound always; complete for replication-free terms."""
    return not variants((p,)).isdisjoint(variants((q,)))
