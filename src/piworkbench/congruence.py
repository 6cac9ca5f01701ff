"""Structural congruence via a canonical normal form.

The normal form at every parallel level is a block of restrictions (in
positional order) over a flat, text-sorted multiset of components, with
0-units, void restrictions and alpha-variance removed.  Two terms are
congruent iff their normal forms are syntactically identical; replication
unfolding (!P == P | !P) is not part of the normal form: `congruent`
explores the normal forms of unfoldings breadth-first, up to a budget,
with the shared explorer (`explore`).
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator

from .explore import explore, unlabelled
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


@memo
def _normalize(p: Process) -> Process:
    return _canon(p, (), 0, _level_names(p, ()))


def _level_names(p: Process, env: tuple) -> frozenset:
    """The level names among the images of the free names of `p` under the
    renaming `env`: the names `_canon` must skip so that its binders never
    capture them."""
    m = dict(env)
    images = (m.get(n, n) for n in _free(p))
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
    # binder number) and the outer renaming of its other free names.
    # Returns the number of binders peeled so far.
    match p:
        case Par(l, r):
            return _peel(r, env, ren, parts, _peel(l, env, ren, parts, n))
        case Restrict(b, body):
            return _peel(body, env, {**ren, b: n}, parts, n + 1)
        case Nil():
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
    if not parts:
        return NIL
    live = sorted({k for _, local, _ in parts for _, k in local})
    inner_depth = depth + len(live)
    best = None
    best_text = None
    for order in _binder_orders(live, parts):
        level = {k: _level_name(depth + i, skip) for i, k in enumerate(order)}
        cs = sorted(
            (_canon(c, outer + tuple((y, level[k]) for y, k in local), inner_depth, skip)
             for c, local, outer in parts),
            key=render_term,
        )
        body = cs[0]
        for c in cs[1:]:
            body = Par(body, c)
        for i in reversed(range(len(live))):
            body = Restrict(_level_name(depth + i, skip), body)
        text = render_term(body)
        if best_text is None or text < best_text:
            best, best_text = body, text
    return best


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
    ties are almost always genuine block automorphisms, for which every
    order renders identically."""
    if len(live) <= 1:
        return [tuple(live)]

    # per binder, the components that use it: each with its local renaming,
    # its outer renaming and the level names the outer renaming brings in
    # (local names count as markers, which are never level names, even
    # when a local name is spelled like one)
    users: dict = {k: [] for k in live}
    for c, local, outer in parts:
        if local:
            use = (c, local, outer, _level_names(c, outer + tuple((y, _SELF) for y, _ in local)))
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


def _positions(p: Process) -> Iterator[tuple]:
    """Yield (replicated subterm, rebuild function) for every !-node."""
    match p:
        case Repl(body):
            yield p, (lambda new: new)
        case _:
            pass
    match p:
        case Output(c, d, k):
            for sub, rb in _positions(k):
                yield sub, (lambda new, rb=rb: Output(c, d, rb(new)))
        case Input(c, b, k):
            for sub, rb in _positions(k):
                yield sub, (lambda new, rb=rb: Input(c, b, rb(new)))
        case Par(l, r):
            for sub, rb in _positions(l):
                yield sub, (lambda new, rb=rb: Par(rb(new), r))
            for sub, rb in _positions(r):
                yield sub, (lambda new, rb=rb: Par(l, rb(new)))
        case Restrict(b, body):
            for sub, rb in _positions(body):
                yield sub, (lambda new, rb=rb: Restrict(b, rb(new)))
        case Repl(body):
            for sub, rb in _positions(body):
                yield sub, (lambda new, rb=rb: Repl(rb(new)))
        case _:
            pass


def unfold_once(p: Process) -> frozenset:
    """All terms obtained by one application of !P == P | !P, left to right."""
    out = set()
    for sub, rebuild in _positions(p):
        out.add(rebuild(Par(sub.body, sub)))
    return frozenset(out)


@memo
def _variants(nf: Process, budget: int) -> frozenset:
    """The normal forms within `budget` replication unfoldings of the
    normal form `nf`: the one table of unfoldings."""
    step = unlabelled(lambda t: map(_normalize, unfold_once(t)))
    return frozenset(explore(nf, step, budget).states)


def congruent(p: Process, q: Process, unfold_budget: int = 0) -> bool:
    """Decide structural congruence.

    Sound always; complete for replication-free terms at budget 0.  With a
    positive budget, some pairing of replication unfoldings is searched on
    both sides.
    """
    if unfold_budget < 0:
        raise ValueError("unfold_budget must be >= 0")
    np, nq = _normalize(p), _normalize(q)
    if np == nq:
        return True
    if unfold_budget == 0:
        return False
    return not _variants(np, unfold_budget).isdisjoint(_variants(nq, unfold_budget))
