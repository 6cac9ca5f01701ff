"""Independent oracles for the test suite.

Nothing here goes through the production transition/checker machinery:
reduction is implemented straight from the reduction rules (communication
axiom at a parallel level, closed under restriction, parallel and
congruence), equivalence checking is a naive fixpoint over the fully
enumerated tau graph, and structural congruence has a rewrite-closure
oracle over the congruence axioms.
"""

from __future__ import annotations

import random
from functools import lru_cache

from piworkbench.congruence import normalize, unfold_once
from piworkbench.observables import CHAN, IN, OUT, SUCC, strong_barbs
from piworkbench.syntax import (NIL, OK, Hole, Input, Name, Nil, Output,
                                Par, Process, Repl, Restrict, Success, names,
                                substitute)

# --- Def-2 style reduction ------------------------------------------


def _block_comps(p: Process):
    binders = []
    while isinstance(p, Restrict):
        binders.append(p.binder)
        p = p.body
    comps = []
    todo = [p]
    while todo:
        t = todo.pop()
        if isinstance(t, Par):
            todo.extend((t.right, t.left))
        elif not isinstance(t, Nil):
            comps.append(t)
    return binders, comps


def _assemble(binders, comps) -> Process:
    body = NIL
    if comps:
        body = comps[0]
        for c in comps[1:]:
            body = Par(body, c)
    for b in reversed(binders):
        body = Restrict(b, body)
    return body


def oracle_reducts(p: Process, repl_unfolds: int = 2) -> frozenset:
    """One-step reducts by the communication axiom, computed on normal
    forms (with up to `repl_unfolds` replication unfoldings exposed)."""
    starts = {normalize(p)}
    frontier = set(starts)
    for _ in range(repl_unfolds):
        nxt = set()
        for t in frontier:
            for u in unfold_once(t):
                c = normalize(u)
                if c not in starts:
                    starts.add(c)
                    nxt.add(c)
        frontier = nxt
    out = set()
    for start in starts:
        binders, comps = _block_comps(start)
        for i, ci in enumerate(comps):
            if not isinstance(ci, Output):
                continue
            for j, cj in enumerate(comps):
                if j == i or not isinstance(cj, Input) or cj.chan != ci.chan:
                    continue
                received = substitute(cj.cont, cj.binder, ci.datum)
                rest = [c for k, c in enumerate(comps) if k not in (i, j)]
                out.add(normalize(_assemble(binders, rest + [ci.cont, received])))
    return frozenset(out)


def oracle_tau_graph(p: Process, repl_unfolds: int = 0, cap: int = None) -> dict:
    """Fully enumerated tau graph: replication-free terms only, unless
    `repl_unfolds` exposes replicated components (two copies meet after two
    unfoldings); None when it holds more than `cap` states."""
    root = normalize(p)
    graph = {}
    todo = [root]
    while todo:
        t = todo.pop()
        if t in graph:
            continue
        if cap is not None and len(graph) == cap:
            return None
        succs = oracle_reducts(t, repl_unfolds=repl_unfolds)
        graph[t] = succs
        todo.extend(succs)
    return graph


# --- naive bisimulation fixpoint ------------------------------------

_ORACLE_OBS = {
    "wbb": (IN, OUT),
    "awbb": (OUT,),
    "wcb": (CHAN,),
    "srwrb": (SUCC,),
}


def oracle_bisim(kind: str, p: Process, q: Process, repl_unfolds: int = 0, cap: int = None):
    """Greatest reduction-based bisimulation over the union of the two
    fully enumerated tau graphs, by plain iteration from the full square;
    None when a graph holds more than `cap` states."""
    obs_kinds = _ORACLE_OBS[kind]
    ga, gb = oracle_tau_graph(p, repl_unfolds, cap), oracle_tau_graph(q, repl_unfolds, cap)
    if ga is None or gb is None:
        return None
    graph = dict(ga)
    graph.update(gb)
    states = sorted(graph, key=repr)

    def observed(t):
        return frozenset(b for b in strong_barbs(t) if b.kind in obs_kinds)

    reach = {}
    for s in states:
        seen = {s}
        todo = [s]
        while todo:
            t = todo.pop()
            for u in graph[t]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        reach[s] = seen

    weak_obs = {s: frozenset().union(*(observed(t) for t in reach[s])) for s in states}

    rel = {(a, b) for a in states for b in states}

    def ok(a, b, rel):
        if not observed(a) <= weak_obs[b]:
            return False
        for a2 in graph[a]:
            if not any((a2, b2) in rel for b2 in reach[b]):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel, key=repr):
            a, b = pair
            if (b, a) not in rel or not ok(a, b, rel):
                rel.discard(pair)
                changed = True
    return (normalize(p), normalize(q)) in rel


# --- term size ------------------------------------------------------


def size(p: Process) -> int:
    """Node count of the term."""
    match p:
        case Nil() | Success() | Hole():
            return 1
        case Output(_, _, k) | Input(_, _, k) | Restrict(_, k) | Repl(k):
            return 1 + size(k)
        case Par(l, r):
            return 1 + size(l) + size(r)
    raise TypeError(f"not a process: {p!r}")


# --- exhaustive enumeration ------------------------------------------


def enum_terms(max_size: int, pool, allow_repl: bool = False, allow_succ: bool = True):
    """All alpha-distinct terms of size <= max_size over the name pool,
    deduplicated by congruence normal form."""
    pool = tuple(pool)

    @lru_cache(maxsize=None)
    def gen(budget: int, avail: tuple, depth: int) -> tuple:
        out = []
        if budget >= 1:
            out.append(NIL)
            if allow_succ:
                out.append(OK)
        if budget >= 2:
            binder = Name(f"bb{depth}")
            for k in gen(budget - 1, avail, depth):
                for c in avail:
                    for d in avail:
                        out.append(Output(c, d, k))
                if allow_repl:
                    out.append(Repl(k))
            for k in gen(budget - 1, avail + (binder,), depth + 1):
                for c in avail:
                    out.append(Input(c, binder, k))
                out.append(Restrict(binder, k))
        if budget >= 3:
            for i in range(1, budget - 1):
                for l in gen(i, avail, depth):
                    for r in gen(budget - 1 - i, avail, depth):
                        out.append(Par(l, r))
        return tuple(out)

    seen = {}
    for t in gen(max_size, pool, 0):
        seen.setdefault(normalize(t), t)
    return sorted(seen, key=repr)


# --- congruence rewrite closure --------------------------------------


def _rewrites(p: Process, pool):
    """All one-step applications of the congruence axioms, both ways."""
    out = []
    match p:
        case Par(a, Par(b, c)):
            out.append(Par(Par(a, b), c))
        case _:
            pass
    match p:
        case Par(Par(a, b), c):
            out.append(Par(a, Par(b, c)))
        case _:
            pass
    match p:
        case Par(a, b):
            out.append(Par(b, a))
            if b == NIL:
                out.append(a)
        case _:
            pass
    out.append(Par(p, NIL))
    match p:
        case Restrict(y, Nil()):
            out.append(NIL)
        case _:
            pass
    if p == NIL:
        for y in pool:
            out.append(Restrict(y, NIL))
    # rule (4) !P == P | !P is deliberately absent: the closure oracle
    # targets budget-0 congruence, i.e. rules (1)-(3) and (5)-(9)
    match p:
        case Restrict(y, Restrict(u, body)):
            out.append(Restrict(u, Restrict(y, body)))
        case _:
            pass
    match p:
        case Restrict(w, Par(a, b)) if w not in names(a):
            out.append(Par(a, Restrict(w, b)))
        case _:
            pass
    match p:
        case Par(a, Restrict(w, b)) if w not in names(a):
            out.append(Restrict(w, Par(a, b)))
        case _:
            pass
    match p:
        case Restrict(y, body):
            for w in pool:
                if w not in names(body):
                    out.append(Restrict(w, substitute(body, y, w)))
        case _:
            pass
    match p:
        case Input(x, y, body):
            for w in pool:
                if w not in names(body):
                    out.append(Input(x, w, substitute(body, y, w)))
        case _:
            pass
    return out


def _neighbors(p: Process, pool):
    found = set()

    def walk(t, rebuild):
        for t2 in _rewrites(t, pool):
            found.add(rebuild(t2))
        match t:
            case Output(c, d, k):
                walk(k, lambda n, rb=rebuild: rb(Output(c, d, n)))
            case Input(c, b, k):
                walk(k, lambda n, rb=rebuild: rb(Input(c, b, n)))
            case Par(l, r):
                walk(l, lambda n, rb=rebuild: rb(Par(n, r)))
                walk(r, lambda n, rb=rebuild: rb(Par(l, n)))
            case Restrict(b, k):
                walk(k, lambda n, rb=rebuild: rb(Restrict(b, n)))
            case Repl(k):
                walk(k, lambda n, rb=rebuild: rb(Repl(n)))
            case _:
                pass

    walk(p, lambda n: n)
    return found


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def oracle_classes(seeds, size_cap: int, pool) -> dict:
    """Equivalence classes under the congruence axioms, by exhausting the
    rewrite closure of all seeds inside the bounded term universe.

    Returns seed -> representative; two seeds are congruent (within the
    bound) iff their representatives coincide."""
    pool = tuple(pool)
    uf = _UnionFind()
    seen = set()
    queue = list(seeds)
    while queue:
        t = queue.pop()
        if t in seen:
            continue
        seen.add(t)
        for u in _neighbors(t, pool):
            if size(u) > size_cap:
                continue
            uf.union(t, u)
            if u not in seen:
                queue.append(u)
    return {s: uf.find(s) for s in seeds}


# --- congruence-preserving scrambler ---------------------------------


def scramble(p: Process, rng: random.Random, steps: int = 6) -> Process:
    """A term congruent to p, produced by random axiom applications."""
    pool = tuple(sorted(names(p))) + (Name("scr1"), Name("scr2"))
    cur = p
    for _ in range(steps):
        opts = sorted(_neighbors(cur, pool), key=repr)
        opts = [t for t in opts if size(t) <= size(p) + 4]
        if not opts:
            break
        cur = rng.choice(opts)
    return cur
