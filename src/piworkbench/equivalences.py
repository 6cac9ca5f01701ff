"""Bounded checkers for the weak equivalences.

Verdicts are exact (related / not related) whenever both bounded
fragments closed without hitting the depth horizon; otherwise a verdict
is only definite when the deciding evidence is fully explored, and
Unknown is sticky: an obligation that touches a frontier state or leads
outside the built fragments can downgrade Related to Unknown, never
flip it to NotRelated.

Each game explores on the fly from its root pairs: obligations are built
only for the pairs reachable from them.  An obligation is a three-valued
clause, `_FAIL` < `_TAINT` (cut off by the bound) < `_OK`, and one fixpoint
lowers every pair to its worst clause (Bruns & Godefroid, CAV 1999): a root
at `_FAIL` is `not_related`, at `_TAINT` `unknown`, at `_OK` `related`.
`relate` plays the root pairs of a reduction kind in one game over shared
fragments; `check_bisim` is its one-pair case.  The relation of a `related`
verdict holds the `_OK` pairs reachable from the root pair.  A witness is
searched breadth-first from the root and rendered only once chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .congruence import normalize
from .explore import Exploration
from .memo import paused_gc
from .observables import CHAN, IN, OUT, SUCC, strong_barbs
from .semantics import (TAU, BoundOutput, FreeOutput, InputLab, LtsFragment,
                        Tau, build_fragment, render_label, tau_divergent,
                        universe_fresh_names)
from .syntax import NIL, Output, Par, Process, _free, names, substitute
from .text import render_term

LABEL_KINDS = ("ewb", "wot", "wab")
REDUCTION_KINDS = ("wbb", "awbb", "wcb", "srwrb")
KINDS = LABEL_KINDS + REDUCTION_KINDS

_OBSERVED = {
    "wbb": (IN, OUT),
    "awbb": (OUT,),
    "wcb": (CHAN,),
    "srwrb": (SUCC,),
}

_INPUT_UNIVERSE_NOTE = (
    "input clause instantiated over the shared free names plus one fresh name"
)


@dataclass(frozen=True)
class RelationKind:
    """Which equivalence to check, plus the divergence-preserving and
    branching strengthenings of the reduction-based kinds."""

    kind: str
    divergence_preserving: bool = False
    branching: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}")
        if self.branching and self.kind not in REDUCTION_KINDS:
            raise ValueError("branching variants exist only for reduction-based kinds")

    @property
    def reduction_based(self) -> bool:
        return self.kind in REDUCTION_KINDS


EWB = RelationKind("ewb")
WOT = RelationKind("wot")
WAB = RelationKind("wab")
WBB = RelationKind("wbb")
AWBB = RelationKind("awbb")
WCB = RelationKind("wcb")
SRWRB = RelationKind("srwrb")


@dataclass(frozen=True)
class WitnessStep:
    side: str  # "left" | "right"
    label: str


@dataclass(frozen=True)
class Witness:
    """Counterexample: how to reach the failing pair, and which obligation
    is definitely unmatched there."""

    steps: tuple
    pair: tuple  # rendered failing pair (left term, right term)
    side: str  # side owning the unmatched move/barb
    category: str  # "input-move" | "output-move" | "tau-move" | "barb" | "divergence"
    label: str
    detail: str
    near_miss: tuple = ()

    def describe(self) -> str:
        path = "; ".join(f"{s.side} {s.label}" for s in self.steps)
        prefix = f"after [{path}] " if path else ""
        return f"{prefix}{self.detail}"


@dataclass(frozen=True)
class Verdict:
    status: str  # "related" | "not_related" | "unknown"
    relation: tuple = ()
    witness: Optional[Witness] = None
    reason: str = ""
    approximations: tuple = ()

    @property
    def is_related(self) -> bool:
        return self.status == "related"

    @property
    def is_not_related(self) -> bool:
        return self.status == "not_related"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


class Saturation(NamedTuple):
    """Weak-transition data of one fragment, per state: its tau* closure as
    (frozenset of indices, closed) and, for a fragment over a universe, its
    =alpha=> moves as (moves, complete) with move = (Label, target index);
    a tau-only fragment has no visible moves, so `weak_moves` is None."""

    tau_closure: tuple
    weak_moves: Optional[tuple]


def saturate(frag: LtsFragment) -> Saturation:
    """Weak-transition data of a fragment: tau* closures, and the composed
    =alpha=> moves when the fragment has a universe.  Completeness flags
    record whether any of it was cut off by a frontier."""
    n = len(frag.states)
    closures = []
    for i in range(n):
        seen = {i}
        stack = [i]
        while stack:
            j = stack.pop()
            for a, t in frag.out[j]:
                if isinstance(a, Tau) and t not in seen:
                    seen.add(t)
                    stack.append(t)
        closures.append((frozenset(seen), frag.frontier.isdisjoint(seen)))
    weak = None
    if frag.universe is not None:
        weak = []
        for i in range(n):
            cl, complete = closures[i]
            moves = set()
            for j in cl:
                for a, k in frag.out[j]:
                    if isinstance(a, Tau):
                        continue
                    clk, closedk = closures[k]
                    complete = complete and closedk
                    for l in clk:
                        moves.add((a, l))
            ordered = tuple(sorted(moves, key=lambda m: (render_label(m[0]), m[1])))
            weak.append((ordered, complete))
        weak = tuple(weak)
    return Saturation(tuple(closures), weak)


# A clause's value: definitely unmatched, cut off by the bound, matched.
_FAIL, _TAINT, _OK = 0, 1, 2
_VERDICT = ("not_related", "unknown", "related")  # by a root pair's value
_OTHER = {"left": "right", "right": "left"}

_CATEGORY_RANK = {c: rank for rank, c in enumerate(
    ("input-move", "output-move", "barb", "divergence", "tau-move"))}

# The lowest-ranked blame category each kind can produce; the reduction-based
# kinds produce "barb" at best.
_LOWEST_CATEGORY = {"ewb": "input-move", "wab": "input-move", "wot": "output-move"}


class Blame(NamedTuple):
    """An obligation that can fail, kept unrendered: only the blame chosen as
    the witness gets its label, detail and near-miss labels rendered."""

    side: str
    category: str
    subject: object  # the unmatched label or barb; for divergence, (left, right)
    y: int = 0  # the other side's state, whose weak moves are the near misses


# A clause is a value, a pair (worth that pair's value), or one of these
# nodes over clauses.
class _Any(tuple):
    """A clause worth its best part; with no part, `_FAIL`."""


class _All(tuple):
    """A clause worth its worst part; with no part, `_OK`."""


def _exists(parts: list, complete: bool) -> _Any:
    """Some part holds; failing that, the clause fails only if `complete`."""
    return _Any(parts if complete else parts + [_TAINT])


def _value(clause, status: dict) -> int:
    """A clause's value when each pair it names is worth what `status` gives
    it; pair leaves are looked up in place.  A node is decided by a part at
    its deciding end (`_OK` for any-of, `_FAIL` for all-of); failing that,
    it is `_TAINT` if a part is, else worth its other end."""
    kind = clause.__class__
    if kind is tuple:
        return status[clause]
    if kind is int:
        return clause
    decides, other = (_OK, _FAIL) if kind is _Any else (_FAIL, _OK)
    for part in clause:
        kind = part.__class__
        v = status[part] if kind is tuple else part if kind is int else _value(part, status)
        if v == decides:
            return v
        if v == _TAINT:
            other = _TAINT
    return other


def _named_pairs(clauses, out: set) -> set:
    """Add to `out` every pair the clauses `clauses` name."""
    for clause in clauses:
        kind = clause.__class__
        if kind is tuple:
            out.add(clause)
        elif kind is not int:
            _named_pairs(clause, out)
    return out


def _divergence_status(frag: LtsFragment, sat: Saturation) -> list:
    divergent = tau_divergent(frag)
    return ["yes" if i in divergent else "no" if closed else "unknown"
            for i, (_, closed) in enumerate(sat.tau_closure)]


class _Engine:
    """The bisimulation game of one check, explored on the fly.

    Both fragments are built and saturated up front.  Obligations, each a
    (clause, blame) pair, are built only for the pairs a check asks about
    and for the pairs reachable from them through the pairs clauses name,
    their closure.  `refine` gives each explored pair, in `status`, the
    greatest fixpoint of "a pair is worth its worst clause".  A pair's
    value reads only the pairs its clauses name, so refining every explored
    pair, a set closed under naming, gives each the value and blames that
    refining every pair would give: verdicts and witnesses do not depend on
    how much of the game was explored.

    A game keeps one copy of each pair: every pair is made by `pair`, so
    `table`, `status`, `blames`, the roots and each clause that names the
    pair share one tuple, and every tau move of a side shares one blame."""

    tau_blame = {side: Blame(side, "tau-move", TAU) for side in ("left", "right")}

    def __init__(self, kind: RelationKind, fa: LtsFragment, fb: LtsFragment, wset: tuple):
        self.kind = kind
        self.fa = fa
        self.fb = fb
        self.wset = wset
        self.sides = {"left": (fa, fb), "right": (fb, fa)}
        self.sat = {"left": saturate(fa), "right": saturate(fb)}
        if kind.reduction_based:
            obs_kinds = _OBSERVED[kind.kind]
            self.obs = {
                s: [
                    frozenset(b for b in strong_barbs(t) if b.kind in obs_kinds)
                    for t in frag.states
                ]
                for s, (frag, _) in self.sides.items()
            }
            self.weak_obs = {
                s: [(frozenset().union(*(self.obs[s][j] for j in cl)), closed)
                    for cl, closed in self.sat[s].tau_closure]
                for s in self.sides
            }
        if kind.divergence_preserving:
            self.div = {
                s: _divergence_status(frag, self.sat[s]) for s, (frag, _) in self.sides.items()
            }
        self.pairs = {}  # pair -> its one tuple in this game
        self.table = {}  # explored pair -> its obligations
        self.status = {}  # explored pair -> its value, in sorted pair order
        self.blames = {}  # `_FAIL` pair -> the blames of the clauses that failed it

    def obligations(self, pair: tuple) -> tuple:
        i, j = pair
        return self._pair_obligations("left", i, j) + self._pair_obligations("right", j, i)

    def pair(self, i: int, j: int) -> tuple:
        """The one tuple of the pair (i, j) in this game, which the tables,
        the roots and every clause that names the pair share."""
        return self._key("left", i, j)

    def _key(self, side: str, x2: int, y2: int) -> tuple:
        pair = (x2, y2) if side == "left" else (y2, x2)
        return self.pairs.setdefault(pair, pair)

    def _pair_obligations(self, side: str, x: int, y: int) -> tuple:
        fx, fy = self.sides[side]
        obs = []
        if self.kind.divergence_preserving and side == "left":
            dx, dy = self.div["left"][x], self.div["right"][y]
            if "unknown" in (dx, dy):
                obs.append((_TAINT, None))
            elif dx != dy:
                obs.append((_FAIL, Blame(side, "divergence", (dx, dy))))
        if x in fx.frontier:
            obs.append((_TAINT, None))
        if self.kind.reduction_based:
            obs.extend(self._barb_obligations(side, x, y))
            obs.extend(self._tau_obligations(side, x, y, fx, fy))
        else:
            obs.extend(self._tau_obligations(side, x, y, fx, fy))
            obs.extend(self._label_obligations(side, x, y, fx, fy))
        return tuple(obs)

    def _barb_obligations(self, side: str, x: int, y: int):
        found, closed = self.weak_obs[_OTHER[side]][y]
        for b in sorted(self.obs[side][x]):
            if b in found:
                continue
            yield (_FAIL if closed else _TAINT, Blame(side, "barb", b))

    def _tau_obligations(self, side: str, x: int, y: int, fx: LtsFragment, fy: LtsFragment):
        cly, closedy = self.sat[_OTHER[side]].tau_closure[y]
        for a, x2 in fx.out[x]:
            if not isinstance(a, Tau):
                continue
            if self.kind.branching:
                parts = [self._key(side, x2, y)]
                for y1 in sorted(cly):
                    for b, y2 in fy.out[y1]:
                        if isinstance(b, Tau):
                            parts.append(_All((self._key(side, x, y1), self._key(side, x2, y2))))
            else:
                parts = [self._key(side, x2, y2) for y2 in sorted(cly)]
            yield (_exists(parts, closedy), self.tau_blame[side])

    def _near_miss(self, side: str, y: int, chan) -> tuple:
        moves, _ = self.sat[side].weak_moves[y]
        return tuple(sorted({render_label(a) for a, _ in moves if getattr(a, "chan", None) == chan}))

    def _label_obligations(self, side: str, x: int, y: int, fx: LtsFragment, fy: LtsFragment):
        sy = self.sat[_OTHER[side]]
        ymoves, ycomplete = sy.weak_moves[y]
        for a, x2 in fx.out[x]:
            if isinstance(a, Tau):
                continue
            if isinstance(a, FreeOutput):
                parts = [self._key(side, x2, y2) for b, y2 in ymoves if b == a]
                yield (_exists(parts, ycomplete), Blame(side, "output-move", a, y))
            elif isinstance(a, BoundOutput):
                parts = []
                for b, y2 in ymoves:
                    if not isinstance(b, BoundOutput) or b.chan != a.chan:
                        continue
                    parts.append(self._aligned_entry(side, fx, fy, x2, y2, b.datum, a.datum))
                yield (_exists(parts, ycomplete), Blame(side, "output-move", a, y))
            elif isinstance(a, InputLab) and self.kind.kind == "ewb":
                yield (self._input_clause(side, x2, a, fx, fy, ymoves, ycomplete),
                       Blame(side, "input-move", a, y))
        if self.kind.kind == "wab":
            xmoves, xcomplete = self.sat[side].weak_moves[x]
            if not xcomplete:
                yield (_TAINT, None)
            for a, x2 in xmoves:
                if not isinstance(a, InputLab):
                    continue
                branch_a = self._input_clause(side, x2, a, fx, fy, ymoves, ycomplete)
                cly, closedy = sy.tau_closure[y]
                parts = []
                for y2 in sorted(cly):
                    buffered = normalize(Par(fy.states[y2], Output(a.chan, a.datum, NIL)))
                    parts.append(self._resolve(side, fx, fy, x2, buffered))
                branch_b = _exists(parts, closedy)
                yield (_Any((branch_a, branch_b)), Blame(side, "input-move", a, y))

    def _aligned_entry(self, side, fx, fy, x2, y2, have, want):
        if have == want:
            return self._key(side, x2, y2)
        aligned = normalize(substitute(fy.states[y2], have, want))
        return self._resolve(side, fx, fy, x2, aligned)

    def _resolve(self, side, fx, fy, x2, term: Process):
        j2 = fy.index.get(term)
        if j2 is not None:
            return self._key(side, x2, j2)
        return _OK if fx.states[x2] == term else _TAINT

    def _input_clause(self, side, x2, a, fx, fy, ymoves, ycomplete) -> _All:
        matches = [(b, y2) for b, y2 in ymoves if isinstance(b, InputLab) and b.chan == a.chan]
        subs = []
        for w in self.wset:
            parts = []
            if matches:
                u1 = normalize(substitute(fx.states[x2], a.datum, w))
                i2 = fx.index.get(u1)
            for b, y2 in matches:
                u2 = normalize(substitute(fy.states[y2], b.datum, w))
                if u1 == u2:
                    parts.append(_OK)
                    continue
                j2 = fy.index.get(u2)
                if i2 is not None and j2 is not None:
                    parts.append(self._key(side, i2, j2))
                else:
                    parts.append(_TAINT)
            subs.append(_exists(parts, ycomplete))
        return _All(subs)

    def _render(self, blame: Blame) -> tuple:
        """The (label, detail, near-miss labels) of a blame."""
        side, category, subject, y = blame
        other = _OTHER[side]
        if category == "divergence":
            dx, dy = subject
            return dx, f"left diverges={dx} but right diverges={dy}", ()
        if category == "barb":
            return str(subject), f"{side} has strong barb '{subject}' which the {other} side never reaches weakly", ()
        if category == "tau-move":
            return "tau", f"a tau step on the {side} cannot be matched weakly", ()
        label = render_label(subject)
        near_miss = self._near_miss(other, y, subject.chan)
        if category == "output-move":
            how = "free" if isinstance(subject, FreeOutput) else "bound"
            detail = f"{side} performs {how} output {label} with no weak match on the {other}"
        elif self.kind.kind == "wab":
            detail = f"{side} weak input {label} has neither a weak input match nor a buffered-output match on the {other}"
        else:
            detail = f"{side} performs input {label} which the {other} side cannot weakly match"
        return label, detail, near_miss

    # --- the fixpoint -----------------------------------------------

    def explore(self, roots) -> bool:
        """Build obligations for every pair reachable from `roots` that was
        not explored before; returns whether there was any."""
        size = len(self.table)
        stack = list(roots)
        while stack:
            pair = stack.pop()
            if pair not in self.table:
                obs = self.table[pair] = self.obligations(pair)
                stack.extend(_named_pairs((clause for clause, _ in obs), set()))
        return len(self.table) > size

    def refine(self) -> None:
        """Lower every explored pair, from `_OK`, to the worst value of its
        clauses, by sweeps in sorted order until a sweep changes nothing; a
        pair that falls to `_FAIL` keeps the blames of the clauses that
        failed it.  A `_TAINT` pair can only fall to `_FAIL`, and whether a
        clause fails reads only which pairs are `_FAIL`: so it is evaluated
        again only once some pair has fallen to `_FAIL` since."""
        order = sorted(self.table)
        status = self.status = dict.fromkeys(order, _OK)
        self.blames = {}
        seen = {}  # `_TAINT` pair -> `falls` at its last evaluation
        moves = falls = 0
        swept = None
        while swept != moves:
            swept = moves
            for pair in order:
                old = status[pair]
                if old == _FAIL or (old == _TAINT and seen[pair] == falls):
                    continue
                new, failed = _OK, []
                for clause, blame in self.table[pair]:
                    v = _value(clause, status)
                    if v == _FAIL:
                        failed.append(blame)
                    elif v < new:
                        new = v
                if failed:
                    new, self.blames[pair] = _FAIL, tuple(failed)
                    falls += 1
                if new != old:
                    status[pair] = new
                    moves += 1
                seen[pair] = falls

    def settle(self, roots) -> None:
        """Explore from `roots`; when that reached new pairs, refine every
        explored pair again."""
        if self.explore(roots):
            self.refine()

    def decide(self, roots) -> list:
        """The status of each root pair, on a fresh engine, read from its
        value after `settle`: `_FAIL` is `not_related`, `_TAINT` `unknown`
        and `_OK` `related`."""
        self.settle(roots)
        return [_VERDICT[self.status[root]] for root in roots]

    def audit(self, live) -> tuple:
        """Explore from the pairs of a fixed relation and evaluate each one's
        clauses with its pairs `_OK` and every other pair `_FAIL`; returns
        the clauses that fail (a `_TAINT` clause, cut off by the bound, is
        no violation)."""
        self.explore(live)
        status = {pair: _OK if pair in live else _FAIL for pair in self.table}
        return tuple((pair, "fail", blame.category) for pair in sorted(live)
                     for clause, blame in self.table[pair] if _value(clause, status) == _FAIL)

    def witness(self) -> Witness:
        """Counterexample once the root pair fell to `_FAIL` (so level 0
        already holds a blame).

        Of all blames of `_FAIL` pairs, the one with the lowest (category
        rank, BFS distance in the product of the fragments, pair, index)
        wins.  The product is walked level by level, settling each level's
        pairs, and the walk stops after the first level that holds a blame
        of the lowest category the kind can produce."""
        floor = _CATEGORY_RANK[_LOWEST_CATEGORY.get(self.kind.kind, "barb")]

        def moves(pair):
            i, j = pair
            return [(("left", a), self.pair(i2, j)) for a, i2 in self.fa.out[i]] + [
                (("right", b), self.pair(i, j2)) for b, j2 in self.fb.out[j]
            ]

        walk = Exploration((self.pair(0, 0),), moves, len(self.fa.states) * len(self.fb.states))
        best = None
        level = range(1)
        while level:
            self.settle([walk.states[k] for k in level])
            for k in level:
                pair = walk.states[k]
                for idx, blame in enumerate(self.blames.get(pair, ())):
                    rank = (_CATEGORY_RANK[blame.category], walk.dist[k], pair, idx)
                    if best is None or rank < best[0]:
                        best = (rank, k, blame)
            if best[0][0] == floor:
                break
            n = len(walk.states)
            walk.grow()
            level = range(n, len(walk.states))
        _, k, blame = best
        pair = walk.states[k]
        steps = []
        while k:
            # the first move into k, in expansion order, is the one that reached it
            k, (side, a) = next((i, lab) for i in range(k) for lab, t in walk.out[i] if t == k)
            steps.append(WitnessStep(side, render_label(a)))
        steps.reverse()
        label, detail, near_miss = self._render(blame)
        return Witness(
            steps=tuple(steps),
            pair=(render_term(self.fa.states[pair[0]]), render_term(self.fb.states[pair[1]])),
            side=blame.side,
            category=blame.category,
            label=label,
            detail=detail,
            near_miss=near_miss,
        )


def _universe(kind: RelationKind, p: Process, q: Process, depth: int) -> tuple:
    """The universe both fragments of a check of p against q are built
    over, None for the tau-only fragments of the reduction kinds, and the
    names input clauses are instantiated with."""
    if kind.reduction_based:
        return None, ()
    shared_free = _free(p) | _free(q)
    extras = universe_fresh_names(names(p) | names(q), max(depth, 1))
    return shared_free | frozenset(extras), tuple(sorted(shared_free | {extras[0]}))


def _build_engine(kind: RelationKind, pairs: list, depth: int) -> _Engine:
    """The game over a left fragment from the first terms of `pairs` and a
    right one from their second terms; several pairs only for the reduction
    kinds, whose tau-only fragments need no universe."""
    universe, wset = _universe(kind, *pairs[0], depth)
    lefts, rights = zip(*pairs)
    return _Engine(kind, build_fragment(lefts, depth, universe=universe),
                   build_fragment(rights, depth, universe=universe), wset)


def _games(kind: RelationKind, pairs: list, depth: int) -> list:
    """Each pair's (status, engine): for the reduction kinds every pair
    plays in one game, for the label kinds each pair alone; terms with one
    normal form are related with no game."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out = [("related", None)] * len(pairs)
    groups = {}
    for n, (p, q) in enumerate(pairs):
        if normalize(p) != normalize(q):
            groups.setdefault(None if kind.reduction_based else n, []).append(n)
    for ns in groups.values():
        eng = _build_engine(kind, [pairs[n] for n in ns], depth)
        roots = [eng.pair(eng.fa.index[normalize(pairs[n][0])],
                          eng.fb.index[normalize(pairs[n][1])]) for n in ns]
        for n, status in zip(ns, eng.decide(roots)):
            out[n] = (status, eng)
    return out


def relate(kind: RelationKind, pairs, depth: int) -> tuple:
    """The status of each (p, q) of `pairs` over fragments bounded by
    `depth`: the value its root pair ends with in its game's one
    three-valued refinement.  For the reduction kinds every pair plays in
    one game, over a left fragment from all first terms and a right one
    from all second terms.  These expand every state a pair's own
    fragments expand, so a status `check_bisim` decides is the same here,
    and only `unknown` can become definite.  A label kind's pair plays
    alone, as `check_bisim` plays it: its universe depends on its terms,
    and `_Engine._resolve` takes an aligned term equal to the other side as
    a match only when the fragment lacks it, so a shared fragment could
    undo a `related`."""
    with paused_gc():
        return tuple(status for status, _ in _games(kind, list(pairs), depth))


def check_bisim(kind: RelationKind, p: Process, q: Process, depth: int) -> Verdict:
    """Decide whether p and q are related by the given equivalence kind,
    over fragments bounded by `depth`: the one-pair case of `relate`, plus
    the relation of a `related` verdict or the witness of a `not_related`."""
    approx = (_INPUT_UNIVERSE_NOTE,) if kind.kind in ("ewb", "wab") else ()
    with paused_gc():
        ((status, eng),) = _games(kind, [(p, q)], depth)
        if eng is None:
            # the identity relation over the fragment the engine would build is
            # a bisimulation of every kind here, whatever the exploration bound
            universe, _ = _universe(kind, p, q, depth)
            rel = tuple((s, s) for s in build_fragment(p, depth, universe=universe).states)
            return Verdict("related", relation=rel, approximations=approx)
        if status == "not_related":
            return Verdict("not_related", witness=eng.witness(), approximations=approx)
        if status == "unknown":
            reason = "bounded exploration hit a frontier or left the built fragments"
            return Verdict("unknown", reason=reason, approximations=approx)
        # `status` keeps the sorted order of the pairs
        rel = tuple((eng.fa.states[i], eng.fb.states[j])
                    for (i, j), value in eng.status.items() if value == _OK)
        return Verdict("related", relation=rel, approximations=approx)


def audit_relation(kind: RelationKind, p: Process, q: Process, depth: int, relation) -> tuple:
    """Replay a Related verdict's relation clause-by-clause; empty result
    means the self-audit passed.  `depth` is the verdict's, so at least 1."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    eng = _build_engine(kind, [(p, q)], depth)
    live = set()
    bad = []
    for pa, pb in relation:
        i = eng.fa.index.get(pa)
        j = eng.fb.index.get(pb)
        if i is None or j is None:
            bad.append(((pa, pb), "fail", "pair outside fragments"))
        else:
            live.add(eng.pair(i, j))
    return tuple(bad) + eng.audit(live)
