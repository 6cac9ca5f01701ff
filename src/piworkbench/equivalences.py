"""Bounded checkers for the weak equivalences.

Verdicts are exact (related / not related) whenever both bounded
fragments closed without hitting the depth horizon; otherwise a verdict
is only definite when the deciding evidence is fully explored, and
Unknown is sticky: an obligation that touches a frontier state or leads
outside the built fragments can downgrade Related to Unknown, never
flip it to NotRelated.

Each game explores on the fly from its root pairs: obligations are built
only for the pairs reachable from them, a loose refinement decides
`not_related`, and a strict one, started from the loose survivors, decides
`related`.  `relate` plays the root pairs of a reduction kind in one game
over shared fragments; `check_bisim` is its one-pair case.  The relation
of a `related` verdict holds the strict survivors reachable from the root
pair.  A witness is searched breadth-first from the root and rendered only
once chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

from .congruence import normalize
from .explore import Exploration
from .memo import paused_gc
from .observables import CHAN, IN, OUT, SUCC, strong_barbs
from .semantics import (BoundOutput, FreeOutput, InputLab, LtsFragment, Tau,
                        build_fragment, render_label, tau_divergent,
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
    (frozenset of indices, closed) and, for an all-labels fragment, its
    =alpha=> moves as (moves, complete) with move = (Label, target index);
    a tau-only fragment has no visible moves, so `weak_moves` is None."""

    tau_closure: tuple
    weak_moves: Optional[tuple]


def saturate(frag: LtsFragment) -> Saturation:
    """Weak-transition data of a fragment: tau* closures, and the composed
    =alpha=> moves when the fragment holds every label.  Completeness flags
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
    if frag.label_mode == "all_labels":
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


_OK, _FAIL, _TAINT = "ok", "fail", "taint"
_OTHER = {"left": "right", "right": "left"}

_CATEGORY_RANK = {
    "input-move": 0,
    "output-move": 1,
    "barb": 2,
    "divergence": 3,
    "tau-move": 4,
}

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


def _divergence_status(frag: LtsFragment, sat: Saturation) -> list:
    divergent = tau_divergent(frag)
    out = []
    for i in range(len(frag.states)):
        _, closed = sat.tau_closure[i]
        if i in divergent:
            out.append("yes")
        elif closed:
            out.append("no")
        else:
            out.append("unknown")
    return out


def _named_pairs(obs, out: set) -> set:
    """Add to `out` every pair the obligations `obs` name."""
    for ob in obs:
        if ob[0] == "exists":
            for e in ob[1]:
                out.update(e[1:])
        elif ob[0] in ("forall", "disj"):
            _named_pairs(ob[1], out)
    return out


class _Engine:
    """The bisimulation game of one check, explored on the fly.

    Both fragments are built and saturated up front.  Clause obligations
    are built only for the pairs a check asks about and for the pairs
    reachable from them through the pairs obligations name, their closure;
    no obligation names a pair outside its own pair's closure.  A pair's
    status reads only the pairs its obligations name, so sweeping every
    explored pair, a set closed under naming, gives each of them the round
    and blames that sweeps over every pair would give: verdicts and
    witnesses do not depend on how much of the game was explored."""

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
            self.weak_obs = {}
            for s, (frag, _) in self.sides.items():
                per = []
                for i in range(len(frag.states)):
                    cl, closed = self.sat[s].tau_closure[i]
                    found = frozenset().union(*(self.obs[s][j] for j in cl))
                    per.append((found, closed))
                self.weak_obs[s] = per
        if kind.divergence_preserving:
            self.div = {
                s: _divergence_status(frag, self.sat[s]) for s, (frag, _) in self.sides.items()
            }
        self.table = {}  # explored pair -> its clause obligations
        self.removed = {}  # pair -> sweep round of its removal by the loose refinement
        self.blames = {}  # pair -> the blames recorded when it was removed
        self.relation = []  # the strict survivors of `decide`, sorted

    def obligations(self, pair: tuple) -> tuple:
        i, j = pair
        return self._pair_obligations("left", i, j) + self._pair_obligations("right", j, i)

    def _key(self, side: str, x2: int, y2: int) -> tuple:
        return (x2, y2) if side == "left" else (y2, x2)

    def _pair_obligations(self, side: str, x: int, y: int) -> tuple:
        fx, fy = self.sides[side]
        obs = []
        if self.kind.divergence_preserving and side == "left":
            dx, dy = self.div["left"][x], self.div["right"][y]
            if "unknown" in (dx, dy):
                obs.append(("static", _TAINT, None))
            elif dx != dy:
                obs.append(("static", _FAIL, Blame(side, "divergence", (dx, dy))))
        if x in fx.frontier:
            obs.append(("static", _TAINT, None))
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
            yield ("static", _FAIL if closed else _TAINT, Blame(side, "barb", b))

    def _tau_obligations(self, side: str, x: int, y: int, fx: LtsFragment, fy: LtsFragment):
        cly, closedy = self.sat[_OTHER[side]].tau_closure[y]
        for a, x2 in fx.out[x]:
            if not isinstance(a, Tau):
                continue
            if self.kind.branching:
                entries = [("pair", self._key(side, x2, y))]
                for y1 in sorted(cly):
                    for b, y2 in fy.out[y1]:
                        if isinstance(b, Tau):
                            entries.append(
                                ("pair2", self._key(side, x, y1), self._key(side, x2, y2))
                            )
            else:
                entries = [("pair", self._key(side, x2, y2)) for y2 in sorted(cly)]
            yield ("exists", tuple(entries), closedy, Blame(side, "tau-move", a))

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
                entries = [
                    ("pair", self._key(side, x2, y2)) for b, y2 in ymoves if b == a
                ]
                yield ("exists", tuple(entries), ycomplete, Blame(side, "output-move", a, y))
            elif isinstance(a, BoundOutput):
                entries = []
                for b, y2 in ymoves:
                    if not isinstance(b, BoundOutput) or b.chan != a.chan:
                        continue
                    entries.append(self._aligned_entry(side, fx, fy, x2, y2, b.datum, a.datum))
                yield ("exists", tuple(entries), ycomplete, Blame(side, "output-move", a, y))
            elif isinstance(a, InputLab) and self.kind.kind == "ewb":
                yield self._input_obligation(side, x2, a, y, fx, fy, ymoves, ycomplete)
        if self.kind.kind == "wab":
            xmoves, xcomplete = self.sat[side].weak_moves[x]
            if not xcomplete:
                yield ("static", _TAINT, None)
            for a, x2 in xmoves:
                if not isinstance(a, InputLab):
                    continue
                branch_a = self._input_obligation(side, x2, a, y, fx, fy, ymoves, ycomplete)
                cly, closedy = sy.tau_closure[y]
                entries = []
                for y2 in sorted(cly):
                    buffered = normalize(Par(fy.states[y2], Output(a.chan, a.datum, NIL)))
                    entries.append(self._resolve(side, fx, fy, x2, buffered))
                branch_b = ("exists", tuple(entries), closedy, None)
                yield ("disj", (branch_a, branch_b), Blame(side, "input-move", a, y))

    def _aligned_entry(self, side, fx, fy, x2, y2, have, want):
        if have == want:
            return ("pair", self._key(side, x2, y2))
        aligned = normalize(substitute(fy.states[y2], have, want))
        return self._resolve(side, fx, fy, x2, aligned)

    def _resolve(self, side, fx, fy, x2, term: Process):
        j2 = fy.index.get(term)
        if j2 is not None:
            return ("pair", self._key(side, x2, j2))
        if fx.states[x2] == term:
            return ("ok",)
        return ("taint",)

    def _input_obligation(self, side, x2, a, y, fx, fy, ymoves, ycomplete):
        matches = [(b, y2) for b, y2 in ymoves if isinstance(b, InputLab) and b.chan == a.chan]
        subs = []
        for w in self.wset:
            entries = []
            if matches:
                u1 = normalize(substitute(fx.states[x2], a.datum, w))
                i2 = fx.index.get(u1)
            for b, y2 in matches:
                u2 = normalize(substitute(fy.states[y2], b.datum, w))
                if u1 == u2:
                    entries.append(("ok",))
                    continue
                j2 = fy.index.get(u2)
                if i2 is not None and j2 is not None:
                    entries.append(("pair", self._key(side, i2, j2)))
                else:
                    entries.append(("taint",))
            subs.append(("exists", tuple(entries), ycomplete, None))
        return ("forall", tuple(subs), Blame(side, "input-move", a, y))

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

    # --- evaluation -------------------------------------------------

    def _eval(self, ob, live) -> str:
        tag = ob[0]
        if tag == "static":
            return ob[1]
        if tag == "exists":
            _, entries, complete, _ = ob
            taint = not complete
            for e in entries:
                if e[0] == "ok":
                    return _OK
                if e[0] == "pair" and e[1] in live:
                    return _OK
                if e[0] == "pair2" and e[1] in live and e[2] in live:
                    return _OK
                if e[0] == "taint":
                    taint = True
            return _TAINT if taint else _FAIL
        if tag == "forall":
            worst = _OK
            for sub in ob[1]:
                s = self._eval(sub, live)
                if s == _FAIL:
                    return _FAIL
                if s == _TAINT:
                    worst = _TAINT
            return worst
        if tag == "disj":
            statuses = [self._eval(sub, live) for sub in ob[1]]
            if _OK in statuses:
                return _OK
            if all(s == _FAIL for s in statuses):
                return _FAIL
            return _TAINT
        raise AssertionError(ob)

    def explore(self, roots) -> bool:
        """Build obligations for every pair reachable from `roots` that was
        not explored before; returns whether there was any."""
        size = len(self.table)
        stack = list(roots)
        while stack:
            pair = stack.pop()
            if pair not in self.table:
                obs = self.table[pair] = self.obligations(pair)
                stack.extend(_named_pairs(obs, set()))
        return len(self.table) > size

    def refine(self, pairs, strict: bool) -> tuple:
        """Remove the pairs of `pairs` that fail a clause (or, when strict,
        are tainted) by sweeps over them in sorted order, repeated until a
        sweep removes nothing; a pair outside `pairs` counts as removed.
        Returns the sweep round and the blames of each removed pair."""
        order = sorted(pairs)
        live = set(order)
        rounds, blames = {}, {}
        rnd, changed = 0, True
        while changed:
            rnd, changed = rnd + 1, False
            for pair in order:
                if pair not in live:
                    continue
                fails, tainted = self._status(pair, live)
                if fails or (strict and tainted):
                    live.discard(pair)
                    rounds[pair], blames[pair] = rnd, tuple(fails)
                    changed = True
        return rounds, blames

    def _status(self, pair, live) -> tuple:
        fails = []
        tainted = False
        for ob in self.table[pair]:
            s = self._eval(ob, live)
            if s == _FAIL:
                fails.append(ob[-1])
            elif s == _TAINT:
                tainted = True
        return fails, tainted

    def settle(self, roots) -> None:
        """Explore from `roots`; when that reached new pairs, run the loose
        refinement again over every explored pair."""
        if self.explore(roots):
            self.removed, self.blames = self.refine(self.table, False)

    def decide(self, roots) -> list:
        """The status of each root pair, on a fresh engine.  The loose
        refinement of their closure decides `not_related`; when a root
        survived it, a strict one over its survivors (the strict fixpoint
        lies inside the loose one) decides `related` and keeps its
        survivors, sorted, in `relation`."""
        self.settle(roots)
        failed = {}
        if any(root not in self.removed for root in roots):
            survivors = [pair for pair in self.table if pair not in self.removed]
            failed, _ = self.refine(survivors, True)
            self.relation = sorted(pair for pair in survivors if pair not in failed)
        return ["not_related" if r in self.removed else "unknown" if r in failed else "related"
                for r in roots]

    def audit(self, live) -> tuple:
        """Explore from the pairs of a fixed relation and replay each one's
        clauses against it; returns definite violations (frontier-induced
        unknowns are not violations)."""
        self.explore(live)
        return tuple((pair, _FAIL, blame.category)
                     for pair in sorted(live) for blame in self._status(pair, live)[0])

    def witness(self) -> Witness:
        """Counterexample once the loose refinement removed the root pair
        (so level 0 already holds a blame).

        Of all blames of removed pairs, the one with the lowest (category
        rank, BFS distance in the product of the fragments, pair, index)
        wins.  The product is walked level by level, settling each level's
        pairs, and the walk stops after the first level that holds a blame
        of the lowest category the kind can produce."""
        floor = _CATEGORY_RANK[_LOWEST_CATEGORY.get(self.kind.kind, "barb")]

        def moves(pair):
            i, j = pair
            return [(("left", a), (i2, j)) for a, i2 in self.fa.out[i]] + [
                (("right", b), (i, j2)) for b, j2 in self.fb.out[j]
            ]

        walk = Exploration(((0, 0),), moves, len(self.fa.states) * len(self.fb.states))
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


def _fragments(kind: RelationKind, p: Process, q: Process, depth: int) -> tuple:
    """How a check of p against q builds its fragments: a function from a
    term, or a tuple of roots, to its fragment, over a universe both sides
    share, and the names input clauses are instantiated with."""
    if kind.reduction_based:
        return partial(build_fragment, depth=depth, label_mode="tau_only"), ()
    shared_free = _free(p) | _free(q)
    extras = universe_fresh_names(names(p) | names(q), max(depth, 1))
    uni = shared_free | frozenset(extras)
    build = partial(build_fragment, depth=depth, label_mode="all_labels", universe=uni)
    return build, tuple(sorted(shared_free | {extras[0]}))


def _build_engine(kind: RelationKind, pairs: list, depth: int) -> _Engine:
    """The game over a left fragment from the first terms of `pairs` and a
    right one from their second terms; several pairs only for the reduction
    kinds, whose tau-only fragments need no universe."""
    build, wset = _fragments(kind, *pairs[0], depth)
    lefts, rights = zip(*pairs)
    return _Engine(kind, build(lefts), build(rights), wset)


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
        roots = [(eng.fa.index[normalize(pairs[n][0])], eng.fb.index[normalize(pairs[n][1])])
                 for n in ns]
        for n, status in zip(ns, eng.decide(roots)):
            out[n] = (status, eng)
    return out


def relate(kind: RelationKind, pairs, depth: int) -> tuple:
    """The status of each (p, q) of `pairs` over fragments bounded by
    `depth`.  For the reduction kinds every pair plays in one game, over a
    left fragment from all first terms and a right one from all second
    terms.  These expand every state a pair's own fragments expand, so a
    status `check_bisim` decides is the same here, and only `unknown` can
    become definite.  A label kind's pair plays alone, as `check_bisim`
    plays it: its universe depends on its terms, and `_Engine._resolve`
    takes an aligned term equal to the other side as a match only when the
    fragment lacks it, so a shared fragment could undo a `related`."""
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
            build, _ = _fragments(kind, p, q, depth)
            rel = tuple((s, s) for s in build(p).states)
            return Verdict("related", relation=rel, approximations=approx)
        if status == "not_related":
            return Verdict("not_related", witness=eng.witness(), approximations=approx)
        if status == "unknown":
            reason = "bounded exploration hit a frontier or left the built fragments"
            return Verdict("unknown", reason=reason, approximations=approx)
        rel = tuple((eng.fa.states[i], eng.fb.states[j]) for i, j in eng.relation)
        return Verdict("related", relation=rel, approximations=approx)


def audit_relation(kind: RelationKind, p: Process, q: Process, depth: int, relation) -> tuple:
    """Replay a Related verdict's relation clause-by-clause; empty result
    means the self-audit passed."""
    eng = _build_engine(kind, [(p, q)], depth)
    live = set()
    bad = []
    for pa, pb in relation:
        i = eng.fa.index.get(pa)
        j = eng.fb.index.get(pb)
        if i is None or j is None:
            bad.append(((pa, pb), "fail", "pair outside fragments"))
        else:
            live.add((i, j))
    return tuple(bad) + eng.audit(live)
