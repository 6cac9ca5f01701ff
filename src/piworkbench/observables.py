"""Strong and weak barbs, channel barbs and the success predicate.

Strong barbs are read from `semantics.caps`, computed structurally: an
input or output prefix contributes a barb on its channel when it is
unguarded and the channel is not restricted above it; restriction and
replication do not guard, prefixes do.  Channel barbs are derived from
input/output barbs and never stored inconsistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .memo import memo
from .semantics import build_fragment, caps
from .syntax import Name, Process

IN = "in"
OUT = "out"
CHAN = "chan"
SUCC = "succ"


@dataclass(frozen=True, order=True)
class Barb:
    kind: str
    chan: Optional[Name] = None

    def __str__(self) -> str:
        if self.kind == SUCC:
            return "succ"
        return f"{self.kind} {self.chan}"


def succ() -> Barb:
    return Barb(SUCC)


@memo
def strong_barbs(p: Process) -> frozenset:
    """All strong barbs, with channel barbs derived, read from the
    capabilities of `p` (`semantics.caps`)."""
    outs, ins, _, success = caps(p)
    barbs = {Barb(OUT, x) for x in outs} | {Barb(IN, x) for x in ins}
    barbs |= {Barb(CHAN, x) for x in outs | ins}
    if success:
        barbs.add(succ())
    return frozenset(barbs)


def weak_barbs(p: Process, depth: int) -> tuple:
    """Union of strong barbs over tau-reachable states within `depth`.

    Returns (barbs, exhaustive); the set is the full weak-barb set exactly
    when exhaustive is true (the bounded tau graph closed).
    """
    frag = build_fragment(p, depth, universe=None)
    return frozenset().union(*map(strong_barbs, frag.states)), not frag.frontier
