"""Strong and weak barbs, channel barbs and the success predicate.

Barbs are computed structurally: an input or output prefix contributes a
barb on its channel when it is unguarded and the channel is not
restricted above it; restriction and replication do not guard, prefixes
do.  Channel barbs are derived from input/output barbs and never stored
inconsistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .memo import memo
from .semantics import tau_exploration
from .syntax import (Hole, Input, Name, Nil, Output, Par, Process, Repl,
                     Restrict, Success)

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
def _raw_barbs(p: Process) -> frozenset:
    match p:
        case Nil() | Hole():
            return frozenset()
        case Success():
            return frozenset((succ(),))
        case Output(c, _, _):
            return frozenset((Barb(OUT, c),))
        case Input(c, _, _):
            return frozenset((Barb(IN, c),))
        case Par(l, r):
            return _raw_barbs(l) | _raw_barbs(r)
        case Repl(body):
            return _raw_barbs(body)
        case Restrict(b, body):
            return frozenset(x for x in _raw_barbs(body) if x.chan != b)
    raise TypeError(f"not a process: {p!r}")


def strong_barbs(p: Process) -> frozenset:
    """All strong barbs, with channel barbs derived."""
    base = _raw_barbs(p)
    chans = frozenset(Barb(CHAN, b.chan) for b in base if b.kind in (IN, OUT))
    return base | chans


def weak_barbs(p: Process, depth: int) -> tuple:
    """Union of strong barbs over tau-reachable states within `depth`.

    Returns (barbs, exhaustive); the set is the full weak-barb set exactly
    when exhaustive is true (the bounded tau graph closed).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ex, frontier = tau_exploration(p, depth)
    return frozenset().union(*map(strong_barbs, ex.states)), not frontier
