"""The Boudol and Honda-Tokoro translations into the asynchronous fragment,
their fresh-name policy, and the per-operator target contexts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .memo import memo
from .syntax import (NIL, OK, Hole, Input, Name, Nil, Output, Par, Process,
                     Repl, Restrict, Success, _bound, _free, fresh_variant, names,
                     substitute)

BOUDOL = "boudol"
HONDA_TOKORO = "honda-tokoro"


@dataclass(frozen=True)
class EncodingScheme:
    """Translation selector.  The renaming policy is the identity with
    arity 1; protocol channels are drawn deterministically from the
    reserved namespace."""

    tag: str

    def __post_init__(self):
        if self.tag not in (BOUDOL, HONDA_TOKORO):
            raise ValueError(f"unknown encoding scheme {self.tag!r}")


Boudol = EncodingScheme(BOUDOL)
HondaTokoro = EncodingScheme(HONDA_TOKORO)

_SCHEME_ALIASES = {
    "boudol": Boudol,
    "b": Boudol,
    "ht": HondaTokoro,
    "honda-tokoro": HondaTokoro,
    "hondatokoro": HondaTokoro,
}


def scheme_from_string(text: str) -> EncodingScheme:
    try:
        return _SCHEME_ALIASES[text.lower()]
    except KeyError:
        raise ValueError(f"unknown encoding scheme {text!r}") from None


def _pool() -> Iterable[Name]:
    for i in itertools.count(1):
        yield Name(f"u{i}", reserved=True)
        yield Name(f"v{i}", reserved=True)


def fresh_pair(avoid) -> tuple:
    """First two distinct reserved protocol names outside `avoid`."""
    avoid = frozenset(avoid)
    picked = []
    for n in _pool():
        if n not in avoid:
            picked.append(n)
            if len(picked) == 2:
                return tuple(picked)
    raise AssertionError("unreachable")


def encode(scheme: EncodingScheme, p: Process) -> Process:
    """Translate a source term.  Source terms may not mention reserved
    names; every name the translation introduces is bound."""
    if scheme not in (Boudol, HondaTokoro):
        raise ValueError(f"unknown encoding scheme {scheme!r}")
    # every check of a source term encodes it again, so its names are read
    # from the tables, not folded afresh by `names`
    bad = sorted(n for n in _free(p) | _bound(p) if n.reserved)
    if bad:
        raise ValueError(f"reserved names in source term: {', '.join(map(str, bad))}")
    return _encode(scheme, p)


@memo
def _encode(scheme: EncodingScheme, p: Process) -> Process:
    match p:
        case Nil() | Success():
            return p
        case Par(l, r):
            return Par(_encode(scheme, l), _encode(scheme, r))
        case Restrict(b, body):
            return Restrict(b, _encode(scheme, body))
        case Repl(body):
            return Repl(_encode(scheme, body))
        case Output(x, z, k):
            u, v = fresh_pair(_free(k) | {x, z})
            ek = _encode(scheme, k)
            if scheme == Boudol:
                # (u)(x!u | u?(v).(v!z | [P]))
                return Restrict(
                    u,
                    Par(Output(x, u, NIL), Input(u, v, Par(Output(v, z, NIL), ek))),
                )
            # x?(u).(u!z | [P])
            return Input(x, u, Par(Output(u, z, NIL), ek))
        case Input(x, y, k):
            u, v = fresh_pair(_free(k) | {x})
            ek = _encode(scheme, k)
            if scheme == Boudol:
                # x?(u).(v)(u!v | v?(y).[P])
                return Input(x, u, Restrict(v, Par(Output(u, v, NIL), Input(v, y, ek))))
            # (u)(x!u | u?(y).[P])
            return Restrict(u, Par(Output(x, u, NIL), Input(u, y, ek)))
    raise TypeError(f"cannot encode {p!r}")


@dataclass(frozen=True)
class Context:
    """A term with numbered holes [_1..[_k].

    `protected` names belong to the source operator itself (input and
    restriction binders); capture of those by the context is intended and
    never alpha-dodged."""

    term: Process
    holes: int
    protected: frozenset = frozenset()

    def __post_init__(self):
        counts = {}
        _count_holes(self.term, counts)
        expected = {i: 1 for i in range(1, self.holes + 1)}
        if counts != expected:
            raise ValueError("context is not univariate over its declared holes")


def _count_holes(p: Process, counts: dict) -> None:
    match p:
        case Hole(i):
            counts[i] = counts.get(i, 0) + 1
        case Output(_, _, k) | Input(_, _, k) | Restrict(_, k) | Repl(k):
            _count_holes(k, counts)
        case Par(l, r):
            _count_holes(l, counts)
            _count_holes(r, counts)
        case _:
            pass


def fill(ctx: Context, args, capture_avoiding: bool = False) -> Process:
    """Plug arguments into the context's holes.

    With capture_avoiding, context binders that would capture a free name
    of an argument are alpha-renamed first (the "u and v can be chosen
    outside N" reading); otherwise the fill is literal.
    """
    args = tuple(args)
    if len(args) != ctx.holes:
        raise ValueError(f"context takes {ctx.holes} arguments, got {len(args)}")
    term = ctx.term
    if capture_avoiding:
        argfree = frozenset().union(*(_free(a) for a in args)) if args else frozenset()
        term = _dodge(term, argfree - ctx.protected)
    return _fill(term, args)


def _dodge(p: Process, argfree: frozenset) -> Process:
    if not argfree:
        return p

    def has_hole(t: Process) -> bool:
        c: dict = {}
        _count_holes(t, c)
        return bool(c)

    match p:
        case Output(c, d, k):
            return Output(c, d, _dodge(k, argfree))
        case Input(c, b, k):
            if b in argfree and has_hole(k):
                b2 = fresh_variant(b, argfree | names(k))
                k = substitute(k, b, b2)
                b = b2
            return Input(c, b, _dodge(k, argfree))
        case Restrict(b, k):
            if b in argfree and has_hole(k):
                b2 = fresh_variant(b, argfree | names(k))
                k = substitute(k, b, b2)
                b = b2
            return Restrict(b, _dodge(k, argfree))
        case Par(l, r):
            return Par(_dodge(l, argfree), _dodge(r, argfree))
        case Repl(k):
            return Repl(_dodge(k, argfree))
        case _:
            return p


def _fill(p: Process, args: tuple) -> Process:
    match p:
        case Hole(i):
            return args[i - 1]
        case Output(c, d, k):
            return Output(c, d, _fill(k, args))
        case Input(c, b, k):
            return Input(c, b, _fill(k, args))
        case Restrict(b, k):
            return Restrict(b, _fill(k, args))
        case Par(l, r):
            return Par(_fill(l, args), _fill(r, args))
        case Repl(k):
            return Repl(_fill(k, args))
        case _:
            return p


@dataclass(frozen=True)
class Op:
    """Source operator descriptor: tag plus the operator's own names."""

    tag: str  # nil | success | output | input | par | restrict | repl
    subject: tuple = ()

    @property
    def arity(self) -> int:
        return {"nil": 0, "success": 0, "par": 2}.get(self.tag, 1)


def encoding_context(scheme: EncodingScheme, op: Op, ns) -> Context:
    """The univariate target context for a source operator, choosing
    protocol names outside `ns` plus the operator's own names."""
    ns = frozenset(ns)
    match op.tag:
        case "nil":
            return Context(NIL, 0)
        case "success":
            return Context(OK, 0)
        case "par":
            return Context(Par(Hole(1), Hole(2)), 2)
        case "repl":
            return Context(Repl(Hole(1)), 1)
        case "restrict":
            (y,) = op.subject
            return Context(Restrict(y, Hole(1)), 1, protected=frozenset((y,)))
        case "output":
            x, z = op.subject
            u, v = fresh_pair(ns | {x, z})
            if scheme == Boudol:
                term = Restrict(
                    u, Par(Output(x, u, NIL), Input(u, v, Par(Output(v, z, NIL), Hole(1))))
                )
            else:
                term = Input(x, u, Par(Output(u, z, NIL), Hole(1)))
            return Context(term, 1)
        case "input":
            x, y = op.subject
            u, v = fresh_pair(ns | {x})
            if scheme == Boudol:
                term = Input(x, u, Restrict(v, Par(Output(u, v, NIL), Input(v, y, Hole(1)))))
            else:
                term = Restrict(u, Par(Output(x, u, NIL), Input(u, y, Hole(1))))
            return Context(term, 1, protected=frozenset((y,)))
    raise ValueError(f"unknown operator {op.tag!r}")


def apply_op(op: Op, args: tuple) -> Process:
    """Build the source term op(args)."""
    if len(args) != op.arity:
        raise ValueError(f"{op.tag} takes {op.arity} arguments, got {len(args)}")
    match op.tag:
        case "nil":
            return NIL
        case "success":
            return OK
        case "par":
            return Par(args[0], args[1])
        case "repl":
            return Repl(args[0])
        case "restrict":
            return Restrict(op.subject[0], args[0])
        case "output":
            return Output(op.subject[0], op.subject[1], args[0])
        case "input":
            return Input(op.subject[0], op.subject[1], args[0])
    raise ValueError(f"unknown operator {op.tag!r}")
