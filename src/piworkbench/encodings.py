"""The Boudol and Honda-Tokoro translations into the asynchronous fragment,
their fresh-name policy, and the per-operator target contexts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .memo import memo
from .syntax import (NIL, OK, Hole, Input, Name, Nil, Output, Par, Process,
                     Repl, Restrict, Success, _bound, _free, fresh_variant, names,
                     substitute)


@dataclass(frozen=True)
class EncodingScheme:
    """A translation into the asynchronous fragment: the identity on every
    operator but the two prefixes.  `output(x, z, u, v, k)` and
    `input(x, y, u, v, k)` are their protocols around the encoded
    continuation `k`, over the reserved channels `u`, `v`; one source step
    takes at most `protocol_steps` target steps.  The tag is the identity."""

    tag: str
    output: Callable = field(compare=False, repr=False)
    input: Callable = field(compare=False, repr=False)
    protocol_steps: int = field(compare=False)


Boudol = EncodingScheme(
    "boudol",
    # (u)(x!u | u?(v).(v!z | [P]))
    output=lambda x, z, u, v, k: Restrict(
        u, Par(Output(x, u, NIL), Input(u, v, Par(Output(v, z, NIL), k)))),
    # x?(u).(v)(u!v | v?(y).[P])
    input=lambda x, y, u, v, k: Input(
        x, u, Restrict(v, Par(Output(u, v, NIL), Input(v, y, k)))),
    protocol_steps=3,
)
HondaTokoro = EncodingScheme(
    "honda-tokoro",
    # x?(u).(u!z | [P])
    output=lambda x, z, u, v, k: Input(x, u, Par(Output(u, z, NIL), k)),
    # (u)(x!u | u?(y).[P])
    input=lambda x, y, u, v, k: Restrict(u, Par(Output(x, u, NIL), Input(u, y, k))),
    protocol_steps=2,
)

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


def fresh_pair(avoid) -> tuple:
    """First two distinct reserved protocol names outside `avoid`, in the
    order u1, v1, u2, v2, ..."""
    fresh = (n for i in itertools.count(1)
             for n in (Name(f"u{i}", reserved=True), Name(f"v{i}", reserved=True))
             if n not in avoid)
    return next(fresh), next(fresh)


def encode(scheme: EncodingScheme, p: Process) -> Process:
    """Translate a source term.  Source terms may not mention reserved
    names; every name the translation introduces is bound."""
    if not isinstance(scheme, EncodingScheme):
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
        case Output(_, _, k) | Input(_, _, k):
            return _protocol(scheme, p, _encode(scheme, k), _free(k))
    raise TypeError(f"cannot encode {p!r}")


def _protocol(scheme: EncodingScheme, prefix: Output | Input, k: Process, ns) -> Process:
    """The scheme's protocol for `prefix` around the continuation `k`.  Its
    channels are the first fresh pair outside `ns` and the names the prefix
    sends on or along."""
    if isinstance(prefix, Output):
        u, v = fresh_pair(ns | {prefix.chan, prefix.datum})
        return scheme.output(prefix.chan, prefix.datum, u, v, k)
    u, v = fresh_pair(ns | {prefix.chan})
    return scheme.input(prefix.chan, prefix.binder, u, v, k)


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
    protocol names outside `ns` plus the operator's own names.  The
    operator's own binder is protected."""
    source = apply_op(op, tuple(Hole(i) for i in range(1, op.arity + 1)))
    term = source
    if isinstance(source, (Output, Input)):
        term = _protocol(scheme, source, Hole(1), frozenset(ns))
    binds = isinstance(source, (Restrict, Input))
    return Context(term, op.arity, frozenset((source.binder,)) if binds else frozenset())


def apply_op(op: Op, args: tuple) -> Process:
    """Build the source term op(args)."""
    if len(args) != op.arity:
        raise ValueError(f"{op.tag} takes {op.arity} arguments, got {len(args)}")
    names = {"restrict": 1, "output": 2, "input": 2}.get(op.tag, 0)
    if len(op.subject) != names:
        raise ValueError(f"{op.tag} takes {names} subject names, got {len(op.subject)}")
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
