"""Terms of the (a)synchronous pi-calculus.

Processes are immutable trees over names; every operation in this module
is a pure function, so values can be shared freely between threads.

Terms and names are hash-consed (after Filliâtre & Conchon, "Type-safe
modular hash-consing", ML Workshop 2006): constructing one returns the one
live instance of its class with those fields, so equality is identity and
hashing is the identity hash.  The intern table holds its instances weakly
and keeps no term alive on its own.
"""

from __future__ import annotations

import itertools
import threading
from _weakref import _remove_dead_weakref
from functools import total_ordering
from typing import Iterator, Mapping, Union
from weakref import ref

from .memo import memo

# (class, *fields) -> weak reference to the one live instance
_TABLE: dict = {}
_TABLE_LOCK = threading.Lock()


class _Ref(ref):
    """A weak reference that knows its table key (`weakref.KeyedRef`
    without its Python-level constructor)."""

    __slots__ = ("key",)


def _absent():
    return None


def _forget(dead: _Ref, table=_TABLE, remove=_remove_dead_weakref) -> None:
    # drops the entry only if it still holds a dead reference, atomically
    # (bound as defaults, so that it still works while the module is torn down)
    remove(table, dead.key)


def _intern(key: tuple):
    """The instance for `key`, made and recorded if none is live.  Under
    the lock, so that threads racing on one key get one object."""
    with _TABLE_LOCK:
        self = _TABLE.get(key, _absent)()
        if self is None:
            cls = key[0]
            self = object.__new__(cls)
            for field, value in zip(cls.__match_args__, key[1:]):
                object.__setattr__(self, field, value)
            entry = _Ref(self, _forget)
            entry.key = key
            _TABLE[key] = entry
        return self


class _Term:
    """Base of the hash-consed classes: fields are `__match_args__`, set
    once by `_intern`.  Instances are always true, which each `__new__`
    relies on: `_TABLE.get(key, _absent)()` is the live instance or None."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a term")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a term")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


@total_ordering
class Name(_Term):
    """A channel/value name.

    Reserved names form a namespace of their own (rendered with a leading
    '%'), used for machinery-introduced names: encoding protocol channels,
    canonical binders and fresh transition objects.  A reserved name is
    never equal to a user name, whatever the identifier.  Names sort by
    (ident, reserved).
    """

    __slots__ = __match_args__ = ("ident", "reserved")
    ident: str
    reserved: bool

    def __new__(cls, ident: str, reserved: bool = False):
        key = (cls, ident, reserved)
        return _TABLE.get(key, _absent)() or _intern(key)

    def __lt__(self, other):
        if not isinstance(other, Name):
            return NotImplemented
        if self.ident != other.ident:
            return self.ident < other.ident
        return self.reserved < other.reserved

    def __str__(self) -> str:
        return "%" + self.ident if self.reserved else self.ident


class Nil(_Term):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        return _TABLE.get(key, _absent)() or _intern(key)


class Success(_Term):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        return _TABLE.get(key, _absent)() or _intern(key)


class Output(_Term):
    __slots__ = __match_args__ = ("chan", "datum", "cont")
    chan: Name
    datum: Name
    cont: "Process"

    def __new__(cls, chan: Name, datum: Name, cont: "Process"):
        key = (cls, chan, datum, cont)
        return _TABLE.get(key, _absent)() or _intern(key)


class Input(_Term):
    __slots__ = __match_args__ = ("chan", "binder", "cont")
    chan: Name
    binder: Name
    cont: "Process"

    def __new__(cls, chan: Name, binder: Name, cont: "Process"):
        key = (cls, chan, binder, cont)
        return _TABLE.get(key, _absent)() or _intern(key)


class Par(_Term):
    __slots__ = __match_args__ = ("left", "right")
    left: "Process"
    right: "Process"

    def __new__(cls, left: "Process", right: "Process"):
        key = (cls, left, right)
        return _TABLE.get(key, _absent)() or _intern(key)


class Restrict(_Term):
    __slots__ = __match_args__ = ("binder", "body")
    binder: Name
    body: "Process"

    def __new__(cls, binder: Name, body: "Process"):
        key = (cls, binder, body)
        return _TABLE.get(key, _absent)() or _intern(key)


class Repl(_Term):
    __slots__ = __match_args__ = ("body",)
    body: "Process"

    def __new__(cls, body: "Process"):
        key = (cls, body)
        return _TABLE.get(key, _absent)() or _intern(key)


class Hole(_Term):
    """Numbered hole; only meaningful inside encoding contexts."""

    __slots__ = __match_args__ = ("index",)
    index: int

    def __new__(cls, index: int):
        key = (cls, index)
        return _TABLE.get(key, _absent)() or _intern(key)


Process = Union[Nil, Success, Output, Input, Par, Restrict, Repl, Hole]

NIL = Nil()
OK = Success()


def _union(s: frozenset, t: frozenset) -> frozenset:
    """`s | t`, but `s` or `t` itself when it already holds the other, so
    that equal name sets along a term are one object."""
    if len(s) < len(t):
        s, t = t, s
    return s if t <= s else s | t


def _with(s: frozenset, *ns: Name) -> frozenset:
    """`s` plus the names `ns`, or `s` itself when it holds them."""
    return s if all(n in s for n in ns) else s.union(ns)


def _without(s: frozenset, n: Name) -> frozenset:
    """`s` less the name `n`, or `s` itself when it lacks it."""
    return s - {n} if n in s else s


@memo
def _free(p: Process) -> frozenset:
    match p:
        case Nil() | Success() | Hole():
            return frozenset()
        case Output(c, d, k):
            return _with(_free(k), c, d)
        case Input(c, b, k):
            return _with(_without(_free(k), b), c)
        case Par(l, r):
            return _union(_free(l), _free(r))
        case Restrict(b, body):
            return _without(_free(body), b)
        case Repl(body):
            return _free(body)
    raise TypeError(f"not a process: {p!r}")


@memo
def _bound(p: Process) -> frozenset:
    match p:
        case Nil() | Success() | Hole():
            return frozenset()
        case Output(_, _, k):
            return _bound(k)
        case Input(_, b, k) | Restrict(b, k):
            return _with(_bound(k), b)
        case Par(l, r):
            return _union(_bound(l), _bound(r))
        case Repl(body):
            return _bound(body)
    raise TypeError(f"not a process: {p!r}")


def names(p: Process) -> frozenset:
    """The free and bound names of `p`.  Restriction blocks and parallel
    spines are read through, and only the components under them go through
    the `_free` and `_bound` tables: a state's spine is asked about once."""
    match p:
        case Par(l, r):
            return _union(names(l), names(r))
        case Restrict(b, body):
            return _with(names(body), b)
    return _union(_free(p), _bound(p))


@memo
def is_async(p: Process) -> bool:
    """True iff every output subterm has continuation 0."""
    match p:
        case Nil() | Success() | Hole():
            return True
        case Output(_, _, k):
            return k == NIL
        case Input(_, _, k) | Restrict(_, k) | Repl(k):
            return is_async(k)
        case Par(l, r):
            return is_async(l) and is_async(r)
    raise TypeError(f"not a process: {p!r}")


def fresh_variant(base: Name, avoid) -> Name:
    """First primed variant of `base` outside `avoid`, same namespace."""
    ident = base.ident
    while True:
        ident += "'"
        cand = Name(ident, base.reserved)
        if cand not in avoid:
            return cand


def substitute(p: Process, old: Name, new: Name) -> Process:
    """Capture-avoiding replacement of free occurrences of `old` by `new`."""
    return substitute_all(p, {old: new})


def substitute_transient(p: Process, old: Name, new: Name) -> Process:
    """`substitute` for a term built to be used once, such as a transition
    target: its parallel spine is rebuilt with no table entry keyed by it,
    and only the components under the spine go through the table."""
    match p:
        case Par(l, r):
            return Par(substitute_transient(l, old, new), substitute_transient(r, old, new))
        case Restrict(b, body) if b != old and b != new:
            return Restrict(b, substitute_transient(body, old, new))
    return substitute(p, old, new)


def substitute_all(p: Process, mapping: Mapping[Name, Name]) -> Process:
    """Simultaneous capture-avoiding renaming of free occurrences.

    Binders whose name would capture an incoming name are renamed to a
    fresh primed variant first.  Only the entries for free names of `p`
    key the memo, so each distinct substitution is cached once, and a
    substitution that changes nothing is not cached.
    """
    items = tuple(sorted((y, w) for y, w in mapping.items() if y != w and y in _free(p)))
    return _subst(p, items) if items else p


@memo
def _subst(p: Process, items) -> Process:
    fp = _free(p)
    items = tuple((y, w) for y, w in items if y in fp)
    if not items:
        return p
    m = dict(items)
    match p:
        case Output(c, d, k):
            return Output(m.get(c, c), m.get(d, d), _subst(k, items))
        case Input(c, b, k):
            c2 = m.get(c, c)
            b2, k2 = _subst_binder(b, k, items)
            return Input(c2, b2, k2)
        case Par(l, r):
            return Par(_subst(l, items), _subst(r, items))
        case Restrict(b, body):
            b2, body2 = _subst_binder(b, body, items)
            return Restrict(b2, body2)
        case Repl(body):
            return Repl(_subst(body, items))
    raise TypeError(f"not a process: {p!r}")


def _subst_binder(b: Name, body: Process, items):
    inner = tuple((y, w) for y, w in items if y != b and y in _free(body))
    if not inner:
        return b, body
    incoming = {w for _, w in inner}
    if b in incoming:
        avoid = _free(body) | incoming | {y for y, _ in inner} | {b}
        b2 = fresh_variant(b, avoid)
        body = _subst(body, ((b, b2),))
        return b2, _subst(body, inner)
    return b, _subst(body, inner)


def fresh_names(template: str, avoid, start: int = 0) -> Iterator[Name]:
    """The reserved names `template.format(i)` for i = start, start + 1,
    ..., skipping those in `avoid`.  Every name the machinery invents comes
    from here (canonical binders, the bound-name placeholder of
    transitions, universe names), except the encodings' protocol pairs and
    the primes of `fresh_variant`."""
    for i in itertools.count(start):
        n = Name(template.format(i), reserved=True)
        if n not in avoid:
            yield n


@memo
def alpha_normalize(p: Process) -> Process:
    """Canonical alpha-representative.

    Binders are renamed to reserved names in left-to-right depth-first
    order, skipping any that occur free in the term.  Idempotent and
    fn-preserving; two terms are alpha-equivalent iff their normal forms
    are syntactically identical.
    """
    pool = fresh_names("b{}", _free(p))

    def rec(t: Process, env: dict) -> Process:
        match t:
            case Nil() | Success() | Hole():
                return t
            case Output(c, d, k):
                return Output(env.get(c, c), env.get(d, d), rec(k, env))
            case Input(c, b, k):
                nb = next(pool)
                return Input(env.get(c, c), nb, rec(k, {**env, b: nb}))
            case Par(l, r):
                return Par(rec(l, env), rec(r, env))
            case Restrict(b, body):
                nb = next(pool)
                return Restrict(nb, rec(body, {**env, b: nb}))
            case Repl(body):
                return Repl(rec(body, env))
        raise TypeError(f"not a process: {t!r}")

    return rec(p, {})


def alpha_eq(p: Process, q: Process) -> bool:
    """Equality up to renaming of bound names."""
    return alpha_normalize(p) == alpha_normalize(q)
