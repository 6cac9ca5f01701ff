"""Concrete syntax: parsing and deterministic pretty-printing.

Grammar (lowest precedence first):

    process := par
    par     := factor ("|" factor)*          -- left associative
    factor  := "0" | "ok" | "!" factor
             | "(nu" name ")" factor
             | name "!" name ["." factor]    -- output, "x!z" short for "x!z.0"
             | name "?" "(" name ")" "." factor
             | "(" process ")"

Reserved names are written with a leading '%' and are rejected unless
parsing with allow_reserved.  "ok" and "nu" are keywords, not names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .memo import memo
from .syntax import (NIL, OK, Hole, Input, Name, Nil, Output, Par, Process,
                     Repl, Restrict, Success)

_KEYWORDS = {"ok", "nu"}
_TOKEN_RE = re.compile(r"\s*(?:(%?[A-Za-z_][A-Za-z0-9_']*)|([0!?.|()]))")


class ParseError(ValueError):
    """Syntax or namespace error, with the offending source span."""

    def __init__(self, message: str, span=(0, 0)):
        super().__init__(f"{message} at {span[0]}..{span[1]}")
        self.message = message
        self.span = span


@dataclass(frozen=True)
class _Tok:
    kind: str  # "name" | "punct" | "kw" | "end"
    text: str
    span: tuple


def _tokenize(src: str):
    toks, pos = [], 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", (at, at + 1))
        word, punct = m.group(1), m.group(2)
        span = (m.start(1) if word else m.start(2), m.end())
        if word is not None:
            if word in _KEYWORDS:
                toks.append(_Tok("kw", word, span))
            else:
                toks.append(_Tok("name", word, span))
        else:
            toks.append(_Tok("punct", punct, span))
        pos = m.end()
    toks.append(_Tok("end", "", (len(src), len(src))))
    return toks


class _Parser:
    def __init__(self, toks, allow_reserved: bool):
        self.toks = toks
        self.i = 0
        self.allow_reserved = allow_reserved

    def peek(self, ahead=0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.peek()
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.span)
        return t

    def name(self) -> Name:
        t = self.next()
        if t.kind != "name":
            raise ParseError(f"expected a name, found {t.text or 'end of input'!r}", t.span)
        if t.text.startswith("%"):
            if not self.allow_reserved:
                raise ParseError(f"reserved name {t.text!r} not allowed here", t.span)
            return Name(t.text[1:], reserved=True)
        return Name(t.text)

    def process(self) -> Process:
        p = self.factor()
        while self.peek().text == "|":
            self.next()
            p = Par(p, self.factor())
        return p

    def factor(self) -> Process:
        t = self.peek()
        if t.text == "0":
            self.next()
            return NIL
        if t.text == "ok":
            self.next()
            return OK
        if t.text == "!":
            self.next()
            return Repl(self.factor())
        if t.text == "(":
            if self.peek(1).text == "nu" and self.peek(2).kind == "name" and self.peek(3).text == ")":
                self.next()
                self.next()
                binder = self.name()
                self.expect(")")
                return Restrict(binder, self.factor())
            self.next()
            p = self.process()
            self.expect(")")
            return p
        if t.kind == "name":
            chan = self.name()
            op = self.next()
            if op.text == "!":
                datum = self.name()
                if self.peek().text == ".":
                    self.next()
                    return Output(chan, datum, self.factor())
                return Output(chan, datum, NIL)
            if op.text == "?":
                self.expect("(")
                binder = self.name()
                self.expect(")")
                self.expect(".")
                return Input(chan, binder, self.factor())
            raise ParseError(f"expected '!' or '?' after name, found {op.text!r}", op.span)
        raise ParseError(f"expected a process, found {t.text or 'end of input'!r}", t.span)


def parse_term(text: str, allow_reserved: bool = False) -> Process:
    """Parse concrete syntax into a process term."""
    parser = _Parser(_tokenize(text), allow_reserved)
    p = parser.process()
    tail = parser.next()
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r}", tail.span)
    return p


def _render_factor(p: Process) -> str:
    """`p` as the operand of a prefix, `!` or `|`."""
    return f"({render_term(p)})" if isinstance(p, Par) else render_term(p)


@memo
def render_term(p: Process) -> str:
    """Deterministic pretty-printer; inverse of parse_term on canonical
    (left-associated) terms, and inverse up to alpha elsewhere."""
    match p:
        case Nil():
            return "0"
        case Success():
            return "ok"
        case Hole(i):
            return f"[_{i}]"
        case Output(c, d, k):
            head = f"{c}!{d}"
            return head if k == NIL else f"{head}.{_render_factor(k)}"
        case Input(c, b, k):
            return f"{c}?({b}).{_render_factor(k)}"
        case Restrict(_, _):
            # a restriction block renders in one piece: its suffixes get
            # no entries, and a long block no deep recursion
            block = []
            while isinstance(p, Restrict):
                block.append(f"(nu {p.binder})")
                p = p.body
            return "".join(block) + _render_factor(p)
        case Repl(body):
            return f"!{_render_factor(body)}"
        case Par(_, _):
            parts = []
            spine = p
            while isinstance(spine, Par):
                parts.append(spine.right)
                spine = spine.left
            parts.append(spine)
            return " | ".join(_render_factor(q) for q in reversed(parts))
    raise TypeError(f"not a process: {p!r}")
