"""Parser for lamp program files.

Grammar (``#`` starts a line comment)::

    sequent := [decls] "|-" entry ("," entry)*
    decls   := IDENT ":" type ("," IDENT ":" type)*
    entry   := term [":" type]

    type    := lolli ("par" type)?          right associative, par loosest
    lolli   := tatom ("-o" lolli)?          right associative
    tatom   := "bot" | IDENT | "(" type ")"

    term    := seq ("|" term)?              right associative, | loosest
    seq     := "out" IDENT "." seq | "lam" IDENT "." seq
             | "out2" IDENT IDENT "." seq
             | IDENT "(" IDENT ")" "." seq  (sync-input sugar)
             | app
    app     := atom+                        left associative application
    atom    := "*" | IDENT | "close" "(" term ")"
             | "(" term ")" | "(" term ":" type ")"

``lam x. t`` requires x to occur free in t and desugars to Send(x, t);
``x(y). u`` desugars to App(Send(y, u), Var(x)) and likewise requires y in u.
``(t : T)`` attaches a type annotation to the subterm t; annotations guide
type reconstruction and are collected on the side, not stored in the tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .terms import (
    App, Atom, BOT, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent,
    Term, TypeExpr, UNIT, Var, children, is_free_in, nodes,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class LamWithoutOccurrence(ParseError):
    pass


class DuplicateBinder(ParseError):
    pass


KEYWORDS = {"lam", "out", "out2", "close", "bot", "par"}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>\|\-|-o|[(),.:|*])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "ident", "op", "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    pos, line, line_start = 0, 1, 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break  # text[pos] starts no token
        kind, tok = m.lastgroup, m.group()
        if kind != "ws":
            toks.append(Token(kind, tok, line, start - line_start + 1))
        elif "\n" in tok:
            line += tok.count("\n")
            line_start = start + tok.rindex("\n") + 1
        pos = m.end()
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}",
                         line, pos - line_start + 1)
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


@dataclass
class Program:
    """A parsed sequent plus any inline type annotations found in it."""

    sequent: Sequent
    annotations: list[tuple[Term, TypeExpr]] = field(default_factory=list)


def _nest_right(parts: list, make):
    """The parts [a, b, c] of a chain as make(a, make(b, c))."""
    out = parts.pop()
    for left in reversed(parts):
        out = make(left, out)
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.annotations: list[tuple[Term, TypeExpr]] = []

    def peek(self, k: int = 0) -> Token:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else self.toks[-1]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail(f"expected identifier, found {t.text or 'end of input'!r}")
        return self.next().text

    # -- types ------------------------------------------------------------
    # Each chain a op b op ... is read by a loop, and so is each chain of
    # binder prefixes (seq), so its length costs no recursion.  The three
    # operator loops are not one shared method: its frame would lower how
    # deep the parentheses the parser reads can nest.

    def type_(self) -> TypeExpr:
        parts = [self.lolli()]
        while self.peek().text == "par":
            self.next()
            parts.append(self.lolli())
        return _nest_right(parts, ParT)

    def lolli(self) -> TypeExpr:
        parts = [self.tatom()]
        while self.peek().text == "-o":
            self.next()
            parts.append(self.tatom())
        return _nest_right(parts, Lolli)

    def tatom(self) -> TypeExpr:
        t = self.peek()
        if t.text == "bot":
            self.next()
            return BOT
        if t.text == "(":
            self.next()
            ty = self.type_()
            self.expect(")")
            return ty
        if t.kind == "ident":
            return Atom(self.next().text)
        self.fail(f"expected a type, found {t.text or 'end of input'!r}")

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        parts = [self.seq()]
        while self.peek().text == "|":
            self.next()
            parts.append(self.seq())
        return _nest_right(parts, Par)

    def seq(self) -> Term:
        # the binder prefixes of a chain, outermost first, read by a loop:
        # (token, name, second name or the bound one of x(y).)
        prefixes: list[tuple[Token, str, str]] = []
        while True:
            t = self.peek()
            if t.text in ("out", "lam", "out2"):
                self.next()
                x = self.ident()
                y = self.ident() if t.text == "out2" else ""
            # sync-input sugar x(y). u, distinguished from application by the dot
            elif (t.kind == "ident" and t.text not in KEYWORDS
                    and self.peek(1).text == "(" and self.peek(2).kind == "ident"
                    and self.peek(2).text not in KEYWORDS
                    and self.peek(3).text == ")" and self.peek(4).text == "."):
                x = self.ident()
                self.expect("(")
                y = self.ident()
                self.expect(")")
            else:
                break
            self.expect(".")
            prefixes.append((t, x, y))
        # the body, then each prefix around it, innermost first
        body = self.app()
        while prefixes:
            t, x, y = prefixes.pop()
            if t.text == "out":
                body = Send(x, body)
            elif t.text == "out2":
                body = Dist(x, y, body)
            elif t.text == "lam":
                if not is_free_in(x, body):
                    raise LamWithoutOccurrence(
                        f"lam-bound {x!r} does not occur in its body", t.line, t.col)
                body = Send(x, body)
            else:
                if not is_free_in(y, body):
                    raise LamWithoutOccurrence(
                        f"input-bound {y!r} does not occur in its continuation",
                        t.line, t.col)
                body = App(Send(y, body), Var(x))
        return body

    def app(self) -> Term:
        out = self.atom()
        while self._at_atom():
            out = App(out, self.atom())
        return out

    def _at_atom(self) -> bool:
        t = self.peek()
        return (t.text in ("*", "(", "close")
                or (t.kind == "ident" and t.text not in KEYWORDS))

    def atom(self) -> Term:
        t = self.peek()
        if t.text == "*":
            self.next()
            return UNIT
        if t.text == "close":
            self.next()
            self.expect("(")
            body = self.term()
            self.expect(")")
            return Close(body)
        if t.text == "(":
            self.next()
            inner = self.term()
            if self.peek().text == ":":
                self.next()
                self.annotations.append((inner, self.type_()))
            self.expect(")")
            return inner
        if t.kind == "ident" and t.text not in KEYWORDS:
            return Var(self.next().text)
        self.fail(f"expected a term, found {t.text or 'end of input'!r}")

    # -- sequents ----------------------------------------------------------

    def sequent(self) -> Sequent:
        gamma: list[tuple[str, TypeExpr]] = []
        if self.peek().text != "|-":
            while True:
                tok = self.peek()
                x = self.ident()
                self.expect(":")
                ty = self.type_()
                if any(x == y for y, _ in gamma):
                    self.fail(f"duplicate declaration of {x!r}", tok)
                gamma.append((x, ty))
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect("|-")
        delta: list[DeltaEntry] = []
        while True:
            tok = self.peek()
            term = self.term()
            ty = None
            if self.peek().text == ":":
                self.next()
                ty = self.type_()
            if ty is None and not isinstance(term, Close):
                self.fail("untyped conclusion must have the form close(...)", tok)
            delta.append(DeltaEntry(term, ty))
            if self.peek().text == ",":
                self.next()
                continue
            break
        if self.peek().kind != "eof":
            self.fail(f"trailing input {self.peek().text!r}")
        return Sequent(tuple(gamma), tuple(delta))


def _check_binders_unique(s: Sequent) -> None:
    seen: set[str] = set()
    for e in s.delta:
        for sub in nodes(e.term, children):
            if type(sub) is Var:
                continue
            for x in sub[1:sub._first]:  # its names, see terms.var_names
                if x in seen:
                    raise DuplicateBinder(f"binder {x!r} is bound more than once")
                seen.add(x)


def parse_program(text: str) -> Program:
    p = _Parser(text)
    seq = p.sequent()
    _check_binders_unique(seq)
    return Program(seq, p.annotations)


def parse_term(text: str) -> Term:
    """Parse a bare term snippet (used by tests and the trace reader)."""
    p = _Parser(text)
    t = p.term()
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return t


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text)
    ty = p.type_()
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return ty
