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

The grammar is read in one flat pass over a list of string tokens.  Each
chain (``|``, application, binder prefixes, ``par``, ``-o``) is a loop and
each open ``(`` or ``close(`` a frame on an explicit stack: nesting costs
no recursion.  ``tokenize`` lists the tokens by one ``findall`` of one
token pattern, comments blanked to spaces first, and checks that they and
whitespace alone spell the text.  Tokens carry no positions; an error's
line:col is found by scanning the text again, with the same pattern, up to
the failing token.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .terms import (
    App, Atom, BOT, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent,
    Term, TypeExpr, UNIT, Var, is_free_in,
)

# every node is built as terms._put builds one, (tag, *fields) straight
# into tuple.__new__, without the Python frame of the class's constructor
_new = tuple.__new__


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line, self.col = line, col


class LamWithoutOccurrence(ParseError):
    pass


class DuplicateBinder(ParseError):
    pass


KEYWORDS = {"lam", "out", "out2", "close", "bot", "par"}

# one token; whitespace and comments (blanked first) lie between tokens
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\|-|-o|[(),.:|*]")
_COMMENT_RE = re.compile(r"#[^\n]*")

# the tokens that are no identifier ("" is the end of input), and those
# that name no variable
_OPS = frozenset({"|-", "-o", "(", ")", ",", ".", ":", "|", "*", ""})
_NOT_NAME = _OPS | KEYWORDS
_NO_ATOM = _NOT_NAME - {"*", "(", "close"}  # the tokens no atom starts with
# what a lam or x(y). prefix (kind "") whose name its body lacks reports
_UNUSED = {"lam": "lam-bound {!r} does not occur in its body",
           "": "input-bound {!r} does not occur in its continuation"}


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _blanked(text: str, pattern=_COMMENT_RE) -> str:
    """text with each match of pattern, a comment unless told otherwise,
    blanked to as many spaces: every other character keeps its offset."""
    return pattern.sub(lambda m: " " * len(m[0]), text)


def tokenize(text: str) -> list[str]:
    """text's tokens, then "" (twice if it ends in whitespace or a comment).

    One findall of the token pattern, over the text with its comments
    blanked, lists the tokens.  The text is spelled by them if they join
    up to its characters other than whitespace, compared in C: first by
    count against its spaces and line breaks, then, if other whitespace
    is left, as strings.  Only if not is it scanned again, for its first
    character that is neither whitespace nor in a token."""
    spelled = _blanked(text) if "#" in text else text
    toks = _TOKEN_RE.findall(spelled)
    if (len("".join(toks)) + spelled.count(" ") + spelled.count("\n") != len(spelled)
            and "".join(toks) != "".join(spelled.split())):
        end = re.search(r"\S", _blanked(spelled, _TOKEN_RE)).start()
        raise ParseError(f"unexpected character {text[end]!r}", *_line_col(text, end))
    toks += ["", ""] if spelled[-1:].isspace() else [""]
    return toks


class Program(NamedTuple):
    """A parsed sequent plus any inline type annotations found in it."""

    sequent: Sequent
    annotations: Sequence[tuple[Term, TypeExpr]] = ()


class _Reader:
    """A text's tokens and the index of the next one, plus what reading
    them records: the annotations, per name its last variable token's
    index, the names bound, and those bound again, first repeat first."""

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.annotations: list[tuple[Term, TypeExpr]] = []
        self.used: dict[str, int] = {}
        self.bound: set[str] = set()
        self.rebound: dict[str, None] = {}

    def fail(self, j: int, msg: str, error=ParseError):
        """Raise error(msg) at token j's line:col, found by a new scan."""
        # token j's offset; the text's end for the end of input's ""
        at = [m.start() for m in _TOKEN_RE.finditer(_blanked(self.text))][j:] or [len(self.text)]
        raise error(msg, *_line_col(self.text, at[0]))

    def wanted(self, j: int, what: str):
        self.fail(j, f"expected {what}, found {self.toks[j] or 'end of input'!r}")

    def expect(self, tok: str) -> None:
        if self.toks[self.i] != tok:
            self.wanted(self.i, repr(tok))
        self.i += 1

    def end(self, out):
        """out, once no token but the end of input is left."""
        if self.toks[self.i]:
            self.fail(self.i, f"trailing input {self.toks[self.i]!r}")
        return out

    def type_(self) -> TypeExpr:
        toks, i = self.toks, self.i
        stack: list = []  # per open "(": the par and -o parts around it
        pars: list = []  # the finished lollis of the par chain
        lollis: list = []  # the finished tatoms of the -o chain
        while True:
            t = toks[i]
            if t == "(":
                stack.append((pars, lollis))
                pars, lollis = [], []
                i += 1
                continue
            if t in _OPS:
                self.wanted(i, "a type")
            ty = BOT if t == "bot" else _new(Atom, ("Atom", t))
            i += 1
            # the chains ty ends, and each type in parentheses it ends
            while True:
                t = toks[i]
                if t == "-o":
                    lollis.append(ty)
                    i += 1
                    break
                while lollis:
                    ty = _new(Lolli, ("Lolli", lollis.pop(), ty))
                if t == "par":
                    pars.append(ty)
                    i += 1
                    break
                while pars:
                    ty = _new(ParT, ("ParT", pars.pop(), ty))
                if not stack:
                    self.i = i
                    return ty
                if t != ")":
                    self.wanted(i, "')'")
                i += 1
                pars, lollis = stack.pop()

    def term(self) -> Term:
        toks, i = self.toks, self.i
        used, bound, rebound = self.used, self.bound, self.rebound
        stack: list = []  # per open "(" or "close(": its index, the state around it
        parts: list = []  # the finished seqs of the | chain
        # the seq's binder prefixes, outermost first: (first token's index,
        # "out" "lam" "out2" or "" for x(y)., names it binds, dot's index)
        prefixes: list = []
        app = None  # the seq's application so far
        while True:
            t = toks[i]
            while app is None:  # at a seq's start: its binder prefixes
                if t == "out" or t == "lam" or t == "out2":
                    j, kind = i + 2 + (t == "out2"), t
                    names = toks[i + 1:j]
                    for k, z in enumerate(names, i + 1):
                        if z in _NOT_NAME:
                            self.wanted(k, "identifier")
                    if toks[j] != ".":
                        self.wanted(j, "'.'")
                # sync-input sugar x(y). u, told from application by the dot
                elif (t not in _NOT_NAME and toks[i + 1] == "(" and toks[i + 2] not in _NOT_NAME
                        and toks[i + 3] == ")" and toks[i + 4] == "."):
                    used[t] = i
                    j, kind, names = i + 4, "", toks[i + 2:i + 3]
                else:
                    break
                for z in names:
                    if z in bound:
                        rebound.setdefault(z)
                    bound.add(z)
                prefixes.append((i, kind, names, j))
                i = j + 1
                t = toks[i]
            if t == "(" or t == "close":
                stack.append((i, parts, prefixes, app))
                i += 1 + (t == "close")
                if toks[i - 1] != "(":
                    self.wanted(i - 1, "'('")
                parts, prefixes, app = [], [], None
                continue
            if t == "*":
                atom = UNIT
            elif t not in _NOT_NAME:
                atom = _new(Var, ("Var", t))
                used[t] = i
            else:
                self.wanted(i, "a term")
            i += 1
            # the atom joins the app; where no atom follows, the seq and the term end
            while True:
                app = atom if app is None else _new(App, ("App", app, atom))
                t = toks[i]
                if t not in _NO_ATOM:
                    break
                # the seq ends: its prefixes wrap its body, innermost first
                body = app
                while prefixes:
                    k, kind, names, dot = prefixes.pop()
                    z = names[-1]
                    if kind in _UNUSED and not (is_free_in(z, body) if z in rebound
                                                else used.get(z, -1) > dot):
                        self.fail(k, _UNUSED[kind].format(z), LamWithoutOccurrence)
                    if kind == "out2":
                        body = _new(Dist, ("Dist", *names, body))
                    elif kind:
                        body = _new(Send, ("Send", z, body))
                    else:
                        body = _new(App, ("App", _new(Send, ("Send", z, body)),
                                               _new(Var, ("Var", toks[k]))))
                if t == "|":
                    parts.append(body)
                    i += 1
                    app = None
                    break
                while parts:
                    body = _new(Par, ("Par", parts.pop(), body))
                if not stack:
                    self.i = i
                    return body
                k, parts, prefixes, app = stack.pop()
                if t == ":" and toks[k] == "(":
                    self.i = i + 1
                    self.annotations.append((body, self.type_()))
                    i = self.i
                if toks[i] != ")":
                    self.wanted(i, "')'")
                i += 1
                atom = _new(Close, ("Close", body)) if toks[k] == "close" else body

    def sequent(self) -> Sequent:
        toks = self.toks
        gamma: dict[str, TypeExpr] = {}
        more = toks[self.i] != "|-"
        while more:
            j = self.i
            x = toks[j]
            if x in _NOT_NAME:
                self.wanted(j, "identifier")
            self.i += 1
            self.expect(":")
            ty = self.type_()
            if x in gamma:
                self.fail(j, f"duplicate declaration of {x!r}")
            gamma[x] = ty
            more = toks[self.i] == ","
            self.i += more
        self.expect("|-")
        delta: list[DeltaEntry] = []
        while True:
            j = self.i
            term = self.term()
            typed = toks[self.i] == ":"
            self.i += typed
            if not typed and type(term) is not Close:
                self.fail(j, "untyped conclusion must have the form close(...)")
            ty = self.type_() if typed else None
            delta.append(_new(DeltaEntry, ("DeltaEntry", term, ty)))
            if toks[self.i] != ",":
                return self.end(_new(Sequent, ("Sequent", tuple(gamma.items()), tuple(delta))))
            self.i += 1

    def types(self, stop: str) -> tuple:
        """Types separated by ',', none if the next token is stop."""
        out = [] if self.toks[self.i] == stop else [self.type_()]
        while out and self.toks[self.i] == ",":
            self.i += 1
            out.append(self.type_())
        return tuple(out)


def parse_program(text: str) -> Program:
    r = _Reader(text)
    seq = r.sequent()
    if r.rebound:  # the first name bound again is reported
        raise DuplicateBinder(f"binder {next(iter(r.rebound))!r} is bound more than once")
    return Program(seq, r.annotations)


def parse_sequent(text: str) -> Sequent:
    """A sequent alone, binders not checked (the derivation reader's)."""
    return _Reader(text).sequent()


def parse_type_sides(text: str) -> tuple[tuple, tuple]:
    """Two comma-separated type lists around '|-'; either may be empty."""
    r = _Reader(text)
    left = r.types("|-")
    r.expect("|-")
    return left, r.end(r.types(""))


def parse_term(text: str) -> Term:
    """Parse a bare term: the text of one term and nothing after it."""
    r = _Reader(text)
    return r.end(r.term())


def parse_type(text: str) -> TypeExpr:
    r = _Reader(text)
    return r.end(r.type_())
