"""Core syntax of the lamp calculus: terms, types, sequents, and paths.

A lamp program is a parallel composition of processes built from a linear
lambda calculus plus communication primitives.  A single constructor, Send,
doubles as lambda abstraction and as an output channel: ``Send(x, b)`` is a
lambda when ``x`` occurs free in ``b`` and an output channel named ``x``
with continuation ``b`` otherwise.  The printer picks ``lam x.`` or
``out x.`` accordingly; the distinction is never stored.

Binder names are globally unique within a program and substitution performs
plain replacement with no renaming: when a substituted term moves under a
Send binder for one of its free names, the binder silently flips between
its channel and lambda readings, which is exactly the intended semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Lolli:
    arg: "TypeExpr"
    res: "TypeExpr"


@dataclass(frozen=True)
class ParT:
    left: "TypeExpr"
    right: "TypeExpr"


TypeExpr = Union[Atom, Bot, Lolli, ParT]

BOT = Bot()


def subformulas(ty: TypeExpr) -> set:
    """All subformulas of ty, including ty itself."""
    out = {ty}
    match ty:
        case Lolli(a, b) | ParT(a, b):
            out |= subformulas(a)
            out |= subformulas(b)
    return out


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Unit:
    """The terminated process, printed ``*``."""


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Send:
    """Output channel with continuation; also the lambda binder."""

    chan: str
    body: "Term"


@dataclass(frozen=True)
class Dist:
    """Binary output channel without continuation, printed ``out2 x y.``"""

    chan1: str
    chan2: str
    body: "Term"


@dataclass(frozen=True)
class Par:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Close:
    body: "Term"


Term = Union[Unit, Var, App, Send, Dist, Par, Close]

UNIT = Unit()

Path = tuple[int, ...]


class InvalidPath(Exception):
    pass


def children(t: Term) -> tuple[Term, ...]:
    # the innermost call of every traversal: type tests run about three
    # times faster than class patterns here
    cls = type(t)
    if cls is App:
        return (t.fun, t.arg)
    if cls is Par:
        return (t.left, t.right)
    if cls is Send or cls is Dist or cls is Close:
        return (t.body,)
    return ()


def subterm_at(t: Term, path: Path) -> Term:
    for i in path:
        kids = children(t)
        if i >= len(kids):
            raise InvalidPath(f"no child {i} at {type(t).__name__}")
        t = kids[i]
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    """t with the subterm at path replaced by new: the nodes along path are
    rebuilt bottom up, everything off it is shared."""
    spine: list[tuple[Term, int]] = []
    for i in path:
        kids = children(t)
        if i >= len(kids):
            raise InvalidPath(f"no child {i} at {type(t).__name__}")
        spine.append((t, i))
        t = kids[i]
    for node, i in reversed(spine):
        cls = type(node)
        if cls is App:
            new = App(new, node.arg) if i == 0 else App(node.fun, new)
        elif cls is Par:
            new = Par(new, node.right) if i == 0 else Par(node.left, new)
        elif cls is Send:
            new = Send(node.chan, new)
        elif cls is Dist:
            new = Dist(node.chan1, node.chan2, new)
        else:
            new = Close(new)
    return new


def subterms(t: Term, prefix: Path = ()) -> Iterator[tuple[Path, Term]]:
    """All (path, subterm) pairs in preorder, leftmost-outermost first."""
    stack = [(prefix, t)]
    while stack:
        path, s = stack.pop()
        yield path, s
        kids = children(s)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))


def binders(t: Term) -> set[str]:
    """Names bound by a Send or Dist anywhere in t."""
    out: set[str] = set()
    for _, s in subterms(t):
        match s:
            case Send(x, _):
                out.add(x)
            case Dist(x, y, _):
                out.add(x)
                out.add(y)
    return out


def var_names(t: Term) -> set[str]:
    """Every name occurring in t, as a variable or as a binder."""
    out: set[str] = set()
    for _, s in subterms(t):
        match s:
            case Var(x):
                out.add(x)
            case Send(x, _):
                out.add(x)
            case Dist(x, y, _):
                out.add(x)
                out.add(y)
    return out


class _Scan(NamedTuple):
    """What one preorder pass over a term finds."""

    free: dict[str, list[Path]]  # per name, its free occurrences in preorder
    lams: set[int]  # ids of the Sends whose name is free in their own body
    pars: set[Path]  # paths of the Par nodes
    # activator candidates in preorder: App(Send, _) and Dist(_, _, Par)
    acts: list[tuple[Path, Term]]


def _scan(t: Term) -> _Scan:
    """One preorder pass over t: the name index, the lambdas, the Par paths
    and the activator candidates, which together are all redex search reads.

    A variable belongs to its innermost enclosing Send or Dist binder for
    its name; with none it is free.  Binders for other names are
    transparent.
    """
    free: dict[str, list[Path]] = {}
    lams: set[int] = set()
    pars: set[Path] = set()
    acts: list[tuple[Path, Term]] = []
    # per name, the enclosing binders innermost last: a Send, or None for
    # a Dist; a (None, names) stack entry closes the binders for names
    scope: dict[str, list[Optional[Send]]] = {}
    stack: list = [(t, ())]
    while stack:
        s, p = stack.pop()
        cls = type(s)
        if cls is Var:
            bound = scope.get(s.name)
            if bound:
                if bound[-1] is not None:
                    lams.add(id(bound[-1]))
            else:
                free.setdefault(s.name, []).append(p)
        elif cls is App:
            if type(s.fun) is Send:
                acts.append((p, s))
            stack.append((s.arg, p + (1,)))
            stack.append((s.fun, p + (0,)))
        elif cls is Par:
            pars.add(p)
            stack.append((s.right, p + (1,)))
            stack.append((s.left, p + (0,)))
        elif cls is Send:
            scope.setdefault(s.chan, []).append(s)
            stack.append((None, (s.chan,)))
            stack.append((s.body, p + (0,)))
        elif cls is Dist:
            if type(s.body) is Par:
                acts.append((p, s))
            scope.setdefault(s.chan1, []).append(None)
            scope.setdefault(s.chan2, []).append(None)
            stack.append((None, (s.chan1, s.chan2)))
            stack.append((s.body, p + (0,)))
        elif cls is Close:
            stack.append((s.body, p + (0,)))
        elif s is None:
            for x in p:
                scope[x].pop()
    return _Scan(free, lams, pars, acts)


def free_index(t: Term) -> dict[str, list[Path]]:
    """Paths of the free occurrences of every name in t, each in preorder.

    Occurrences under a Send or Dist binder for the same name are bound and
    skipped; binders for other names are transparent.
    """
    return _scan(t).free


def occurrences(t: Term, x: str) -> list[Path]:
    """Paths of the free occurrences of x in t, in preorder."""
    return free_index(t).get(x, [])


def is_free_in(x: str, t: Term) -> bool:
    """Whether x occurs free in t; stops at the first free occurrence."""
    stack = [t]
    while stack:
        s = stack.pop()
        cls = type(s)
        if cls is Var:
            if s.name == x:
                return True
        elif not (cls is Send and s.chan == x
                  or cls is Dist and x in (s.chan1, s.chan2)):
            stack.extend(children(s))
    return False


def substitute(t: Term, x: str, s: Term) -> Term:
    """Replace every free occurrence of x in t by s.  No renaming, ever."""
    match t:
        case Var(y):
            return s if y == x else t
        case Send(y, b):
            return t if y == x else Send(y, substitute(b, x, s))
        case Dist(y, z, b):
            return t if x in (y, z) else Dist(y, z, substitute(b, x, s))
        case App(f, a):
            return App(substitute(f, x, s), substitute(a, x, s))
        case Par(l, r):
            return Par(substitute(l, x, s), substitute(r, x, s))
        case Close(b):
            return Close(substitute(b, x, s))
        case _:
            return t


def flatten_par(t: Term) -> list[Term]:
    """The maximal parallel spine of t, left to right."""
    if isinstance(t, Par):
        return flatten_par(t.left) + flatten_par(t.right)
    return [t]


def join_par(parts: list[Term]) -> Term:
    """Left-fold a component list back into one term."""
    if not parts:
        raise ValueError("empty component list")
    out = parts[0]
    for p in parts[1:]:
        out = Par(out, p)
    return out


def split_joined(t: Term, m: int) -> list[Term]:
    """Undo join_par for a known component count.  Reduction replaces proper
    subterms only, so the m-1 spine Par nodes of a joined term survive every
    step and the original entry boundaries stay recoverable."""
    out: list[Term] = []
    for _ in range(m - 1):
        if not isinstance(t, Par):
            raise ValueError("joined term lost its parallel spine")
        out.append(t.right)
        t = t.left
    out.append(t)
    out.reverse()
    return out


def is_simple(path: Path, root: Term) -> bool:
    """True iff no Par lies strictly between root and the hole at path.

    Punching a hole at such a position yields a context that is not a
    parallel composition of the hole with anything else.
    """
    t = root
    for i in path:
        if isinstance(t, Par):
            return False
        kids = children(t)
        if i >= len(kids):
            raise InvalidPath(f"no child {i} at {type(t).__name__}")
        t = kids[i]
    return True


# ---------------------------------------------------------------------------
# Sequents

@dataclass(frozen=True)
class DeltaEntry:
    term: Term
    type: Optional[TypeExpr]  # None only for close(...) processes


@dataclass(frozen=True)
class Sequent:
    gamma: tuple[tuple[str, TypeExpr], ...]
    delta: tuple[DeltaEntry, ...]

    def joined_term(self) -> Term:
        return join_par([e.term for e in self.delta])


def sequent_names(s: Sequent) -> set[str]:
    """All names used anywhere in a sequent: declarations, variables, binders."""
    out = {x for x, _ in s.gamma}
    for e in s.delta:
        out |= var_names(e.term)
    return out


# ---------------------------------------------------------------------------
# Printing.  print_term round-trips with the parser; Send prints as a
# lambda exactly when its bound name occurs free in the body, which one
# _scan of the whole term records for every Send at once.

_PAR_LVL, _SEQ_LVL, _APP_LVL, _ATOM_LVL = 0, 1, 2, 3


def _fmt_term(t: Term, lvl: int, lams: set[int]) -> str:
    match t:
        case Unit():
            s, mine = "*", _ATOM_LVL
        case Var(x):
            s, mine = x, _ATOM_LVL
        case App(f, a):
            s = f"{_fmt_term(f, _APP_LVL, lams)} {_fmt_term(a, _ATOM_LVL, lams)}"
            mine = _APP_LVL
        case Send(x, b):
            kw = "lam" if id(t) in lams else "out"
            s, mine = f"{kw} {x}. {_fmt_term(b, _SEQ_LVL, lams)}", _SEQ_LVL
        case Dist(x, y, b):
            s, mine = f"out2 {x} {y}. {_fmt_term(b, _SEQ_LVL, lams)}", _SEQ_LVL
        case Par(l, r):
            s = f"{_fmt_term(l, _SEQ_LVL, lams)} | {_fmt_term(r, _PAR_LVL, lams)}"
            mine = _PAR_LVL
        case Close(b):
            s, mine = f"close({_fmt_term(b, _PAR_LVL, lams)})", _ATOM_LVL
        case _:
            raise TypeError(f"not a term: {t!r}")
    return f"({s})" if mine < lvl else s


def print_term(t: Term) -> str:
    return _fmt_term(t, _PAR_LVL, _scan(t).lams)


def _fmt_type(ty: TypeExpr, lvl: int) -> str:
    match ty:
        case Atom(n):
            s, mine = n, 2
        case Bot():
            s, mine = "bot", 2
        case Lolli(a, b):
            s, mine = f"{_fmt_type(a, 2)} -o {_fmt_type(b, 1)}", 1
        case ParT(a, b):
            s, mine = f"{_fmt_type(a, 1)} par {_fmt_type(b, 0)}", 0
        case _:
            raise TypeError(f"not a type: {ty!r}")
    return f"({s})" if mine < lvl else s


def print_type(ty: TypeExpr) -> str:
    return _fmt_type(ty, 0)


def _declaration_text(g: tuple[str, TypeExpr]) -> str:
    return f"{g[0]} : {print_type(g[1])}"


def _entry_text(e: DeltaEntry) -> str:
    if e.type is None:
        return print_term(e.term)
    return f"{print_term(e.term)} : {print_type(e.type)}"


def print_sequent(s: Sequent, memo: Optional[dict[int, str]] = None) -> str:
    """s in lamp syntax.  memo, if given, maps the id of each declaration
    and entry object printed so far to its text, so that a caller printing
    many sequents that share those objects prints each once; the caller
    keeps the objects alive while it reuses memo."""
    if memo is None:
        memo = {}

    def text(item, fmt) -> str:
        hit = memo.get(id(item))
        if hit is None:
            hit = memo[id(item)] = fmt(item)
        return hit

    decls = ", ".join(text(g, _declaration_text) for g in s.gamma)
    ents = ", ".join(text(e, _entry_text) for e in s.delta)
    return f"{decls} |- {ents}" if decls else f"|- {ents}"
