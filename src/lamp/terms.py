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

Terms, types, entries (a term and its type) and sequents are all
immutable tuples ``(tag, *fields)`` of one base class: the tag is the
class name, the names come next and the children last, from the class's
``_first`` index on (``Dist(x, y, b)`` is ``("Dist", x, y, b)`` with its
one child at index 3, ``Atom("A")`` is ``("Atom", "A")`` with none, and an
entry or a sequent has no children).  Hashing and equality are tuple's own
and run in C: hashing knows no recursion limit, but comparing two equal,
distinct trees counts each level against it.  The tag keeps constructors
with equal fields, such as ``App(a, b)`` and ``Par(a, b)`` or
``Lolli(a, b)`` and ``ParT(a, b)``, apart.  Fields are also named
attributes, class patterns match on them, and the repr is the field-named
one of a dataclass.  Walks index the tuple directly, and one kids
function, ``children``, serves terms and types alike.  A path (child
indices from the root) names a position to callers; inside a walk,
``_scan`` names one by a cell linked to its parent's, built in O(1) where
a path costs its length, and a path is built only for a position that is
reported.  An edit of a term (``replace_at``, ``substitute``, a reduct, a
runtime consume) puts new subterms at cells with ``_put``, which rebuilds
each node above them once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# Walks.  Terms, types and both kinds of derivation are trees; kids(node)
# lists a node's children in order.  Both walks keep their own stack, so
# neither is bounded by the recursion limit.

def preorder(root, kids: Callable) -> Iterator[tuple[Path, object]]:
    """Every (path, node) of the tree at root, parents first, leftmost
    first; a path lists child indices from root."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        ks = kids(node)
        for i in range(len(ks) - 1, -1, -1):
            stack.append((path + (i,), ks[i]))


def nodes(root, kids: Callable) -> Iterator:
    """The nodes preorder yields, in its order, without their paths: a
    path costs its length to build, so a walk that drops them costs the
    tree's size, not its size times its depth."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(kids(node)))


def fold(root, kids: Callable, leave: Callable):
    """leave(node, values) for every node of the tree at root, children
    first, left to right, where values lists what leave gave the node's
    children; returns what it gave root."""
    values: list = []
    # (node, None) is yet to open; (node, its kids) pops once they are done
    stack: list = [(root, None)]
    while stack:
        node, ks = stack.pop()
        if ks is None:
            ks = kids(node)
            if ks:
                stack.append((node, ks))
                for k in reversed(ks):
                    stack.append((k, None))
                continue
            values.append(leave(node, ks))
        else:
            n = len(ks)
            values[-n:] = [leave(node, values[-n:])]
    return values[0]


# ---------------------------------------------------------------------------
# Terms, types, entries and sequents: (tag, *fields) tuples, see the module
# docstring

class _Node(tuple):
    """What every term, type, entry and sequent class shares.  A class
    lists its fields once, in __match_args__, and sets _first if it has
    children; from those the base gives it a positional constructor, a
    property per field, a field-named repr, and pickling and copying
    through the constructor."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _first: int  # the tuple index of the first child; len(t) if none

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__match_args__
        tag = (cls.__name__,)
        cls._first = cls.__dict__.get("_first", len(fields) + 1)
        for k, name in enumerate(fields, 1):
            setattr(cls, name, property(itemgetter(k)))

        def __new__(c, *values):
            if len(values) != len(fields):
                raise TypeError(f"{c.__name__}() takes {len(fields)} fields "
                                f"{fields}, got {len(values)}")
            return tuple.__new__(c, tag + values)

        cls.__new__ = staticmethod(__new__)

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__match_args__, self[1:]))
        return f"{type(self).__qualname__}({fields})"


class Unit(_Node):
    """The terminated process, printed ``*``."""

    __slots__ = ()


class Var(_Node):
    __slots__ = ()
    __match_args__ = ("name",)


class App(_Node):
    __slots__ = ()
    __match_args__ = ("fun", "arg")
    _first = 1


class Send(_Node):
    """Output channel with continuation; also the lambda binder."""

    __slots__ = ()
    __match_args__ = ("chan", "body")
    _first = 2


class Dist(_Node):
    """Binary output channel without continuation, printed ``out2 x y.``"""

    __slots__ = ()
    __match_args__ = ("chan1", "chan2", "body")
    _first = 3


class Par(_Node):
    __slots__ = ()
    __match_args__ = ("left", "right")
    _first = 1


class Close(_Node):
    __slots__ = ()
    __match_args__ = ("body",)
    _first = 1


Term = Union[Unit, Var, App, Send, Dist, Par, Close]

UNIT = Unit()

Path = tuple[int, ...]


class InvalidPath(Exception):
    pass


def children(t: _Node) -> tuple:
    """The children of a term or a type, in order."""
    return t[t._first:]


def subterm_at(t: Term, path: Path) -> Term:
    return next(_cells_at(t, (path,)))[2]


def replace_at(t: Term, path: Path, new: Term) -> Term:
    """t with the subterm at path replaced by new: the nodes along path are
    rebuilt bottom up, everything off it is shared."""
    return _put([(next(_cells_at(t, (path,))), new)])


# s[1:s._first] are the names node s carries: a variable's, or the
# channels a Send or Dist binds

def var_names(t: Term) -> set[str]:
    """Every name occurring in t, as a variable or as a binder."""
    return {x for s in nodes(t, children) for x in s[1:s._first]}


# A position in a scanned term is a cell (parent cell, k, node): node is
# the subterm there and parent cell's node[k] (a tuple index, not a path
# index); the root's cell is (None, 0, root).  A cell is built in O(1) as
# the walk reaches its node, and two cells of one scan are the same
# position exactly when they are the same object.
Cell = tuple


class _Scan(NamedTuple):
    """What one preorder pass over a term finds."""

    free: dict[str, list[Cell]]  # per name, its free occurrences in preorder
    lams: set[int]  # ids of the Sends whose name is free in their own body
    # activator candidates in preorder: App(Send, _) and Dist(_, _, Par)
    acts: list[Cell]


def _scan(t: Term) -> _Scan:
    """One preorder pass over t: the name index, the lambdas and the
    activator candidates, each at its cell, which together are all redex
    search and firing read.

    A variable belongs to its innermost enclosing Send or Dist binder for
    its name; with none it is free.  Binders for other names are
    transparent.
    """
    free: dict[str, list[Cell]] = {}
    lams: set[int] = set()
    acts: list[Cell] = []
    # per name, the enclosing binders innermost last: a Send, or None for
    # a Dist; a (None, names, None) stack entry closes the binders for names
    scope: dict[str, list[Optional[Send]]] = {}
    # fields are read by index, which costs about half a property read
    stack: list = [(None, 0, t)]
    while stack:
        c = stack.pop()
        s = c[2]
        cls = type(s)
        if cls is Var:
            bound = scope.get(s[1])
            if bound:
                if bound[-1] is not None:
                    lams.add(id(bound[-1]))
            else:
                free.setdefault(s[1], []).append(c)
        elif cls is App:
            if type(s[1]) is Send:
                acts.append(c)
            stack.append((c, 2, s[2]))
            stack.append((c, 1, s[1]))
        elif cls is Par:
            stack.append((c, 2, s[2]))
            stack.append((c, 1, s[1]))
        elif cls is Send:
            scope.setdefault(s[1], []).append(s)
            stack.append((None, (s[1],), None))
            stack.append((c, 2, s[2]))
        elif cls is Dist:
            if type(s[3]) is Par:
                acts.append(c)
            scope.setdefault(s[1], []).append(None)
            scope.setdefault(s[2], []).append(None)
            stack.append((None, (s[1], s[2]), None))
            stack.append((c, 3, s[3]))
        elif cls is Close:
            stack.append((c, 1, s[1]))
        elif s is None:
            for x in c[1]:
                scope[x].pop()
    return _Scan(free, lams, acts)


def _path(c: Cell) -> Path:
    """The path from the root to the position of cell c."""
    out = []
    while c[0] is not None:
        up = c[0]
        out.append(c[1] - up[2]._first)
        c = up
    out.reverse()
    return tuple(out)


def _cells_at(t: Term, paths) -> Iterator[Cell]:
    """A cell for the position of each path in t, made as the paths are
    read, one per position, as one scan of t would make them."""
    root = (None, 0, t)
    made: dict[tuple[int, int], Cell] = {}  # (id of the parent cell, k)
    for path in paths:
        c = root
        for i in path:
            node = c[2]
            first = node._first
            if not 0 <= i < len(node) - first:
                raise InvalidPath(f"no child {i} at {type(node).__name__}")
            c = made.setdefault((id(c), first + i), (c, first + i, node[first + i]))
        yield c


def occurrences(t: Term, x: str) -> list[Path]:
    """Paths of the free occurrences of x in t, in preorder."""
    return [_path(c) for c in _scan(t).free.get(x, ())]


def is_free_in(x: str, t: Term) -> bool:
    """Whether x occurs free in t; stops at the first free occurrence."""
    return next(_free_cells(t, x), None) is not None


def _free_cells(t: Term, x: str) -> Iterator[Cell]:
    """The cells of the free occurrences of x in t, in preorder: one walk
    that makes a cell per node it enters and skips every binder for x."""
    stack: list = [(None, 0, t)]
    while stack:
        c = stack.pop()
        s = c[2]
        cls = type(s)
        if cls is Var:
            if s[1] == x:
                yield c
        elif cls is Send:
            if s[1] != x:
                stack.append((c, 2, s[2]))
        elif cls is Dist:
            if s[1] != x and s[2] != x:
                stack.append((c, 3, s[3]))
        else:  # Unit has no children, App, Par and Close have them from 1
            for k in range(len(s) - 1, 0, -1):
                stack.append((c, k, s[k]))


def substitute(t: Term, x: str, s: Term) -> Term:
    """Replace every free occurrence of x in t by s.  No renaming, ever.
    A subterm with no free x comes back as the same object."""
    edits = [(c, s) for c in _free_cells(t, x)]
    return _put(edits) if edits else t


def _put(edits: list[tuple[Cell, Term]]) -> Term:
    """The scanned term with each edit's new node at its cell: edits are
    (cell, new node) pairs of one scan, and no edited cell lies above
    another.  Each node on the union of the edited positions' paths is
    rebuilt once, bottom up, and everything off them is shared; returns
    the new root.  replace_at, substitute, every reduct and the runtime's
    consumes all edit a term through here."""
    # the cells where the paths of two edits meet, by id, each with its
    # node's fields and the number of its children yet to be rebuilt; a
    # node has at most two children, so no third path meets the same one
    joins: dict[int, list] = {}
    if len(edits) > 1:
        seen: set[int] = set()
        for c, _ in edits:
            while c[0] is not None:
                c = c[0]
                if id(c) in seen:
                    joins[id(c)] = [list(c[2]), 2]
                    break
                seen.add(id(c))
    for c, new in edits:
        while c[0] is not None:
            up = c[0]
            join = joins.get(id(up))
            if join is None:
                node, k = up[2], c[1]
                new = tuple.__new__(type(node), node[:k] + (new,) + node[k + 1:])
            else:
                join[0][c[1]] = new
                join[1] -= 1
                if join[1]:
                    break  # the edit that brings the last child goes on
                new = tuple.__new__(type(up[2]), join[0])
            c = up
        else:
            root = new
    return root


def _spine(t: Term) -> tuple[Term, ...]:
    return children(t) if type(t) is Par else ()


def flatten_par(t: Term) -> list[Term]:
    """The maximal parallel spine of t, left to right."""
    return [s for s in nodes(t, _spine) if type(s) is not Par]


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
    c = next(_cells_at(root, (path,)))[0]
    while c is not None:
        if type(c[2]) is Par:
            return False
        c = c[0]
    return True


# ---------------------------------------------------------------------------
# Types

class Atom(_Node):
    __slots__ = ()
    __match_args__ = ("name",)


class Bot(_Node):
    __slots__ = ()


class Lolli(_Node):
    __slots__ = ()
    __match_args__ = ("arg", "res")
    _first = 1


class ParT(_Node):
    __slots__ = ()
    __match_args__ = ("left", "right")
    _first = 1


class MetaVar(_Node):
    """A type unknown, local to one reconstruction run; it prints by its
    name."""

    __slots__ = ()
    __match_args__ = ("name",)


TypeExpr = Union[Atom, Bot, Lolli, ParT]

BOT = Bot()


def subformulas(ty: TypeExpr) -> set:
    """All subformulas of ty, including ty itself."""
    return set(nodes(ty, children))


def equal(a: _Node, b: _Node) -> bool:
    """a == b for trees of any depth: tuple == recurses in C, against the
    recursion limit, so node pairs are compared here on a stack instead,
    identical subtrees at once."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or a[:a._first] != b[:b._first]:
            return False
        stack.extend(zip(children(a), children(b)))
    return True


# ---------------------------------------------------------------------------
# Sequents

class DeltaEntry(_Node):
    """A term and its type; the type is None only for close(...)."""

    __slots__ = ()
    __match_args__ = ("term", "type")


class Sequent(_Node):
    """Declarations gamma, (name, type) pairs, and entries delta."""

    __slots__ = ()
    __match_args__ = ("gamma", "delta")

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

_LOOSE = frozenset({Send, Dist, Par})  # the classes looser than application


def print_term(t: Term) -> str:
    lams = _scan(t).lams

    def text(n: Term, kids: list[str]) -> str:
        # fields by index, as in _scan
        cls = type(n)
        if cls is Var:
            return n[1]
        if cls is Unit:
            return "*"
        if cls is Close:
            return f"close({kids[0]})"
        if cls is App:
            f, a = kids
            if type(n[1]) in _LOOSE:
                f = f"({f})"
            if type(n[2]) in _LOOSE or type(n[2]) is App:
                a = f"({a})"
            return f"{f} {a}"
        # a Par left of | or in a binder's body takes parentheses
        b = kids[0]
        if type(n[1] if cls is Par else n[-1]) is Par:
            b = f"({b})"
        if cls is Par:
            return f"{b} | {kids[1]}"
        if cls is Send:
            return f"{'lam' if id(n) in lams else 'out'} {n[1]}. {b}"
        return f"out2 {n[1]} {n[2]}. {b}"

    return fold(t, children, text)


_TYPE_LEVEL = {Atom: 2, Bot: 2, MetaVar: 2, Lolli: 1, ParT: 0}


def print_type(ty: TypeExpr) -> str:
    def wrap(s: str, kid: TypeExpr, lvl: int) -> str:
        return f"({s})" if _TYPE_LEVEL[type(kid)] < lvl else s

    def text(n: TypeExpr, kids: list[str]) -> str:
        match n:
            case Atom(name) | MetaVar(name):
                return name
            case Bot():
                return "bot"
            case Lolli(a, b):
                return f"{wrap(kids[0], a, 2)} -o {wrap(kids[1], b, 1)}"
            case ParT(a, _):
                return f"{wrap(kids[0], a, 1)} par {kids[1]}"
        raise TypeError(f"not a type: {n!r}")

    return fold(ty, children, text)


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
