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
attributes, class patterns match on them, and the repr names them, as
a NamedTuple's does.  Walks index the tuple directly, and one kids
function, ``children``, serves terms and types alike.  A path (child
indices from the root) names a position to callers; inside a walk,
``_scan`` names one by a cell linked to its parent's, built in O(1) where
a path costs its length, and a path is built only for a position that is
reported.  ``_scan`` is the one walk that decides which binder a variable
belongs to: firing, printing, ``substitute``, ``is_free_in`` and
enumerate's pruning read its free-name index and its lambdas.  An edit of
a term (``replace_at``, ``substitute``, a reduct, a runtime consume) puts
new subterms at cells with ``_put``, which rebuilds each node above them
once.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, not_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

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
        tag = cls.__name__
        cls._first = cls.__dict__.get("_first", len(fields) + 1)
        for k, name in enumerate(fields, 1):
            setattr(cls, name, property(itemgetter(k)))

        # one positional parameter per field: the call itself checks the
        # field count, faster than a *values function that counts them
        if not fields:
            def __new__(c):
                return tuple.__new__(c, (tag,))
        elif len(fields) == 1:
            def __new__(c, a):
                return tuple.__new__(c, (tag, a))
        elif len(fields) == 2:
            def __new__(c, a, b):
                return tuple.__new__(c, (tag, a, b))
        else:
            def __new__(c, a, b, d):
                return tuple.__new__(c, (tag, a, b, d))

        # a wrong field count then raises "App() missing 1 required
        # positional argument: 'arg'"
        __new__.__code__ = __new__.__code__.replace(co_varnames=("cls", *fields))
        __new__.__qualname__ = tag
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
    return _cell_at(t, path)[2]


def replace_at(t: Term, path: Path, new: Term) -> Term:
    """t with the subterm at path replaced by new: the nodes along path are
    rebuilt bottom up, everything off it is shared."""
    return _put([(_cell_at(t, path), new)])


# s[1:s._first] are the names node s carries: a variable's, or the
# channels a Send or Dist binds

def var_names(t: Term) -> set[str]:
    """Every name occurring in t, as a variable or as a binder: the names
    name_counts counts."""
    return set(name_counts((t,)))


def name_counts(ts: Iterable[Term]) -> dict[str, tuple[int, int]]:
    """Per name occurring in the terms ts: (variable occurrences, binder
    occurrences), counted textually (bound occurrences included), in order
    of first occurrence.  One preorder walk over all of ts, which, as
    _scan's, reads fields by index."""
    counts: dict[str, list[int]] = {}
    stack = [*ts]
    stack.reverse()
    while stack:
        s = stack.pop()
        cls = type(s)
        if cls is Var:
            c = counts.get(s[1])
            if c is None:
                counts[s[1]] = [1, 0]
            else:
                c[0] += 1
        elif cls is App or cls is Par:
            stack.append(s[2])
            stack.append(s[1])
        elif cls is Send:
            counts.setdefault(s[1], [0, 0])[1] += 1
            stack.append(s[2])
        elif cls is Dist:
            counts.setdefault(s[1], [0, 0])[1] += 1
            counts.setdefault(s[2], [0, 0])[1] += 1
            stack.append(s[3])
        elif cls is Close:
            stack.append(s[1])
    return {x: (v, b) for x, (v, b) in counts.items()}


def node_kinds(ts: Iterable[_Node]) -> list[type]:
    """The class of every node of the trees ts, in no fixed order, for
    counting nodes by kind: one walk with its own stack."""
    kinds = []
    stack = list(ts)
    while stack:
        s = stack.pop()
        kinds.append(type(s))
        stack += s[s._first:]
    return kinds


# A position in a scanned term is a cell (parent cell, k, node): node is
# the subterm there and parent cell's node[k] (a tuple index, not a path
# index); the root's cell is (None, 0, root).  A cell is built in O(1) as
# the walk reaches its node, and two cells of one scan are the same
# position exactly when they are the same object.
Cell = tuple


class _Scan(NamedTuple):
    """What one preorder pass over a term finds."""

    free: dict[str, list[Cell]]  # per name, its free occurrences in preorder
    # per Send whose name is free in its own body, by id, the occurrences
    # it binds in preorder
    lams: dict[int, list[Cell]]
    # activator candidates in preorder: App(Send, _) and Dist(_, _, Par)
    acts: list[Cell]


def _scan(t: Term) -> _Scan:
    """One preorder pass over t: the name index, the lambdas with the
    occurrences each binds and the activator candidates, each at its cell,
    which together are all redex search, firing and substitution read.

    A variable belongs to its innermost enclosing Send or Dist binder for
    its name; with none it is free.  Binders for other names are
    transparent.  This is the one place that rule is written down.
    """
    free: dict[str, list[Cell]] = {}
    lams: dict[int, list[Cell]] = {}
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
                    lams.setdefault(id(bound[-1]), []).append(c)
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


def _cell_at(t: Term, path: Path) -> Cell:
    """A cell for the position of path in t, as a scan of t would make it."""
    c = (None, 0, t)
    for i in path:
        node = c[2]
        first = node._first
        if not 0 <= i < len(node) - first:
            raise InvalidPath(f"no child {i} at {type(node).__name__}")
        c = (c, first + i, node[first + i])
    return c


def occurrences(t: Term, x: str) -> list[Path]:
    """Paths of the free occurrences of x in t, in preorder."""
    return [_path(c) for c in _scan(t).free.get(x, ())]


def is_free_in(x: str, t: Term) -> bool:
    """Whether x occurs free in t."""
    return x in _scan(t).free


def substitute(t: Term, x: str, s: Term) -> Term:
    """Replace every free occurrence of x in t by s.  No renaming, ever.
    A subterm with no free x comes back as the same object."""
    edits = [(c, s) for c in _scan(t).free.get(x, ())]
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
    c = _cell_at(root, path)[0]
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


def intern(root: _Node, table: dict, done: dict, kids: Callable = children,
           unknown: Optional[_Node] = None) -> _Node:
    """The one node of table equal to the tree at root, whose children
    kids lists: table maps the tag, the names and the interned children's
    ids of each node to the node, so equal trees intern to one object
    without being compared or hashed whole, which recurses in C against
    the recursion limit and costs each subtree again.  A node whose
    children intern to themselves is kept, else it is rebuilt from them
    as the parser builds it; with unknown given, a MetaVar interns as
    unknown.  done maps the id of each node interned to what it interned
    to, so each object is walked once; the caller keeps each key alive
    while it reuses done."""
    hit = done.get(id(root))
    if hit is not None:
        return hit

    def open_(node) -> tuple:
        return () if id(node) in done else kids(node)

    def leave(node, parts):
        hit = done.get(id(node))
        if hit is None:
            ids = tuple(map(id, parts))
            new = (unknown if unknown is not None and type(node) is MetaVar
                   else node if ids == tuple(map(id, children(node)))
                   else tuple.__new__(type(node), node[:node._first] + tuple(parts)))
            hit = done[id(node)] = table.setdefault(new[:new._first] + ids, new)
        return hit

    return fold(root, open_, leave) if len(root) > root._first else leave(root, ())


def equal(a: _Node, b: _Node) -> bool:
    """a == b for trees of any depth: whether both intern to one object
    of one table."""
    table: dict = {}
    done: dict = {}
    return intern(a, table, done) is intern(b, table, done)


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


class MllSequent(_Node):
    """A sequent of the sequent calculus (mll): types left and right.  It
    lives here, where every command's modules can name it, so that
    reading one compiles no mll."""

    __slots__ = ()
    __match_args__ = ("left", "right")


def sequent_names(s: Sequent) -> set[str]:
    """All names used anywhere in a sequent: declarations, variables, binders."""
    return {x for x, _ in s.gamma}.union(name_counts(e.term for e in s.delta))


class TypecheckError(Exception):
    """A typing failure.  Its message may be given as a function that
    renders it: backtracking throws most of these errors away unread, so
    the text is built on the first str()."""

    def __str__(self) -> str:
        if len(self.args) == 1 and callable(self.args[0]):
            self.args = (self.args[0](),)
        return super().__str__()


class LinearityError(TypecheckError):
    """A program that uses a name other than exactly once."""

    def __init__(self, name: str, var_count: int, binder_count: int, declared: bool):
        where = "declared" if declared else "undeclared"
        super().__init__(
            f"{where} name {name!r} occurs {var_count}x as a variable and "
            f"{binder_count}x as a binder")
        self.name = name
        self.var_count = var_count
        self.binder_count = binder_count
        self.declared = declared


def check_channel_linearity(s: Sequent) -> None:
    """Every declared name occurs exactly once as a variable and never as a
    binder; every undeclared name occurs exactly once as a variable and
    exactly once as a binder.  Reports the first offender: declarations in
    order, then names in order of first occurrence."""
    counts = name_counts(e.term for e in s.delta)
    declared = dict.fromkeys(x for x, _ in s.gamma)
    for x in dict.fromkeys([*declared, *counts]):
        var_n, bind_n = counts.get(x, (0, 0))
        if x in declared:
            if var_n != 1 or bind_n != 0:
                raise LinearityError(x, var_n, bind_n, declared=True)
        elif var_n != 1 or bind_n != 1:
            raise LinearityError(x, var_n, bind_n, declared=False)


# ---------------------------------------------------------------------------
# Printing.  print_term round-trips with the parser; Send prints as a
# lambda exactly when its bound name occurs free in the body, which one
# _scan of the whole term records for every Send at once.  A node's text
# depends on the node alone (its parent adds any parentheses around it), so
# a caller printing many terms that share subterms, such as the states of a
# trace or the conclusions of a derivation, can pass one memo to reuse the
# text of each shared subterm: a span memo maps the id of a printed node to
# (text, start, end), where text[start:end] is the node's text inside the
# text of the first root printed that held it.

_LOOSE = frozenset({Send, Dist, Par})  # the classes looser than application
# per infix class: the classes its left operand takes parentheses in, those
# its right operand takes them in, and its operator
_INFIX = {
    App: (_LOOSE, _LOOSE | {App}, " "),
    Par: ({Par}, (), " | "),
    Lolli: ({Lolli, ParT}, {ParT}, " -o "),
    ParT: ({ParT}, (), " par "),
}

Memo = dict[int, tuple[str, int, int]]


def print_term(t: Term, memo: Optional[Memo] = None) -> str:
    """t in lamp syntax.

    memo, if given, is a span memo.  A node found in it is copied as its
    slice and not walked; a root not found adds its text once and one span
    for each node it prints anew but a leaf (a leaf prints as fast as it
    is looked up).  So memo holds one string per root printed, a string
    the caller's output holds anyway, and one entry per node printed.  The
    caller keeps every node printed through memo alive while it reuses
    memo, so that no id in it is reused for another node.  A variable or
    ``*`` is printed before any scan or walk.
    """
    cls = type(t)
    if cls is Var or cls is Unit:
        return t[1] if cls is Var else "*"
    hit = None if memo is None else memo.get(id(t))
    if hit is not None:
        return hit[0][hit[1]:hit[2]]
    return _print(t, memo, _scan(t).lams)


def print_type(ty: TypeExpr, memo: Optional[Memo] = None) -> str:
    """ty in lamp syntax; memo is a span memo, as for print_term.  An atom,
    bot and a node found in memo are printed without a walk."""
    cls = type(ty)
    if cls is Atom or cls is Bot:
        return ty[1] if cls is Atom else "bot"
    hit = None if memo is None else memo.get(id(ty))
    if hit is not None:
        return hit[0][hit[1]:hit[2]]
    return _print(ty, memo, ())


def _print(t, memo: Optional[Memo], lams) -> str:
    """The text of term or type t, printed by one explicit-stack walk that
    copies whatever memo holds; the Sends of t that print as lambdas are
    those whose ids are in lams."""
    out: list[str] = []
    put = out.append
    n = 0  # the length of out's text
    # nodes yet to print and the literal pieces between them; with a memo,
    # also the id of each node printed anew, popped after its last piece
    stack: list = [t]
    push, pop = stack.append, stack.pop
    if memo is not None:
        opened: list[int] = []  # the start of each node whose id is stacked
        spans: list[int] = []  # id, start, end of each node closed
    while stack:
        s = pop()
        cls = type(s)
        if cls is str:
            put(s)
            n += len(s)
        elif cls is Var or cls is Atom or cls is MetaVar:
            s = s[1]  # fields by index, as in _scan
            put(s)
            n += len(s)
        elif cls is Unit or cls is Bot:
            s = "*" if cls is Unit else "bot"
            put(s)
            n += len(s)
        elif cls is int:
            spans += (s, opened.pop(), n)
        else:
            if memo is not None:
                hit = memo.get(id(s))
                if hit is not None:
                    put(hit[0][hit[1]:hit[2]])
                    n += hit[2] - hit[1]
                    continue
                opened.append(n)
                push(id(s))
            infix = _INFIX.get(cls)
            if infix is not None:
                left, right, op = infix
                if type(s[2]) in right:
                    push(")")
                    push(s[2])
                    push(op + "(")
                else:
                    push(s[2])
                    push(op)
                if type(s[1]) in left:
                    push(")")
                    push(s[1])
                    put("(")
                    n += 1
                else:
                    push(s[1])
            elif cls is Close:
                push(")")
                push(s[1])
                put("close(")
                n += 6
            elif cls is Send or cls is Dist:
                # a Par in a binder's body takes parentheses
                head = (f"{'lam' if id(s) in lams else 'out'} {s[1]}. " if cls is Send
                        else f"out2 {s[1]} {s[2]}. ")
                if type(s[-1]) is Par:
                    push(")")
                    push(s[-1])
                    head += "("
                else:
                    push(s[-1])
                put(head)
                n += len(head)
            else:
                raise TypeError(f"not a term or a type: {s!r}")
    text = "".join(out)
    if memo is not None:
        for k in range(0, len(spans), 3):
            memo[spans[k]] = (text, spans[k + 1], spans[k + 2])
    return text


def _declaration_text(g: tuple[str, TypeExpr], memo: Optional[Memo]) -> str:
    return f"{g[0]} : {print_type(g[1], memo)}"


def _entry_text(e: DeltaEntry, memo: Optional[Memo]) -> str:
    term = print_term(e.term, memo)
    return term if e.type is None else f"{term} : {print_type(e.type, memo)}"


def _texts(items: tuple, fmt: Callable, memo: Optional[Memo],
           subtrees: bool = False) -> Iterable[str]:
    """fmt(item, memo) for each of items.  With a memo, an item object's
    text is made once and kept in memo under its id as a whole-text span,
    and the items found there are read in C.  subtrees says that an item
    may also have been printed inside another (a type inside a type), so
    that its span is cut out of that text, in C too."""
    if memo is None:
        return [fmt(x, memo) for x in items]
    for x in compress(items, map(not_, map(memo.__contains__, map(id, items)))):
        text = fmt(x, memo)
        memo[id(x)] = (text, 0, len(text))
    spans = list(map(memo.__getitem__, map(id, items)))
    if not subtrees:
        return map(itemgetter(0), spans)
    cuts = map(slice, map(itemgetter(1), spans), map(itemgetter(2), spans))
    return map(str.__getitem__, map(itemgetter(0), spans), cuts)


def print_sequent(s: Sequent, memo: Optional[Memo] = None) -> str:
    """s in lamp syntax.  memo, if given, is a span memo, as for print_term,
    kept alive by the caller the same way; it also maps the id of each
    declaration and entry object printed through it to its whole text, so
    that a caller printing many sequents that share those objects, such as
    the conclusions of a derivation, prints each once, and the shared
    subterms and subtypes of the new ones once too."""
    decls = ", ".join(_texts(s.gamma, _declaration_text, memo))
    ents = ", ".join(_texts(s.delta, _entry_text, memo))
    return f"{decls} |- {ents}" if decls else f"|- {ents}"
