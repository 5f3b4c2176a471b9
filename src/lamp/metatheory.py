"""Metatheory operations on checked derivations: derivation grafting,
normal-term shape classification, and the subformula audit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .derivations import Derivation, Rule, premises_of
from .terms import (
    App, BOT, Close, DeltaEntry, Lolli, Par, ParT, Send, Sequent, Term,
    TypeExpr, Var, _path, _scan, children, fold, is_simple, preorder,
    print_term, print_type, sequent_names, substitute, subterm_at,
)


class PreconditionViolation(Exception):
    pass


def subst_derivation(d1: Derivation, d2: Derivation, x: str,
                     entry_index: int = 0) -> Derivation:
    """Graft d1 (concluding  Sigma |- t : A, Theta  with t at entry_index)
    onto d2 (concluding  Gamma, x : A |- Delta), yielding a derivation of
    Gamma, Sigma |- Delta[t/x], Theta.

    The two derivations must not share any variable.  The construction
    replaces the axiom leaf for x by d1 and threads the substitution and
    d1's side entries through every node on the path down to the root.
    """
    s1, s2 = d1.conclusion, d2.conclusion
    shared = sequent_names(s1) & sequent_names(s2)
    if shared:
        raise PreconditionViolation(f"derivations share variables {sorted(shared)}")
    if entry_index >= len(s1.delta) or s1.delta[entry_index].type is None:
        raise PreconditionViolation("d1 has no typed entry at the given index")
    t = s1.delta[entry_index].term
    a = s1.delta[entry_index].type
    if dict(s2.gamma).get(x) != a:
        raise PreconditionViolation(
            f"{x!r} is not declared with the substituted entry's type in d2")
    theta = s1.delta[:entry_index] + s1.delta[entry_index + 1:]
    sigma = s1.gamma

    def transform(seq: Sequent) -> Sequent:
        gamma: list = []
        for y, ty in seq.gamma:
            if y == x:
                gamma.extend(sigma)
            else:
                gamma.append((y, ty))
        delta = tuple(DeltaEntry(substitute(e.term, x, t), e.type)
                      for e in seq.delta) + theta
        return Sequent(tuple(gamma), delta)

    # the nodes down to the axiom for x, each beside the premise that holds x
    spine: list[tuple[Derivation, int]] = []
    node = d2
    while node.rule is not Rule.AX:
        k = next((k for k, p in enumerate(node.premises)
                  if any(y == x for y, _ in p.conclusion.gamma)), None)
        if k is None:
            raise PreconditionViolation(
                f"{x!r} vanished from the premises; d2 is not well formed")
        spine.append((node, k))
        node = node.premises[k]
    out = d1
    for node, k in reversed(spine):
        out = Derivation(node.rule, transform(node.conclusion),
                         node.premises[:k] + (out,) + node.premises[k + 1:])
    return out


# ---------------------------------------------------------------------------
# Shapes of normal terms

@dataclass(frozen=True)
class ValueShape:
    kind: str  # "lambda-or-channel" | "parallel"


@dataclass(frozen=True)
class HeadVar:
    head: str
    stack: tuple[Term, ...]


@dataclass(frozen=True)
class BottomLike:
    pass


NormalShape = Union[ValueShape, HeadVar, BottomLike]


class ShapeViolation(Exception):
    pass


def classify_normal(t: Term, ty: Optional[TypeExpr]) -> NormalShape:
    """Classify a normal typed term: a value (Send at arrow type, Par at par
    type), a bottom-like process, or a head variable applied to a stack.
    Any other outcome signals a metatheory bug in the caller's pipeline."""
    match t:
        case Send(_, _):
            if not isinstance(ty, Lolli):
                raise ShapeViolation(
                    f"output/lambda value typed {print_type(ty) if ty else '?'}")
            return ValueShape("lambda-or-channel")
        case Par(_, _):
            if not isinstance(ty, ParT):
                raise ShapeViolation(
                    f"parallel value typed {print_type(ty) if ty else '?'}")
            return ValueShape("parallel")
    if ty == BOT or ty is None or isinstance(t, Close):
        return BottomLike()
    stack: list[Term] = []
    head = t
    while isinstance(head, App):
        stack.append(head.arg)
        head = head.fun
    if isinstance(head, Var):
        return HeadVar(head.name, tuple(reversed(stack)))
    raise ShapeViolation(f"normal term {print_term(t)} at non-bottom type is "
                         f"neither a value nor a head-variable stack")


# ---------------------------------------------------------------------------
# Subformula audit

class SubformulaCounterexample(Exception):
    def __init__(self, node_path: tuple[int, ...], ty: TypeExpr):
        super().__init__(
            f"type {print_type(ty)} at node {list(node_path)} is not a "
            f"subformula of the end-sequent")
        self.node_path = node_path
        self.type = ty


def check_subformula(d: Derivation) -> None:
    """Every type anywhere in d must be a subformula of an end-sequent type
    or of bot.  Intended for derivations whose end-sequent term is normal.

    Equal types get one number, from a table keyed by tag, names and the
    children's numbers (reconstruct's interning key), each type object
    numbered once, by id: so no two types are compared or hashed whole,
    which would recurse in C against the recursion limit and cost each
    subtree again.  Bot and the end-sequent's types are numbered first, so the
    numbers below the table's size then are exactly their subformulas."""
    numbers: dict[int, int] = {}  # by id: d and BOT keep every key alive
    table: dict[tuple, int] = {}

    def kids(ty) -> tuple:
        return () if id(ty) in numbers else children(ty)

    def leave(ty, parts) -> int:
        n = numbers.get(id(ty))
        if n is None:
            key = ty[:ty._first] + tuple(parts)
            n = numbers[id(ty)] = table.setdefault(key, len(table))
        return n

    root = d.conclusion
    for ty in (BOT, *(ty for _, ty in root.gamma), *(e.type for e in root.delta)):
        if ty is not None:
            fold(ty, kids, leave)
    allowed = len(table)
    for path, node in preorder(d, premises_of):
        for ty in (*(ty for _, ty in node.conclusion.gamma),
                   *(e.type for e in node.conclusion.delta)):
            if ty is not None and fold(ty, kids, leave) >= allowed:
                raise SubformulaCounterexample(path, ty)


# ---------------------------------------------------------------------------
# Simple-context discipline

class FreakOccurrence(Exception):
    pass


def check_no_freaks(s: Sequent) -> None:
    """In a typable sequent, a channel bound inside a subterm that sits in a
    simple context never occurs free in that surrounding context: a process
    cannot hold both ends of a channel without a parallel in between.

    That is, no binder of a channel and free occurrence of it meet with no
    Par at or above their least common ancestor, so that the ancestor's
    child on the binder's side is simple; a comm's two ends must meet at a
    Par.  Of such children, the first in preorder is reported, with the
    channel of its first binder in preorder."""
    for e in s.delta:
        free = _scan(e.term).free
        first = None  # the path and channel to report
        for path, sub in preorder(e.term, children):
            for z in sub[1:sub._first] if type(sub) is not Var else ():
                for occ in map(_path, free.get(z, ())):
                    # neither of a binder and a free occurrence of its
                    # channel is above the other: their paths part
                    k = 0
                    while path[k] == occ[k]:
                        k += 1
                    side = path[:k + 1]
                    if (first is None or side < first[0]) and is_simple(side, e.term):
                        first = side, z
        if first is not None:
            sub = print_term(subterm_at(e.term, first[0]))
            raise FreakOccurrence(f"channel {first[1]!r} bound inside {sub} "
                                  f"occurs in its surrounding simple context")
