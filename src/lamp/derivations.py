"""Derivations in the multiple-conclusion natural deduction system and the
rule-by-rule checker that serves as ground truth for everything else.

A derivation node records its rule tag, its conclusion sequent, and its
premise subderivations.  The checker verifies that every node is a genuine
instance of its rule: principal entries may sit at any position (the
calculus treats conclusion lists up to exchange in worked derivations),
but side entries must keep their relative order per premise, contexts are
split multiplicatively, and multi-premise rules require variable-disjoint
premises.  Because no rule ever drops a name from a conclusion, checking
disjointness on premise conclusions is equivalent to checking it on whole
subtrees.

``match_rule`` returns the matched instance data (principal positions and
component types); the sequent-calculus translators reuse it to drive their
constructions off checked trees instead of re-searching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import Any, Sequence

from .terms import (
    App, BOT, Bot, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent,
    TypeExpr, UNIT, Var, _scan, children, nodes, preorder, var_names,
)


class Rule(Enum):
    AX = "Ax"
    LOLLI_I = "LolliI"
    LOLLI_E = "LolliE"
    PARR_I = "ParrI"
    PARR_E = "ParrE"
    BOT_I = "BotI"
    BOT_E = "BotE"


ARITY = {
    Rule.AX: 0,
    Rule.LOLLI_I: 1,
    Rule.PARR_I: 1,
    Rule.BOT_I: 1,
    Rule.BOT_E: 1,
    Rule.LOLLI_E: 2,
    Rule.PARR_E: 3,
}


@dataclass(frozen=True)
class Derivation:
    rule: Rule
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()


def axiom(x: str, a: TypeExpr) -> Sequent:
    """The conclusion of Ax, the one rule without premises."""
    return Sequent(((x, a),), (DeltaEntry(Var(x), a),))


# the kids, for preorder and fold, of a node of either derivation kind
premises_of = attrgetter("premises")


@dataclass
class RuleInstance:
    """How a node instantiates its rule: principal entry index plus
    rule-specific positions and types."""

    rule: Rule
    data: dict[str, Any] = field(default_factory=dict)


class RuleViolation(Exception):
    def __init__(self, path: tuple[int, ...], reason: str):
        super().__init__(f"at node {list(path)}: {reason}")
        self.path = path
        self.reason = reason


class LinearityError(Exception):
    def __init__(self, name: str, var_count: int, binder_count: int, declared: bool):
        where = "declared" if declared else "undeclared"
        super().__init__(
            f"{where} name {name!r} occurs {var_count}x as a variable and "
            f"{binder_count}x as a binder")
        self.name = name
        self.var_count = var_count
        self.binder_count = binder_count
        self.declared = declared


def _without(entries: tuple, i: int) -> tuple:
    return entries[:i] + entries[i + 1:]


def _replaced(entries: tuple, i: int, *new) -> tuple:
    return entries[:i] + tuple(new) + entries[i + 1:]


def _is_interleaving(target: tuple, parts: tuple[tuple, ...]) -> bool:
    """Whether target merges the parts preserving each part's order.

    Depth first with an explicit stack, trying the parts in order at each
    position; a state (how far each part is consumed) that failed once is
    not explored again."""
    end = tuple(len(p) for p in parts)
    state = (0,) * len(parts)
    trail: list[tuple[tuple[int, ...], int]] = []  # (state before, part taken)
    failed: set[tuple[int, ...]] = set()
    k = 0
    while True:
        ti = len(trail)
        if ti == len(target) and state == end:
            return True
        taken = None
        if ti < len(target) and state not in failed:
            x = target[ti]
            for m in range(k, len(parts)):
                if state[m] < end[m] and parts[m][state[m]] == x:
                    taken = m
                    break
        if taken is not None:
            trail.append((state, taken))
            state = state[:taken] + (state[taken] + 1,) + state[taken + 1:]
            k = 0
            continue
        failed.add(state)
        if not trail:
            return False
        state, k = trail.pop()
        k += 1


def multiset_diff(a: Sequence, *parts: Sequence) -> tuple[list, list]:
    """What a holds beyond the parts together, and what they hold beyond a,
    as multisets, each in order.  Identical objects pair first, by id; what
    is left pairs by equality, which stops at the first difference instead
    of hashing whole terms.  Where a rule's conclusion shares its
    unchanged entries with its premises, only the principal entries are
    left; where it does not, equal entries mostly sit in the same order,
    so each finds its partner near the front."""
    ids: dict[int, int] = {}
    for x in chain(*parts):
        ids[id(x)] = ids.get(id(x), 0) + 1
    extra = []
    for x in a:
        n = ids.get(id(x))
        if n:
            ids[id(x)] = n - 1
        else:
            extra.append(x)
    missing = []
    for x in chain(*parts):
        n = ids.get(id(x))
        if n:
            ids[id(x)] = n - 1
            missing.append(x)
    rest = []
    for x in extra:
        for k, y in enumerate(missing):
            if x == y:
                del missing[k]
                break
        else:
            rest.append(x)
    return rest, missing


def _where(entries: tuple, e) -> list[int]:
    """The positions of the entries equal to e, in order."""
    return [k for k, x in enumerate(entries) if x is e or x == e]


class _EntryNames:
    """Per entry object, the names it uses and the names free in it, each
    computed once.  Keyed by id: valid while the entries it has seen are
    alive, which the derivation being checked guarantees."""

    def __init__(self):
        self._all: dict[int, frozenset[str]] = {}
        self._free: dict[int, frozenset[str]] = {}

    def all(self, e: DeltaEntry) -> frozenset[str]:
        hit = self._all.get(id(e))
        if hit is None:
            hit = self._all[id(e)] = frozenset(var_names(e.term))
        return hit

    def free(self, e: DeltaEntry) -> frozenset[str]:
        hit = self._free.get(id(e))
        if hit is None:
            hit = self._free[id(e)] = frozenset(_scan(e.term).free)
        return hit


def _gamma_dict(s: Sequent, path, what: str) -> dict:
    d = dict(s.gamma)
    if len(d) != len(s.gamma):
        raise RuleViolation(path, f"{what} declares a variable twice")
    return d


def _premises_disjoint(node: Derivation, path, names: _EntryNames) -> None:
    if len(node.premises) < 2:
        return
    used = []
    for p in node.premises:
        s = {x for x, _ in p.conclusion.gamma}
        s.update(*(names.all(e) for e in p.conclusion.delta))
        used.append(s)
    for i in range(len(used)):
        for j in range(i + 1, len(used)):
            shared = used[i] & used[j]
            if shared:
                raise RuleViolation(
                    path, f"premises {i} and {j} share variables {sorted(shared)}")


_STAR = DeltaEntry(UNIT, BOT)


def match_rule(node: Derivation, path: tuple[int, ...] = ()) -> RuleInstance:
    """Verify that node instantiates its rule and return the instance data.
    Subderivations are not descended into (see check_derivation)."""
    return _match(node, path, _EntryNames())


def _match(node: Derivation, path: tuple[int, ...], names: _EntryNames) -> RuleInstance:
    """match_rule.  Each rule finds its principal entries as what one
    multiset difference between conclusion and premises leaves over, and
    reports the first positions that hold those values.  Side entries of
    unary rules are compared up to exchange: the comma is a par, and
    derivation surgery (grafting a subproof over an axiom leaf) permutes
    conclusions exactly as the calculus allows."""
    rule, con, prems = node.rule, node.conclusion, node.premises
    if len(prems) != ARITY[rule]:
        raise RuleViolation(path, f"{rule.value} expects {ARITY[rule]} premises, "
                                  f"got {len(prems)}")
    cg = _gamma_dict(con, path, "conclusion")
    _premises_disjoint(node, path, names)

    if rule is Rule.AX:
        match con:
            case Sequent(((x, a),), (DeltaEntry(Var(y), b),)) if x == y and a == b:
                return RuleInstance(rule)
        raise RuleViolation(path, "axiom must be  x : A |- x : A")

    if rule is Rule.BOT_I:
        p = prems[0].conclusion
        if p.gamma != con.gamma:
            raise RuleViolation(path, "BotI must not change declarations")
        if multiset_diff(con.delta, p.delta) == ([_STAR], []):
            return RuleInstance(rule, {"i": con.delta.index(_STAR)})
        raise RuleViolation(path, "BotI must add one entry  * : bot")

    if rule is Rule.BOT_E:
        p = prems[0].conclusion
        if p.gamma != con.gamma:
            raise RuleViolation(path, "BotE must not change declarations")
        match multiset_diff(con.delta, p.delta):
            case [DeltaEntry(Close(body), None) as e], [pe] \
                    if pe == DeltaEntry(body, BOT):
                return RuleInstance(rule, {"i": con.delta.index(e),
                                           "j": p.delta.index(pe)})
        raise RuleViolation(path, "BotE must close one entry of type bot")

    if rule is Rule.PARR_I:
        p = prems[0].conclusion
        if p.gamma != con.gamma:
            raise RuleViolation(path, "ParrI must not change declarations")
        match multiset_diff(con.delta, p.delta):
            case [DeltaEntry(Par(s, t), ParT(a, b)) as e], [_, _] as parts:
                left, right = DeltaEntry(s, a), DeltaEntry(t, b)
                if parts in ([left, right], [right, left]):
                    for j in _where(p.delta[:-1], left):
                        if p.delta[j + 1] == right:
                            return RuleInstance(rule, {"i": con.delta.index(e),
                                                       "j": j, "a": a, "b": b})
        raise RuleViolation(path, "ParrI must merge two adjacent typed entries")

    if rule is Rule.LOLLI_I:
        p = prems[0].conclusion
        pg = _gamma_dict(p, path, "premise")
        match multiset_diff(con.delta, p.delta):
            case [DeltaEntry(Send(x, t), Lolli(a, b)) as e], [pe] \
                    if pe == DeltaEntry(t, b) and x not in cg and pg.get(x) == a \
                    and tuple((y, ty) for y, ty in p.gamma if y != x) == con.gamma:
                if not any(x in names.free(f) for f in p.delta):
                    raise RuleViolation(
                        path, f"abstracted {x!r} occurs neither in the "
                              f"principal term nor elsewhere (no weakening)")
                gamma_pos = next(k for k, (y, _) in enumerate(p.gamma) if y == x)
                return RuleInstance(rule, {"i": con.delta.index(e),
                                           "j": p.delta.index(pe), "x": x,
                                           "a": a, "b": b, "gamma_pos": gamma_pos})
        raise RuleViolation(path, "LolliI must abstract one declaration into a Send")

    if rule is Rule.LOLLI_E:
        p1, p2 = prems[0].conclusion, prems[1].conclusion
        g1 = _gamma_dict(p1, path, "premise 0")
        g2 = _gamma_dict(p2, path, "premise 1")
        joined = dict(g1)
        joined.update(g2)
        if joined != cg or len(g1) + len(g2) != len(cg):
            raise RuleViolation(path, "LolliE must join the premise declarations")
        match multiset_diff(con.delta, p1.delta, p2.delta):
            case [DeltaEntry(App(s, t), b) as e], [_, _] as parts if b is not None:
                # the function entry has the Lolli type, so at most one
                # order of the two parts fits
                for fn, arg in (parts, parts[::-1]):
                    match fn:
                        case DeltaEntry(f, Lolli(a1, b1)) \
                                if f == s and b1 == b and arg == DeltaEntry(t, a1):
                            for i in _where(con.delta, e):
                                for j1 in _where(p1.delta, fn):
                                    for j2 in _where(p2.delta, arg):
                                        if _is_interleaving(
                                                _without(con.delta, i),
                                                (_without(p1.delta, j1),
                                                 _without(p2.delta, j2))):
                                            return RuleInstance(
                                                rule, {"i": i, "j1": j1, "j2": j2,
                                                       "a": a1, "b": b1})
        raise RuleViolation(path, "LolliE must apply a function entry to an "
                                  "argument entry from the other premise")

    if rule is Rule.PARR_E:
        p1, p2, p3 = (p.conclusion for p in prems)
        g1 = _gamma_dict(p1, path, "premise 0")
        g2 = _gamma_dict(p2, path, "premise 1")
        g3 = _gamma_dict(p3, path, "premise 2")
        match multiset_diff(con.delta, p1.delta, p2.delta, p3.delta):
            case [DeltaEntry(Dist(x, y, s), Bot()) as e], [pe] \
                    if g2.get(x) is not None and g3.get(y) is not None:
                a, b = g2[x], g3[y]
                joined = dict(g1)
                joined.update({k: v for k, v in g2.items() if k != x})
                joined.update({k: v for k, v in g3.items() if k != y})
                if joined == cg and len(g1) + len(g2) + len(g3) - 2 == len(cg) \
                        and pe == DeltaEntry(s, ParT(a, b)):
                    for i in _where(con.delta, e):
                        for j in _where(p1.delta, pe):
                            if _is_interleaving(
                                    _without(con.delta, i),
                                    (_without(p1.delta, j), p2.delta, p3.delta)):
                                gx = next(k for k, (n, _) in enumerate(p2.gamma)
                                          if n == x)
                                gy = next(k for k, (n, _) in enumerate(p3.gamma)
                                          if n == y)
                                return RuleInstance(
                                    rule, {"i": i, "j": j, "x": x, "y": y,
                                           "a": a, "b": b,
                                           "gamma_pos_x": gx, "gamma_pos_y": gy})
        raise RuleViolation(path, "ParrE must consume a par entry and one "
                                  "declaration from each receiving premise")

    raise RuleViolation(path, f"unknown rule {rule!r}")


def check_derivation(d: Derivation) -> None:
    """Raise RuleViolation at the first node, in preorder, that is not a
    rule instance."""
    names = _EntryNames()
    for path, node in preorder(d, premises_of):
        _match(node, path, names)


def name_counts(s: Sequent) -> dict[str, tuple[int, int]]:
    """Per name: (variable occurrences, binder occurrences) across the
    conclusion list, counting textually (bound occurrences included)."""
    counts: dict[str, list[int]] = {}
    for e in s.delta:
        for sub in nodes(e.term, children):
            for x in sub[1:sub._first]:  # its names, see terms.binders
                counts.setdefault(x, [0, 0])[type(sub) is not Var] += 1
    return {k: (v[0], v[1]) for k, v in counts.items()}


def check_channel_linearity(s: Sequent) -> None:
    """Every declared name occurs exactly once as a variable and never as a
    binder; every undeclared name occurs exactly once as a variable and
    exactly once as a binder.  Reports the first offender: declarations in
    order, then names in order of first occurrence."""
    counts = name_counts(s)
    declared = dict.fromkeys(x for x, _ in s.gamma)
    for x in dict.fromkeys([*declared, *counts]):
        var_n, bind_n = counts.get(x, (0, 0))
        if x in declared:
            if var_n != 1 or bind_n != 0:
                raise LinearityError(x, var_n, bind_n, declared=True)
        elif var_n != 1 or bind_n != 1:
            raise LinearityError(x, var_n, bind_n, declared=False)


def all_sequents(d: Derivation):
    """Every node's conclusion, in preorder."""
    return (node.conclusion for node in nodes(d, premises_of))
