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

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Any, Optional

from .terms import (
    App, Bot, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent, Unit,
    Var, is_free_in, sequent_names, subterms,
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


def interleave_assignment(target: tuple, parts: tuple[tuple, ...]) -> Optional[list[int]]:
    """If target merges the parts preserving each part's order, return one
    assignment mapping target positions to part indices, else None."""

    @lru_cache(maxsize=None)
    def go(ti: int, idxs: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        if ti == len(target):
            if all(idxs[k] == len(parts[k]) for k in range(len(parts))):
                return ()
            return None
        for k in range(len(parts)):
            if idxs[k] < len(parts[k]) and parts[k][idxs[k]] == target[ti]:
                nxt = idxs[:k] + (idxs[k] + 1,) + idxs[k + 1:]
                tail = go(ti + 1, nxt)
                if tail is not None:
                    return (k,) + tail
        return None

    out = go(0, (0,) * len(parts))
    # go refers to itself, so its table would otherwise live on until the
    # cyclic collector next runs
    go.cache_clear()
    return list(out) if out is not None else None


def _is_interleaving(target: tuple, parts: tuple[tuple, ...]) -> bool:
    return interleave_assignment(target, parts) is not None


def _same_entries(a: tuple, b: tuple) -> bool:
    """Side entries of unary rules are compared up to exchange: the comma is
    a par, and derivation surgery (grafting a subproof over an axiom leaf)
    permutes conclusions exactly as the calculus allows."""
    return a == b or Counter(a) == Counter(b)


def _gamma_dict(s: Sequent, path, what: str) -> dict:
    d = dict(s.gamma)
    if len(d) != len(s.gamma):
        raise RuleViolation(path, f"{what} declares a variable twice")
    return d


def _premises_disjoint(node: Derivation, path) -> None:
    if len(node.premises) < 2:
        return
    names = [sequent_names(p.conclusion) for p in node.premises]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            shared = names[i] & names[j]
            if shared:
                raise RuleViolation(
                    path, f"premises {i} and {j} share variables {sorted(shared)}")


def _occurs_in_entries(x: str, entries) -> bool:
    return any(is_free_in(x, e.term) for e in entries)


def match_rule(node: Derivation, path: tuple[int, ...] = ()) -> RuleInstance:
    """Verify that node instantiates its rule and return the instance data.
    Subderivations are not descended into (see check_derivation)."""
    rule, con, prems = node.rule, node.conclusion, node.premises
    if len(prems) != ARITY[rule]:
        raise RuleViolation(path, f"{rule.value} expects {ARITY[rule]} premises, "
                                  f"got {len(prems)}")
    cg = _gamma_dict(con, path, "conclusion")
    _premises_disjoint(node, path)

    if rule is Rule.AX:
        match con:
            case Sequent(((x, a),), (DeltaEntry(Var(y), b),)) if x == y and a == b:
                return RuleInstance(rule)
        raise RuleViolation(path, "axiom must be  x : A |- x : A")

    if rule is Rule.BOT_I:
        p = prems[0].conclusion
        if p.gamma != con.gamma:
            raise RuleViolation(path, "BotI must not change declarations")
        for i, e in enumerate(con.delta):
            if e == DeltaEntry(Unit(), Bot()) \
                    and _same_entries(_without(con.delta, i), p.delta):
                return RuleInstance(rule, {"i": i})
        raise RuleViolation(path, "BotI must add one entry  * : bot")

    if rule is Rule.BOT_E:
        p = prems[0].conclusion
        if p.gamma != con.gamma:
            raise RuleViolation(path, "BotE must not change declarations")
        for i, e in enumerate(con.delta):
            if e.type is None and isinstance(e.term, Close):
                want = DeltaEntry(e.term.body, Bot())
                for j, pe in enumerate(p.delta):
                    if pe == want and _same_entries(_without(con.delta, i),
                                                    _without(p.delta, j)):
                        return RuleInstance(rule, {"i": i, "j": j})
        raise RuleViolation(path, "BotE must close one entry of type bot")

    if rule is Rule.PARR_I:
        p = prems[0].conclusion
        if p.gamma != con.gamma:
            raise RuleViolation(path, "ParrI must not change declarations")
        for i, e in enumerate(con.delta):
            match e:
                case DeltaEntry(Par(s, t), ParT(a, b)):
                    for j in range(len(p.delta) - 1):
                        if p.delta[j] == DeltaEntry(s, a) \
                                and p.delta[j + 1] == DeltaEntry(t, b) \
                                and _same_entries(
                                    _without(con.delta, i),
                                    _without(_without(p.delta, j + 1), j)):
                            return RuleInstance(rule, {"i": i, "j": j,
                                                       "a": a, "b": b})
        raise RuleViolation(path, "ParrI must merge two adjacent typed entries")

    if rule is Rule.LOLLI_I:
        p = prems[0].conclusion
        pg = _gamma_dict(p, path, "premise")
        for i, e in enumerate(con.delta):
            match e:
                case DeltaEntry(Send(x, t), Lolli(a, b)):
                    if x in cg or pg.get(x) != a:
                        continue
                    gamma_rest = tuple((y, ty) for y, ty in p.gamma if y != x)
                    if gamma_rest != con.gamma:
                        continue
                    hit = None
                    for j, pe in enumerate(p.delta):
                        if pe == DeltaEntry(t, b) \
                                and _same_entries(_without(con.delta, i),
                                                  _without(p.delta, j)):
                            hit = j
                            break
                    if hit is None:
                        continue
                    rest = _without(p.delta, hit)
                    if not (is_free_in(x, t) or _occurs_in_entries(x, rest)):
                        raise RuleViolation(
                            path, f"abstracted {x!r} occurs neither in the "
                                  f"principal term nor elsewhere (no weakening)")
                    gamma_pos = next(k for k, (y, _) in enumerate(p.gamma) if y == x)
                    return RuleInstance(rule, {"i": i, "j": hit, "x": x,
                                               "a": a, "b": b,
                                               "gamma_pos": gamma_pos})
        raise RuleViolation(path, "LolliI must abstract one declaration into a Send")

    if rule is Rule.LOLLI_E:
        p1, p2 = prems[0].conclusion, prems[1].conclusion
        g1 = _gamma_dict(p1, path, "premise 0")
        g2 = _gamma_dict(p2, path, "premise 1")
        joined = dict(g1)
        joined.update(g2)
        if joined != cg or len(g1) + len(g2) != len(cg):
            raise RuleViolation(path, "LolliE must join the premise declarations")
        for i, e in enumerate(con.delta):
            match e:
                case DeltaEntry(App(s, t), b) if b is not None:
                    for j1, e1 in enumerate(p1.delta):
                        match e1:
                            case DeltaEntry(fn, Lolli(a1, b1)) if fn == s and b1 == b:
                                for j2, e2 in enumerate(p2.delta):
                                    if e2 == DeltaEntry(t, a1):
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
        for i, e in enumerate(con.delta):
            match e:
                case DeltaEntry(Dist(x, y, s), Bot()):
                    if g2.get(x) is None or g3.get(y) is None:
                        continue
                    a, b = g2[x], g3[y]
                    joined = dict(g1)
                    joined.update({k: v for k, v in g2.items() if k != x})
                    joined.update({k: v for k, v in g3.items() if k != y})
                    if joined != cg or len(g1) + len(g2) + len(g3) - 2 != len(cg):
                        continue
                    for j, e1 in enumerate(p1.delta):
                        if e1 == DeltaEntry(s, ParT(a, b)):
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
    """Raise RuleViolation at the first node that is not a rule instance."""

    def walk(node: Derivation, path: tuple[int, ...]) -> None:
        match_rule(node, path)
        for k, p in enumerate(node.premises):
            walk(p, path + (k,))

    walk(d, ())


def name_counts(s: Sequent) -> dict[str, tuple[int, int]]:
    """Per name: (variable occurrences, binder occurrences) across the
    conclusion list, counting textually (bound occurrences included)."""
    counts: dict[str, list[int]] = {}

    def bump(name: str, slot: int) -> None:
        counts.setdefault(name, [0, 0])[slot] += 1

    for e in s.delta:
        for _, sub in subterms(e.term):
            match sub:
                case Var(x):
                    bump(x, 0)
                case Send(x, _):
                    bump(x, 1)
                case Dist(x, y, _):
                    bump(x, 1)
                    bump(y, 1)
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
    yield d.conclusion
    for p in d.premises:
        yield from all_sequents(p)
