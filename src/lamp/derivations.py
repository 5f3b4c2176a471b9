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

A node's conclusion shares the entries its rule leaves unchanged with its
premises: the same objects, in each premise's order.  So the checker
first aligns a conclusion with its premises (``_align``): it pairs
maximal runs of equal entries, each starting at an identical pair, in the
interleaved order in which a binary rule merges its premises, each run
found by slice comparisons made in C, where identical entries compare at
once.  Only what the runs leave, normally just the rule's principal
entries, is paired entry by entry (by a scan in C) or searched for an
interleaving; a conclusion that shares fewer entries with its premises,
or holds them in another order, leaves more to those steps.  The
alignment only decides which equal entries pair: every rule condition
is still checked on values.

``check_derivation`` matches each node once, in preorder.  Two conditions
on a node's premises, that they share no name and that a LolliI's
abstracted name occurs free in its premise, wait until the premises'
subtrees are matched and are read off what those gathered on the way up
(``instances``), so no premise entry is read for them.

``match_rule`` returns the matched instance data (principal positions and
component types) as a dict, as ``mll.match_mll`` does; the
sequent-calculus translators reuse it to drive their constructions off
checked trees instead of re-searching.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, repeat
from operator import attrgetter, contains, itemgetter
from typing import Any, Iterator, NamedTuple, Optional, Sequence

from .terms import (
    App, BOT, Bot, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent,
    TypeExpr, UNIT, Var, _scan, equal, name_counts, var_names,
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


# a node of either calculus: the sequent calculus (mll) builds its trees
# from this class too, with its own rules and sequents
class Derivation(NamedTuple):
    rule: Rule
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()


def axiom(x: str, a: TypeExpr) -> Sequent:
    """The conclusion of Ax, the one rule without premises."""
    return Sequent(((x, a),), (DeltaEntry(Var(x), a),))


# the kids, for preorder and fold, of a node of either derivation kind
premises_of = attrgetter("premises")


class RuleViolation(Exception):
    """A node that is not an instance of its rule, in either calculus."""

    def __init__(self, path: tuple[int, ...], reason: str):
        super().__init__(f"at node {list(path)}: {reason}")
        self.path = path
        self.reason = reason


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


def _without(entries: tuple, i: int) -> tuple:
    return entries[:i] + entries[i + 1:]


def _replaced(entries: tuple, i: int, *new) -> tuple:
    return entries[:i] + tuple(new) + entries[i + 1:]


def _run(a: Sequence, i: int, b: Sequence, j: int) -> int:
    """The length of the run of equal entries from a[i] and b[j] on, given
    that a[i] is b[j]; a run whose second pair is not identical ends at
    one.  Else one comparison where the run reaches the end of a or b, or
    slices of doubling length, then a binary search: each slice is
    compared in C, where identical entries compare at once."""
    top = len(a) - i if len(a) - i < len(b) - j else len(b) - j
    if top == 1 or a[i + 1] is not b[j + 1]:
        return 1
    if a[i:i + top] == b[j:j + top]:
        return top
    lo, hi = 2, 4  # a[i:i + lo] == b[j:j + lo], and not so for top
    while hi < top and a[i + lo:i + hi] == b[j + lo:j + hi]:
        lo, hi = hi, 2 * hi
    hi = min(hi, top)
    while hi - lo > 1:  # not so for hi
        mid = (lo + hi) // 2
        if a[i + lo:i + mid] == b[j + lo:j + mid]:
            lo = mid
        else:
            hi = mid
    return lo


_END = object()  # after the last entry

# the edits a unary rule makes to its premise's entries, as (entries
# added, entries dropped) at one place: BotI, LolliI and BotE, ParrI.
# Testing them ahead of the cursor walk saves 5-8% of checking ring(48)
_EDITS = ((1, 0), (1, 1), (1, 2))

# what _align leaves unpaired before it stops: a rule's principal entries
# are at most three, on either side
_LOOSE = 8


def _align(a: Sequence, parts: Sequence[Sequence]) -> tuple[list, list]:
    """Pair entries of a with equal entries of the parts, in maximal runs
    (_run) that each start at an identical pair, in interleaved order;
    return what is left unpaired of a, and of the parts, each in order.

    With one part, the run both start with is paired, then the rest if it
    is equal once the edit a unary rule makes at that place (_EDITS) is
    left out.  Otherwise a cursor walks each part: where a's next entry is
    the object at the cursor of a part, the run the two share is paired
    and both advance past it (of several such parts, the longest run
    wins); where it is at no cursor, a added it, in place of the one or
    two entries at a cursor if the entry after it follows those, or
    dropped the one or two entries at a cursor that it follows.  After
    _LOOSE entries left over one at a time, the input is not a rule's
    shared shape and all the rest is left over."""
    if len(parts) == 1 and a and parts[0]:
        p = parts[0]
        lo = _run(a, 0, p, 0) if a[0] is p[0] else 0
        for added, dropped in _EDITS:
            if a[lo + added:] == p[lo + dropped:]:
                return list(a[lo:lo + added]), list(p[lo:lo + dropped])
    at = [0] * len(parts)
    extra: list = []
    gaps: list[tuple[int, int, int]] = []  # (part, from, to) left over
    i = 0
    while i < len(a):
        x = a[i]
        n = 0
        for m, p in enumerate(parts):
            if at[m] < len(p) and p[at[m]] is x:
                r = _run(a, i, p, at[m])
                if r > n:
                    best, n = m, r
        if n:
            i += n
            at[best] += n
            continue
        if len(extra) + len(gaps) >= _LOOSE:
            break
        # x heads no part.  Where the entry after it is at a cursor or one
        # or two places behind it, the conclusion added x in place of the
        # entries before that one; where x itself is one or two places
        # behind a cursor, it dropped the entries before x
        y = a[i + 1] if i + 1 < len(a) else _END
        added, dropped = True, 0
        for m, p in enumerate(parts):
            w = (*p[at[m]:at[m] + 3], None, None, None)
            if w[0] is y or w[1] is y or w[2] is y:
                dropped = 0 if w[0] is y else 1 if w[1] is y else 2
                break
            if w[1] is x or w[2] is x:
                added, dropped = False, 1 if w[1] is x else 2
                break
        if dropped:
            gaps.append((m, at[m], at[m] + dropped))
            at[m] += dropped
        if added:
            extra.append(x)
            i += 1
    extra += a[i:]
    missing = []
    for m, p in enumerate(parts):
        for g, lo, hi in gaps:
            if g == m:
                missing += p[lo:hi]
        missing += p[at[m]:]
    return extra, missing


def _is_interleaving(target: tuple, parts: tuple[tuple, ...]) -> bool:
    """Whether target merges the parts preserving each part's order.

    The parts one after another, or identity runs (_align) that pair every
    entry, prove it; otherwise _interleaves decides.  The first test, one
    comparison in C, saves 2-7% of checking ring(48) or relay(24)."""
    if target == tuple(chain(*parts)) \
            or len(target) > _SMALL and _align(target, parts) == ([], []):
        return True
    return _interleaves(target, parts)


def _interleaves(target: tuple, parts: tuple[tuple, ...]) -> bool:
    """_is_interleaving by search: depth first with an explicit stack,
    trying the parts in order at each position; a state (how far each
    part is consumed) that failed once is not explored again."""
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


# up to this many entries, aligning costs more than it saves (measured on
# the checker's own calls: at 6-8 entries, 2.5 us a call unaligned
# against 3.8 aligned; at 9-12 entries, 10.1 against 5.8)
_SMALL = 8


def multiset_diff(a: Sequence, *parts: Sequence) -> tuple[list, list]:
    """What a holds beyond the parts together, and what they hold beyond a,
    as multisets, each in order.

    Where a has more than a few entries, the runs the lists share pair
    first (_align); what is left pairs entry by entry (_pair), by a scan
    that stops at an entry's first difference instead of hashing whole
    terms.  Where a rule's conclusion shares its unchanged entries with its
    premises, the runs leave only the principal entries; where it does
    not, equal entries mostly sit in the same order, so each finds its
    partner near the front.  Which copies of equal entries pair can change
    which objects are returned and their order, but never the values
    returned, as multisets, which is all a rule reads from them."""
    if len(a) > _SMALL:
        a, rest = _align(a, parts)
        if not a or not rest:  # nothing left to pair
            return a, rest
        parts = (rest,)
    return _pair(a, parts)


def _pair(a: Sequence, parts: Sequence[Sequence]) -> tuple[list, list]:
    """multiset_diff's pairing, entry by entry: each entry of the parts
    pairs with the first equal one left in a, found by a scan in C, where
    identical entries compare at once and unequal ones at their first
    difference."""
    rest, missing = list(a), []
    for x in chain(*parts):
        if x in rest:
            rest.remove(x)
        else:
            missing.append(x)
    return rest, missing


def _where(entries: tuple, e) -> Iterator[int]:
    """The positions of the entries equal to e, in order, each found by a
    scan in C."""
    k = -1
    while True:
        try:
            k = entries.index(e, k + 1)
        except ValueError:
            return
        yield k


class _Memo:
    """What matching the nodes of one derivation computes once.  Per entry
    object, the names free in it; per sequent, its declarations as a dict,
    which a node's match builds for its premises and the premises' own
    matches reuse.  Keyed by id: valid while the objects it has seen are
    alive, which the derivation being checked guarantees.  Names are
    looked up for a whole delta in C; an entry costs a Python step only
    when it is first seen.

    The free-name memo stays for a check that fails: _raise_first asks
    again, for every LolliI on its frames, whether a name is free in
    entries it has read.  On one pass of ring's check and translate
    (bench/ops.py, seed 2, whose 15 round trips fail, ROADMAP item 1) it
    answered 24,899 of its 27,706 entry reads, and the pass took a quarter
    longer without it (0.44 s against 0.34 s, medians of 6 alternating
    runs, each best of 7, on a 2-vCPU VM).  _used reads var_names: a memo
    of the names each entry uses was hit 0 times in that pass's 217 calls,
    on 266 entries."""

    def __init__(self):
        self._free: dict[int, frozenset[str]] = {}
        self._gammas: dict[int, dict] = {}

    def free_in(self, x: str, delta: Sequence[DeltaEntry]) -> bool:
        """Whether x is free in some entry of delta: first among the
        entries seen before, then in the others, one by one."""
        sets = list(map(self._free.get, map(id, delta)))
        if any(map(contains, filter(None, sets), repeat(x))):
            return True
        for k in _where(sets, None) if None in sets else ():
            free = self._free[id(delta[k])] = frozenset(_scan(delta[k].term).free)
            if x in free:
                return True
        return False

    def gamma(self, s: Sequent, path, what: str) -> dict:
        """s's declarations as a dict, or a RuleViolation if s declares a
        name twice."""
        d = self._gammas.get(id(s))
        if d is None:
            d = dict(s.gamma)
            if len(d) != len(s.gamma):
                raise RuleViolation(path, f"{what} declares a variable twice")
            self._gammas[id(s)] = d
        return d

    def same_gamma(self, p: Sequent, con: Sequent, cg: dict, path, rule: Rule) -> None:
        """A unary rule's check that p declares what con does, cg, which
        is then p's dict too."""
        if p.gamma != con.gamma:
            raise RuleViolation(path, f"{rule.value} must not change declarations")
        self._gammas[id(p)] = cg


_name = itemgetter(0)  # of a declaration


def _premises_disjoint(node: Derivation, path) -> None:
    reason = _shared([_used(p.conclusion) for p in node.premises])
    if reason:
        raise RuleViolation(path, reason)


def _bound_somewhere(x: str, p: Sequent, path, memo: _Memo) -> None:
    """LolliI's condition that x, abstracted from its premise p, occurs
    free in p, from p's entries."""
    if not memo.free_in(x, p.delta):
        raise RuleViolation(path, f"abstracted {x!r} occurs neither in the "
                                  f"principal term nor elsewhere (no weakening)")


def _used(s: Sequent) -> set[str]:
    """The names s declares or uses, read from its entries."""
    return set(chain(map(_name, s.gamma), *(var_names(e.term) for e in s.delta)))


def _shared(used: list[set[str]]) -> Optional[str]:
    """The violation of premises whose names are used, if two share one."""
    for i in range(len(used)):
        for j in range(i + 1, len(used)):
            if not used[i].isdisjoint(used[j]):
                return f"premises {i} and {j} share variables {sorted(used[i] & used[j])}"
    return None


_STAR = DeltaEntry(UNIT, BOT)


def _well_formed(node: Derivation, arity: dict, sequent: type,
                 path: tuple[int, ...]) -> None:
    """Check that node is a node of one calculus: a rule arity lists, as
    many premises as the rule takes, and sequents of class sequent as its
    conclusion and its premises'.  A node of the other calculus is an
    unknown rule, and a conclusion of the other calculus a wrong sequent,
    at its own path: node, or a premise of node, checked before node's
    rule reads the premise's conclusion."""
    rule, prems = node.rule, node.premises
    n = arity.get(rule)
    if n is None:
        raise RuleViolation(path, f"unknown rule {rule!r}")
    if len(prems) != n:
        raise RuleViolation(path, f"{rule.value} expects {n} premises, "
                                  f"got {len(prems)}")
    _sequent_is(node, sequent, path)
    # arity lists every rule of one enum, so a premise's rule is listed
    # iff it is of rule's enum: a class test, where hashing an enum member
    # costs a Python call
    for k, p in enumerate(prems):
        if type(p.rule) is not type(rule):
            raise RuleViolation(path + (k,), f"unknown rule {p.rule!r}")
        _sequent_is(p, sequent, path + (k,))


def _sequent_is(node: Derivation, sequent: type, path: tuple[int, ...]) -> None:
    if type(node.conclusion) is not sequent:
        raise RuleViolation(path, f"conclusion is {type(node.conclusion).__name__}, "
                                  f"expected {sequent.__name__}")


def match_rule(node: Derivation, path: tuple[int, ...] = ()) -> dict[str, Any]:
    """Verify that node instantiates its rule and return the instance data.
    Subderivations are not descended into (see check_derivation)."""
    return _match(node, path, _Memo())


def _match(node: Derivation, path: tuple[int, ...], memo: _Memo,
           defer: bool = False) -> dict[str, Any]:
    """match_rule.  Each rule finds its principal entries as what one
    multiset difference between conclusion and premises leaves over, and
    reports the first positions that hold those values.  Side entries of
    unary rules are compared up to exchange: the comma is a par, and
    derivation surgery (grafting a subproof over an axiom leaf) permutes
    conclusions exactly as the calculus allows.  With defer, that the
    premises share no name and LolliI's no weakening are left to
    instances, which has what it needs to test them once the premises'
    subtrees are matched."""
    rule, con, prems = node.rule, node.conclusion, node.premises
    _well_formed(node, ARITY, Sequent, path)
    cg = memo.gamma(con, path, "conclusion")
    if not defer and len(prems) > 1:
        _premises_disjoint(node, path)

    if rule is Rule.AX:
        match con:
            case Sequent(((x, a),), (DeltaEntry(Var(y), b),)) \
                    if x == y and (a is b or equal(a, b)):
                return {}
        raise RuleViolation(path, "axiom must be  x : A |- x : A")

    if rule is Rule.BOT_I:
        p = prems[0].conclusion
        memo.same_gamma(p, con, cg, path, rule)
        if multiset_diff(con.delta, p.delta) == ([_STAR], []):
            return {"i": con.delta.index(_STAR)}
        raise RuleViolation(path, "BotI must add one entry  * : bot")

    if rule is Rule.BOT_E:
        p = prems[0].conclusion
        memo.same_gamma(p, con, cg, path, rule)
        match multiset_diff(con.delta, p.delta):
            case [DeltaEntry(Close(body), None) as e], [DeltaEntry(t, Bot()) as pe] \
                    if t == body:
                return {"i": con.delta.index(e), "j": p.delta.index(pe)}
        raise RuleViolation(path, "BotE must close one entry of type bot")

    if rule is Rule.PARR_I:
        p = prems[0].conclusion
        memo.same_gamma(p, con, cg, path, rule)
        match multiset_diff(con.delta, p.delta):
            case [DeltaEntry(Par(s, t), ParT(a, b)) as e], [_, _] as parts:
                # the two premise entries are s : a and t : b, in any order
                for left, right in (parts, parts[::-1]):
                    if (left.term, left.type, right.term, right.type) == (s, a, t, b):
                        for j in _where(p.delta[:-1], left):
                            if p.delta[j + 1] == right:
                                return {"i": con.delta.index(e),
                                        "j": j, "a": a, "b": b}
                        break
        raise RuleViolation(path, "ParrI must merge two adjacent typed entries")

    if rule is Rule.LOLLI_I:
        p = prems[0].conclusion
        pg = memo.gamma(p, path, "premise")
        match multiset_diff(con.delta, p.delta):
            case [DeltaEntry(Send(x, t), Lolli(a, b)) as e], [DeltaEntry(t1, b1) as pe] \
                    if t1 == t and b1 == b and x not in cg and pg.get(x) == a \
                    and _without(p.gamma, gamma_pos := list(pg).index(x)) \
                    == con.gamma:
                if not defer:
                    _bound_somewhere(x, p, path, memo)
                return {"i": con.delta.index(e), "j": p.delta.index(pe),
                        "x": x, "a": a, "b": b, "gamma_pos": gamma_pos}
        raise RuleViolation(path, "LolliI must abstract one declaration into a Send")

    if rule is Rule.LOLLI_E:
        p1, p2 = prems[0].conclusion, prems[1].conclusion
        g1 = memo.gamma(p1, path, "premise 0")
        g2 = memo.gamma(p2, path, "premise 1")
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
                                if f == s and b1 == b and (arg.term, arg.type) == (t, a1):
                            for i in _where(con.delta, e):
                                for j1 in _where(p1.delta, fn):
                                    for j2 in _where(p2.delta, arg):
                                        if _is_interleaving(
                                                _without(con.delta, i),
                                                (_without(p1.delta, j1),
                                                 _without(p2.delta, j2))):
                                            return {"i": i, "j1": j1, "j2": j2,
                                                    "a": a1, "b": b1}
        raise RuleViolation(path, "LolliE must apply a function entry to an "
                                  "argument entry from the other premise")

    if rule is Rule.PARR_E:
        p1, p2, p3 = (p.conclusion for p in prems)
        g1 = memo.gamma(p1, path, "premise 0")
        g2 = memo.gamma(p2, path, "premise 1")
        g3 = memo.gamma(p3, path, "premise 2")
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
                                # a dict keeps its premise's order
                                return {"i": i, "j": j, "x": x, "y": y,
                                        "a": a, "b": b,
                                        "gamma_pos_x": list(g2).index(x),
                                        "gamma_pos_y": list(g3).index(y)}
        raise RuleViolation(path, "ParrE must consume a par entry and one "
                                  "declaration from each receiving premise")


def check_derivation(d: Derivation) -> None:
    """Raise RuleViolation at the first node, in preorder, that is not a
    rule instance."""
    instances(d)


def instances(d: Derivation) -> dict[int, dict[str, Any]]:
    """Every node's instance data, by the node's id, each node matched in
    preorder; raises check_derivation's RuleViolation.

    Two conditions on a node's premises wait until their subtrees are
    matched.  That they share no name is read off the names each subtree
    gathered on the way up, without reading a premise's entries: an
    axiom's conclusion uses its one name, and no rule instance adds or
    drops a name, so a node's conclusion uses what its premises' do.  That
    a LolliI's abstracted name occurs free in its premise holds wherever
    the premise's subtree matches: an axiom's name occurs free, and a
    declared name stays free through every rule instance.  On a violation,
    the nodes still waiting above it, which come first in preorder, are
    tested first, from their entries."""
    # the nodes entered and not left, root first: each with its index
    # among its parent's premises and the names of its premises matched
    frames: list[tuple[Derivation, int, list[set[str]]]] = []
    memo, data = _Memo(), {}
    node, k = d, 0
    while True:
        try:
            data[id(node)] = _match(node, (), memo, True)
        except RuleViolation:
            _raise_first(frames, data, node, k, memo)
        if node.premises:
            frames.append((node, k, []))
            node, k = node.premises[0], 0
            continue
        names = {node.conclusion.gamma[0][0]}  # an axiom's one name
        while frames:  # leave each node whose premises are all matched
            node, k, sets = frames[-1]
            sets.append(names)
            if len(sets) < len(node.premises):
                node, k = node.premises[len(sets)], len(sets)
                break
            frames.pop()
            # each set belongs to its subtree alone: the widest takes the
            # others in, and they share a name if it grows by less
            names, total = max(sets, key=len), sum(map(len, sets))
            names.update(*sets)
            if len(names) != total:
                _raise_first(frames, data, node, k, memo)
        else:
            return data


def _raise_first(frames: list, data: dict, node: Derivation, k: int, memo: _Memo):
    """Raise the first violation in preorder: node's, the k-th premise of
    the last node on frames, which fails, or that of a node on frames
    above it: premises that share a name, or a LolliI whose abstracted
    name is free nowhere in its premise.

    Those nodes match their rules otherwise, so each concludes the names
    its premises use: gathered already for the premises matched, and read
    from the entries of node and of the premises not yet reached.  data
    holds their instances."""
    path = tuple(i for _, i, _ in frames[1:]) + (k,) if frames else ()
    shared = {}  # the reason of each node on frames whose premises share a name
    if any(len(a.premises) > 1 for a, _, _ in frames):
        names = _used(node.conclusion)
        for t in range(len(frames) - 1, -1, -1):
            a, _, sets = frames[t]
            sets = sets + [names] + [
                _used(p.conclusion) for p in a.premises[len(sets) + 1:]]
            if len(sets) > 1:
                shared[t] = _shared(sets)
                names.update(*sets)
    for t, (a, _, _) in enumerate(frames):
        if shared.get(t):
            raise RuleViolation(path[:t], shared[t])
        if a.rule is Rule.LOLLI_I:
            _bound_somewhere(data[id(a)]["x"], a.premises[0].conclusion, path[:t], memo)
    _match(node, path, memo)
    raise AssertionError("the failing node matched")


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
