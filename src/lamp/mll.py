"""Two-sided sequent calculus for multiplicative linear logic and the
constructive translations to and from the natural deduction system.

Sequents here carry types only.  The axioms and the unary rules compare
contexts in order: BotR's premise is its conclusion without one bot on
the right, ParrR's has the par's two parts in its place, and LolliR's has
the consequent in the lolli's place and the antecedent at any one position
of the conclusion's left.  Only the context-splitting rules (Cut, LolliL,
ParrL) match contexts as multisets, the conclusion's against the
premises' joined; that is the one place exchange is allowed, and splits
stay strictly multiplicative.  Both translations are syntax directed and
total on checked input; each direction's output is validated by the
opposite checker in the test suite.

Derivations of both calculi are ``derivations.Derivation`` trees, and a
node that is not an instance of its rule is a ``RuleViolation`` in both;
only the rules and the sequents differ.  Each rule with premises is
written forward once, in MLL_FORWARD, the table the generator (testlab)
draws from.  One table (_NAMESAKES) pairs each unary rule with its
natural deduction namesake, which each translation reads its own way;
the translation to natural deduction builds the namesake with natural
deduction's builders, and every entry it makes with the new entry of its
rule in FORWARD, so each rule's entry is written once.  match_mll still
matches each rule by its own branch: walking MLL_FORWARD as natural
deduction's checker walks its table cost twice the time (ROADMAP item
21).

Natural deduction's eliminations have no sequent calculus namesake, and
nmll_to_mll writes each as cuts: BotE as a cut against the bottom axiom,
LolliE as two cuts over a lolli-left of two identity axioms, ParrE as
bot-right over a cut over par-left.  mll_to_nmll turns each of those
three shapes back into the one elimination, from the translations of its
real premises, without translating the glue between; so the round trip
has its input's rule at every node.  Any other cut, lolli-left or
par-left is encoded by a lolli elimination, closed.

Type erasure keeps declaration types on the left and typed entry types on
the right, dropping untyped close entries.  Each node's translation to
natural deduction erases to that node's sequent in its order, and keeps
every typed entry before every untyped one, so right-hand positions in
the source sequent coincide with entry indices; fresh term variables come
from a deterministic counter (c0, c1, ...) and translations are
reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from enum import Enum
from operator import itemgetter, ne
from typing import Any, Iterator, Optional

from .derivations import (
    FORWARD, Derivation, ForwardRule, Rule, RuleViolation, spots, _conclusion,
    _interleaving, _matched, _replaced, _same, _well_formed, _where, _without,
    axiom, instances, multiset_diff, premises_of,
)
from .terms import (
    BOT, DeltaEntry, Lolli, Memo, MllSequent, ParT, Sequent, _texts, children,
    fold, print_type,
)


class MllRule(Enum):
    __hash__ = object.__hash__  # singletons, as derivations.Rule

    AX_ID = "AxId"
    AX_BOT = "AxBot"
    BOT_R = "BotR"
    LOLLI_L = "LolliL"
    LOLLI_R = "LolliR"
    PARR_L = "ParrL"
    PARR_R = "ParrR"
    CUT = "Cut"


# the sequent calculus's trees and violations are natural deduction's
# classes, under the names lamp has always exported them by
MllDerivation = Derivation
MllRuleViolation = RuleViolation


def print_mll_sequent(s: MllSequent, memo: Optional[Memo] = None) -> str:
    """s in lamp syntax.  memo, if given, is a span memo (see
    terms.print_term), kept alive by the caller the same way: a caller
    printing many sequents that share types, such as the conclusions of
    a derivation, prints each shared type once."""
    left = ", ".join(_texts(s.left, print_type, memo, subtrees=True))
    right = ", ".join(_texts(s.right, print_type, memo, subtrees=True))
    out = f"{left} |-" if left else "|-"
    return f"{out} {right}" if right else out


# The rules with premises, each written once for the generator (testlab),
# which draws from this table.  A binary rule takes its first premise whole
# and reads one side of it, over which its second premise's positions
# range beside that premise's left.

MLL_FORWARD: dict[MllRule, ForwardRule] = {
    MllRule.BOT_R: ForwardRule(
        (spots(),), lambda: BOT,
        at=lambda seqs, positions, draw: draw(len(seqs[0].right))),
    MllRule.LOLLI_R: ForwardRule(
        (spots((1, 0)),), lambda b, a: Lolli(a, b),
        at=lambda seqs, positions, draw: positions[0][0]),
    MllRule.PARR_R: ForwardRule((spots((1,), width=2),), ParT),
    MllRule.CUT: ForwardRule(
        (spots(), spots((3, 0), lambda a, b, right: a == b)), lambda a, b: None,
        reads=(lambda prev: prev[0][0].right,), side=None),
    MllRule.LOLLI_L: ForwardRule(
        (spots(), spots((3, 0))), Lolli,
        at=lambda seqs, positions, draw: len(seqs[0].left),
        reads=(lambda prev: prev[0][0].right,), side=0),
    MllRule.PARR_L: ForwardRule(
        (spots(), spots((2, 0))), ParT,
        at=lambda seqs, positions, draw: len(seqs[0].left) + len(seqs[1].left) - 2,
        reads=(lambda prev: prev[0][0].left,), side=0),
}

# premises per rule: none for the two axioms, else as many as the table lists
MLL_ARITY = {MllRule.AX_ID: 0, MllRule.AX_BOT: 0,
             **{rule: len(fr.premises) for rule, fr in MLL_FORWARD.items()}}


# The context-splitting rules: the class of the conclusion's left formula
# the rule introduces (None for Cut), whether the first premise's
# principal formula is on its left, and the rule's error
_SPLITTING = {
    MllRule.CUT: (None, False, "cut formulas do not match the contexts"),
    MllRule.LOLLI_L: (Lolli, False, "lolli-left does not match its premises"),
    MllRule.PARR_L: (ParT, True, "par-left does not match its premises"),
}


def _match_split(con: MllSequent, p1: MllSequent, p2: MllSequent, cls,
                 on_left: bool):
    """The instance of a context-splitting rule, or None.  Formula i of
    p1 and the declaration j of p2 are principal: a cut formula and its
    copy, or the two parts of the introduced formula k.  Several choices
    can match the same multisets; the first whose left-to-right context
    concatenation reproduces the conclusion lists exactly wins, so that
    the term decoration erases back verbatim (_exact_split), else the
    first that matches.  The multisets fix the principal formulas' values:
    what the conclusion's left holds beyond the premises' (the formula k)
    and they beyond it on each side; so the first match takes the first
    copy of each.  k is the first copy of its formula either way: an equal
    formula before it makes the same concatenation."""
    found = _exact_split(con, p1, p2, cls, on_left)
    if found:
        i, j, f = found  # f: the cut formula, or the formula k
    else:
        extra, lack = multiset_diff(con.left, p1.left, p2.left)
        extra_r, lack_r = multiset_diff(con.right, p1.right, p2.right)
        if extra_r or len(extra) != (cls is not None) or len(lack) != 1 + on_left:
            return None
        if cls is None:
            f = a = b = lack[0]
        elif type(extra[0]) is cls:
            f = extra[0]
            a, b = children(f)
        else:
            return None
        side = p1.left if on_left else p1.right
        if not (_same(lack, [a, b]) and not lack_r if on_left
                else lack == [b] and lack_r == [a]) or a not in side or b not in p2.left:
            return None
        i, j = side.index(a), p2.left.index(b)
    if cls is None:
        return {"i": i, "j": j, "a": f}
    a, b = children(f)
    return {"k": con.left.index(f), "i": i, "j": j, "a": a, "b": b}


def _exact_split(con: MllSequent, p1: MllSequent, p2: MllSequent, cls,
                 on_left: bool) -> Optional[tuple]:
    """(i, j, the cut formula or the introduced one) where con concatenates
    the premises' contexts exactly, or None.  The lengths fix each
    premise's part of con and the place of the introduced formula, last
    on the left or after p1's left; i and j are what each part lacks, at
    the start of the run of equal copies it lacks one of: the first in
    _match_split's order."""
    side = p1.left if on_left else p1.right
    intro = cls is not None
    if not side or not p2.left \
            or len(con.left) != len(p1.left) + len(p2.left) - 1 - on_left + intro:
        return None
    n1 = len(side) - 1
    if on_left:  # con.left: p1's part, p2's, the formula k
        k = len(con.left) - 1
        if con.right != p1.right + p2.right:
            return None
        i, j = _deleted(side, con.left[:n1]), _deleted(p2.left, con.left[n1:k])
    else:  # con.left: p1's, the formula k if any, p2's part
        k = len(p1.left)
        if con.left[:k] != p1.left or con.right[n1:] != p2.right:
            return None
        i, j = _deleted(side, con.right[:n1]), _deleted(p2.left, con.left[k + intro:])
    if i is None or j is None:
        return None
    if not intro:
        return (i, j, side[i]) if side[i] == p2.left[j] else None
    ty = con.left[k]
    if type(ty) is not cls or (side[i], p2.left[j]) != children(ty):
        return None
    return i, j, ty


def _differ(a: tuple, b: tuple) -> int:
    """Where a and b first differ, found in C; the shorter's length if one
    begins the other."""
    return next(itertools.compress(itertools.count(), map(ne, a, b)), min(len(a), len(b)))


def _deleted(a: tuple, x: tuple) -> Optional[int]:
    """The first i such that a without its item i is x, or None: where the
    two first differ (_differ), then back to the start of that item's run
    of equal copies."""
    if len(a) != len(x) + 1:
        return None
    i = _differ(a, x)
    if a[i + 1:] != x[i:]:
        return None
    while i and a[i - 1] == a[i]:
        i -= 1
    return i


def match_mll(node: Derivation, path: tuple[int, ...] = ()) -> dict[str, Any]:
    """Verify one node against its rule schema; returns the matched
    principal positions and component types."""
    rule, con, prems = node.rule, node.conclusion, node.premises
    _well_formed(node, MLL_ARITY, MllSequent, path)

    if rule is MllRule.AX_ID:
        if len(con.left) == 1 and con.left == con.right:
            return {"a": con.left[0]}
        raise RuleViolation(path, "identity axiom must be  A |- A")

    if rule is MllRule.AX_BOT:
        if con.left == (BOT,) and con.right == ():
            return {}
        raise RuleViolation(path, "bottom axiom must be  bot |-")

    if rule is MllRule.BOT_R:
        p = prems[0].conclusion
        i = _deleted(con.right, p.right) if p.left == con.left else None
        if i is not None and con.right[i] == BOT:
            return {"i": i}
        raise RuleViolation(path, "bot-right must add one bot on the right")

    # LolliR and ParrR replace one formula on the right by its parts: a
    # formula is never equal to its part, so it sits where the sides differ
    if rule is MllRule.LOLLI_R:
        p = prems[0].conclusion
        i = _differ(con.right, p.right)
        if i < len(con.right) == len(p.right) and type(con.right[i]) is Lolli:
            a, b = children(con.right[i])
            j = _deleted(p.left, con.left)
            if p.right[i] == b and p.right[i + 1:] == con.right[i + 1:] \
                    and j is not None and p.left[j] == a:
                return {"i": i, "j": j, "a": a, "b": b}
        raise RuleViolation(path, "lolli-right must move the antecedent left")

    if rule is MllRule.PARR_R:
        p = prems[0].conclusion
        i = _differ(con.right, p.right)
        if p.left == con.left and i < len(con.right) and type(con.right[i]) is ParT:
            a, b = children(con.right[i])
            if p.right[i:i + 2] == (a, b) and p.right[i + 2:] == con.right[i + 1:]:
                return {"i": i, "a": a, "b": b}
        raise RuleViolation(path, "par-right must split one par formula")

    if rule in _SPLITTING:
        inst = _match_split(con, prems[0].conclusion, prems[1].conclusion,
                            *_SPLITTING[rule][:2])
        if inst is not None:
            return inst
        raise RuleViolation(path, _SPLITTING[rule][2])


def check_mll(d: Derivation) -> None:
    for _ in _matched(d, match_mll):
        pass


# ---------------------------------------------------------------------------
# Type erasure and the natural-deduction -> sequent-calculus direction

# the type of a declaration, and of an entry (None if untyped), read by
# index as terms does (a property read costs about twice as much): the
# entries of a sequent are projected and split on it in C, without a
# Python step per entry
_decl_type, _entry_type = itemgetter(1), itemgetter(2)


def type_erasure(s: Sequent) -> MllSequent:
    # a type is a non-empty tuple, so filter(None, ...) drops only None
    return MllSequent(tuple(map(_decl_type, s.gamma)),
                      tuple(filter(None, map(_entry_type, s.delta))))


def _typed_pos(s: Sequent, delta_index: int) -> int:
    """Position of a typed entry among the typed entries only."""
    before = s.delta[:delta_index]
    return len(before) - list(map(_entry_type, before)).count(None)


def nmll_to_mll(d: Derivation) -> Derivation:
    """Translate a checked natural deduction derivation; the result concludes
    the type erasure of d's conclusion and passes check_mll.

    Eliminations have no sequent-calculus namesake and become cuts: closing
    a bot entry cuts against the bottom axiom, an application routes through
    lolli-left via two cuts, and a binary output stacks bot-right over a cut
    over par-left: the three shapes mll_to_nmll turns back (_shape).

    Nodes are matched in preorder with one memo, since they share the
    entries their rules leave unchanged, then translated premises first."""
    insts = instances(d)
    return fold(d, premises_of,
                lambda node, subs: _to_mll(node, insts[id(node)], subs))


def _to_mll(d: Derivation, inst: dict[str, Any], subs: list[Derivation]) -> Derivation:
    """One node of nmll_to_mll: d, its rule instance data and the
    translations of its premises."""
    con = type_erasure(d.conclusion)
    rule = d.rule

    namesake = _MLL_NAMESAKES.get(rule)
    if namesake is not None:
        return Derivation(namesake, con, tuple(subs))

    if rule is Rule.BOT_E:
        axbot = Derivation(MllRule.AX_BOT, MllSequent((BOT,), ()))
        return Derivation(MllRule.CUT, con, (subs[0], axbot))

    if rule is Rule.LOLLI_E:
        a, b = inst["a"], inst["b"]
        fun_pos = _typed_pos(d.premises[0].conclusion, inst["j1"])
        sub1, sub2 = subs
        e1 = sub1.conclusion
        ax_a = Derivation(MllRule.AX_ID, MllSequent((a,), (a,)))
        ax_b = Derivation(MllRule.AX_ID, MllSequent((b,), (b,)))
        lolli_l = Derivation(
            MllRule.LOLLI_L, MllSequent((a, Lolli(a, b)), (b,)), (ax_a, ax_b))
        cut1 = Derivation(
            MllRule.CUT,
            MllSequent(e1.left + (a,),
                       e1.right[:fun_pos] + (b,) + e1.right[fun_pos + 1:]),
            (sub1, lolli_l))
        return Derivation(MllRule.CUT, con, (sub2, cut1))

    if rule is Rule.PARR_E:
        gx, gy = inst["gamma_pos_x"], inst["gamma_pos_y"]
        sub1, sub2, sub3 = subs
        parr_l = Derivation(MllRule.PARR_L, MLL_FORWARD[MllRule.PARR_L].conclusion(
            (sub2.conclusion, sub3.conclusion), (None, (gx, gy))), (sub2, sub3))
        # the cut concludes what BotR's premise must: con without the
        # ParrE's bot, in con's order
        dist_pos = _typed_pos(d.conclusion, inst["i"])
        cut = Derivation(
            MllRule.CUT, MllSequent(con.left, _without(con.right, dist_pos)),
            (sub1, parr_l))
        return Derivation(MllRule.BOT_R, con, (cut,))

    raise AssertionError(f"unhandled rule {rule!r}")


# ---------------------------------------------------------------------------
# Sequent-calculus -> natural-deduction direction
#
# Each node translates to a derivation whose conclusion erases to the
# node's sequent in its order, declarations and typed entries alike, and
# lists its typed entries before its untyped ones: so a position on the
# sequent's right is the index of an entry, which the unary rules read.

def _typed(d: Derivation) -> tuple[DeltaEntry, ...]:
    return tuple(filter(_entry_type, d.conclusion.delta))


def _untyped(*ds: Derivation) -> tuple[DeltaEntry, ...]:
    return tuple(itertools.filterfalse(
        _entry_type, itertools.chain(*(d.conclusion.delta for d in ds))))


def _merged(target: tuple, parts: list, taken: tuple, new=None) -> Optional[tuple]:
    """How target merges the parts, each in its order and without the item
    at its index in taken (None: it loses none), and new, if given,
    anywhere: (the indices taken, None) where target is their
    concatenation with new in the first part's taken place, one
    comparison in C; else (the indices taken, the part each item of
    target comes from, new's after theirs), by search (_interleaving); or
    None.  The search tries the indices given first, then each equal copy
    of their items: a context-splitting rule's match takes the first equal
    formula, where another may be the one whose removal merges."""
    if _dealt(parts, (taken, None), new) == target:
        return taken, None
    copies = [(None,) if k is None else (k, *(c for c in _where(p, p[k]) if c != k))
              for p, k in zip(parts, taken)]
    for ks in itertools.product(*copies):
        rests = [p if k is None else _without(p, k) for p, k in zip(parts, ks)]
        trail = _interleaving(target, rests if new is None else rests + [(new,)])
        if trail is not None:
            return ks, trail
    return None


def _dealt(parts: list, order: tuple, new=None) -> tuple:
    """The items of the parts, each without the item at its index in
    order[0], and new, in the order _merged found (order)."""
    ks, trail = order
    rests = [p if k is None else _without(p, k) for p, k in zip(parts, ks)]
    if trail is None:
        if new is not None:
            rests[0] = _replaced(parts[0], ks[0], new)
        return tuple(itertools.chain(*rests))
    its = [*map(iter, rests), iter((new,))]
    return tuple(map(next, map(its.__getitem__, trail)))


def _in_order(items: tuple, types: tuple, key) -> tuple:
    """items, which hold types as a multiset by key, in types' order: as
    they are if they already are, else each type taking the first item of
    that type left."""
    keys = tuple(map(key, items))
    if keys == types:
        return items
    keys, out = list(keys), []
    for ty in types:
        k = keys.index(ty)
        keys[k] = None
        out.append(items[k])
    return tuple(out)


def _close(d: Derivation, k: int, typed: tuple, con: MllSequent) -> Derivation:
    """BotE closing entry k of d's conclusion, a bot, to conclude con: its
    entries are typed, d's other typed entries, in con's order
    (_in_order), then d's untyped ones and the close last."""
    s = d.conclusion
    close = FORWARD[Rule.BOT_E].new(s.delta[k])
    return Derivation(Rule.BOT_E, Sequent(
        s.gamma, _in_order(typed, con.right, _entry_type) + _untyped(d) + (close,)), (d,))


def _elimination(rule: Rule, con: MllSequent, gamma: tuple, typed: tuple,
                 srcs: tuple, premises: tuple, *last: DeltaEntry) -> Derivation:
    """A LolliE or ParrE node over premises: gamma declared in con's order;
    its entries typed, the untyped entries of srcs, and last."""
    return Derivation(rule, Sequent(_in_order(gamma, con.left, _decl_type),
                                    typed + _untyped(*srcs) + last), premises)


def _shape(node: Derivation, insts: dict[int, dict]) -> Optional[tuple]:
    """Where node is one of the shapes nmll_to_mll writes for an
    elimination, with the cut formulas that make it one: (the elimination,
    its premises' nodes, where their typed entries go (_merged), the
    ParrL's or LolliL's instance), else None.  A LolliE's or ParrE's
    entries must merge its premises', else node is not one; a BotE keeps
    its premise's declarations in order, and its close may reorder the
    entries (_close)."""
    match node:
        case (MllRule.BOT_R, con, ((MllRule.CUT, _, (par, parr_l)) as cut,)) \
                if parr_l.rule is MllRule.PARR_L:
            inst = insts[id(parr_l)]
            if insts[id(cut)]["a"] != ParT(inst["a"], inst["b"]):
                return None
            nd, srcs, new = Rule.PARR_E, (par, *parr_l.premises), BOT
            taken = insts[id(cut)]["i"], None, None
        case (MllRule.CUT, con, (s, (MllRule.AX_BOT, _, _))):
            if con.left != s.conclusion.left:
                return None
            nd, srcs, new, inst = Rule.BOT_E, (s,), None, None
            taken = insts[id(node)]["i"],
        case (MllRule.CUT, con, (arg, (MllRule.CUT, _, (fn, lolli_l)) as cut)) \
                if lolli_l.rule is MllRule.LOLLI_L \
                and all(p.rule is MllRule.AX_ID for p in lolli_l.premises):
            inst = insts[id(lolli_l)]
            if insts[id(cut)]["a"] != Lolli(inst["a"], inst["b"]) \
                    or insts[id(node)]["a"] != inst["a"]:
                return None
            nd, srcs, new = Rule.LOLLI_E, (fn, arg), inst["b"]
            taken = insts[id(cut)]["i"], insts[id(node)]["i"]
        case _:
            return None
    order = _merged(con.right, [p.conclusion.right for p in srcs], taken, new)
    if order is None:
        if nd is not Rule.BOT_E:
            return None
        order = taken, None
    return nd, srcs, order, inst


def _rebuilt(con: MllSequent, shape: tuple, subs: list[Derivation]) -> Derivation:
    """The elimination a shape (_shape) encodes, concluding con, over the
    translations of its premises' nodes."""
    rule, _, order, inst = shape
    parts = list(map(_typed, subs))
    if rule is Rule.BOT_E:
        return _close(subs[0], order[0][0], _dealt(parts, order), con)
    e = subs[0].conclusion.delta[order[0][0]]  # the function or the par
    if rule is Rule.LOLLI_E:
        items = e, subs[1].conclusion.delta[order[0][1]]
        gamma = subs[0].conclusion.gamma + subs[1].conclusion.gamma
    else:
        s, sx, sy = map(_conclusion, subs)
        gx, gy = inst["i"], inst["j"]
        items = e, sx.gamma[gx], sy.gamma[gy]
        gamma = s.gamma + _without(sx.gamma, gx) + _without(sy.gamma, gy)
    subs = tuple(subs)
    new = FORWARD[rule].new(*items)
    return _elimination(rule, con, gamma, _dealt(parts, order, new), subs, subs)


# per unary rule, its namesake and, from its instance's i and j, the
# namesake's positions and the place of its new entry (None: its own);
# nmll_to_mll reads it the other way, with the axioms paired too
_NAMESAKES = {
    MllRule.BOT_R: (Rule.BOT_I, lambda i, j: ((None,), i)),
    MllRule.LOLLI_R: (Rule.LOLLI_I, lambda i, j: (((j, i),), None)),
    MllRule.PARR_R: (Rule.PARR_I, lambda i, j: ((i,), None)),
}
_MLL_NAMESAKES = {Rule.AX: MllRule.AX_ID,
                  **{nd: rule for rule, (nd, _) in _NAMESAKES.items()}}


def _to_nmll(node: Derivation, inst: dict[str, Any], subs: list[Derivation],
             names: Iterator[str], shape: Optional[tuple]) -> Derivation:
    """One node of mll_to_nmll: node, its rule instance data, its shape
    (_shape) if it has one, the translations of its premises, or of its
    shape's, and the fresh names yet to draw."""
    rule, con = node.rule, node.conclusion
    if shape is not None:
        return _rebuilt(con, shape, subs)
    if rule is MllRule.AX_ID:
        return Derivation(Rule.AX, axiom(next(names), con.left[0]))
    if rule is MllRule.AX_BOT:
        return _close(Derivation(Rule.AX, axiom(next(names), BOT)), 0, (), con)

    i, j, a, b = map(inst.get, "ijab")
    s = subs[0].conclusion
    # a unary rule becomes its namesake, by that rule's builder: the
    # premise's translation erases to the premise in its order, so the
    # node's positions are the namesake's
    if rule in _NAMESAKES:
        nd, where = _NAMESAKES[rule]
        positions, at = where(i, j)
        return Derivation(nd, FORWARD[nd].conclusion((s,), positions, at=at),
                          tuple(subs))

    # a context-splitting rule: an elimination, closed, whose entries take
    # the conclusion's order where they merge the premises' (_merged), and
    # else join them, in which case the close takes that order
    taken = (None if rule is MllRule.PARR_L else i, None)
    order = _merged(con.right, [p.conclusion.right for p in node.premises],
                    taken) or (taken, None)
    if rule is not MllRule.PARR_L:
        i = order[0][0]  # an equal copy, where that one merges
    if rule is MllRule.CUT:
        return _cut_encoding(*subs, i, j, con, order)
    # LolliL and ParrL: the introduced formula is the axiom of a fresh name
    ax = Derivation(Rule.AX, axiom(next(names), MLL_FORWARD[rule].new(a, b)))
    x = ax.conclusion.delta[0]
    if rule is MllRule.LOLLI_L:
        app = Derivation(Rule.LOLLI_E, Sequent(
            s.gamma + ax.conclusion.gamma,
            _replaced(s.delta, i, FORWARD[Rule.LOLLI_E].new(x, s.delta[i]))),
            (ax, subs[0]))
        return _cut_encoding(app, subs[1], i, j, con, order)
    # ParrL: a Dist on x
    s2 = subs[1].conclusion
    typed = _dealt(list(map(_typed, subs)), order)
    gamma = _without(s.gamma, i) + _without(s2.gamma, j) + ax.conclusion.gamma
    parr_e = _elimination(
        Rule.PARR_E, con, gamma, typed, subs, (ax, *subs),
        FORWARD[Rule.PARR_E].new(x, s.gamma[i], s2.gamma[j]))
    return _close(parr_e, -1, typed, con)


def _cut_encoding(d_left: Derivation, d_right: Derivation, i: int, j: int,
                  con: MllSequent, order: tuple) -> Derivation:
    """Encode a cut on A, of entry i of d_left against declaration j of
    d_right, concluding con: turn the A declaration into an output channel
    of type A -o bot and apply it to the A entry, then close the resulting
    bot.  The two premises' other typed entries go in order (_merged's)."""
    s1, s2 = d_left.conclusion, d_right.conclusion
    gamma = _without(s2.gamma, j)
    star = FORWARD[Rule.BOT_I].new()
    send = FORWARD[Rule.LOLLI_I].new(s2.gamma[j], star)
    typed2, untyped2 = _typed(d_right), _untyped(d_right)
    boti = Derivation(Rule.BOT_I, Sequent(
        s2.gamma, typed2 + (star,) + untyped2), (d_right,))
    lolli_i = Derivation(Rule.LOLLI_I, Sequent(
        gamma, typed2 + (send,) + untyped2), (boti,))
    typed = _dealt([_typed(d_left), typed2], order)
    app = _elimination(
        Rule.LOLLI_E, con, s1.gamma + gamma, typed, (d_left, d_right), (lolli_i, d_left),
        FORWARD[Rule.LOLLI_E].new(send, s1.delta[i]))
    return _close(app, -1, typed, con)


def mll_to_nmll(d: Derivation) -> Derivation:
    """Translate a checked sequent calculus derivation into natural
    deduction; the result's conclusion erases to d's conclusion, in its
    order.

    Nodes are matched in preorder, then translated premises first, which
    is the order in which fresh names are drawn.  Where a node is one of
    the shapes nmll_to_mll writes for an elimination (_shape), the walk
    goes from it to the shape's premises: their translations make that
    elimination, and the glue between is not translated."""
    insts = {id(node): inst for node, inst in _matched(d, match_mll)}
    names = map("c{}".format, itertools.count())
    shapes: dict[int, tuple] = {}

    def kids(node: Derivation) -> tuple:
        shape = _shape(node, insts)
        if shape is None:
            return node.premises
        shapes[id(node)] = shape
        return shape[1]

    return fold(d, kids, lambda node, subs: _to_nmll(
        node, insts[id(node)], subs, names, shapes.get(id(node))))
