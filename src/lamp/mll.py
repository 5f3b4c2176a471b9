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
draws from; the translation to natural deduction builds BotI and the
closing BotE with natural deduction's builders.  match_mll still matches
each rule by its own branch: walking MLL_FORWARD as natural deduction's
checker walks its table cost twice the time (ROADMAP item 21).

Type erasure keeps declaration types on the left and typed entry types on
the right, dropping untyped close entries.  Derivations produced by the
sequent-to-natural-deduction direction keep every typed entry before every
untyped one, so right-hand positions in the source sequent coincide with
entry indices; fresh term variables come from a deterministic counter
(c0, c1, ...) and translations are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from enum import Enum
from operator import itemgetter
from typing import Any, Iterator, Optional

from .derivations import (
    FORWARD, Derivation, ForwardRule, Rule, RuleViolation, spots, _STAR,
    _replaced, _well_formed, _without, axiom, instances, multiset_diff,
    premises_of,
)
from .terms import (
    App, BOT, DeltaEntry, Dist, Lolli, Memo, Par, ParT, Send, Sequent,
    TypeExpr, UNIT, Var, _Node, _texts, children, fold, nodes, preorder,
    print_type,
)


class MllRule(Enum):
    AX_ID = "AxId"
    AX_BOT = "AxBot"
    BOT_R = "BotR"
    LOLLI_L = "LolliL"
    LOLLI_R = "LolliR"
    PARR_L = "ParrL"
    PARR_R = "ParrR"
    CUT = "Cut"


MLL_ARITY = {
    MllRule.AX_ID: 0,
    MllRule.AX_BOT: 0,
    MllRule.BOT_R: 1,
    MllRule.LOLLI_R: 1,
    MllRule.PARR_R: 1,
    MllRule.LOLLI_L: 2,
    MllRule.PARR_L: 2,
    MllRule.CUT: 2,
}


class MllSequent(_Node):
    __slots__ = ()
    __match_args__ = ("left", "right")


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
    the term decoration erases back verbatim, else the first that
    matches."""
    # (k, the introduced formula as a 1-tuple, its parts); a Cut's
    # formulas are any equal pair
    if cls is None:
        heads = [(None, (), None, None)]
    else:
        heads = [(k, (ty,), *children(ty)) for k, ty in enumerate(con.left)
                 if type(ty) is cls]
    found = None
    for k, intro, a, b in heads:
        left = con.left if k is None else _without(con.left, k)
        for i, a1 in enumerate(p1.left if on_left else p1.right):
            if a is not None and a1 != a:
                continue
            l1 = _without(p1.left, i) if on_left else p1.left
            r1 = p1.right if on_left else _without(p1.right, i)
            for j, b1 in enumerate(p2.left):
                if b1 != (a1 if k is None else b):
                    continue
                l2 = _without(p2.left, j)
                inst = ({"i": i, "j": j, "a": a1} if k is None
                        else {"k": k, "i": i, "j": j, "a": a, "b": b})
                # an exact concatenation is also a multiset match, so the
                # multisets are compared only until the first such match
                if con.left == (l1 + l2 + intro if on_left else l1 + intro + l2) \
                        and con.right == r1 + p2.right:
                    return inst
                if found is None \
                        and multiset_diff(left, l1, l2) == ([], []) \
                        and multiset_diff(con.right, r1, p2.right) == ([], []):
                    found = inst
    return found


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
        if p.left == con.left:
            for i, ty in enumerate(con.right):
                if ty == BOT and _without(con.right, i) == p.right:
                    return {"i": i}
        raise RuleViolation(path, "bot-right must add one bot on the right")

    if rule is MllRule.LOLLI_R:
        p = prems[0].conclusion
        for i, ty in enumerate(con.right):
            match ty:
                case Lolli(a, b):
                    if p.right != con.right[:i] + (b,) + con.right[i + 1:]:
                        continue
                    for j, ty2 in enumerate(p.left):
                        if ty2 == a and _without(p.left, j) == con.left:
                            return {"i": i, "j": j, "a": a, "b": b}
        raise RuleViolation(path, "lolli-right must move the antecedent left")

    if rule is MllRule.PARR_R:
        p = prems[0].conclusion
        if p.left == con.left:
            for i, ty in enumerate(con.right):
                match ty:
                    case ParT(a, b):
                        if p.right == con.right[:i] + (a, b) + con.right[i + 1:]:
                            return {"i": i, "a": a, "b": b}
        raise RuleViolation(path, "par-right must split one par formula")

    if rule in _SPLITTING:
        inst = _match_split(con, prems[0].conclusion, prems[1].conclusion,
                            *_SPLITTING[rule][:2])
        if inst is not None:
            return inst
        raise RuleViolation(path, _SPLITTING[rule][2])


def check_mll(d: Derivation) -> None:
    for _ in _matched(d):
        pass


def _matched(d: Derivation) -> Iterator[tuple[Derivation, dict[str, Any]]]:
    """(node, match_mll(node)) for every node of d, in preorder.  A path is
    built only for a node that fails: the first path of that node object,
    where the walk met it first, since match_mll reads only the node and
    its premises' rules, then the path from there."""
    for node in nodes(d, premises_of):
        try:
            yield node, match_mll(node)
        except RuleViolation as err:
            path = next(p for p, n in preorder(d, premises_of) if n is node)
            raise RuleViolation(path + err.path, err.reason) from None


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
    over par-left.

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

    if rule is Rule.AX:
        return Derivation(MllRule.AX_ID, con)

    if rule is Rule.BOT_I:
        return Derivation(MllRule.BOT_R, con, (subs[0],))

    if rule is Rule.LOLLI_I:
        return Derivation(MllRule.LOLLI_R, con, (subs[0],))

    if rule is Rule.PARR_I:
        return Derivation(MllRule.PARR_R, con, (subs[0],))

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
        e2, e3 = sub2.conclusion, sub3.conclusion
        parr_l = Derivation(
            MllRule.PARR_L,
            MllSequent(_without(e2.left, gx) + _without(e3.left, gy)
                       + (ParT(inst["a"], inst["b"]),), e2.right + e3.right),
            (sub2, sub3))
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

def _typed_first(*deltas: tuple[DeltaEntry, ...]) -> tuple[DeltaEntry, ...]:
    """The entries of deltas in turn, the typed ones before the untyped:
    the one order in which this direction joins entries."""
    joined = tuple(itertools.chain(*deltas))
    return (tuple(filter(_entry_type, joined))
            + tuple(itertools.filterfalse(_entry_type, joined)))


def _close_last(d: Derivation) -> Derivation:
    """BotE closing the last entry of d's conclusion, a bot."""
    s = d.conclusion
    return Derivation(Rule.BOT_E, FORWARD[Rule.BOT_E].conclusion(
        (s,), (len(s.delta) - 1,)), (d,))


def _to_nmll(node: Derivation, inst: dict[str, Any], subs: list[Derivation],
             names: Iterator[str]) -> Derivation:
    """One node of mll_to_nmll: node, its rule instance data, the
    translations of its premises and the fresh names yet to draw."""
    rule = node.rule
    if rule is MllRule.AX_ID:
        return Derivation(Rule.AX, axiom(next(names), node.conclusion.left[0]))
    if rule is MllRule.AX_BOT:
        return _close_last(Derivation(Rule.AX, axiom(next(names), BOT)))
    if rule is MllRule.CUT:
        return _cut_encoding(*subs, inst["i"], inst["j"], inst["a"])

    i, j, a, b = map(inst.get, "ijab")
    s = subs[0].conclusion
    # a unary rule becomes its namesake, which keeps the premise's order
    if rule is MllRule.BOT_R:
        return Derivation(Rule.BOT_I, FORWARD[Rule.BOT_I].conclusion(
            (s,), (None,), at=i), tuple(subs))
    if rule is MllRule.LOLLI_R:
        # not LolliI's builder, which types the Send by declaration j where
        # this takes a, the sequent calculus's formula j (ROADMAP item 1)
        entry = DeltaEntry(Send(s.gamma[j][0], s.delta[i].term), Lolli(a, b))
        return Derivation(Rule.LOLLI_I, Sequent(
            _without(s.gamma, j), _replaced(s.delta, i, entry)), tuple(subs))
    if rule is MllRule.PARR_R:
        entry = DeltaEntry(Par(s.delta[i].term, s.delta[i + 1].term), ParT(a, b))
        return Derivation(Rule.PARR_I, Sequent(
            s.gamma, s.delta[:i] + (entry,) + s.delta[i + 2:]), tuple(subs))

    # LolliL and ParrL: the introduced formula is a fresh name's axiom
    x = next(names)
    if rule is MllRule.LOLLI_L:
        ty = Lolli(a, b)
        entry = DeltaEntry(App(Var(x), s.delta[i].term), b)
        app = Derivation(Rule.LOLLI_E, Sequent(
            s.gamma + ((x, ty),), _replaced(s.delta, i, entry)),
            (Derivation(Rule.AX, axiom(x, ty)), subs[0]))
        return _cut_encoding(app, subs[1], i, j, b)
    # ParrL: a Dist on the fresh name, closed
    ty = ParT(a, b)
    s2 = subs[1].conclusion
    entry = DeltaEntry(Dist(s.gamma[i][0], s2.gamma[j][0], Var(x)), BOT)
    return _close_last(Derivation(Rule.PARR_E, Sequent(
        _without(s.gamma, i) + _without(s2.gamma, j) + ((x, ty),),
        _typed_first(s.delta, s2.delta) + (entry,)),
        (Derivation(Rule.AX, axiom(x, ty)), *subs)))


def _cut_encoding(d_left: Derivation, d_right: Derivation,
                  i: int, j: int, a: TypeExpr) -> Derivation:
    """Encode a cut on A: turn the right premise's A declaration into an
    output channel of type A -o bot and apply it to the left premise's
    A entry, then close the resulting bot."""
    s1, s2 = d_left.conclusion, d_right.conclusion
    gamma = _without(s2.gamma, j)
    send = DeltaEntry(Send(s2.gamma[j][0], UNIT), Lolli(a, BOT))
    boti = Derivation(Rule.BOT_I, Sequent(
        s2.gamma, _typed_first(s2.delta, (_STAR,))), (d_right,))
    lolli_i = Derivation(Rule.LOLLI_I, Sequent(
        gamma, _typed_first(s2.delta, (send,))), (boti,))
    app = DeltaEntry(App(send.term, s1.delta[i].term), BOT)
    return _close_last(Derivation(Rule.LOLLI_E, Sequent(
        s1.gamma + gamma, _typed_first(_without(s1.delta, i), s2.delta) + (app,)),
        (lolli_i, d_left)))


def mll_to_nmll(d: Derivation) -> Derivation:
    """Translate a checked sequent calculus derivation into natural
    deduction; the result's conclusion erases back to d's conclusion up to
    the order in which independent contexts were joined.

    Nodes are matched in preorder, then translated premises first, which
    is the order in which fresh names are drawn."""
    insts = {id(node): inst for node, inst in _matched(d)}
    names = map("c{}".format, itertools.count())
    return fold(d, premises_of,
                lambda node, subs: _to_nmll(node, insts[id(node)], subs, names))
