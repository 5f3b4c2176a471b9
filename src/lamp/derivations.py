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
premises: the same objects, in each premise's order.  So the checker reads
a node's positions off the runs of identical entries the two share
(``_aligned``), each run found by slice comparisons made in C, where
identical entries compare at once: where at most one premise keeps
entries on a side, the one edit its rule makes there, after a run from
the start and a run from the other place of the edit (``_edit``); with
several, the runs paired in the interleaved order in which a binary rule
merges its premises (``_align``).  The one entry the runs leave in the
conclusion is the entry the rule adds, and the spans they leave in the
premises are the items it takes.  A conclusion that shares fewer entries
with its premises, or holds them in another order, is searched instead
(``_search``).  The runs only decide where to look: every rule condition
is still checked on values.

``check_derivation`` matches each node once, in preorder.  Two conditions
on a node's premises are not tested node by node (``instances``), so no
premise entry is read for them: over nodes that are all rule instances
otherwise, no two premises share a name iff no two axioms do, and a
LolliI's abstracted name occurs free in its premise wherever the
premise's subtree matches.  A derivation that fails is matched again, in
preorder and each node in full, up to the first node that fails, which
is reported (``_raise_first``): the walk ``mll.check_mll`` makes
(``_matched``).

Each rule with premises is written once, in FORWARD: where a sequent can
serve as each premise (``spots``), the entry the rule adds and where it
goes.  The random generator (testlab) draws from that table, and the
checker walks it: a node is an instance of rule R when premise positions
R's listers accept, and the place of the entry the conclusion has beyond
the premises, make R's builder give the node's conclusion up to the
exchange R allows.  Of such positions, the first in the order of nested
loops are reported: those the runs give, moved to the first equal copy
where the exchange allows it, or else those a search over the values a
multiset difference leaves over finds first.  ``match_rule`` returns
them, with the component types, as a dict, as ``mll.match_mll`` does; the
sequent-calculus translators reuse it to drive their constructions off
checked trees instead of re-searching.
"""

from __future__ import annotations

import itertools
from enum import Enum
from itertools import chain
from operator import attrgetter, itemgetter
from typing import (
    Any, Callable, Hashable, Iterator, NamedTuple, Optional, Sequence,
)

# the typing errors and the linearity check live in terms and are exported
# here too, where they were first
from .terms import (
    App, BOT, Bot, Close, DeltaEntry, Dist, LinearityError, Lolli, Par, ParT,
    Send, Sequent, TypeExpr, TypecheckError, UNIT, Var,
    check_channel_linearity, equal, is_free_in, nodes, preorder, sequent_names,
)


class Rule(Enum):
    # members are singletons: hashing them by identity runs in C, where
    # Enum's own hash of the name is a Python call
    __hash__ = object.__hash__

    AX = "Ax"
    LOLLI_I = "LolliI"
    LOLLI_E = "LolliE"
    PARR_I = "ParrI"
    PARR_E = "ParrE"
    BOT_I = "BotI"
    BOT_E = "BotE"


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


# what _align leaves unpaired before it stops: a rule's principal entries
# are at most three, on either side
_LOOSE = 8


def _edit(a: Sequence, p: Sequence, added: int, dropped: int) -> Optional[tuple]:
    """Where p turns into a by adding `added` entries at one place and
    dropping `dropped` at one place, each where a run of identical
    entries (_run) from the start or from the other place ends: (place
    in a, place in p), or None."""
    if len(p) - len(a) + added != dropped:
        return None
    lo = _run(a, 0, p, 0) if a and p and a[0] is p[0] else 0
    for x, y in ((0, 0), (added, 0), (0, dropped)):  # one place, or which first
        i, k = lo + x, lo + y
        r = _run(a, i, p, k) if i < len(a) and k < len(p) and a[i] is p[k] else 0
        if lo + r + added <= len(a) and a[lo + r + added:] == p[lo + r + dropped:]:
            return lo + r * (not x), lo + r * (not y)
    return None


def _align(a: Sequence, parts: Sequence[Sequence]) -> tuple[list, list]:
    """Pair entries of a with equal entries of the parts, in maximal runs
    (_run) that each start at an identical pair, in interleaved order;
    return the positions left unpaired in a, in order, and the spans
    (part, from, to) left unpaired in the parts, by part and in order.

    A cursor walks each part: where a's next entry is the object at the
    cursor of a part, the run the two share is paired and both advance
    past it (of several such parts, the longest run wins); where it is
    one or two places behind a cursor, the entries before it were
    dropped; where it is at none of those places, a added it.  After
    _LOOSE entries left over one at a time, the input is not a rule's
    shared shape and all the rest is left over."""
    at = [0] * len(parts)
    extra: list[int] = []
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
        for m, p in enumerate(parts):
            w = (*p[at[m] + 1:at[m] + 3], None, None)
            if w[0] is x or w[1] is x:
                dropped = 1 if w[0] is x else 2
                gaps.append((m, at[m], at[m] + dropped))
                at[m] += dropped
                break
        else:
            extra.append(i)
            i += 1
    extra += range(i, len(a))
    return extra, sorted(gaps + [(m, k, len(p)) for m, (k, p) in enumerate(zip(at, parts))
                                 if k < len(p)])


def _interleaving(target: Sequence, parts: Sequence[Sequence]) -> Optional[list[int]]:
    """How target merges the parts preserving each part's order: the part
    each item of target comes from, or None if it does not.  By search:
    depth first with an explicit stack, trying the parts in order at each
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
            return [m for _, m in trail]
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
            return None
        state, k = trail.pop()
        k += 1


def multiset_diff(a: Sequence, *parts: Sequence) -> tuple[list, list]:
    """What a holds beyond the parts together, and what they hold beyond a,
    as multisets, each in order.  Each entry of the parts pairs with the
    first equal one left in a, found by a scan in C, where identical
    entries compare at once and unequal ones at their first difference,
    instead of hashing whole terms.  Equal entries mostly sit in the same
    order, so each finds its partner near the front.  Which copies of
    equal entries pair can change which objects are returned and their
    order, but never the values returned, as multisets, which is all a
    rule reads from them."""
    rest, missing = list(a), []
    for x in chain(*parts):
        if x in rest:
            rest.remove(x)
        else:
            missing.append(x)
    return rest, missing


def _where(entries: tuple, e) -> list[int]:
    """The positions of the entries equal to e, in order."""
    return [k for k, x in enumerate(entries) if x == e]


def _gamma(gammas: dict, s: Sequent, path, what: str) -> dict:
    """s's declarations as a dict, or a RuleViolation if s declares a name
    twice.  gammas keeps each dict made while matching the nodes of one
    derivation, by the id of the declaration tuple, so a node's match
    builds it for its premises and the premises' own matches reuse it,
    as does every node that holds the same tuple (a unary rule that keeps
    its declarations passes its premise's on): valid while the tuples it
    has seen are alive, which the derivation being checked guarantees."""
    d = gammas.get(id(s.gamma))
    if d is None:
        d = dict(s.gamma)
        if len(d) != len(s.gamma):
            raise RuleViolation(path, f"{what} declares a variable twice")
        gammas[id(s.gamma)] = d
    return d


def _premises_disjoint(node: Derivation, path) -> None:
    """A violation where two premises of node share a name, read from
    their sequents."""
    used = [sequent_names(p.conclusion) for p in node.premises]
    for i in range(len(used)):
        for j in range(i + 1, len(used)):
            if not used[i].isdisjoint(used[j]):
                raise RuleViolation(path, f"premises {i} and {j} share variables "
                                          f"{sorted(used[i] & used[j])}")


_STAR = DeltaEntry(UNIT, BOT)


# ---------------------------------------------------------------------------
# The rules, each written once, as data: the generator (testlab) draws from
# these tables, natural deduction's here and the sequent calculus's in mll,
# and the checker walks natural deduction's.  A sequent of either calculus
# is a (tag, side 0, side 1) tuple: declarations and entries, or left and
# right.

def spots(sides: tuple[int, ...] = (), fits: Optional[Callable[..., bool]] = None,
          width: int = 1) -> Callable[[tuple, Hashable], Sequence]:
    """The lister of where a sequent s can serve as one premise of a rule,
    given v, what the premise reads of the premises before it
    (ForwardRule.reads).  A position holds one index per entry of sides,
    into side k of s for k 0 or 1, or, in a pair, into v for k 2 or 3,
    where v is side k - 2 of the premise before; it is None for a premise
    taken whole, the index itself for one.  An index takes width items
    from there.  The lister lists the positions whose items, followed by
    v, fit, in the order of nested loops over the sides; it keeps sides,
    fits and width as attributes, which the checker reads."""
    if not sides:
        def lister(s, v):
            return (None,)  # the one position of a premise taken whole
    elif len(sides) == 2:
        i, j = sides

        def lister(s, v):
            a = v if i > 1 else s[1 + i]
            b = v if j > 1 else s[1 + j]
            pairs = itertools.product(range(len(a)), range(len(b)))
            if fits is None:
                return list(pairs)
            return [(p, q) for p, q in pairs if fits(a[p], b[q], v)]
    elif width == 2:
        k = 1 + sides[0]

        def lister(s, v):
            a = s[k]
            if fits is None:
                return range(len(a) - 1)
            return [p for p in range(len(a) - 1) if fits(a[p], a[p + 1], v)]
    else:
        k = 1 + sides[0]

        def lister(s, v):
            return range(len(s[k])) if fits is None else \
                [p for p, x in enumerate(s[k]) if fits(x, v)]
    lister.sides, lister.fits, lister.width = sides, fits, width
    return lister


def _nothing(*items) -> dict:
    return {}  # a rule's record, by default


class ForwardRule(NamedTuple):
    """A rule with premises, read forward by the generator and, in natural
    deduction, backward by the checker.  premises[n] lists where a sequent
    can serve as premise n (a ``spots`` lister), given reads[n - 1](prev)
    for n > 0, where prev holds the (sequent, position) pairs chosen for
    premises 0..n-1; a read depends on the items at those positions, not
    on where they are.  The conclusion has each side of the premises, in
    order, without the items their positions take; new(*items) is the
    entry (or formula) the rule adds on side `side` (None: it adds none),
    at the place at(seqs, positions, draw) gives, where draw(n) picks one
    of 0..n.  For the checker, an instance reports, by names, the new
    entry's place and each index, and record(*items); reason is the
    violation of a node that is none."""

    premises: tuple[Callable[[tuple, Hashable], Sequence], ...]
    new: Callable
    names: str = ""
    reason: str = ""
    record: Callable[..., dict] = _nothing
    at: Callable = lambda seqs, positions, draw: positions[0]
    reads: tuple[Callable[[tuple], Hashable], ...] = ()
    side: Optional[int] = 1

    def conclusion(self, seqs: tuple, positions: tuple, draw=None,
                   at: Optional[int] = None) -> tuple:
        """The conclusion over premises concluding seqs, at positions; the
        new entry at `at`, by default where self.at puts it."""
        flat: list = []
        for p in positions:
            if type(p) is tuple:
                flat += p
            elif p is not None:
                flat.append(p)
        if len(seqs) == 1:  # a unary rule: each side its premise's
            sides = list(seqs[0][1:])
            items = []
            for (_, s, w), p in zip(_plan(self)[1], flat):
                part = sides[s - 1]
                items += part[p:p + w]
                sides[s - 1] = part[:p] + part[p + w:]
        else:
            parts = [None, list(map(_SIDES[1], seqs)), list(map(_SIDES[2], seqs))]
            items = []
            for (q, s, w), p in zip(_plan(self)[1], flat):
                part = parts[s][q]
                items += part[p:p + w]
                parts[s][q] = part[:p] + part[p + w:]
            sides = [_joined(ps) for ps in parts[1:]]
        if self.side is not None:
            if at is None:
                at = self.at(seqs, positions, draw)
            s = sides[self.side]
            sides[self.side] = s[:at] + (self.new(*items),) + s[at:]
        return type(seqs[0])(*sides)


_SIDES = (None, itemgetter(1), itemgetter(2))  # a sequent's sides, by tuple index
_PLANS: dict[Hashable, tuple] = {}  # by rule id and exchange; _match's by rule


def _plan(fr: ForwardRule, exchange: tuple = (None, None)) -> tuple:
    """What checking or building fr reads, computed once per rule and
    exchange (see _aligned; the rule is kept, so its id stays its own):
    (premise, tuple index of the side, width) per index; the items taken
    from each side, by tuple index; the sides to take a multiset
    difference of, each with its tuple index, whether the new entry is
    there and the items taken; the sides compared, each with its tuple
    index, exchange and whether more than one item taken there must be
    checked to be what the difference left; per premise, where its
    position is among the indices (an index, a slice, or None); per
    premise with a fit test, the test, its read, the premise's number and
    the slice of the items that are its own; the instance keys of the new
    entry's place and of each index; per side compared, what _aligned
    reads: its tuple index, whether the new entry is there, the width
    taken from each premise, and the (premise, width) and (number,
    premise, width) of each index there; and by tuple index, whether the
    side is matched as a multiset.  Declarations no index takes are not
    compared: the checker compares them first."""
    got = _PLANS.get((id(fr), exchange))
    if got is None or got[0] is not fr:
        idx = tuple((n - (k > 1), 1 + k % 2, sp.width)
                    for n, sp in enumerate(fr.premises) for k in sp.sides)
        shapes, fits, t, u = [], [], 0, 0
        for n, sp in enumerate(fr.premises):
            m, w = len(sp.sides), len(sp.sides) * sp.width
            shapes.append(None if m == 0 else t if m == 1 else slice(t, t + m))
            if sp.fits is not None:
                fits.append((sp.fits, fr.reads[n - 1] if n else None, n,
                             slice(u, u + w)))
            t, u = t + m, u + w
        taking = [0] + [sum(w for _, ss, w in idx if ss == s) for s in (1, 2)]
        side = None if fr.side is None else 1 + fr.side
        key, exchange = exchange, (exchange[0] if taking[1] else None, exchange[1])
        diffs = [(s, side == s, taking[s]) for s, how in enumerate(exchange, 1)
                 if how not in (None, "order") or taking[s] or side == s]
        # more than one item taken from a side matched as a multiset must be
        # what the difference left there; an interleaving holds them only
        # if they are
        checks = [(s, how, taking[s] > 1 and how == "multiset")
                  for s, how in enumerate(exchange, 1) if how is not None]
        aligned = []
        for s in (s for s, how in enumerate(exchange, 1) if how is not None):
            ks = [(k, q, w) for k, (q, ss, w) in enumerate(idx) if ss == s]  # by premise
            widths = [sum(w for _, qq, w in ks if qq == q)
                      for q in range(len(fr.premises))]
            aligned.append((s, side == s, widths, [(q, w) for _, q, w in ks], ks))
        loose = [how == "multiset" for how in (None, *exchange)]  # by tuple index
        got = _PLANS[id(fr), key] = (fr, idx, taking, diffs, checks, shapes, fits,
                                     fr.names.split(), aligned, loose)
    return got


def _aligned(plan: tuple, con: tuple, seqs: tuple) -> Optional[dict[str, Any]]:
    """The instance data at a node concluding con over premises concluding
    seqs of the rule fr whose plan (_plan) for an exchange this is, read
    off the runs of identical entries, or None.  exchange[k] says how side
    k + 1 of con, its declarations or its entries, must match fr's
    conclusion: "order", exactly; "multiset"; "interleave", the new entry
    anywhere and the rest merging each premise's entries in order; None,
    not at all.

    On each side compared, the one entry the runs leave in con is the new
    entry, and the one span they leave in a premise an index, of its
    width: the one edit _edit finds where at most one premise keeps
    entries on the side, else the runs _align pairs.  Runs pair in each
    premise's order, so what they pair is con without the new entry, as
    the premises merge without the items taken: in order with one
    premise, interleaved with several, which is all the exchanges
    _ND_EXCHANGE ask.  Of the positions that make an instance, the first
    in the order of nested loops over the new entry's place and each index
    is reported, as _search reports it: where an equal copy of the new
    entry, or of an index's one item, comes first, the copy is taken on a
    side matched as a multiset, where either leaves the same multiset;
    elsewhere None is returned.  An item's value ahead of another premise's
    index is not looked for: no rule of FORWARD takes it there (a function
    entry's type is never its argument's, and a name two premises declare
    breaks their disjointness).  None too where the runs leave anything
    else, or the items do not fit or do not make the new entry.  An entry
    they make holds each item's term, so it is none of them: the multiset
    difference _search takes leaves the same entry and items."""
    fr, idx, _, _, _, _, _, _, aligned, loose = plan
    flat = [0] * len(idx)
    for s, adds, widths, shape, ks in aligned:
        live = [q for q, p in enumerate(seqs) if len(p[s]) != widths[q]] \
            if seqs[1:] else [0]
        m = live[0] if live else 0
        got = len(live) < 2 and _edit(con[s], seqs[m][s], adds, widths[m])
        if got:  # one premise keeps entries here, or none: its one edit
            for k, q, _ in ks:
                flat[k] = got[1] if q == m else 0
            if adds:
                at = got[0]
            continue
        extra, spans = _align(con[s], [p[s] for p in seqs])
        if len(extra) != adds or [(q, hi - lo) for q, lo, hi in spans] != shape:
            return None
        for (k, _, _), span in zip(ks, spans):
            flat[k] = span[1]
        if adds:
            at = extra[0]
    c = con[1 + fr.side]
    e = c[at]
    if c.index(e) != at:  # an equal copy comes first: as good in a multiset
        if not loose[1 + fr.side]:
            return None
        at = c.index(e)
    items = []
    for k, (q, s, w) in enumerate(idx):
        side, p = seqs[q][s], flat[k]
        taken = side[p:p + w]
        if p and min(map(side.index, taken)) < p:
            if w > 1 or not loose[s]:
                return None
            flat[k] = side.index(taken[0])
        items += taken
    return _made(plan, seqs, items, e, at, flat)


def _search(plan: tuple, con: tuple, seqs: tuple) -> Optional[dict[str, Any]]:
    """_aligned's instance data, by search.  The items a rule takes are
    what a multiset difference between con and the premises leaves over on
    each side, and its new entry is what con has beyond them.  An index's
    positions are those holding an item left on its side (_where), the
    new entry's those holding it (only the first, unless the entries
    interleave); they are tried in the order of nested loops until the
    sides match: the premises' entries one after another, one comparison
    in C, else an interleaving (_interleaving)."""
    fr, idx, _, diffs, checks, *_ = plan
    left: list = [None, None, None]  # by tuple index
    for s, adds, taking in diffs:
        extra, missing = multiset_diff(con[s], *map(_SIDES[s], seqs))
        if len(extra) != adds or len(missing) != taking:
            return None
        left[s] = missing
        if adds:
            e = extra[0]
    cands = []  # each index's positions; a pair's second item is left too
    for q, s, w in idx:
        items, values = seqs[q][s], left[s]
        ps = sorted({p for v in values for p in _where(items, v)})
        cands.append(ps if w == 1 else
                     [p for p in ps if p + 1 < len(items) and items[p + 1] in values])
    c = con[1 + fr.side]
    for at in _where(c, e) if "interleave" in (how for _, how, _ in checks) \
            else (c.index(e),):
        for flat in itertools.product(*cands):
            items = []
            for (q, s, w), p in zip(idx, flat):
                items += seqs[q][s][p:p + w]
            for s, how, several in checks:  # the sides match?
                if several and not _same([x for (q, ss, w), p in zip(idx, flat) if ss == s
                                          for x in seqs[q][s][p:p + w]], left[s]):
                    break
                if how != "multiset":
                    rests = list(map(_SIDES[s], seqs))  # without the items taken
                    for (q, ss, w), p in zip(idx, flat):
                        if ss == s:
                            rests[q] = rests[q][:p] + rests[q][p + w:]
                    rest = _without(con[s], at) if how == "interleave" else con[s]
                    if _joined(rests) != rest and (
                            how == "order" or _interleaving(rest, rests) is None):
                        break
            else:
                got = _made(plan, seqs, items, e, at, flat)
                if got:
                    return got
    return None


def _made(plan: tuple, seqs: tuple, items: list, e, at: int,
          flat: Sequence[int]) -> Optional[dict[str, Any]]:
    """The instance data where the items taken at positions flat fit their
    premises and make the new entry e, at `at`, or None."""
    fr, _, _, _, _, shapes, fits, names, _, _ = plan
    for fit, read, n, us in fits:
        if read is not None:  # what premise n reads of those before it
            read = read(tuple(zip(seqs, [None if sh is None else flat[sh]
                                         for sh in shapes[:n]])))
        if not fit(*items[us], read):
            return None
    if fr.new(*items) != e:
        return None
    inst = fr.record(*items)
    inst.update(zip(names, (at, *flat)))
    return inst


def _joined(parts: list) -> tuple:
    return parts[0] if len(parts) == 1 else tuple(chain(*parts))


def _same(a: list, b: list) -> bool:
    """Whether the short lists a and b hold the same values as multisets."""
    return len(a) == len(b) and all(a.count(x) == b.count(x) for x in a)


def _declared(d: tuple, a: TypeExpr) -> bool:
    return d[1] == a  # a declaration of type a


def _principal(prev: tuple) -> DeltaEntry:
    s, j = prev[0]
    return s.delta[j]


FORWARD: dict[Rule, ForwardRule] = {
    Rule.BOT_I: ForwardRule(
        (spots(),), lambda: _STAR, "i", "BotI must add one entry  * : bot",
        at=lambda seqs, positions, draw: len(seqs[0].delta)),
    Rule.BOT_E: ForwardRule(
        (spots((1,), lambda e, v: e.type == BOT),),
        lambda e: DeltaEntry(Close(e.term), None), "i j",
        "BotE must close one entry of type bot"),
    Rule.LOLLI_I: ForwardRule(
        (spots((0, 1), lambda d, e, v: e.type is not None),),
        lambda d, e: DeltaEntry(Send(d[0], e.term), Lolli(d[1], e.type)),
        "i gamma_pos j", "LolliI must abstract one declaration into a Send",
        lambda d, e: {"x": d[0], "a": d[1], "b": e.type},
        at=lambda seqs, positions, draw: positions[0][1]),
    Rule.PARR_I: ForwardRule(
        (spots((1,), lambda e1, e2, v: e1.type is not None
               and e2.type is not None, 2),),
        lambda e1, e2: DeltaEntry(Par(e1.term, e2.term), ParT(e1.type, e2.type)),
        "i j", "ParrI must merge two adjacent typed entries",
        lambda e1, e2: {"a": e1.type, "b": e2.type}),
    Rule.LOLLI_E: ForwardRule(
        (spots((1,), lambda e, v: isinstance(e.type, Lolli)),
         spots((1,), lambda e, arg: e.type == arg)),
        lambda fn, arg: DeltaEntry(App(fn.term, arg.term), fn.type.res),
        "i j1 j2", "LolliE must apply a function entry to an argument entry "
                   "from the other premise",
        lambda fn, arg: {"a": fn.type.arg, "b": fn.type.res},
        reads=(lambda prev: _principal(prev).type.arg,)),
    Rule.PARR_E: ForwardRule(
        (spots((1,), lambda e, v: isinstance(e.type, ParT)),
         spots((0,), _declared), spots((0,), _declared)),
        lambda e, dx, dy: DeltaEntry(Dist(dx[0], dy[0], e.term), BOT),
        "i j gamma_pos_x gamma_pos_y", "ParrE must consume a par entry and one "
                                       "declaration from each receiving premise",
        lambda e, dx, dy: {"x": dx[0], "y": dy[0], "a": dx[1], "b": dy[1]},
        reads=(lambda prev: _principal(prev).type.left,
               lambda prev: _principal(prev).type.right)),
}

# premises per rule: none for the axiom, else as many as its table lists
ARITY = {Rule.AX: 0, **{rule: len(fr.premises) for rule, fr in FORWARD.items()}}


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
    # arity lists every rule of one enum, so a premise's rule is listed
    # iff it is of rule's enum: a class test
    for k, p in enumerate((node, *prems)):
        if type(p.rule) is type(rule) and type(p.conclusion) is sequent:
            continue
        at = path + (k - 1,) if k else path
        if type(p.rule) is not type(rule):
            raise RuleViolation(at, f"unknown rule {p.rule!r}")
        if type(p.conclusion) is not sequent:
            raise RuleViolation(at, f"conclusion is {type(p.conclusion).__name__}, "
                                    f"expected {sequent.__name__}")


def match_rule(node: Derivation, path: tuple[int, ...] = ()) -> dict[str, Any]:
    """Verify that node instantiates its rule and return the instance data.
    Subderivations are not descended into (see check_derivation)."""
    return _match(node, path, {})


# how a unary and a binary rule match: declarations, then entries
_ND_EXCHANGE = ("order", "multiset"), ("multiset", "interleave")
_PREMISES = "premise 0", "premise 1", "premise 2"
_conclusion = attrgetter("conclusion")


def _match(node: Derivation, path: tuple[int, ...], gammas: dict,
           defer: bool = False) -> dict[str, Any]:
    """match_rule: an axiom by its one shape, any other rule by a walk of
    FORWARD (_aligned, else _search).  A unary rule's entries match its
    conclusion as multisets: the comma is a par, and derivation surgery
    (grafting a subproof over an axiom leaf) permutes conclusions exactly
    as the calculus allows; its declarations match in order.  A binary
    rule's declarations match as multisets, its entries as an interleaving
    of its premises'.  Declarations a rule passes on unchanged are
    compared first, each premise's checked for duplicates unless they are
    the conclusion's.  With defer, that the premises share no name and
    LolliI's no weakening are left to instances, which reads both off the
    whole tree."""
    rule, con, prems = node.rule, node.conclusion, node.premises
    _well_formed(node, ARITY, Sequent, path)
    cg = _gamma(gammas, con, path, "conclusion")
    if not defer and len(prems) > 1:
        _premises_disjoint(node, path)
    if not prems:
        match con:
            case Sequent(((x, a),), (DeltaEntry(Var(y), b),)) \
                    if x == y and (a is b or equal(a, b)):
                return {}
        raise RuleViolation(path, "axiom must be  x : A |- x : A")
    fr = FORWARD[rule]
    seqs = tuple(map(_conclusion, prems))
    plan = _PLANS.get(rule)  # _plan's, by rule
    if plan is None or plan[0] is not fr:
        plan = _PLANS[rule] = _plan(fr, _ND_EXCHANGE[len(seqs) > 1])
    kept = not plan[2][1]  # no declaration taken: compared here first
    if kept and len(seqs) == 1:
        if seqs[0].gamma != con.gamma:
            raise RuleViolation(path, f"{rule.value} must not change declarations")
    else:
        gs = [_gamma(gammas, s, path, what) for s, what in
              zip(seqs, ("premise",) if len(seqs) == 1 else _PREMISES)]
        if kept:
            joined = {}
            for g in gs:
                joined.update(g)
            if joined != cg or sum(map(len, gs)) != len(cg):
                raise RuleViolation(path, f"{rule.value} must join the premise "
                                          f"declarations")
    inst = _aligned(plan, con, seqs) or _search(plan, con, seqs)
    if inst is None:
        raise RuleViolation(path, fr.reason)
    # the one condition deferred that is not about shape: a LolliI's
    # abstracted name occurs free in its premise, read from its entries
    if not defer and rule is Rule.LOLLI_I \
            and not any(is_free_in(inst["x"], e.term) for e in seqs[0].delta):
        raise RuleViolation(path, f"abstracted {inst['x']!r} occurs neither in the "
                                  f"principal term nor elsewhere (no weakening)")
    return inst


def check_derivation(d: Derivation) -> None:
    """Raise RuleViolation at the first node, in preorder, that is not a
    rule instance."""
    instances(d)


def instances(d: Derivation) -> dict[int, dict[str, Any]]:
    """Every node's instance data, by the node's id, each node matched in
    preorder; raises check_derivation's RuleViolation.

    Two conditions on a node's premises are read off the whole tree once
    every node matches.  That they share no name holds at every node iff
    no two axioms share a name: an axiom's conclusion uses its one name,
    and no rule instance adds or drops a name (LolliI and ParrE turn
    declarations into binders), so a node's conclusion uses exactly the
    names of the axioms above it, and two axioms that share a name, or
    one axiom met twice, meet at a node whose premises then share it.
    That a LolliI's abstracted name occurs free in its premise holds
    wherever the premise's subtree matches: an axiom's name occurs free,
    and a declared name stays free through every rule instance.  On a
    violation, d is matched again in preorder, each node in full, which
    locates the first node that fails (_raise_first)."""
    gammas, data, names, axioms = {}, {}, set(), 0
    for node in nodes(d, premises_of):
        try:
            data[id(node)] = _match(node, (), gammas, True)
        except RuleViolation:
            _raise_first(d)
        if not node.premises:
            names.add(node.conclusion.gamma[0][0])  # an axiom's one name
            axioms += 1
    if len(names) != axioms:
        _raise_first(d)
    return data


def _raise_first(d: Derivation):
    """Raise the first violation in d, in preorder: each node matched in
    full (_match without defer), as match_rule matches it, until one
    fails."""
    gammas: dict = {}
    for _ in _matched(d, lambda node: _match(node, (), gammas)):
        pass
    raise AssertionError("no node of a failing derivation fails")


def _matched(d: Derivation, match: Callable) -> Iterator[tuple[Derivation, Any]]:
    """(node, match(node)) for every node of d, in preorder, in either
    calculus.  A path is built only for a node that fails: the first path
    of that node object, where the walk met it first, since a match reads
    only the node and its premises, then the path from there."""
    for node in nodes(d, premises_of):
        try:
            yield node, match(node)
        except RuleViolation as err:
            path = next(p for p, n in preorder(d, premises_of) if n is node)
            raise RuleViolation(path + err.path, err.reason) from None
