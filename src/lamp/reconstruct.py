"""Annotation-driven typechecking by backward proof reconstruction.

The strategy is syntax directed.  Unary rules are inverted eagerly, left to
right over the conclusion entries: ``* : bot`` entries were introduced by
BotI, close entries by BotE, parallel entries by ParrI, Send entries by
LolliI.  Once only applications, binary outputs, and variables remain, a
branching rule is inverted.  Its context split is forced: declarations and
entries form a graph with an edge whenever they share a name, and every
connected component must follow the premise seed it touches, because
premises of a rule may not share variables.  Components touching no seed
float: each placement of them among the premises is tried in turn,
leftmost first (with more than five, the leftmost alone); components
touching two seeds rule the candidate out.

A derivation is one tree.  Its leaves are the axioms, one per variable
occurrence, and its only rules with other than one premise are LolliE, one
per application, and ParrE, one per binary output.  So the terms of every
derivable sequent's entries have a surplus (variables minus applications
minus twice the binary outputs) of exactly 1.  A goal with another surplus
would need the MIX rule, which lamp lacks, and is rejected before any
search, like a goal whose atoms are unbalanced.  The search drops every
placement of floating components that leaves some premise a surplus other
than 1 before building it: such a premise has no derivation, so the first
placement that succeeds, and the derivation found, stay the same.

Unknown types (an unannotated application argument, the content types of a
binary output) become metavariables solved by first-order unification.
Metavariables still unconstrained at the end are instantiated to ``bot``;
a derivation is schematic in such types, so any instantiation checks, and
``bot`` is the one type always admitted by the subformula audit.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .derivations import Derivation, Rule, premises_of
from .terms import (
    App, Atom, BOT, Close, DeltaEntry, Dist, LinearityError, Lolli, MetaVar,
    Par, ParT, Send, Sequent, Term, TypeExpr, TypecheckError, Unit, Var,
    check_channel_linearity, children, fold, nodes, print_sequent,
    print_term, print_type, var_names,
)


class UnsatisfiableSplit(TypecheckError):
    pass


class _NoSplit(UnsatisfiableSplit):
    """The premise seeds of a branching candidate share a name.  solve
    reports this only when no candidate can be split."""


_NO_SPLIT = "premise seeds share a variable; no disjoint split exists"


def tree_counts(terms: Iterable[Term]) -> tuple[int, int, int]:
    """The variables, applications and binary outputs in terms: the Ax,
    LolliE and ParrE nodes of any derivation whose entries they are."""
    kinds = []
    stack = list(terms)
    while stack:
        s = stack.pop()
        kinds.append(type(s))
        stack += s[s._first:]
    return kinds.count(Var), kinds.count(App), kinds.count(Dist)


def _surplus(term: Term) -> int:
    """Variables minus applications minus twice the binary outputs in term
    (see the module docstring)."""
    v, a, d = tree_counts((term,))
    return v - a - 2 * d


class UnificationFailure(TypecheckError):
    pass


# reconstruct's linearity failure is the checker's, under the name lamp
# has always exported it by
LinearityViolation = LinearityError

# finalize builds what it rebuilds straight through tuple.__new__, as the
# parser does, without the Python frame of each class's constructor
_new = tuple.__new__


class _Reconstructor:
    def __init__(self, annotations: Iterable[tuple[Term, TypeExpr]]):
        self.subst: dict[MetaVar, TypeExpr] = {}
        self.ann: dict[int, tuple[Term, TypeExpr]] = {
            id(node): (node, ty) for node, ty in annotations}
        self._ids = itertools.count()
        # var_names per subterm, by id; each value holds its term, so no
        # key outlives the object it names
        self._names: dict[int, tuple[Term, set[str]]] = {}

    def names(self, term: Term) -> set[str]:
        hit = self._names.get(id(term))
        if hit is None:
            hit = self._names[id(term)] = (term, var_names(term))
        return hit[1]

    # -- unification -------------------------------------------------------

    def fresh(self) -> MetaVar:
        return MetaVar(f"?t{next(self._ids)}")

    def resolve(self, ty):
        while isinstance(ty, MetaVar) and ty in self.subst:
            ty = self.subst[ty]
        return ty

    def _kids(self, ty) -> tuple:
        """ty's children, resolved."""
        return tuple(map(self.resolve, children(ty)))

    def _occurs(self, m: MetaVar, ty) -> bool:
        return any(s == m for s in nodes(self.resolve(ty), self._kids))

    def unify(self, a, b) -> None:
        # pairs still to unify, the leftmost children's on top
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = self.resolve(a), self.resolve(b)
            # equal types are descended like unequal ones: tuple == would
            # recurse in C against the recursion limit
            if a is b:
                continue
            if isinstance(b, MetaVar) and not isinstance(a, MetaVar):
                a, b = b, a
            if isinstance(a, MetaVar):
                if a == b:  # an unknown has no children
                    continue
                if self._occurs(a, b):
                    # resolved now: backtracking rolls subst back before any str()
                    shown = self.deep_resolve(b)
                    raise UnificationFailure(
                        lambda: f"occurs check: {a.name} in {print_type(shown)}")
                self.subst[a] = b
                continue
            # same constructor and names (an atom's), then the children in turn
            if type(a) is not type(b) or a[1:a._first] != b[1:b._first]:
                ra, rb = self.deep_resolve(a), self.deep_resolve(b)
                raise UnificationFailure(
                    lambda: f"cannot unify {print_type(ra)} with {print_type(rb)}")
            stack.extend(zip(reversed(children(a)), reversed(children(b))))

    def deep_resolve(self, ty):
        return fold(self.resolve(ty), self._kids,
                    lambda s, parts: type(s)(*parts) if parts else s)

    def _as(self, cls, ty) -> tuple:
        """The two children of ty as a cls (Lolli or ParT): its own if it
        is one, else fresh unknowns it is unified with."""
        ty = self.resolve(ty)
        if type(ty) is not cls:
            shape = cls(self.fresh(), self.fresh())
            self.unify(ty, shape)
            ty = shape
        return children(ty)

    def _apply_annotation(self, term: Term, ty) -> None:
        hit = self.ann.get(id(term))
        if hit is not None and hit[0] is term:
            self.unify(ty, hit[1])

    # -- context splitting ---------------------------------------------------

    def _split(self, items: list[set[str]], seeds: list[set[str]]):
        """Partition items, the name sets of the declarations and then of
        the side entries, among premises.

        Each premise k owns the connected component of seed k in the
        share-a-name graph: owner[j] is the premise item j must go to, or
        None if its component touches no seed.  Such a component can in
        principle go anywhere (its home premise must merely be able to
        absorb it), so the components are also returned as lists of item
        indices, for the caller to place.
        """
        n_seeds = len(seeds)
        parent = list(range(n_seeds + len(items)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        by_name: dict[str, int] = {}
        for el, names in enumerate(seeds + items):
            for name in names:
                if name in by_name:
                    ri, rj = find(el), find(by_name[name])
                    if ri != rj:
                        parent[ri] = rj
                else:
                    by_name[name] = el

        seed_root: dict[int, int] = {}
        for k in range(n_seeds):
            r = find(k)
            if r in seed_root:
                raise _NoSplit(_NO_SPLIT)
            seed_root[r] = k

        owner: list[Optional[int]] = []
        floating: dict[int, list[int]] = {}
        for j in range(len(items)):
            root = find(n_seeds + j)
            owner.append(seed_root.get(root))
            if owner[j] is None:
                floating.setdefault(root, []).append(j)
        return owner, list(floating.values())

    # -- main solver ---------------------------------------------------------

    def solve(self, seq: Sequent) -> Derivation:
        gamma, delta = seq.gamma, seq.delta

        for e in delta if self.ann else ():
            if e.type is not None:
                self._apply_annotation(e.term, e.type)

        # axiom
        if len(delta) == 1 and isinstance(delta[0].term, Var) and len(gamma) == 1:
            (x, a) = gamma[0]
            if delta[0].term.name == x:
                self.unify(a, delta[0].type)
                return Derivation(Rule.AX, seq)

        # eager unary inversions
        for i, e in enumerate(delta):
            term, ty = e.term, e.type
            match term:
                case Unit():
                    self.unify(ty, BOT)
                    sub = self.solve(Sequent(gamma, delta[:i] + delta[i + 1:]))
                    return Derivation(Rule.BOT_I, seq, (sub,))
                case Close(body):
                    if ty is not None:
                        raise UnsatisfiableSplit(
                            lambda: f"close(...) entry carries a type: {print_term(term)}")
                    inner = delta[:i] + (DeltaEntry(body, BOT),) + delta[i + 1:]
                    sub = self.solve(Sequent(gamma, inner))
                    return Derivation(Rule.BOT_E, seq, (sub,))
                case Par(s, t):
                    a, b = self._as(ParT, ty)
                    inner = (delta[:i] + (DeltaEntry(s, a), DeltaEntry(t, b))
                             + delta[i + 1:])
                    sub = self.solve(Sequent(gamma, inner))
                    return Derivation(Rule.PARR_I, seq, (sub,))
                case Send(x, body):
                    a, b = self._as(Lolli, ty)
                    inner = delta[:i] + (DeltaEntry(body, b),) + delta[i + 1:]
                    sub = self.solve(Sequent(gamma + ((x, a),), inner))
                    return Derivation(Rule.LOLLI_I, seq, (sub,))

        # branching inversions: every placement of every candidate in turn,
        # each from the subst as the candidate's binding left it.  The
        # error reported is the last placement's of the first candidate
        # whose context split exists.
        candidates = [i for i, e in enumerate(delta)
                      if isinstance(e.term, (App, Dist))]
        if not candidates:
            # seq holds no subst: its text does not change on backtracking
            raise UnsatisfiableSplit(
                lambda: f"no rule applies to  {print_sequent(seq)}")
        snapshot = dict(self.subst)
        first: Optional[TypecheckError] = None
        for i in candidates:
            last: Optional[TypecheckError] = None
            try:
                rule, placements = self._branching(seq, i)
                bound = dict(self.subst)
                for premises in placements:
                    try:
                        return Derivation(rule, seq, tuple(map(self.solve, premises)))
                    except TypecheckError as err:
                        self.subst = dict(bound)
                        last = err
            except _NoSplit:
                pass
            except TypecheckError as err:
                last = err
            self.subst = dict(snapshot)
            if first is None:
                first = last
        raise first if first is not None else UnsatisfiableSplit(_NO_SPLIT)

    def _branching(self, seq: Sequent, i: int
                   ) -> tuple[Rule, Iterator[list[Sequent]]]:
        """Invert LolliE or ParrE at entry i: make the unknowns, bind what
        the rule asks of them and compute the context split, raising what
        fails.  Returns the rule and, built as they are drawn, its premises
        once per placement of the components that share no name with a
        premise seed, leftmost placement first, dropping each placement
        that leaves some premise a surplus other than 1 (raising if that
        drops them all).  Each premise gets the declarations and side
        entries the split gives it, in order, its seed entry (if any) where
        entry i stood, and the declarations its rule adds last."""
        gamma, delta = seq.gamma, seq.delta
        e = delta[i]
        rest = delta[:i] + delta[i + 1:]
        # per premise: its seed's names, and its seed entry or () with the
        # declarations its rule adds; the entry's own annotation was
        # applied on entering solve
        match e.term:
            case App(fun, arg):
                pinned, ty = arg, self.fresh()
                rule, seeds = Rule.LOLLI_E, [self.names(fun), self.names(arg)]
                adds = [((DeltaEntry(fun, Lolli(ty, e.type)),), ()),
                        ((DeltaEntry(arg, ty),), ())]
            case Dist(x, y, body):
                self.unify(e.type, BOT)
                a, b = self.fresh(), self.fresh()
                pinned, ty = body, ParT(a, b)
                rule, seeds = Rule.PARR_E, [self.names(body), {x}, {y}]
                adds = [((DeltaEntry(body, ty),), ()),
                        ((), ((x, a),)), ((), ((y, b),))]
        self._apply_annotation(pinned, ty)

        g = len(gamma)
        owner, floating = self._split(
            [{x} for x, _ in gamma] + [self.names(r.term) for r in rest], seeds)
        # a component sharing no name with any seed can live in any
        # premise; try leftmost first, backtracking across the rest
        if len(floating) > 5:
            choices = [(0,) * len(floating)]
        else:
            choices = itertools.product(range(len(seeds)), repeat=len(floating))
        if floating:
            # keep the placements that leave every premise a surplus of 1,
            # summed per premise from its fixed part and its groups'
            weight = [0] * g + [_surplus(r.term) for r in rest]
            fixed = [sum(_surplus(e.term) for e in seed) for seed, _ in adds]
            for j, k in enumerate(owner):
                if k is not None:
                    fixed[k] += weight[j]
            groups = [sum(weight[j] for j in group) for group in floating]

            def one_tree(choice) -> bool:
                sums = list(fixed)
                for w, k in zip(groups, choice):
                    sums[k] += w
                return sums.count(1) == len(sums)

            choices = list(filter(one_tree, choices))
            if not choices:
                raise UnsatisfiableSplit(
                    lambda: "no placement makes each premise one tree: "
                    + print_sequent(seq))

        def premises(choice) -> list[Sequent]:
            own = list(owner)
            for group, k in zip(floating, choice):
                for j in group:
                    own[j] = k
            out = []
            for k, (seed, decls) in enumerate(adds):
                mine = [o == k for o in own]
                out.append(Sequent(
                    tuple(itertools.compress(gamma, mine)) + decls,
                    tuple(itertools.compress(rest[:i], mine[g:])) + seed
                    + tuple(itertools.compress(rest[i:], mine[g + i:]))))
            return out

        return rule, map(premises, choices)

    def finalize(self, d: Derivation) -> Derivation:
        # solve hands a premise the very declaration tuple, declarations
        # and entries of its conclusion that the rule leaves unchanged;
        # resolving each object once keeps that sharing, which the checker
        # and the printer rely on to do per-entry work once per object.
        # A type is solved one node at a time, each distinct node once,
        # and equal solved types are one object, found by tag, names and
        # child ids: so an axiom's declaration and entry share theirs.  A
        # declaration, entry or type whose solved form is itself is kept,
        # and new nodes are built as the parser builds them.  Keyed by id:
        # every key stays alive in d, in subst or in types for the whole
        # walk.
        done: dict[int, object] = {}
        types: dict[tuple, TypeExpr] = {}

        def kids(ty) -> tuple:
            return () if id(ty) in done else self._kids(ty)

        def leave(ty, parts):
            hit = done.get(id(ty))
            if hit is None:
                ids = tuple(map(id, parts))
                new = (BOT if type(ty) is MetaVar else ty if ids == tuple(map(id, children(ty)))
                       else _new(type(ty), ty[:ty._first] + tuple(parts)))
                hit = done[id(ty)] = types.setdefault(new[:new._first] + ids, new)
            return hit

        def solved(ty):
            hit = done.get(id(ty))
            if hit is None:
                root = self.resolve(ty)  # a leaf, or a node solved already, needs no fold
                hit = done.get(id(root))
                if hit is None:
                    hit = fold(root, kids, leave) if len(root) > root._first else leave(root, ())
                done[id(ty)] = hit
            return hit

        def declaration(g: tuple) -> tuple:
            hit = done.get(id(g))
            if hit is None:
                ty = solved(g[1])
                hit = done[id(g)] = g if ty is g[1] else (g[0], ty)
            return hit

        def entry(e: DeltaEntry) -> DeltaEntry:
            hit = done.get(id(e))
            if hit is None:
                ty = None if e.type is None else solved(e.type)
                hit = done[id(e)] = (e if ty is e.type
                                     else _new(DeltaEntry, ("DeltaEntry", e.term, ty)))
            return hit

        def fix_seq(s: Sequent) -> Sequent:
            gamma = done.get(id(s.gamma))
            if gamma is None:
                gamma = done[id(s.gamma)] = tuple(map(declaration, s.gamma))
            return _new(Sequent, ("Sequent", gamma, tuple(map(entry, s.delta))))

        return fold(d, premises_of, lambda node, subs: _new(Derivation, (
            node.rule, fix_seq(node.conclusion), tuple(subs))))


def polarity_balance(seq: Sequent) -> dict[str, int]:
    """Positive minus negative occurrences of each atom in seq's types,
    non-zero counts only.  Declarations count negative and typed entries
    positive; the sign flips under the argument of -o.  An axiom links one
    occurrence of each sign and no other rule adds or drops an atom, so
    every derivable sequent gives {}."""
    bal: dict[str, int] = {}
    stack = [(ty, -1) for _, ty in seq.gamma]
    stack += [(e.type, 1) for e in seq.delta if e.type is not None]
    while stack:
        ty, sign = stack.pop()
        if isinstance(ty, Atom):
            bal[ty.name] = bal.get(ty.name, 0) + sign
        elif isinstance(ty, Lolli):
            stack.append((ty.arg, -sign))
            stack.append((ty.res, sign))
        elif isinstance(ty, ParT):
            stack.append((ty.left, sign))
            stack.append((ty.right, sign))
    return {name: n for name, n in bal.items() if n}


def _unbalanced_text(bal: dict[str, int]) -> str:
    # an atom prints as its name in lamp syntax
    short = [name for name, n in bal.items() if n == -1]
    over = [name for name, n in bal.items() if n == 1]
    if len(bal) == 2 and len(short) == len(over) == 1:
        # the one axiom link that must fail: the surplus negative
        # occurrence meets the surplus positive one
        return f"cannot unify {short[0]} with {over[0]}"
    counts = ", ".join(f"{name} {n:+d}" for name, n in sorted(bal.items()))
    return ("atoms occur unbalanced (positive minus negative occurrences): "
            + counts)


def reconstruct(goal: Sequent,
                annotations: Iterable[tuple[Term, TypeExpr]] = ()) -> Derivation:
    """Find a derivation of goal; raises a TypecheckError subclass if the
    sequent is not typable by the backward strategy.  A goal whose atoms
    are unbalanced (polarity_balance), or whose entries' surplus is not 1,
    is rejected before any search."""
    check_channel_linearity(goal)
    for e in goal.delta:
        if e.type is None and not isinstance(e.term, Close):
            raise UnsatisfiableSplit(
                f"untyped entry must be close(...): {print_term(e.term)}")
    bal = polarity_balance(goal)
    if bal:
        raise UnificationFailure(_unbalanced_text(bal))
    v, a, d = tree_counts(e.term for e in goal.delta)
    trees = v - a - 2 * d
    if trees != 1:
        raise UnsatisfiableSplit(
            f"the entries make {trees} proof trees, not 1: {v} variables - {a}"
            f" applications - 2 * {d} binary outputs; lamp has no MIX rule")
    rec = _Reconstructor(annotations)
    return rec.finalize(rec.solve(goal))
