"""Reduction for lamp terms: redex discovery, firing, and normalization.

A single constructor, Send, is both the lambda and the output channel, so
every rule has one shape: an activator is replaced by its continuation and
hands one value to each of its channels.  ``fire`` writes the rules down
once; everything else here and in the runtime only chooses receivers.

* beta      -- ``(lam x. u) v`` anywhere, with x free in u;
* comm      -- an applied output ``(out x. u) v`` whose unique free
               occurrence of x sits across a parallel composition: the
               least common ancestor of activator and receiver is a Par;
* dist      -- ``out2 x y. (s | t)`` whose free x and y occurrences each
               have a Par as least common ancestor with the activator.

The single LCA-is-Par condition realizes the left/right variants of the
communication rules and their closure under arbitrary contexts at once;
receivers inside the activator itself never qualify because the LCA is
then the activator node.  Every fired step removes exactly one Send or
Dist node and moves (never copies) the transmitted terms, so on linear
terms the communication size decreases by exactly one per step, which
bounds every reduction sequence.

Redexes are found on one ``_scan`` of a term, which gives every position
as a parent-linked cell (see ``terms``); the LCA test climbs cells, and
``_reduct`` builds a reduct with ``terms._put`` at the cells of the scan
that found its redex.  ``normalize``, ``enumerate_normal_forms``, cbv and
the runtime fire straight from the scan; ``find_redexes`` and
``apply_redex`` speak in paths, for callers that hold a redex across
calls, and ``apply_redex`` checks that it still matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Sequence

from .terms import (
    App, Cell, Close, Dist, Par, Path, Send, Term, UNIT, Var, _Scan,
    _cells_at, _path, _put, _scan, children, is_free_in, nodes, print_term,
    split_joined, substitute, subterm_at,
)

class StaleRedex(Exception):
    pass


class BudgetExceeded(Exception):
    def __init__(self, visited: int):
        super().__init__(f"state budget exceeded after {visited} states")
        self.visited = visited


@dataclass(frozen=True)
class Redex:
    kind: str  # "beta" | "comm" | "dist"
    activator: Path
    receivers: tuple[Path, ...] = ()

    def describe(self, root: Term) -> str:
        if self.kind == "beta":
            return "Beta"
        return _step_text(self.kind, fire(subterm_at(root, self.activator))[2])


@dataclass
class Trace:
    initial: Term
    steps: list[tuple[str, Term]]

    @property
    def final(self) -> Term:
        return self.steps[-1][1] if self.steps else self.initial

    def render(self) -> str:
        """The initial state, then one line per step.  The states share
        all but the subterms each step rebuilt, so they print through one
        span memo (see terms.print_term), whose nodes self keeps alive."""
        memo: dict = {}
        lines = [print_term(self.initial, memo)]
        for k, (desc, term) in enumerate(self.steps, start=1):
            lines.append(f"step {k}: {desc} => {print_term(term, memo)}")
        return "\n".join(lines)


def comm_size(t: Term) -> int:
    """Number of Send and Dist nodes in t."""
    return sum(1 for s in nodes(t, children) if isinstance(s, (Send, Dist)))


def fire(node: Term, lams: Optional[set[int]] = None) -> Optional[tuple]:
    """The reduction rules, written once.  If node is an activator, return
    its kind, the continuation that replaces it, and the value it hands to
    each of its channels; otherwise None.  A beta's one channel is bound in
    its own continuation; comm and dist send across a Par.  lams, the
    lambdas of a _scan over a term holding node, answers that without a
    walk of the continuation."""
    match node:
        case App(Send(x, u) as send, v):
            lam = id(send) in lams if lams is not None else is_free_in(x, u)
            return ("beta" if lam else "comm"), u, ((x, v),)
        case Dist(x, y, Par(s, t)):
            return "dist", UNIT, ((x, s), (y, t))
    return None


def _step_text(kind: str, sends) -> str:
    if kind == "beta":
        return "Beta"
    return " ".join([kind.capitalize()] + [x for x, _ in sends])


def _above(c: Cell) -> set[int]:
    """The ids of cell c and of every cell above it.  They stay unique
    while c is held, since c holds them all."""
    out = set()
    while c is not None:
        out.add(id(c))
        c = c[0]
    return out


def _across_par(above: set[int], c: Cell) -> bool:
    """Whether the least common ancestor of cell c and the cell whose
    _above is above, both of one scan, is a Par."""
    while id(c) not in above:
        c = c[0]
    return type(c[2]) is Par


def _redexes(scan: _Scan) -> Iterator[tuple[Cell, tuple, tuple[Cell, ...]]]:
    """(activator cell, its firing, receiver cells) of every redex of the
    scanned term, in find_redexes' order, one at a time."""
    for act in scan.acts:
        firing = fire(act[2], scan.lams)
        if firing[0] == "beta":
            # a beta's receiver is in its own continuation: nothing to choose
            yield act, firing, ()
            continue
        above = _above(act)
        choices = [[c for c in scan.free.get(x, ()) if _across_par(above, c)]
                   for x, _ in firing[2]]
        # activators come in preorder and each receiver list in preorder,
        # so the product is already in (activator, receivers) order
        for recv in product(*choices):
            yield act, firing, recv


def _reduct(act: Cell, firing: tuple, receivers: Sequence[Cell]) -> Term:
    """The term whose scan holds act and receivers, with the activator at
    act fired: its continuation in its place, a beta's value substituted
    into it, and each other value at its receiver, paired with sends in
    order."""
    kind, cont, sends = firing
    if kind == "beta":
        ((x, v),) = sends
        return _put([(act, substitute(cont, x, v))])
    return _put([(act, cont)]
                + [(c, v) for c, (_, v) in zip(receivers, sends, strict=True)])


def _in_paths(act: Cell, firing: tuple, receivers: Sequence[Cell]) -> Redex:
    """The redex at the cells of one scan, named by paths."""
    return Redex(firing[0], _path(act), tuple(map(_path, receivers)))


def find_redexes(t: Term) -> list[Redex]:
    """All redexes of t in leftmost-outermost activator order, read off one
    _scan of t."""
    return [_in_paths(*found) for found in _redexes(_scan(t))]


def apply_redex(t: Term, r: Redex) -> Term:
    """Fire one redex.  Raises StaleRedex if r does not match t anymore."""
    cells = _cells_at(t, (r.activator, *r.receivers))
    act = next(cells)
    firing = fire(act[2])
    if firing is None or firing[0] != r.kind:
        raise StaleRedex(f"activator is not a {r.kind} redex")
    if r.kind == "beta":
        return _reduct(act, firing, ())
    receivers = tuple(cells)
    above = _above(act)
    for (x, _), c in zip(firing[2], receivers, strict=True):
        if c[2] != Var(x) or not _across_par(above, c):
            raise StaleRedex(f"receiver for {x!r} no longer valid")
    return _reduct(act, firing, receivers)


def normalize(t: Term) -> Trace:
    """Reduce t to normal form, always firing the first redex in
    leftmost-outermost order, found and fired off one _scan per step.
    Terminates because every step removes one Send or Dist node."""
    trace = Trace(t, [])
    while True:
        first = next(_redexes(_scan(t)), None)
        if first is None:
            return trace
        act, firing, receivers = first
        t = _reduct(act, firing, receivers)
        trace.steps.append((_step_text(firing[0], firing[2]), t))


def enumerate_normal_forms(t: Term, max_states: int = 100_000) -> set[Term]:
    """Breadth-first exploration of every redex choice at every state,
    each reduct built from the one _scan of its state.

    Returns the set of syntactically distinct normal forms reached.
    Raises BudgetExceeded once more than max_states states are visited.
    """
    seen: set[Term] = set()
    normal: set[Term] = set()
    frontier = [t]
    seen.add(t)
    while frontier:
        nxt: list[Term] = []
        for s in frontier:
            fired = False
            for act, firing, receivers in _redexes(_scan(s)):
                fired = True
                s2 = _reduct(act, firing, receivers)
                # one lookup per reduct, whose hash tuple recomputes in C
                # over every node (it keeps none): seen grows iff s2 is new
                before = len(seen)
                seen.add(s2)
                if len(seen) > before:
                    if len(seen) > max_states:
                        raise BudgetExceeded(len(seen))
                    nxt.append(s2)
            if not fired:
                normal.add(s)
        frontier = nxt
    return normal


# ---------------------------------------------------------------------------
# Call-by-value evaluation.  Evaluation contexts:
#     E ::= [] | E u | V E | out2 x y. E | close(E)
# A component only reduces at E-positions, arguments must be values, and a
# transmission needs its receiver variable to sit at an E-position of some
# other top-level component.  This makes applied outputs and bare inputs
# blocking, which is what the synchronous-input encoding relies on.

def is_value(t: Term) -> bool:
    return isinstance(t, (Send, Par))


def _component(c: Cell, spine: set[int]) -> Optional[Cell]:
    """The cell of the top-level component holding cell c, if c is at an
    evaluation position of it, else None; spine holds the ids of the Par
    nodes that join the components."""
    while c[0] is not None and id(c[0][2]) not in spine:
        up = c[0]
        cls = type(up[2])
        if not (cls is Dist or cls is Close
                or cls is App and (c[1] == 1 or is_value(up[2][1]))):
            return None
        c = up
    return c


def _cbv_fire(components: list[Term]) -> Optional[tuple]:
    """cbv_step's new components beside the activator cell, the firing and
    the receiver cells of the redex fired, from one _scan of the joined
    components (only cbv_step needs the redex's paths): the first activator
    at an evaluation position whose argument is a value fires, a comm into
    the first free occurrence of its channel at an evaluation position of
    another component."""
    if not components:
        return None
    joined, spine = components[0], set()
    for p in components[1:]:  # join_par, keeping the joining Pars' ids
        joined = Par(joined, p)
        spine.add(id(joined))
    scan = _scan(joined)
    for act in scan.acts:
        node = act[2]
        if type(node) is Dist or not is_value(node[2]):
            continue
        home = _component(act, spine)
        if home is None:
            continue
        firing = fire(node, scan.lams)
        kind, _, ((x, _),) = firing
        receivers = ()
        if kind == "comm":
            for c in scan.free.get(x, ()):
                there = _component(c, spine)
                if there is not None and there is not home:
                    receivers = (c,)
                    break
            else:
                continue
        fired = _reduct(act, firing, receivers)
        return split_joined(fired, len(components)), act, firing, receivers
    return None


def cbv_step(components: list[Term]) -> Optional[tuple[list[Term], Redex]]:
    """One call-by-value step over top-level components, scanning left to
    right.  Returns the new component list and the fired redex (with paths
    into the joined term), or None when every component is cbv-stuck.
    Only applied outputs fire, and only on a value argument."""
    fired = _cbv_fire(components)
    return None if fired is None else (fired[0], _in_paths(*fired[1:]))


def cbv_trace(components: list[Term]) -> list[tuple[str, list[Term]]]:
    """Run cbv_step to exhaustion, collecting (description, state) pairs."""
    steps: list[tuple[str, list[Term]]] = []
    while (fired := _cbv_fire(components)) is not None:
        components, _, (kind, _, sends), _ = fired
        steps.append((_step_text(kind, sends), components))
    return steps
