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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .terms import (
    App, Close, Dist, Par, Path, Send, Term, UNIT, Var,
    _scan, children, is_free_in, join_par, preorder, print_term,
    replace_at, split_joined, substitute, subterm_at, subterms,
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
        _, _, sends = fire(subterm_at(root, self.activator))
        return " ".join([self.kind.capitalize()] + [x for x, _ in sends])


@dataclass
class Trace:
    initial: Term
    steps: list[tuple[str, Term]]

    @property
    def final(self) -> Term:
        return self.steps[-1][1] if self.steps else self.initial

    def render(self) -> str:
        lines = [print_term(self.initial)]
        for k, (desc, term) in enumerate(self.steps, start=1):
            lines.append(f"step {k}: {desc} => {print_term(term)}")
        return "\n".join(lines)


def comm_size(t: Term) -> int:
    """Number of Send and Dist nodes in t."""
    return sum(1 for _, s in subterms(t) if isinstance(s, (Send, Dist)))


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


def _lca(a: Path, b: Path) -> Path:
    """The path of the least common ancestor of the nodes at a and b."""
    for n, (i, j) in enumerate(zip(a, b)):
        if i != j:
            return a[:n]
    return a if len(a) <= len(b) else b


def _lca_is_par(root: Term, a: Path, b: Path) -> bool:
    return isinstance(subterm_at(root, _lca(a, b)), Par)


def find_redexes(t: Term) -> list[Redex]:
    """All redexes of t in leftmost-outermost activator order, read off one
    _scan of t."""
    scan = _scan(t)
    out: list[Redex] = []
    for path, node in scan.acts:
        kind, _, sends = fire(node, scan.lams)
        if kind == "beta":
            # a beta's receiver is in its own continuation: nothing to choose
            out.append(Redex(kind, path))
            continue
        choices = [[occ for occ in scan.free.get(x, ()) if _lca(path, occ) in scan.pars]
                   for x, _ in sends]
        # activators come in preorder and each receiver list in preorder,
        # so the product is already in (activator, receivers) order
        out.extend(Redex(kind, path, recv) for recv in product(*choices))
    return out


def apply_redex(t: Term, r: Redex) -> Term:
    """Fire one redex.  Raises StaleRedex if r does not match t anymore."""
    firing = fire(subterm_at(t, r.activator))
    if firing is None or firing[0] != r.kind:
        raise StaleRedex(f"activator is not a {r.kind} redex")
    _, cont, sends = firing
    if r.kind == "beta":
        ((x, v),) = sends
        return replace_at(t, r.activator, substitute(cont, x, v))
    for (x, _), occ in zip(sends, r.receivers, strict=True):
        if subterm_at(t, occ) != Var(x) or not _lca_is_par(t, r.activator, occ):
            raise StaleRedex(f"receiver for {x!r} no longer valid")
    t = replace_at(t, r.activator, cont)
    for (_, v), occ in zip(sends, r.receivers):
        t = replace_at(t, occ, v)
    return t


def normalize(t: Term) -> Trace:
    """Reduce t to normal form, always firing the first redex in
    leftmost-outermost order.  Terminates because every step removes one
    Send or Dist node."""
    trace = Trace(t, [])
    while True:
        redexes = find_redexes(t)
        if not redexes:
            return trace
        r = redexes[0]
        desc = r.describe(t)
        t = apply_redex(t, r)
        trace.steps.append((desc, t))


def enumerate_normal_forms(t: Term, max_states: int = 100_000) -> set[Term]:
    """Breadth-first exploration of every redex choice at every state.

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
            redexes = find_redexes(s)
            if not redexes:
                normal.add(s)
                continue
            for r in redexes:
                s2 = apply_redex(s, r)
                # one lookup per reduct, whose hash tuple recomputes in C
                # over every node (it keeps none): seen grows iff s2 is new
                before = len(seen)
                seen.add(s2)
                if len(seen) > before:
                    if len(seen) > max_states:
                        raise BudgetExceeded(len(seen))
                    nxt.append(s2)
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


def _eval_kids(t: Term) -> tuple[Term, ...]:
    """The children of t at evaluation positions."""
    cls = type(t)
    if cls is App:
        return (t.fun, t.arg) if is_value(t.fun) else (t.fun,)
    if cls is Dist or cls is Close:
        return children(t)
    return ()


def spine_paths(m: int) -> list[Path]:
    """Paths of the m components of a left-folded parallel composition."""
    if m == 1:
        return [()]
    return [(0,) * (m - 1)] + [(0,) * (m - 1 - i) + (1,) for i in range(1, m)]


def cbv_step(components: list[Term]) -> Optional[tuple[list[Term], Redex]]:
    """One call-by-value step over top-level components, scanning left to
    right.  Returns the new component list and the fired redex (with paths
    into the joined term), or None when every component is cbv-stuck.
    Only applied outputs fire, and only on a value argument."""
    spine = spine_paths(len(components))
    recv_cache: dict[int, list[tuple[Path, str]]] = {}

    def receivers(j: int) -> list[tuple[Path, str]]:
        if j not in recv_cache:
            recv_cache[j] = [(p, n.name) for p, n in preorder(components[j], _eval_kids)
                             if isinstance(n, Var)]
        return recv_cache[j]

    for i, comp in enumerate(components):
        for pos, node in preorder(comp, _eval_kids):
            firing = fire(node)
            if firing is None or firing[0] == "dist":
                continue
            kind, _, ((x, v),) = firing
            if not is_value(v):
                continue
            if kind == "beta":
                r = Redex("beta", spine[i] + pos)
            else:
                r = next((Redex("comm", spine[i] + pos, (spine[j] + rpos,))
                          for j in range(len(components)) if j != i
                          for rpos, rname in receivers(j) if rname == x), None)
                if r is None:
                    continue
            fired = apply_redex(join_par(components), r)
            return split_joined(fired, len(components)), r
    return None


def cbv_trace(components: list[Term]) -> list[tuple[str, list[Term]]]:
    """Run cbv_step to exhaustion, collecting (description, state) pairs."""
    steps: list[tuple[str, list[Term]]] = []
    while True:
        nxt = cbv_step(components)
        if nxt is None:
            return steps
        desc = nxt[1].describe(join_par(components))
        components = nxt[0]
        steps.append((desc, components))
