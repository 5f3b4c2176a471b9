"""Reduction for lamp terms: redex discovery, firing, and normalization.

A single constructor, Send, is both the lambda and the output channel, so
every rule has one shape: an activator is replaced by its continuation and
hands one value to each of its channels.  ``fire`` writes the rules down
once; everything else here and in the runtime only chooses receivers,
through ``_receivers``.

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

A reduction state is held as its components along the left Par spine of
the joined term (``_State``), each with its own ``_scan``, which gives
every position as a parent-linked cell and each free name's cells (see
``terms``).  Redex search reads the components left to right and each in
preorder, which is leftmost-outermost order on the joined term; a
receiver in another component is across a spine Par, one in the
activator's own component is tested by climbing cells.  A step ``_put``s
new nodes only inside the components it changes and rescans only those,
the way a reaction touches only the molecules it involves (Berry &
Boudol's chemical abstract machine).  ``normalize`` and cbv keep their
states' scans across steps; a runtime poll scans its worker's term as
one component.  ``find_redexes``, ``apply_redex`` and
``enumerate_normal_forms`` meet each state once and run the same search
on it as one component, which costs one scan as a split state would.
On a linear term, ``enumerate_normal_forms`` follows only a state's first
pinned beta, one whose variable no rule can move out of its body, or,
with none, its first fixed comm, one whose ends no rule can move and whose
value lands across a top-level Par from every partner: each is a
persistent set (Godefroid 1996, "Partial-Order Methods for the
Verification of Concurrent Systems"), so every normal form is still met.
``find_redexes`` and ``apply_redex`` speak in paths, for callers that
hold a redex across calls: ``apply_redex`` fires the redex of that search
whose paths are the ones it is given.  So ``_receivers`` alone decides
where a value may go, for the search, firing, cbv and the runtime's
sends.  ``Trace.render`` prints a state component by component, so a
component no step changed is printed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, compress, count, product, repeat
from operator import attrgetter, contains, itemgetter
from typing import Iterator, Optional, Sequence

from .terms import (
    App, Cell, Close, Dist, Memo, Par, Path, Send, Term, UNIT, Var, _Scan,
    _path, _put, _scan, _texts, children, name_counts, nodes,
    print_term, substitute, subterm_at,
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
        node = subterm_at(root, self.activator)
        return _step_text(fire(node, _scan(node).lams))


@dataclass
class Trace:
    initial: Term
    steps: list[tuple[str, Term]]

    @property
    def final(self) -> Term:
        return self.steps[-1][1] if self.steps else self.initial

    def render(self) -> str:
        """The initial state, then one line per step, each state printed
        as print_term prints it.  A state prints as its components along
        its left Par spine, joined in C: the states share all but the
        components each step rebuilt, so a component already printed is
        looked up by id, and a new one prints through one span memo (see
        terms.print_term), which copies the subterms it shares with those
        printed before.  self keeps every node printed alive."""
        memo: Memo = {}

        def text(t: Term) -> str:
            got = list(_texts(_split(t)[0], print_term, memo, subtrees=True))
            # each spine Par but the root is the left operand of the next
            return "(" * (len(got) - 2) + ") | ".join([" | ".join(got[:2])] + got[2:])

        lines = [text(self.initial)]
        for k, (desc, term) in enumerate(self.steps, start=1):
            lines.append(f"step {k}: {desc} => {text(term)}")
        return "\n".join(lines)


def comm_size(t: Term) -> int:
    """Number of Send and Dist nodes in t."""
    return sum(1 for s in nodes(t, children) if isinstance(s, (Send, Dist)))


def fire(node: Term, lams: dict[int, list[Cell]]) -> Optional[tuple]:
    """The reduction rules, written once.  If node is an activator, return
    its kind, the continuation that replaces it, and the value it hands to
    each of its channels; otherwise None.  A beta's one channel is bound in
    its own continuation; comm and dist send across a Par.  lams, the
    lambdas of a _scan over node or a term holding it, tells which: the
    scan alone decides what a variable is bound by.  Fields are read by
    index, as in _scan: a class pattern costs about as much as the rest of
    a search step."""
    if type(node) is App and type(node[1]) is Send:
        _, (_, x, u), v = node
        return ("beta" if id(node[1]) in lams else "comm"), u, ((x, v),)
    if type(node) is Dist and type(node[3]) is Par:
        _, x, y, (_, s, t) = node
        return "dist", UNIT, ((x, s), (y, t))
    return None


def _step_text(firing: tuple) -> str:
    kind, _, sends = firing
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


# ---------------------------------------------------------------------------
# A state as its components.  Every redex, receivers included, lies inside
# the components of a term's left Par spine, and the least common ancestor
# of two positions in different components is a spine Par; so a step
# changes only the components that hold its activator and receivers.

def _split(t: Term) -> tuple[list[Term], list[Term]]:
    """The components of t along its left Par spine, left to right, and
    the spine: its k-th term joins components 0..k, its last is t."""
    spine = [t]
    while type(spine[-1]) is Par:
        spine.append(spine[-1][1])
    spine.reverse()
    return [spine[0], *map(itemgetter(2), spine[1:])], spine


class _State:
    """A reduction state: its components, each with its _scan, kept until
    a step changes that component."""

    __slots__ = ("parts", "scans")

    def __init__(self, parts: list[Term]):
        self.parts = parts
        self.scans = list(map(_scan, parts))

    def where(self, x: str) -> list[int]:
        """The components x is free in, in order, asked of each component's
        own index in C.  Not kept: linearity puts a channel's one free
        occurrence in one place, so a name is rarely asked twice between
        steps.  A cache per name was hit 0 times in 939 calls of normalize
        and cbv on ring and relay at n = 8, 48 and 256, and once in 1,023
        on 600 generated programs.  One component's own index answers at
        once."""
        if len(self.scans) == 1:
            return [0] if x in self.scans[0].free else []
        has_x = map(contains, map(attrgetter("free"), self.scans), repeat(x))
        return list(compress(count(), has_x))

    def step(self, changed: dict[int, Term]) -> None:
        """Put changed's components in place; only they are rescanned."""
        for j, p in changed.items():
            self.parts[j], self.scans[j] = p, _scan(p)


def _receivers(state: _State, i: int, act: Cell, x: str) -> list[tuple[int, Cell]]:
    """(component, cell) of each free occurrence of x that the activator
    at cell act of component i can send to, in order: every one in another
    component, and those in component i across a Par from act."""
    out = []
    for j in state.where(x):
        cells = state.scans[j].free[x]
        if j == i:
            above = _above(act)
            cells = [c for c in cells if _across_par(above, c)]
        out += zip(repeat(j), cells)
    return out


def _redexes(state: _State, cbv: bool = False) -> Iterator[tuple]:
    """(component, activator cell, its firing, receivers) of every redex of
    the state, in find_redexes' order, one at a time; a receiver is a
    (component, cell) pair.  Components come left to right, and the
    activators of each in preorder.  With cbv, only the redexes
    call-by-value may fire (see below), its choice first."""
    for i, scan in enumerate(state.scans):
        for act in scan.acts:
            node = act[2]
            if cbv and not (type(node) is App and is_value(node[2]) and _at_eval(act)):
                continue
            firing = fire(node, scan.lams)
            if firing[0] == "beta":
                # a beta's receiver is in its own continuation: nothing to choose
                yield i, act, firing, ()
                continue
            choices = [_receivers(state, i, act, x) for x, _ in firing[2]]
            if cbv:  # a comm, into an evaluation position of another component
                choices = [[r for r in choices[0] if r[0] != i and _at_eval(r[1])]]
            # activators come in preorder and each receiver list in order,
            # so the product is already in (activator, receivers) order
            for recv in product(*choices):
                yield i, act, firing, recv


def _changed(i: int, act: Cell, firing: tuple, receivers: Sequence) -> dict:
    """The components a redex changes, each rebuilt once: component i with
    its activator at cell act fired, its continuation in its place and a
    beta's value substituted into it, and each other value put at its
    receiver, a (component, cell) pair, paired with sends in order."""
    kind, cont, sends = firing
    if kind == "beta":
        ((x, v),) = sends
        return {i: _put([(act, substitute(cont, x, v))])}
    edits = {i: [(act, cont)]}
    for (j, c), (_, v) in zip(receivers, sends, strict=True):
        edits.setdefault(j, []).append((c, v))
    for j, e in edits.items():
        edits[j] = _put(e)
    return edits


# A state met once, as enumerate meets each, is one component: split, it
# would be scanned whole all the same, and joined again for every reduct.

def _reducts(t: Term, bound: Optional[frozenset] = None) -> Iterator[Term]:
    """The one-step reducts of t in find_redexes' order, each built from
    the one scan of t.  Given bound, the names a linear start term binds
    (see enumerate_normal_forms), only the first pinned beta's when t has
    one, else the first fixed comm's when t has one."""
    state = _State([t])
    found = _redexes(state)
    if bound is not None:
        scan = state.scans[0]
        comms = []
        for act in scan.acts:
            lam = act[2][1]
            if type(lam) is not Send:
                continue
            if id(lam) not in scan.lams:
                comms.append(act)
            elif _pinned(lam, scan.lams[id(lam)]):
                found = [(0, act, fire(act[2], scan.lams), ())]
                break
        else:
            for act in comms:
                recv = _fixed_comm(scan, bound, act)
                if recv is not None:
                    found = [(0, act, fire(act[2], scan.lams), ((0, recv),))]
                    break
    for f in found:
        yield _changed(*f)[0]


def _linear(t: Term) -> Optional[frozenset]:
    """The names t binds, if no name of t is bound twice, by a Send or by
    either name of a Dist, and no bound name occurs twice as a variable;
    else None."""
    counts = name_counts([t]).items()
    if all(b < 2 and (b == 0 or v < 2) for _, (v, b) in counts):
        return frozenset(x for x, (_, b) in counts if b)
    return None


def _pinned(lam: Send, cells: list[Cell]) -> bool:
    """Whether lam x. u has an x reached from u through no App argument and
    no Dist body, the positions no rule moves out of u: climbs from each
    cell of cells, the occurrences lam binds (its _scan lams entry), up to
    lam."""
    for c in cells:
        while c[2] is not lam:
            up = c[0]
            if type(up[2]) is Dist or type(up[2]) is App and c[1] == 2:
                break
            c = up
        else:
            return True
    return False


def _process(c: Cell, bound: frozenset) -> Optional[int]:
    """If cell c is at a fixed position, the id of the cell of the
    top-level process holding it (the maximal non-Par subterm reached from
    the root through Pars only); else None.  A fixed position is reached
    from the root through no Dist body and no App argument, but that of an
    App whose function is a variable of a name not in bound: no rule moves
    it, and none removes a Par above it."""
    top = c
    while c[0] is not None:
        up = c[0]
        node = up[2]
        cls = type(node)
        if cls is not Par:
            if cls is Dist or cls is App and c[1] == 2 \
                    and (type(node[1]) is not Var or node[1][1] in bound):
                return None
            top = up
        c = up
    return id(top)


def _fixed_comm(scan: _Scan, bound: frozenset, act: Cell) -> Optional[Cell]:
    """The receiver's cell if the comm at cell act of a linear state's
    scan is fixed, else None.  It is fixed if its activator and receiver
    are at fixed positions (see _process) in different top-level
    processes, and its value is one-sided: take the value, and
    transitively what an activator outside sends to each receiver inside
    them; every name with an end in those values has its other end outside
    them all, at a fixed position in a process other than the receiver's,
    or is a Send whose body holds the receiver."""
    v = act[2][2]
    recv = scan.free.get(act[2][1][1])
    if not recv:
        return None
    recv = recv[0]
    q = _process(recv, bound)
    if q is None or _process(act, bound) in (None, q):
        return None
    # per bound name, the activator cell that binds it and what it sends
    senders = {}
    for a in scan.acts:
        node = a[2]
        if type(node) is App:
            senders[node[1][1]] = (a, node[2])
        else:
            senders[node[1]], senders[node[2]] = (a, node[3][1]), (a, node[3][2])
    held = _above(recv)
    # the values' nodes; each value is the argument of an App at a fixed
    # position, or a part of a fixed Dist's body, so none holds another
    stack = [v]
    while stack:
        s = stack.pop()
        cls = type(s)
        if cls is Var:
            if s[1] not in bound:
                continue
            if (got := senders.get(s[1])) is None:
                return None
            c, sent = got
            if _process(c, bound) in (None, q) \
                    and (type(c[2]) is not App or id(c) not in held):
                return None
            stack.append(sent)
        elif cls is Send or cls is Dist:
            # a variable in its own body meets this binder as an activator
            # inside the value, or as none, and is refused
            for y in s[1:s._first]:
                cells = scan.free.get(y)
                if cells and _process(cells[0], bound) in (None, q):
                    return None
            stack.append(s[-1])
        else:
            stack += s[1:]
    return recv


def find_redexes(t: Term) -> list[Redex]:
    """All redexes of t in leftmost-outermost activator order, read off the
    one scan of t."""
    return [Redex(firing[0], _path(act), tuple(_path(c) for _, c in recv))
            for _, act, firing, recv in _redexes(_State([t]))]


def apply_redex(t: Term, r: Redex) -> Term:
    """Fire the redex of t that find_redexes lists with r's kind,
    activator and receivers.  Raises StaleRedex if it lists none."""
    for found in _redexes(_State([t])):
        _, act, firing, recv = found
        if firing[0] == r.kind and _path(act) == r.activator \
                and tuple(_path(c) for _, c in recv) == r.receivers:
            return _changed(*found)[0]
    raise StaleRedex(f"no such {r.kind} redex at {list(r.activator)}")


def normalize(t: Term) -> Trace:
    """Reduce t to normal form, always firing the first redex in
    leftmost-outermost order.  Each step rescans only the components it
    changed.  Terminates because every step removes one Send or Dist node."""
    trace = Trace(t, [])
    parts, spine = _split(t)
    state = _State(parts)
    # Par's constructor without the class call around it, which costs a
    # third of each Par of the spine rebuilt above a step's components
    par = partial(Par.__new__, Par)
    while (found := next(_redexes(state), None)) is not None:
        changed = _changed(*found)
        state.step(changed)
        lo = min(changed)
        first = par(spine[lo - 1], parts[lo]) if lo else parts[0]
        spine[lo:] = accumulate(parts[lo + 1:], par, initial=first)
        trace.steps.append((_step_text(found[2]), spine[-1]))
    return trace


def enumerate_normal_forms(t: Term, max_states: int = 100_000) -> set[Term]:
    """Breadth-first search of t's reduction orders, each reduct built from
    the one scan of its state.  Returns the set of syntactically distinct
    normal forms reached, empty if every state reached reduces, as every
    state of the copying ``(lam x. x x) (lam y. y y)`` does.  Raises
    BudgetExceeded once the search has visited more than max_states
    states; with the pruning below, it may visit far fewer states than are
    reachable.

    If t is linear (no name bound twice, by a Send or by either name of a
    Dist, and no bound name used twice), each state follows only its first
    pinned beta in redex order when it has one, else only its first fixed
    comm when it has one.  No rule copies, so every state is linear too.
    Otherwise, and at a state with neither, it follows every redex.  A
    redex is named by the binder it fires: a beta and a comm on one binder
    do the same, the body in the App's place and the value at the
    variable.  Two redexes on distinct binders that each stay a redex after
    the other fires commute (rules move subterms and never copy them).  So
    a redex r is a persistent set (Godefroid 1996), and a normal form
    reached by a path from the state is reached by one that fires r first,
    if on every path that does not fire r, r stays a redex and disables no
    redex where it could fire.  Every path ends, as each step removes a
    Send or a Dist node.

    A pinned beta is a ``(lam x. u) v`` whose x is reached from u through
    no App argument and no Dist body:

    * on a path that does not fire it, it stays a pinned beta: rules move
      only App arguments and Dist bodies, and none copies;
    * firing it moves v only inside its own App, so every other redex of
      the state keeps the least common ancestor that enables it.

    A fixed comm is a ``(out x. u) v`` whose activator and receiver sit at
    fixed positions, reached from the root through no Dist body and no App
    argument but that of an App whose function is a variable no binder of
    t binds, in different top-level processes (the maximal non-Par
    subterms reached from the root through Pars); and whose value is
    one-sided: take v, and transitively what an activator outside sends to
    each receiver inside (an applied Send or a Dist with a Par body, else
    the comm is not fixed); every name with an end in those values has its
    other end outside them all, at a fixed position in a process other than
    the receiver's, or is a Send whose body holds the receiver:

    * on a path that does not fire it, it stays a comm across a top-level
      Par: no rule moves a fixed position, and processes only split;
    * everything in v when it fires lands across a top-level Par from the
      other end of its name, or in the body of that end's Send, where the
      redex on it is a beta; the rest keeps its least common ancestors, so
      firing it disables no redex.

    A comm that is not fixed can disable another through the value it
    carries, as in ``(out x. *) y | x ((out y. w) u)``, which has the two
    normal forms ``* | u w`` and ``* | y ((out y. w) u)``; there the
    search follows every redex.
    """
    bound = _linear(t)
    seen: set[Term] = set()
    normal: set[Term] = set()
    frontier = [t]
    seen.add(t)
    while frontier:
        nxt: list[Term] = []
        for s in frontier:
            fired = False
            for s2 in _reducts(s, bound):
                fired = True
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


def _at_eval(c: Cell) -> bool:
    """Whether cell c is at an evaluation position of the component whose
    scan made it."""
    while c[0] is not None:
        up = c[0]
        cls = type(up[2])
        if not (cls is Dist or cls is Close
                or cls is App and (c[1] == 1 or is_value(up[2][1]))):
            return False
        c = up
    return True


def cbv_trace(components: list[Term]) -> list[tuple[str, list[Term]]]:
    """Call-by-value steps over top-level components until every one is
    cbv-stuck, as (description, components) pairs; each step rescans only
    the components it changed.  Only applied outputs fire, and only on a
    value argument: the first activator, scanning left to right, at an
    evaluation position whose argument is a value, a comm into the first
    free occurrence of its channel at an evaluation position of another
    component."""
    steps: list[tuple[str, list[Term]]] = []
    state = _State(list(components))
    while (found := next(_redexes(state, cbv=True), None)) is not None:
        state.step(_changed(*found))
        steps.append((_step_text(found[2]), state.parts.copy()))
    return steps
