"""Seeded benchmark inputs and their reference outputs.

Every case carries the program text a user would feed to ``lamp`` and the
answer the benchmark expects.  References for ring(n) and relay(n) are built
here from term constructors, never by running the code under test; the
typecheck verdicts follow from how each program was made (a generated
derivation's conclusion is derivable, and swapping one atom occurrence
unbalances atom polarity, which no MLL proof allows).

The program shapes of a workload are fixed; the seed renames every name and
atom, orders the programs and draws the scheduler seeds, all from one
``random.Random`` seeded with the workload and the seed, so the same
(workload, seed) always yields byte-identical texts.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from lamp.terms import (
    App, Atom, BOT, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent,
    Term, UNIT, Var, join_par, print_sequent,
)
from lamp.testlab import GenConfig, gen_derivation

# Every workload runs a fixed set of program shapes; the seed renames every
# channel, variable and atom, orders the programs and draws the scheduler
# seeds.  Shapes drawn per seed made the runs' medians differ by 20-30%
# between seeds, more than any bound the benchmark could hold.

# ring(48) normalizes in about 0.8 s, ring(8) in 0.01 s, which keeps the
# cubic growth visible.  The grid is denser in the middle, where the
# median program lies, so that the median pools samples of several
# programs of similar cost.  relay stops at 24: its failing translate
# round trip grows faster still (1.3 s at n=24, 7 s at n=48) and would
# crowd out the rest of the pass.
RING_SIZES = (8, 16, 20, 24, 28, 32, 40, 48)
RELAY_SIZES = (8, 12, 14, 16, 18, 20, 24)
CONCURRENT_SEEDS = 3

# typecheck: gen_derivation seeds 0..SHAPES-1.  At max_nodes 30-40 single
# programs take 5-96 s to reject, past the 180 s a run may last; at 18-22
# the tail is still there (p99 about 50x p50) and no program in 2000
# sampled seeds took longer than 0.1 s.
TYPECHECK_MAX_NODES = (18, 19, 20, 21, 22)
TYPECHECK_SHAPES = 300

# confluence: ring(n) has 2^n reachable states; generated programs are taken
# just above testlab.CONFLUENCE_CS_LIMIT = 6, where the property suite
# stops, the same number at each comm_size.
CONFLUENCE_RING_SIZES = (6, 7, 8, 9, 10)
CONFLUENCE_PER_COMM_SIZE = {7: 20, 8: 20, 9: 20}
CONFLUENCE_MAX_NODES = 36


@dataclass
class Case:
    """One program and what the benchmark expects of it."""

    pid: int
    kind: str  # ring | relay | accept | reject | generated
    n: int  # size: ring/relay n, max_nodes or comm_size
    text: str
    sequent: Sequent  # what parse_program must return
    well_typed: bool = True
    # the normal form slot by slot (the joined term's parallel spine
    # survives reduction); None for generated confluence programs, whose
    # reference is normalize's result, filled in before the timed loop
    normal_slots: Optional[tuple] = None
    normal_form: Optional[Term] = None
    steps: int = 0  # full-reduction steps to normal form
    cbv_steps: int = 0
    cbv_slots: Optional[tuple] = None
    sched_seeds: tuple = ()

    def __post_init__(self):
        if self.normal_slots is not None:
            self.normal_form = join_par(list(self.normal_slots))

    def concurrent_multiset(self) -> Counter:
        return Counter(self.normal_slots)


@dataclass
class Inputs:
    workload: str
    seed: int
    cases: list[Case] = field(default_factory=list)

    def render(self) -> str:
        """The inputs as text: one header line and one line per program."""
        lines = [f"# workload={self.workload} seed={self.seed} cases={len(self.cases)}"]
        for c in self.cases:
            typed = "well-typed" if c.well_typed else "ill-typed"
            lines.append(f"{c.pid}\t{c.kind}\t{c.n}\t{typed}\t{c.text}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Term helpers that do not call into the code under test

def count_outputs(t) -> int:
    """Send and Dist nodes of t, counted without lamp.reduction.comm_size."""
    stack, n = [t], 0
    while stack:
        s = stack.pop()
        match s:
            case Send(_, b):
                n += 1
                stack.append(b)
            case Dist(_, _, b):
                n += 1
                stack.append(b)
            case App(f, a):
                stack += [f, a]
            case Par(l, r):
                stack += [l, r]
            case Close(b):
                stack.append(b)
    return n


def _type_text(ty) -> str:
    match ty:
        case Atom(name):
            return name
        case Lolli(a, b):
            return f"({_type_text(a)} -o {_type_text(b)})"
        case ParT(a, b):
            return f"({_type_text(a)} par {_type_text(b)})"
    return "bot"


def _names(rng: random.Random, prefix: str, k: int) -> list[str]:
    """k distinct names in ascending order: every seed then keeps the names'
    relative order, which lamp uses when it sorts channels or contexts."""
    return [f"{prefix}{i:04d}" for i in sorted(rng.sample(range(10_000), k))]


class Renaming:
    """A seeded renaming of every name and atom in a sequent that keeps
    their order."""

    def __init__(self, seq: Sequent, rng: random.Random):
        names: set[str] = {x for x, _ in seq.gamma}
        atoms: set[str] = {"A", "B"}
        for _, ty in seq.gamma:
            atoms |= _atoms(ty)
        for e in seq.delta:
            names |= _term_names(e.term)
            atoms |= _atoms(e.type)
        self.names = dict(zip(sorted(names), _names(rng, "v", len(names))))
        self.atoms = dict(zip(sorted(atoms), _names(rng, "T", len(atoms))))

    def term(self, t):
        match t:
            case Var(x):
                return Var(self.names[x])
            case Send(x, b):
                return Send(self.names[x], self.term(b))
            case Dist(x, y, b):
                return Dist(self.names[x], self.names[y], self.term(b))
            case App(f, a):
                return App(self.term(f), self.term(a))
            case Par(l, r):
                return Par(self.term(l), self.term(r))
            case Close(b):
                return Close(self.term(b))
        return t

    def type(self, ty):
        match ty:
            case Atom(name):
                return Atom(self.atoms[name])
            case Lolli(a, b):
                return Lolli(self.type(a), self.type(b))
            case ParT(a, b):
                return ParT(self.type(a), self.type(b))
        return ty

    def sequent(self, seq: Sequent) -> Sequent:
        return Sequent(
            tuple((self.names[x], self.type(ty)) for x, ty in seq.gamma),
            tuple(DeltaEntry(self.term(e.term), self.type(e.type)) for e in seq.delta))


def _atoms(ty) -> set[str]:
    match ty:
        case Atom(name):
            return {name}
        case Lolli(a, b) | ParT(a, b):
            return _atoms(a) | _atoms(b)
    return set()


def _term_names(t) -> set[str]:
    match t:
        case Var(x):
            return {x}
        case Send(x, b):
            return {x} | _term_names(b)
        case Dist(x, y, b):
            return {x, y} | _term_names(b)
        case App(a, b) | Par(a, b):
            return _term_names(a) | _term_names(b)
        case Close(b):
            return _term_names(b)
    return set()


# ---------------------------------------------------------------------------
# ring(n): corpus/cyclic.lamp widened to n+1 components.  The client sends
# M over x0, server i applies e_i and forwards over x_i, server n returns to
# the client over z; the normal form is e_n(...(e_1 M)) in slot 0.

def ring_case(pid: int, n: int, rng: random.Random) -> Case:
    xs = _names(rng, "x", n)
    z, = _names(rng, "z", 1)
    es = _names(rng, "e", n)
    m, = _names(rng, "m", 1)
    s = Atom(_names(rng, "S", 1)[0])
    comps = [App(Send(xs[0], Var(z)), Var(m))]
    comps += [App(Send(xs[i], UNIT), App(Var(es[i - 1]), Var(xs[i - 1])))
              for i in range(1, n)]
    comps.append(App(Send(z, UNIT), App(Var(es[n - 1]), Var(xs[n - 1]))))
    ty = ParT(s, BOT)
    for _ in range(n - 1):
        ty = ParT(ty, BOT)
    gamma = ((m, s),) + tuple((e, Lolli(s, s)) for e in es)
    sequent = Sequent(gamma, (DeltaEntry(join_par(comps), ty),))

    texts = [f"(out {xs[0]}. {z}) {m}"]
    texts += [f"(out {xs[i]}. *) ({es[i - 1]} {xs[i - 1]})" for i in range(1, n)]
    texts.append(f"(out {z}. *) ({es[n - 1]} {xs[n - 1]})")
    term = "(" * (n - 1) + texts[0] + "".join(
        f" | {t})" for t in texts[1:-1]) + f" | {texts[-1]}"
    decls = ", ".join(f"{x} : {_type_text(t)}" for x, t in gamma)
    text = f"{decls} |- {term} : {_type_text(ty)}"

    result = Var(m)
    for e in es:
        result = App(Var(e), result)
    return Case(pid, "ring", n, text, sequent,
                normal_slots=(result,) + (UNIT,) * n, steps=n + 1,
                cbv_steps=0, cbv_slots=tuple(comps),
                sched_seeds=tuple(rng.randrange(1 << 30)
                                  for _ in range(CONCURRENT_SEEDS)))


# relay(n): a chain of synchronous handshakes
#   (out x1. *) (lam a. a) | x1(y1). (out x2. *) y1 | ... | xn(yn). yn
# Under call-by-value each handshake is a comm step then a beta step, so
# cbv fires 2n steps; ring fires none, because its arguments are not values.

def relay_case(pid: int, n: int, rng: random.Random) -> Case:
    xs = _names(rng, "x", n)
    ys = _names(rng, "y", n)
    a, = _names(rng, "a", 1)
    t = Atom(_names(rng, "T", 1)[0])
    ident = Send(a, Var(a))
    comps = [App(Send(xs[0], UNIT), ident)]
    comps += [App(Send(ys[i], App(Send(xs[i + 1], UNIT), Var(ys[i]))), Var(xs[i]))
              for i in range(n - 1)]
    comps.append(App(Send(ys[-1], Var(ys[-1])), Var(xs[-1])))
    types = [BOT] * n + [Lolli(t, t)]
    sequent = Sequent((), tuple(DeltaEntry(c, ty) for c, ty in zip(comps, types)))

    texts = [f"(out {xs[0]}. *) (lam {a}. {a})"]
    texts += [f"{xs[i]}({ys[i]}). (out {xs[i + 1]}. *) {ys[i]}" for i in range(n - 1)]
    texts.append(f"{xs[-1]}({ys[-1]}). {ys[-1]}")
    text = "|- " + ", ".join(f"{c} : {_type_text(ty)}" for c, ty in zip(texts, types))

    slots = (UNIT,) * n + (ident,)
    return Case(pid, "relay", n, text, sequent, normal_slots=slots,
                steps=2 * n, cbv_steps=2 * n, cbv_slots=slots,
                sched_seeds=tuple(rng.randrange(1 << 30)
                                  for _ in range(CONCURRENT_SEEDS)))


# ---------------------------------------------------------------------------
# typecheck: generated derivation conclusions, half with one atom swapped

def _atom_sites(seq: Sequent) -> list[tuple[str, int, list]]:
    """Every atom occurrence in a typed entry, as (side, index, path)."""
    sites = []

    def walk(ty, side, i, path):
        match ty:
            case Atom():
                sites.append((side, i, path))
            case Lolli(x, y) | ParT(x, y):
                walk(x, side, i, path + [0])
                walk(y, side, i, path + [1])

    for i, e in enumerate(seq.delta):
        if e.type is not None:
            walk(e.type, "delta", i, [])
    for i, (_, ty) in enumerate(seq.gamma):
        walk(ty, "gamma", i, [])
    return sites


def _swap_at(ty, path: list):
    if not path:
        return Atom({"A": "B", "B": "A"}[ty.name])
    x, y = (ty.arg, ty.res) if isinstance(ty, Lolli) else (ty.left, ty.right)
    if path[0] == 0:
        return type(ty)(_swap_at(x, path[1:]), y)
    return type(ty)(x, _swap_at(y, path[1:]))


def swap_atom(seq: Sequent, site) -> Sequent:
    side, i, path = site
    if side == "delta":
        e = seq.delta[i]
        delta = seq.delta[:i] + (DeltaEntry(e.term, _swap_at(e.type, path)),) \
            + seq.delta[i + 1:]
        return Sequent(seq.gamma, delta)
    x, ty = seq.gamma[i]
    return Sequent(seq.gamma[:i] + ((x, _swap_at(ty, path)),) + seq.gamma[i + 1:],
                   seq.delta)


def polarity_balance(seq: Sequent) -> Counter:
    """Positive minus negative occurrences per atom; every MLL-provable
    sequent has all zeros (each axiom adds one of each, no rule unbalances)."""
    bal: Counter = Counter()

    def walk(ty, sign):
        match ty:
            case Atom(name):
                bal[name] += sign
            case Lolli(x, y):
                walk(x, -sign)
                walk(y, sign)
            case ParT(x, y):
                walk(x, sign)
                walk(y, sign)

    for _, ty in seq.gamma:
        walk(ty, -1)
    for e in seq.delta:
        if e.type is not None:
            walk(e.type, 1)
    return Counter({k: v for k, v in bal.items() if v})


def typecheck_cases(rng: random.Random, gen=gen_derivation) -> list[Case]:
    cases: list[Case] = []
    for k in range(TYPECHECK_SHAPES):
        max_nodes = TYPECHECK_MAX_NODES[k % len(TYPECHECK_MAX_NODES)]
        seq = gen(GenConfig(seed=k, max_nodes=max_nodes)).conclusion
        sites = _atom_sites(seq)
        if not sites:
            continue  # nothing to swap: no ill-typed twin can be made
        bad = swap_atom(seq, random.Random(k).choice(sites))
        if polarity_balance(seq) or not polarity_balance(bad):
            raise AssertionError(f"shape {k}: polarity premise of the verdicts fails")
        rename = Renaming(seq, rng)
        for well, s in ((True, seq), (False, bad)):
            s = rename.sequent(s)
            cases.append(Case(len(cases), "accept" if well else "reject",
                              max_nodes, print_sequent(s), s, well_typed=well))
    return cases


# ---------------------------------------------------------------------------
# confluence: ring(6..10) plus generated programs of comm_size 7-9

def confluence_cases(rng: random.Random, gen=gen_derivation) -> list[Case]:
    cases = [ring_case(i, n, rng) for i, n in enumerate(CONFLUENCE_RING_SIZES)]
    wanted = dict(CONFLUENCE_PER_COMM_SIZE)
    k = 0
    while any(wanted.values()):
        seq = gen(GenConfig(seed=k, max_nodes=CONFLUENCE_MAX_NODES)).conclusion
        k += 1
        cs = count_outputs(seq.joined_term())
        if wanted.get(cs):
            wanted[cs] -= 1
            s = Renaming(seq, rng).sequent(seq)
            cases.append(Case(len(cases), "generated", cs, print_sequent(s), s))
    return cases


def make_inputs(workload: str, seed: int, gen=gen_derivation) -> Inputs:
    rng = random.Random(f"lamp-bench:{workload}:{seed}")
    if workload == "ring":
        cases = [ring_case(i, n, rng) for i, n in enumerate(RING_SIZES)]
        cases += [relay_case(len(cases) + i, n, rng) for i, n in enumerate(RELAY_SIZES)]
    elif workload == "typecheck":
        cases = typecheck_cases(rng, gen)
    elif workload == "confluence":
        cases = confluence_cases(rng, gen)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, seed, cases)
