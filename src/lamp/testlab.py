"""Random well-typed derivation generation and the metatheory property
suites.

Generation is forward: a pool of small derivations is grown from axioms by
randomly applying rules whose side conditions hold, with globally fresh
variable names so premises never share a variable.  Binary-output
eliminations only consume entries whose term is literally a parallel
composition; an output over an opaque variable of par type is derivable
but permanently inert, and the progress suite quantifies over generated
programs that can always fire.

Identical configurations reproduce identical derivations byte for byte.

Each non-axiom rule is written forward once, in derivations.FORWARD or,
for the sequent calculus, mll.MLL_FORWARD; the natural deduction checker
walks FORWARD too.  One engine samples both tables; ``closure`` exhausts
FORWARD below a size bound for the completeness probe.  A premise that
reads an earlier one says what it reads (ForwardRule.reads), so its
positions in a sequent depend on the sequent and that value alone.  Each
pool entry keeps an index of its positions per (premise, value read),
filled on first lookup, and a draw looks positions up instead of running
every premise on every entry for every prefix.

The suites' engines (reconstruct, reduction, runtime, metatheory) are
imported on first use, and mll when a sequent calculus generator is made
(gen_mll), so generating natural deduction programs, as the benchmark's
set-up and most tests do, compiles none of them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .derivations import FORWARD, Derivation, ForwardRule, Rule, spots, axiom
from .terms import (
    App, Atom, BOT, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent, Term,
    TypeExpr, children, flatten_par, fold, nodes, print_term, split_joined,
)


_ATOMS = ("A", "B")  # the atoms generated types are built from


class GenConfig(NamedTuple("GenConfig", [("seed", int), ("max_nodes", int)])):
    """A generator's seed and its bound on rule applications."""

    __slots__ = ()

    def __new__(cls, seed: int = 0, max_nodes: int = 12):
        if max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")
        return super().__new__(cls, seed, max_nodes)


class _Gen:
    """The forward generator, drawing rules and their options to grow a
    pool from axioms.  A calculus sets table, rules and bounds, and _axiom,
    the conclusion of an axiom rule; these are natural deduction's."""

    # ParrE splits only literal parallel compositions: see the module doc
    table = {**FORWARD, Rule.PARR_E: FORWARD[Rule.PARR_E]._replace(premises=(
        spots((1,), lambda e, v: isinstance(e.type, ParT) and isinstance(e.term, Par)),
        *FORWARD[Rule.PARR_E].premises[1:]))}
    key = "{0.seed}:{0.max_nodes}:" + ",".join(_ATOMS)
    # the rules drawn, an axiom first, beside their weights; the order
    # fixes the rng draws.  The bounds sum them as rng.choices does.
    rules, weights = zip((Rule.AX, 2.0), (Rule.BOT_I, 1.0), (Rule.BOT_E, 0.7),
                         (Rule.LOLLI_I, 2.2), (Rule.PARR_I, 1.0),
                         (Rule.LOLLI_E, 3.0), (Rule.PARR_E, 1.2))
    bounds = tuple(itertools.accumulate(weights))

    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(self.key.format(cfg))
        self._ids = itertools.count()
        # each derivation beside its node count and its premise positions,
        # keyed by (premise, value read) and listed on first lookup
        self.pool: list[tuple[Derivation, int, dict]] = []
        # the node count of the largest entry, from the axiom run adds first
        self.largest = 1

    def atom(self) -> TypeExpr:
        return Atom(self.rng.choice(_ATOMS))

    def leaf_type(self, depth: int = 0) -> TypeExpr:
        # axioms range over whole formulas, not just propositional atoms;
        # a sprinkling of bot and composite types feeds the eliminations
        r = self.rng.random()
        if r < 0.2:
            return BOT
        if depth == 0 and r < 0.3:
            return Lolli(self.leaf_type(1), self.leaf_type(1))
        if depth == 0 and r < 0.35:
            return ParT(self.leaf_type(1), self.leaf_type(1))
        return self.atom()

    def pick(self):
        """The first rule whose bound exceeds rng.random() times the last
        bound: rng.choices's draw, or a plain threshold draw if that is 1."""
        r = self.rng.random() * self.bounds[-1]
        return self.rules[bisect.bisect(self.bounds, r, 0, len(self.rules) - 1)]

    def _axiom(self, rule: Rule) -> Sequent:
        return axiom(f"v{next(self._ids)}", self.leaf_type())

    def _options(self, fr: ForwardRule) -> list[tuple]:
        """Every (ks, prev, nodes left) at which the rule fr fits the node
        budget: premise n is pool entry ks[n], and prev[n] its (sequent,
        position) pair.  In the order of nested loops over the premises,
        the pool and the positions.  An entry lists its positions for a
        premise and value once, and the entries with positions for them
        are found once per draw, so a prefix costs only what it grows."""
        options = [((), (), self.cfg.max_nodes - 1)]
        for premise, read in zip(fr.premises, (None, *fr.reads)):
            fits = {}  # value read -> the entries with positions for it
            grown = []
            for ks, prev, budget in options:
                v = read(prev) if read else None
                hits = fits.get(v)
                if hits is None:
                    hits = fits[v] = []
                    key = premise, v
                    for k, (d, size, at) in enumerate(self.pool):
                        s = d.conclusion
                        ps = at.get(key)
                        if ps is None:
                            ps = at[key] = premise(s, v)
                        if ps:
                            hits.append((k, s, size, ps))
                for k, s, size, ps in hits:
                    if size <= budget and k not in ks:
                        grown_ks, left = ks + (k,), budget - size
                        for p in ps:
                            grown.append((grown_ks, prev + ((s, p),), left))
            options = grown
        return options

    def _apply(self, rule) -> None:
        """Add an axiom of rule, or apply rule at an option drawn if any."""
        fr = self.table.get(rule)
        if fr is None:
            self.pool.append((Derivation(rule, self._axiom(rule)), 1, {}))
            return
        options = self._options(fr)
        if not options:
            return
        ks, prev, _ = self.rng.choice(options)
        seqs, positions = zip(*prev)
        con = fr.conclusion(seqs, positions, functools.partial(self.rng.randint, 0))
        ds = tuple(self.pool[k][0] for k in ks)
        size = 1 + sum(self.pool[k][1] for k in ks)
        keep, *rest = sorted(ks, reverse=True)
        self.pool[keep] = (Derivation(rule, con, ds), size, {})
        self.largest = max(self.largest, size)
        for k in rest:
            del self.pool[k]

    def run(self):
        self._apply(self.rules[0])
        for _ in range(self.cfg.max_nodes * 4):
            if self.largest >= self.cfg.max_nodes:
                break
            self._apply(self.pick())
        return max(self.pool, key=lambda entry: entry[1])[0]


def gen_derivation(cfg: GenConfig) -> Derivation:
    """Generate a random checkable derivation of at most cfg.max_nodes rule
    applications."""
    return _Gen(cfg).run()


def _renamed(s: Sequent, rename: Callable[[str], str]) -> Sequent:
    """s with every name x replaced by rename(x).  rename meets the names
    in order of first occurrence (declarations, then each entry's names in
    preorder, a binder before its body), which _canonical numbers by."""
    gamma = tuple((rename(x), ty) for x, ty in s.gamma)
    new = {x: rename(x) for e in s.delta for t in nodes(e.term, children)
           for x in t[1:t._first]}

    def rebuilt(t: Term, kids: list[Term]) -> Term:
        return type(t)(*(new[x] for x in t[1:t._first]), *kids)

    return Sequent(gamma, tuple(DeltaEntry(fold(e.term, children, rebuilt), e.type)
                                for e in s.delta))


def _canonical(s: Sequent) -> Sequent:
    """s with its names renamed n0, n1, ... in order of first occurrence."""
    mapping: dict[str, str] = {}
    return _renamed(s, lambda x: mapping.setdefault(x, f"n{len(mapping)}"))


def _size(s: Sequent) -> int:
    return sum(1 for e in s.delta for _ in nodes(e.term, children)) + len(s.gamma)


def closure(types: Iterable[TypeExpr], max_size: int) -> set[Sequent]:
    """Every sequent derivable from axioms over `types` by the forward rules
    other than ParrE, up to max_size term nodes plus declarations, with
    canonical names so each is listed once.  No rule shrinks a sequent, so
    a derivation of a sequent within the bound stays within it throughout.
    ParrE is left out; callers add one layer of it where they need it."""
    unary = [r for r in FORWARD.values() if len(r.premises) == 1]
    lolli_e = FORWARD[Rule.LOLLI_E]
    found: set[Sequent] = set()
    order: list[tuple[Sequent, int]] = []  # each sequent beside its size

    def add(s: Sequent) -> None:
        s = _canonical(s)
        size = _size(s)
        if size <= max_size and s not in found:
            found.add(s)
            order.append((s, size))

    def pair(s1: Sequent, s2: Sequent) -> None:
        first, second = lolli_e.premises
        (read,) = lolli_e.reads
        fresh = None
        for j1 in first(s1, None):
            for j2 in second(s2, read(((s1, j1),))):
                # canonical names all start with n, so a prefix freshens
                fresh = fresh or _renamed(s2, lambda x: "f" + x)
                add(lolli_e.conclusion((s1, fresh), (j1, j2)))

    for ty in types:
        add(axiom("x", ty))
    # each sequent meets every earlier one, and itself, as either premise
    for k, (s, size) in enumerate(order):
        for rule in unary:
            for p in rule.premises[0](s, None):
                add(rule.conclusion((s,), (p,)))
        for other, other_size in order[:k + 1]:
            # a LolliE conclusion holds both premises plus one application
            if size + other_size < max_size:
                pair(s, other)
                pair(other, s)
    return found


# ---------------------------------------------------------------------------
# Random sequent calculus derivations (for translation round-trips)

class _MllGen(_Gen):
    """The sequent calculus generator.  Its rules are mll's, imported when
    a generator is made, so generating natural deduction programs compiles
    none of mll."""

    key = "mll:{0.seed}:{0.max_nodes}"

    def __init__(self, cfg: GenConfig):
        super().__init__(cfg)
        from . import mll
        self.mll, self.table = mll, mll.MLL_FORWARD
        # thresholds on rng.random(), not weights, whose running sums
        # would round to other bounds
        self.rules, self.bounds = zip(
            (mll.MllRule.AX_ID, 0.22), (mll.MllRule.AX_BOT, 0.3),
            (mll.MllRule.BOT_R, 0.42), (mll.MllRule.LOLLI_R, 0.58),
            (mll.MllRule.PARR_R, 0.68), (mll.MllRule.CUT, 0.8),
            (mll.MllRule.LOLLI_L, 0.92), (mll.MllRule.PARR_L, 1.0))

    def _type(self, depth: int = 0) -> TypeExpr:
        r = self.rng.random()
        if depth >= 2 or r < 0.55:
            return self.atom()
        if r < 0.7:
            return BOT
        if r < 0.85:
            return Lolli(self._type(depth + 1), self._type(depth + 1))
        return ParT(self._type(depth + 1), self._type(depth + 1))

    def _axiom(self, rule) -> tuple:
        if rule is self.mll.MllRule.AX_BOT:
            return self.mll.MllSequent((BOT,), ())
        a = self._type()
        return self.mll.MllSequent((a,), (a,))


def gen_mll(cfg: GenConfig) -> Derivation:
    return _MllGen(cfg).run()


# ---------------------------------------------------------------------------
# Property suites

class PropertyResult:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures = 0
        self.failing_seeds: list[int] = []

    @property
    def first_failing_seed(self) -> Optional[int]:
        return self.failing_seeds[0] if self.failing_seeds else None

    def record(self, seed: int, ok: bool) -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            self.failing_seeds.append(seed)


class Report(NamedTuple):
    results: list[PropertyResult]

    @property
    def passed(self) -> bool:
        return all(r.failures == 0 for r in self.results)

    def render(self) -> str:
        lines = []
        for r in self.results:
            line = f"{r.name}: cases={r.cases} failures={r.failures}"
            if r.first_failing_seed is not None:
                line += f" first-failing-seed={r.first_failing_seed}"
            lines.append(line)
        return "\n".join(lines)


CONFLUENCE_CS_LIMIT = 12
RUNTIME_SEEDS = 5


def _walk(seq: Sequent, reducts) -> list[tuple[Sequent, list[Sequent]]]:
    """Each state of the leftmost reduction from seq beside its one-step
    reducts, each split back into seq's entries with seq's types.  The next
    state is the first reduct; at most comm_size + 1 states are taken,
    which stops an engine that removes no node."""
    from .reduction import comm_size
    types = [e.type for e in seq.delta]
    m = len(types)
    walk = []
    state = seq
    for _ in range(comm_size(seq.joined_term()) + 1):
        nexts = [Sequent(seq.gamma, tuple(map(DeltaEntry, split_joined(t, m), types)))
                 for t in reducts(state.joined_term())]
        walk.append((state, nexts))
        if not nexts:
            break
        state = nexts[0]
    return walk


def _retypes(s: Sequent) -> bool:
    from .reconstruct import reconstruct
    con = reconstruct(s).conclusion
    return (con.gamma == s.gamma
            and [e.type for e in con.delta] == [e.type for e in s.delta])


def _can_fire(s: Sequent) -> bool:
    """Whether s holds an applied output or a binary output."""
    return any(type(t) is Dist or type(t) is App and type(t.fun) is Send
               for t in nodes(s.joined_term(), children))


def _reducts(t: Term) -> Iterator[Term]:
    """The suites' default engine, reduction._reducts, imported on first
    call like every engine the suites run; tests patch this name to watch
    it."""
    from . import reduction
    return reduction._reducts(t)


def _suites() -> list[tuple[str, Callable[[Sequent, list], Optional[bool]]]]:
    """Each suite beside its predicate over a generated program and its
    walk: True or False, or None to skip the case.  The check_* functions
    raise on a violation and return None.  The engines are imported here,
    on first use: generating programs needs none of them."""
    from .metatheory import check_no_freaks, check_subformula
    from .reconstruct import reconstruct
    from .reduction import comm_size, enumerate_normal_forms
    from .runtime import run_concurrent

    return [
        # every fired step removes exactly one output node
        ("step-decrement", lambda program, walk: all(
            comm_size(r.joined_term()) == comm_size(s.joined_term()) - 1
            for s, reducts in walk for r in reducts)),
        # every one-step reduct typechecks with the same declarations and types
        ("subject-reduction", lambda program, walk: all(
            _retypes(r) for _, reducts in walk for r in reducts)),
        # an applied output or binary output always yields a redex
        ("progress", lambda program, walk: all(
            reducts or not _can_fire(s) for s, reducts in walk)),
        # confluence by exhaustive enumeration on small terms
        ("confluence", lambda program, walk: None
         if comm_size(program.joined_term()) > CONFLUENCE_CS_LIMIT
         else len(enumerate_normal_forms(program.joined_term())) == 1),
        # the subformula property of the reconstructed normal form
        ("subformula", lambda program, walk:
         check_subformula(reconstruct(walk[-1][0])) is None),
        # simple-context channel discipline on every reachable sequent
        ("no-freaks", lambda program, walk: all(
            check_no_freaks(s) is None for s, _ in walk)),
        # the runtime reaches the normal form's components on every schedule
        ("runtime-determinacy", lambda program, walk: all(
            sorted(map(print_term, run_concurrent(program, seed=rseed)))
            == sorted(map(print_term, flatten_par(walk[-1][0].joined_term())))
            for rseed in range(RUNTIME_SEEDS))),
    ]


def run_property_suite(n_cases: int, cfg: GenConfig, reducts=None) -> Report:
    """Run every suite of _suites() over n_cases generated programs, on one
    walk per program.  A predicate that raises fails its case, and an
    engine that raises on the walk fails every suite's.  reducts lists a
    term's one-step reducts, by default the engine's own (_reducts); the
    hook exists so tests can inject a corrupted engine and watch the
    suites catch it."""
    suites = _suites()
    results = [PropertyResult(name) for name, _ in suites]
    for case in range(n_cases):
        case_seed = cfg.seed * 1_000_003 + case
        program = gen_derivation(GenConfig(case_seed, cfg.max_nodes)).conclusion
        try:
            walk = _walk(program, reducts or _reducts)
        except Exception:
            walk = None
        for result, (_, holds) in zip(results, suites):
            try:
                ok = walk is not None and holds(program, walk)
            except Exception:
                ok = False
            if ok is not None:
                result.record(case_seed, ok)
    return Report(results)
