"""The rule checker against the one it replaced.

``match_rule`` finds a node's principal entries as what one multiset
difference between conclusion and premises leaves over, pairing identical
entry objects before equal values.  The oracle below is the checker lamp
used before: it tries every principal position in turn and compares the
side entries with a fresh multiset per candidate.  On every node of every
derivation here, both must give the same instance data, or the same
violation path and reason; ``check_derivation`` must stop where the
oracle's preorder walk stops first.
"""

import importlib.util
import random
import sys
from collections import Counter
from functools import lru_cache
from operator import attrgetter, itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from lamp.derivations import (
    ARITY, FORWARD, Derivation, Rule, RuleViolation, check_derivation,
    match_rule, premises_of,
)
from lamp.mll import mll_to_nmll, nmll_to_mll
from lamp.reconstruct import reconstruct
from lamp.sexpr import derivation_to_sexpr
from lamp.terms import (
    App, Atom, BOT, Bot, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send,
    Sequent, UNIT, Unit, Var, children, fold, is_free_in, preorder,
    sequent_names,
)
from lamp.testlab import GenConfig, gen_derivation
from tests.conftest import ROOT
from tests.test_walks import _mll_chain

A, B = Atom("A"), Atom("B")


def _bench_inputs():
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


_INPUTS = _bench_inputs()


def _ring_and_relay(rings=(8, 24, 48), relays=(8, 16, 24)):
    """The bench's ring and relay programs, by default at their smallest,
    middle and largest sizes; the oracle takes 3 s on the ring(48) round
    trip alone."""
    rng = random.Random(1)
    cases = [_INPUTS.ring_case(0, n, rng) for n in rings]
    cases += [_INPUTS.relay_case(0, n, rng) for n in relays]
    return [reconstruct(c.sequent) for c in cases]


def _unshared(d):
    """d with every node's declarations and entries rebuilt as fresh equal
    objects: no node shares one with another, so no run of identical
    entries starts anywhere and every entry pairs by equality."""
    def leave(node, premises):
        c = node.conclusion
        return Derivation(node.rule, Sequent(
            tuple((x, ty) for x, ty in c.gamma),
            tuple(DeltaEntry(e.term, e.type) for e in c.delta)), tuple(premises))

    return fold(d, premises_of, leave)


# -- the oracle: the checker before multiset differences ---------------------

def _old_without(entries, i):
    return entries[:i] + entries[i + 1:]


def _old_interleaving(target, parts):
    @lru_cache(maxsize=None)
    def go(ti, idxs):
        if ti == len(target):
            return all(idxs[k] == len(parts[k]) for k in range(len(parts)))
        for k in range(len(parts)):
            if idxs[k] < len(parts[k]) and parts[k][idxs[k]] == target[ti]:
                if go(ti + 1, idxs[:k] + (idxs[k] + 1,) + idxs[k + 1:]):
                    return True
        return False

    return go(0, (0,) * len(parts))


def _old_same_entries(a, b):
    return a == b or Counter(a) == Counter(b)


def _old_gamma_dict(s, path, what):
    d = dict(s.gamma)
    if len(d) != len(s.gamma):
        raise RuleViolation(path, f"{what} declares a variable twice")
    return d


def _old_match_rule(node, path=()):
    rule, con, prems = node.rule, node.conclusion, node.premises
    if len(prems) != ARITY[rule]:
        raise RuleViolation(path, f"{rule.value} expects {ARITY[rule]} premises, "
                                  f"got {len(prems)}")
    cg = _old_gamma_dict(con, path, "conclusion")
    if len(prems) >= 2:
        names = [sequent_names(p.conclusion) for p in prems]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                shared = names[i] & names[j]
                if shared:
                    raise RuleViolation(
                        path, f"premises {i} and {j} share variables {sorted(shared)}")

    if rule is Rule.AX:
        match con:
            case Sequent(((x, a),), (DeltaEntry(Var(y), b),)) if x == y and a == b:
                return {}
        raise RuleViolation(path, "axiom must be  x : A |- x : A")

    if rule is Rule.BOT_I:
        p = prems[0].conclusion
        if p.gamma != con.gamma:
            raise RuleViolation(path, "BotI must not change declarations")
        for i, e in enumerate(con.delta):
            if e == DeltaEntry(Unit(), Bot()) \
                    and _old_same_entries(_old_without(con.delta, i), p.delta):
                return {"i": i}
        raise RuleViolation(path, "BotI must add one entry  * : bot")

    if rule is Rule.BOT_E:
        p = prems[0].conclusion
        if p.gamma != con.gamma:
            raise RuleViolation(path, "BotE must not change declarations")
        for i, e in enumerate(con.delta):
            if e.type is None and isinstance(e.term, Close):
                want = DeltaEntry(e.term.body, Bot())
                for j, pe in enumerate(p.delta):
                    if pe == want and _old_same_entries(
                            _old_without(con.delta, i), _old_without(p.delta, j)):
                        return {"i": i, "j": j}
        raise RuleViolation(path, "BotE must close one entry of type bot")

    if rule is Rule.PARR_I:
        p = prems[0].conclusion
        if p.gamma != con.gamma:
            raise RuleViolation(path, "ParrI must not change declarations")
        for i, e in enumerate(con.delta):
            match e:
                case DeltaEntry(Par(s, t), ParT(a, b)):
                    for j in range(len(p.delta) - 1):
                        if p.delta[j] == DeltaEntry(s, a) \
                                and p.delta[j + 1] == DeltaEntry(t, b) \
                                and _old_same_entries(
                                    _old_without(con.delta, i),
                                    _old_without(_old_without(p.delta, j + 1), j)):
                            return {"i": i, "j": j, "a": a, "b": b}
        raise RuleViolation(path, "ParrI must merge two adjacent typed entries")

    if rule is Rule.LOLLI_I:
        p = prems[0].conclusion
        pg = _old_gamma_dict(p, path, "premise")
        for i, e in enumerate(con.delta):
            match e:
                case DeltaEntry(Send(x, t), Lolli(a, b)):
                    if x in cg or pg.get(x) != a:
                        continue
                    if tuple((y, ty) for y, ty in p.gamma if y != x) != con.gamma:
                        continue
                    hit = None
                    for j, pe in enumerate(p.delta):
                        if pe == DeltaEntry(t, b) and _old_same_entries(
                                _old_without(con.delta, i), _old_without(p.delta, j)):
                            hit = j
                            break
                    if hit is None:
                        continue
                    rest = _old_without(p.delta, hit)
                    if not (is_free_in(x, t)
                            or any(is_free_in(x, r.term) for r in rest)):
                        raise RuleViolation(
                            path, f"abstracted {x!r} occurs neither in the "
                                  f"principal term nor elsewhere (no weakening)")
                    gamma_pos = next(k for k, (y, _) in enumerate(p.gamma) if y == x)
                    return {"i": i, "j": hit, "x": x, "a": a, "b": b,
                            "gamma_pos": gamma_pos}
        raise RuleViolation(path, "LolliI must abstract one declaration into a Send")

    if rule is Rule.LOLLI_E:
        p1, p2 = prems[0].conclusion, prems[1].conclusion
        g1 = _old_gamma_dict(p1, path, "premise 0")
        g2 = _old_gamma_dict(p2, path, "premise 1")
        joined = dict(g1)
        joined.update(g2)
        if joined != cg or len(g1) + len(g2) != len(cg):
            raise RuleViolation(path, "LolliE must join the premise declarations")
        for i, e in enumerate(con.delta):
            match e:
                case DeltaEntry(App(s, t), b) if b is not None:
                    for j1, e1 in enumerate(p1.delta):
                        match e1:
                            case DeltaEntry(fn, Lolli(a1, b1)) if fn == s and b1 == b:
                                for j2, e2 in enumerate(p2.delta):
                                    if e2 == DeltaEntry(t, a1) and _old_interleaving(
                                            _old_without(con.delta, i),
                                            (_old_without(p1.delta, j1),
                                             _old_without(p2.delta, j2))):
                                        return {"i": i, "j1": j1, "j2": j2,
                                                "a": a1, "b": b1}
        raise RuleViolation(path, "LolliE must apply a function entry to an "
                                  "argument entry from the other premise")

    if rule is Rule.PARR_E:
        p1, p2, p3 = (p.conclusion for p in prems)
        g1 = _old_gamma_dict(p1, path, "premise 0")
        g2 = _old_gamma_dict(p2, path, "premise 1")
        g3 = _old_gamma_dict(p3, path, "premise 2")
        for i, e in enumerate(con.delta):
            match e:
                case DeltaEntry(Dist(x, y, s), Bot()):
                    if g2.get(x) is None or g3.get(y) is None:
                        continue
                    a, b = g2[x], g3[y]
                    joined = dict(g1)
                    joined.update({k: v for k, v in g2.items() if k != x})
                    joined.update({k: v for k, v in g3.items() if k != y})
                    if joined != cg or len(g1) + len(g2) + len(g3) - 2 != len(cg):
                        continue
                    for j, e1 in enumerate(p1.delta):
                        if e1 == DeltaEntry(s, ParT(a, b)) and _old_interleaving(
                                _old_without(con.delta, i),
                                (_old_without(p1.delta, j), p2.delta, p3.delta)):
                            gx = next(k for k, (n, _) in enumerate(p2.gamma) if n == x)
                            gy = next(k for k, (n, _) in enumerate(p3.gamma) if n == y)
                            return {"i": i, "j": j, "x": x, "y": y, "a": a, "b": b,
                                    "gamma_pos_x": gx, "gamma_pos_y": gy}
        raise RuleViolation(path, "ParrE must consume a par entry and one "
                                  "declaration from each receiving premise")

    raise RuleViolation(path, f"unknown rule {rule!r}")


# -- comparing the two --------------------------------------------------------

def _nodes(d):
    """(path, node) for every node, in preorder."""
    stack = [((), d)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for k in range(len(node.premises) - 1, -1, -1):
            stack.append((path + (k,), node.premises[k]))


def _outcome(match, node, path):
    try:
        inst = match(node, path)
    except RuleViolation as err:
        return "violation", err.path, err.reason
    return "instance", inst


def _first_violation(d):
    try:
        check_derivation(d)
    except RuleViolation as err:
        return err.path, err.reason
    return None


def _assert_agree(d, paths=None):
    """Same outcome at every node, or only at the given paths, and
    check_derivation stops at the oracle's first violation in preorder.
    Returns how many nodes failed (with paths: 1 if any did, else 0)."""
    first, failed = None, 0
    for path, node in _nodes(d):
        if paths is not None and first is not None and path not in paths:
            continue
        old = _outcome(_old_match_rule, node, path)
        if old[0] == "violation":
            failed += 1
            first = first or (old[1], old[2])
        if paths is None or path in paths:
            assert _outcome(match_rule, node, path) == old, path
    assert _first_violation(d) == first
    return failed if paths is None else int(first is not None)


def _replace(d, path, new):
    if not path:
        return new
    prems = list(d.premises)
    prems[path[0]] = _replace(prems[path[0]], path[1:], new)
    return Derivation(d.rule, d.conclusion, tuple(prems))


def _mutants(d, rng, per_kind=1):
    """Derivations that differ from d at one node: two premises swapped, a
    delta entry dropped or duplicated, the conclusion permuted, or a name of
    one premise declared again in another.  Yields (mutant, paths whose
    match can differ)."""
    nodes = list(_nodes(d))
    for kind in ("swap", "drop", "duplicate", "permute", "reuse"):
        for _ in range(per_kind):
            path, node = rng.choice(nodes)
            con, prems = node.conclusion, node.premises
            delta = list(con.delta)
            if kind == "swap" and len(prems) >= 2:
                i, j = rng.sample(range(len(prems)), 2)
                swapped = list(prems)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                new = Derivation(node.rule, con, tuple(swapped))
            elif kind in ("drop", "duplicate") and delta:
                k = rng.randrange(len(delta))
                if kind == "drop":
                    del delta[k]
                else:
                    delta.insert(rng.randrange(len(delta) + 1), delta[k])
                new = Derivation(node.rule, Sequent(con.gamma, tuple(delta)), prems)
            elif kind == "permute" and len(delta) >= 2:
                rng.shuffle(delta)
                new = Derivation(node.rule, Sequent(con.gamma, tuple(delta)), prems)
            elif kind == "reuse" and len(prems) >= 2 \
                    and sequent_names(prems[0].conclusion):
                x = min(sequent_names(prems[0].conclusion))
                p = prems[1]
                reused = Derivation(p.rule, Sequent(p.conclusion.gamma + ((x, BOT),),
                                                    p.conclusion.delta), p.premises)
                new = Derivation(node.rule, con, (prems[0], reused) + prems[2:])
            else:
                continue
            paths = {path, path[:-1]} | {path + (k,) for k in range(len(prems))}
            yield _replace(d, path, new), paths


def _generated():
    return [gen_derivation(GenConfig(seed=seed, max_nodes=m))
            for m in (12, 36) for seed in range(200)]


def test_generated_derivations_and_round_trips_agree_with_oracle():
    round_trips_failing = 0
    for d in _generated():
        assert _assert_agree(d) == 0
        assert _assert_agree(_unshared(d)) == 0
        trip = mll_to_nmll(nmll_to_mll(d))
        failed = _assert_agree(trip)
        assert _assert_agree(_unshared(trip)) == failed
        round_trips_failing += failed > 0
    # the round trips exercise the violations too (ROADMAP item 1)
    assert round_trips_failing > 100


def test_ring_and_relay_and_their_round_trips_agree_with_oracle():
    for d in _ring_and_relay():
        assert _assert_agree(d) == 0
        assert _assert_agree(mll_to_nmll(nmll_to_mll(d))) > 0
    # without shared entries, at the smallest sizes: the oracle is slow
    for d in _ring_and_relay(rings=(8,), relays=(8,)):
        assert _assert_agree(_unshared(d)) == 0
        assert _assert_agree(_unshared(mll_to_nmll(nmll_to_mll(d)))) > 0


def test_mutants_agree_with_oracle():
    rng = random.Random(0)
    kinds = Counter()
    for d in _generated():
        for mutant, paths in _mutants(d, rng):
            kinds[_assert_agree(mutant, paths)] += 1
    for d in _ring_and_relay():
        for mutant, paths in _mutants(d, rng, per_kind=4):
            kinds[_assert_agree(mutant, paths)] += 1
    # most mutants fail; those that still check (a permuted conclusion, a
    # swap of two equal entries) must check under both
    assert kinds[1] > 1000 and kinds[0] > 50, kinds


# -- one edit at one node, drawn at random -------------------------------------

def _flipped(ty, path):
    """ty with the atom at path renamed, A to B and any other to A."""
    if not path:
        return Atom("B" if ty.name == "A" else "A")
    kids = list(children(ty))
    kids[path[0]] = _flipped(kids[path[0]], path[1:])
    return type(ty)(*kids)


def _edited(items, kind, rng, type_of=lambda x: x, with_type=lambda x, ty: ty):
    """items after one edit of kind, drawn by rng, or None if items has too
    few: an item dropped, one duplicated at any place, one swapped with its
    right neighbour, or one atom of an item's type (type_of, rebuilt by
    with_type) renamed."""
    items = list(items)
    if kind == "drop" and items:
        del items[rng.randrange(len(items))]
    elif kind == "duplicate" and items:
        items.insert(rng.randrange(len(items) + 1), rng.choice(items))
    elif kind == "swap" and len(items) > 1:
        k = rng.randrange(len(items) - 1)
        items[k:k + 2] = items[k + 1], items[k]
    elif kind == "atom":
        spots = [(k, p) for k, x in enumerate(items) if type_of(x) is not None
                 for p, t in preorder(type_of(x), children) if type(t) is Atom]
        if not spots:
            return None
        k, p = rng.choice(spots)
        items[k] = with_type(items[k], _flipped(type_of(items[k]), p))
    else:
        return None
    return tuple(items)


def _edit_sequent(s, kind, rng):
    """s after one edit of kind to its declarations or its entries (see
    _edited), or with one declaration renamed, or None if it has too few."""
    if kind == "rename":
        if not s.gamma:
            return None
        gamma = list(s.gamma)
        k = rng.randrange(len(gamma))
        gamma[k] = (gamma[k][0] + "_", gamma[k][1])
        return Sequent(tuple(gamma), s.delta)
    if rng.randrange(2):
        gamma = _edited(s.gamma, kind, rng, itemgetter(1), lambda d, ty: (d[0], ty))
        return None if gamma is None else Sequent(gamma, s.delta)
    delta = _edited(s.delta, kind, rng, attrgetter("type"),
                    lambda e, ty: DeltaEntry(e.term, ty))
    return None if delta is None else Sequent(s.gamma, delta)


@lru_cache(maxsize=None)
def _generated_one(seed, max_nodes):
    return gen_derivation(GenConfig(seed=seed, max_nodes=max_nodes))


@settings(deadline=None)
@given(st.integers(0, 199), st.sampled_from((12, 36)),
       st.sampled_from(("drop", "duplicate", "swap", "atom", "rename")),
       st.randoms(use_true_random=False))
def test_single_edits_agree_with_oracle(seed, max_nodes, kind, rng):
    # one edit at one node of a generated derivation: every node, and the
    # first violation, as the oracle has them
    d = _generated_one(seed, max_nodes)
    path, node = rng.choice(list(_nodes(d)))
    con = _edit_sequent(node.conclusion, kind, rng)
    if con is not None:
        _assert_agree(_replace(d, path, Derivation(node.rule, con, node.premises)))


def test_duplicated_principal_values_report_first_positions():
    # two equal * : bot entries, distinct objects: either could be the one
    # BotI added; the first is reported, as before
    star1, star2 = DeltaEntry(UNIT, BOT), DeltaEntry(UNIT, BOT)
    x = DeltaEntry(Var("x"), A)
    leaf = Derivation(Rule.AX, Sequent((("x", A),), (x,)))
    below = Derivation(Rule.BOT_I, Sequent((("x", A),), (x, star2)), (leaf,))
    d = Derivation(Rule.BOT_I, Sequent((("x", A),), (star1, x, star2)), (below,))
    assert match_rule(d) == _old_match_rule(d) == {"i": 0}
    check_derivation(d)


def _leaf(gamma, delta):
    """A node concluding gamma |- delta; only its conclusion is read when
    the node above it is matched."""
    return Derivation(Rule.AX, Sequent(tuple(gamma), tuple(delta)))


def test_exchanged_side_entries_pair_by_value():
    # a unary rule's side entries, shared with its premise, in another
    # order: the identity runs stop at each exchange, and every outcome
    # is the oracle's
    xs = [DeltaEntry(Var(f"x{k}"), A) for k in range(12)]
    gamma = [(f"x{k}", A) for k in range(12)]
    star = DeltaEntry(UNIT, BOT)
    premise = _leaf(gamma, xs)
    conclusions = {
        "blocks swapped": xs[6:] + [star] + xs[:6],
        "reversed": [star] + xs[::-1],
        "one moved": xs[1:7] + [xs[0], star] + xs[7:],
        "an equal copy": [DeltaEntry(Var("x3"), A)] + xs[:3] + xs[4:] + [star],
        "one dropped": xs[:5] + [star] + xs[6:],
        "one doubled": xs[:5] + [star, xs[5]] + xs[5:],
    }
    outcomes = {}
    for name, delta in conclusions.items():
        node = Derivation(Rule.BOT_I, Sequent(tuple(gamma), tuple(delta)), (premise,))
        outcome = _outcome(match_rule, node, ())
        assert outcome == _outcome(_old_match_rule, node, ()), name
        outcomes[name] = outcome[0]
    assert [k for k, v in outcomes.items() if v == "instance"] == [
        "blocks swapped", "reversed", "one moved", "an equal copy"]


def test_interleaving_keeps_each_premise_order():
    # LolliE's side entries may interleave the premises' but not reorder
    # either: runs taken from both premises in turn, and one exchange
    xs = [DeltaEntry(Var(f"x{k}"), A) for k in range(6)]
    ys = [DeltaEntry(Var(f"y{k}"), A) for k in range(6)]
    f = DeltaEntry(Var("f"), Lolli(A, B))
    a = DeltaEntry(Var("a"), A)
    app = DeltaEntry(App(Var("f"), Var("a")), B)
    g1 = [(f"x{k}", A) for k in range(6)] + [("f", Lolli(A, B))]
    g2 = [(f"y{k}", A) for k in range(6)] + [("a", A)]
    premises = (_leaf(g1, xs[:3] + [f] + xs[3:]), _leaf(g2, [a] + ys))
    for side, ok in ((xs[:2] + ys[:3] + xs[2:] + ys[3:], True),
                     (ys + xs, True),
                     (xs[:2] + ys[:3] + [xs[3], xs[2]] + xs[4:] + ys[3:], False)):
        node = Derivation(Rule.LOLLI_E, Sequent(tuple(g1 + g2), tuple(side) + (app,)),
                          premises)
        outcome = _outcome(match_rule, node, ())
        assert outcome == _outcome(_old_match_rule, node, ())
        assert (outcome[0] == "instance") == ok


def test_shared_names_above_a_failing_node_are_reported_first():
    # f : (A -o A) -o B applied to lam f. f: the premises share the name
    # f, and only that breaks the LolliE.  It is tested once both
    # subtrees are matched, but still reported before a node below it
    # that fails, under either premise
    fun_ty = Lolli(Lolli(A, A), B)
    fun = _leaf([("f", fun_ty)], [DeltaEntry(Var("f"), fun_ty)])
    body = _leaf([("f", A)], [DeltaEntry(Var("f"), A)])
    lam = DeltaEntry(Send("f", Var("f")), Lolli(A, A))
    app = DeltaEntry(App(Var("f"), lam.term), B)

    def arg(body):
        return Derivation(Rule.LOLLI_I, Sequent((), (lam,)), (body,))

    def stalled(d):  # a BotI that adds nothing, concluding what d does
        return Derivation(Rule.BOT_I, d.conclusion, (d,))

    for fun_d, arg_d in ((fun, arg(body)), (stalled(fun), arg(body)),
                         (fun, stalled(arg(body))), (fun, arg(stalled(body)))):
        d = Derivation(Rule.LOLLI_E, Sequent((("f", fun_ty),), (app,)), (fun_d, arg_d))
        d = Derivation(Rule.BOT_I, Sequent(d.conclusion.gamma, (app, _STAR)), (d,))
        _assert_agree(d)
        assert _first_violation(d) == ((0,), "premises 0 and 1 share variables ['f']")


def test_weakening_above_a_failing_node_is_reported_first():
    # a LolliI abstracting x, which its premise declares but uses nowhere;
    # that premise, an axiom with two declarations, fails too, and comes
    # later in preorder
    premise = _leaf([("x", B), ("y", A)], [DeltaEntry(Var("y"), A)])
    lam = DeltaEntry(Send("x", Var("y")), Lolli(B, A))
    d = Derivation(Rule.LOLLI_I, Sequent((("y", A),), (lam,)), (premise,))
    d = Derivation(Rule.BOT_I, Sequent((("y", A),), (lam, _STAR)), (d,))
    _assert_agree(d)
    assert _first_violation(d) == ((0,), "abstracted 'x' occurs neither in the "
                                         "principal term nor elsewhere (no weakening)")


_STAR = DeltaEntry(UNIT, BOT)


# -- growth guards: counts, not timings ---------------------------------------

def test_reconstruct_shares_unchanged_entries():
    rng = random.Random(1)
    d = reconstruct(_INPUTS.ring_case(0, 48, rng).sequent)
    nodes = [node for _, node in _nodes(d)]
    objects = {id(e) for node in nodes for e in node.conclusion.delta}
    assert len(objects) <= 2 * len(nodes)
    # every entry but the principal one is an object of some premise
    for node in nodes[1:]:
        ids = {id(e) for p in node.premises for e in p.conclusion.delta}
        if node.premises:
            new = [e for e in node.conclusion.delta if id(e) not in ids]
            assert len(new) <= 1


def test_identity_runs_leave_per_entry_work_linear_in_nodes(monkeypatch):
    # entries that reach the pairing entry by entry or the interleaving
    # search: a few per node matched, on the reconstructed ring(48) and
    # relay(24), on their round trips up to the node that fails (ROADMAP
    # item 1), and on an 8,751-node chain whose sequents grow to 2,501
    # entries, checked at the default recursion limit
    import lamp.derivations as derivations

    seen = Counter()
    pair, search, match = (derivations._pair, derivations._interleaves,
                           derivations._match)

    def counting_pair(a, parts):
        seen["entries"] += len(a) + sum(map(len, parts))
        return pair(a, parts)

    def counting_search(target, parts):
        seen["entries"] += len(target) + sum(map(len, parts))
        return search(target, parts)

    def counting_match(*args, **kwargs):
        seen["nodes"] += 1
        return match(*args, **kwargs)

    monkeypatch.setattr(derivations, "_pair", counting_pair)
    monkeypatch.setattr(derivations, "_interleaves", counting_search)
    monkeypatch.setattr(derivations, "_match", counting_match)
    ring = reconstruct(_INPUTS.ring_case(0, 48, random.Random(1)).sequent)
    relay = reconstruct(_INPUTS.relay_case(0, 24, random.Random(1)).sequent)
    chain = mll_to_nmll(_mll_chain(2500, cut=True))
    assert sys.getrecursionlimit() == 1000
    for d in (ring, relay, mll_to_nmll(nmll_to_mll(ring)),
              mll_to_nmll(nmll_to_mll(relay)), chain):
        seen.clear()
        try:
            check_derivation(d)
        except RuleViolation:
            pass
        assert 0 < seen["entries"] <= 6 * seen["nodes"], seen


def test_printer_prints_each_entry_object_once(monkeypatch):
    import lamp.terms as terms

    ring = reconstruct(_INPUTS.ring_case(0, 48, random.Random(1)).sequent)
    derivations = [ring] + [gen_derivation(GenConfig(seed=seed, max_nodes=36))
                            for seed in range(50)]
    texts = [derivation_to_sexpr(d) for d in derivations]
    calls = Counter()
    real = terms.print_term

    def counting(t, memo=None):
        calls["print_term"] += 1
        return real(t, memo)

    monkeypatch.setattr(terms, "print_term", counting)
    for d, text in zip(derivations, texts):
        objects = {id(e) for _, node in _nodes(d) for e in node.conclusion.delta}
        calls.clear()
        assert derivation_to_sexpr(d) == text
        assert 0 < calls["print_term"] <= len(objects)


# -- any width, any depth, at the default recursion limit ---------------------

def _stars_over(leaf, n):
    """leaf under n BotI nodes, each adding one * : bot entry in front."""
    star = DeltaEntry(UNIT, BOT)
    d = leaf
    for _ in range(n):
        c = d.conclusion
        d = Derivation(Rule.BOT_I, Sequent(c.gamma, (star,) + c.delta), (d,))
    return d


def test_lolli_e_with_two_thousand_side_entries_checks():
    assert sys.getrecursionlimit() == 1000
    f = DeltaEntry(Var("f"), Lolli(A, B))
    a = DeltaEntry(Var("a"), A)
    # premise 0 concludes close(*), then 999 * : bot, then f; premise 1
    # 1000 * : bot, then a; each sits on a chain of 1000 or more nodes
    d1 = _stars_over(Derivation(Rule.AX, Sequent((("f", Lolli(A, B)),), (f,))), 1000)
    c = d1.conclusion
    close = DeltaEntry(Close(UNIT), None)
    d1 = Derivation(Rule.BOT_E, Sequent(c.gamma, (close,) + c.delta[1:]), (d1,))
    d2 = _stars_over(Derivation(Rule.AX, Sequent((("a", A),), (a,))), 1000)
    side = d1.conclusion.delta[:-1] + d2.conclusion.delta[:-1]
    assert len(side) == 2000
    app = DeltaEntry(App(Var("f"), Var("a")), B)
    gamma = (("f", Lolli(A, B)), ("a", A))
    d = Derivation(Rule.LOLLI_E, Sequent(gamma, side + (app,)), (d1, d2))
    check_derivation(d)
    assert match_rule(d) == {"i": 2000, "j1": 1000, "j2": 1000, "a": A, "b": B}
    text = derivation_to_sexpr(d)
    assert text.count("\n") == 2003
    assert text.endswith('(Ax "a : A |- a : A"' + ")" * 1002)
    # close(*) after premise 0's stars breaks its order: no interleaving
    moved = side[1:] + side[:1] + (app,)
    with pytest.raises(RuleViolation, match="LolliE must apply") as err:
        check_derivation(Derivation(Rule.LOLLI_E, Sequent(gamma, moved), (d1, d2)))
    assert err.value.path == ()


# -- the rule table rebuilds what the checker matched -------------------------

def _rebuilt(node, inst):
    """node's conclusion as its rule's builder in FORWARD gives it, at the
    positions and the place match_rule reported (by the rule's names)."""
    fr = FORWARD[node.rule]
    at, *flat = [inst.get(name) for name in fr.names.split()]
    seqs = tuple(p.conclusion for p in node.premises)
    positions, flat = [], iter(flat)
    for premise in fr.premises:
        m = len(premise.sides)
        positions.append(None if m == 0 else next(flat) if m == 1
                         else tuple(next(flat) for _ in range(m)))
    return fr.conclusion(seqs, tuple(positions), at=at)


def test_every_rule_rebuilds_the_conclusions_it_matched():
    # over the 400 generated derivations, every rule with premises: the
    # builder gives each conclusion up to the exchange the rule allows, and,
    # as the nodes are the generator's own output, exactly, but where the
    # node or a premise holds equal copies, the first of which the checker
    # reports
    outcomes = Counter()
    for d in _generated():
        for _, node in _nodes(d):
            if not node.premises:
                continue
            con, rebuilt = node.conclusion, _rebuilt(node, match_rule(node))
            assert Counter(rebuilt.delta) == Counter(con.delta)
            assert (rebuilt.gamma == con.gamma if len(node.premises) == 1
                    else Counter(rebuilt.gamma) == Counter(con.gamma))
            exact = rebuilt == con
            assert exact or any(len(set(side)) < len(side) for s in (
                con, *(p.conclusion for p in node.premises)) for side in s[1:])
            outcomes[node.rule, exact] += 1
    assert {rule for rule, _ in outcomes} == set(FORWARD)
    assert all(outcomes[rule, True] > 40 for rule in FORWARD), outcomes
