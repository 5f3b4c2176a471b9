"""Sequent calculus checking and the two derivation translations."""

import hashlib
import random
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import lamp
from lamp import derivations
from lamp.derivations import Derivation, Rule, axiom, check_derivation, premises_of
from lamp.mll import (
    MLL_FORWARD, MllDerivation, MllRule, MllRuleViolation, MllSequent,
    check_mll, match_mll, mll_to_nmll, nmll_to_mll, type_erasure,
)
from lamp.parser import parse_program
from lamp.reconstruct import reconstruct
from lamp.terms import (
    App, Atom, BOT, Close, DeltaEntry, Lolli, ParT, Send, Sequent, Var, nodes,
    preorder, sequent_names,
)
from lamp.testlab import GenConfig, gen_derivation, gen_mll
from lamp.sexpr import derivation_to_sexpr, mll_to_sexpr
from tests.conftest import corpus_text
from tests.test_checker import (
    _INPUTS, _edited, _nodes, _outcome, _replace, _ring_and_relay, _stars_over,
)

A, B = Atom("A"), Atom("B")


def ax_id(ty):
    return MllDerivation(MllRule.AX_ID, MllSequent((ty,), (ty,)))


def test_identity_axiom_checks():
    check_mll(ax_id(A))


def test_bottom_axiom_checks():
    check_mll(MllDerivation(MllRule.AX_BOT, MllSequent((BOT,), ())))


def test_cut_with_mismatched_formula_rejected():
    bad = MllDerivation(
        MllRule.CUT, MllSequent((), ()),
        (ax_id(A), ax_id(B)))
    with pytest.raises(MllRuleViolation):
        check_mll(bad)


def test_cut_checks():
    cut = MllDerivation(MllRule.CUT, MllSequent((A,), (A,)),
                        (ax_id(A), ax_id(A)))
    check_mll(cut)


def test_lolli_left_display_instance():
    node = MllDerivation(
        MllRule.LOLLI_L, MllSequent((A, Lolli(A, B)), (B,)),
        (ax_id(A), ax_id(B)))
    check_mll(node)


def _bot_r(right, premise):
    return MllDerivation(MllRule.BOT_R, MllSequent((A,), right), (premise,))


def test_unary_rules_keep_order_and_splits_match_multisets():
    # A |- A, bot and A |- bot, A, each a bot-right over the identity axiom
    a_bot, bot_a = _bot_r((A, BOT), ax_id(A)), _bot_r((BOT, A), ax_id(A))
    check_mll(a_bot)
    check_mll(bot_a)
    # a unary rule reads its premise's contexts in order: one bot added
    # anywhere, the rest as the premise lists them
    check_mll(_bot_r((A, BOT, BOT), a_bot))
    with pytest.raises(MllRuleViolation, match="bot-right must add one bot"):
        check_mll(_bot_r((BOT, BOT, A), a_bot))
    # a split matches the premises' contexts as multisets
    check_mll(MllDerivation(MllRule.CUT, MllSequent((A,), (BOT, A, BOT)),
                            (a_bot, bot_a)))


def test_axiom_translates_to_identity():
    d = Derivation(Rule.AX, Sequent((("x", A),), (DeltaEntry(Var("x"), A),)))
    m = nmll_to_mll(d)
    assert m == ax_id(A)


def test_close_translates_to_cut_against_bottom_axiom():
    ax = Derivation(Rule.AX, Sequent((("x", BOT),),
                                     (DeltaEntry(Var("x"), BOT),)))
    d = Derivation(Rule.BOT_E,
                   Sequent((("x", BOT),), (DeltaEntry(Close(Var("x")), None),)),
                   (ax,))
    m = nmll_to_mll(d)
    check_mll(m)
    assert m.rule is MllRule.CUT
    assert m.conclusion == MllSequent((BOT,), ())
    assert m.premises[1].rule is MllRule.AX_BOT


def test_excluded_middle_translates():
    prog = parse_program(corpus_text("excluded_middle"))
    d = reconstruct(prog.sequent, prog.annotations)
    m = nmll_to_mll(d)
    check_mll(m)
    assert m.conclusion == MllSequent((), (ParT(A, Lolli(A, BOT)),))


def test_corpus_translations_check():
    for name in ["client_server_request", "cyclic", "channel_transmission",
                 "client_server_dialogue"]:
        prog = parse_program(corpus_text(name))
        d = reconstruct(prog.sequent, prog.annotations)
        m = nmll_to_mll(d)
        check_mll(m)
        assert m.conclusion == type_erasure(d.conclusion)


def test_bottom_axiom_translates_to_close():
    m = MllDerivation(MllRule.AX_BOT, MllSequent((BOT,), ()))
    d = mll_to_nmll(m)
    check_derivation(d)
    assert isinstance(d.conclusion.delta[0].term, Close)
    assert type_erasure(d.conclusion) == m.conclusion


def test_cut_translates_to_applied_output():
    cut = MllDerivation(MllRule.CUT, MllSequent((A,), (A,)),
                        (ax_id(A), ax_id(A)))
    d = mll_to_nmll(cut)
    check_derivation(d)
    assert type_erasure(d.conclusion) == cut.conclusion


def test_par_right_translates_rule_to_rule():
    inner = MllDerivation(MllRule.BOT_R, MllSequent((A,), (A, BOT)),
                          (ax_id(A),))
    m = MllDerivation(MllRule.PARR_R, MllSequent((A,), (ParT(A, BOT),)),
                      (inner,))
    d = mll_to_nmll(m)
    check_derivation(d)
    assert d.rule is Rule.PARR_I
    assert type_erasure(d.conclusion) == m.conclusion


def test_translations_deterministic():
    m = gen_mll(GenConfig(seed=7, max_nodes=9))
    assert mll_to_nmll(m) == mll_to_nmll(m)


@pytest.mark.parametrize("seed", range(40))
def test_generated_nmll_round(seed):
    d = gen_derivation(GenConfig(seed=seed, max_nodes=10))
    m = nmll_to_mll(d)
    check_mll(m)
    assert m.conclusion == type_erasure(d.conclusion)


@pytest.mark.parametrize("seed", range(40))
def test_generated_mll_round(seed):
    m = gen_mll(GenConfig(seed=seed, max_nodes=9))
    check_mll(m)
    d = mll_to_nmll(m)
    check_derivation(d)
    assert type_erasure(d.conclusion) == m.conclusion


# -- cross-fed round trips ---------------------------------------------------
# mll_to_nmll builds each sequent in its source's order, and nmll_to_mll's
# ParrE cut follows its ND conclusion's order, so an MLL round trip checks
# and concludes its input exactly.  mll_to_nmll turns the shapes
# nmll_to_mll writes for each elimination back into that elimination, so
# an ND round trip checks too; the smallest witnesses of the fault that
# once broke it come first.

def test_nd_round_trip_of_a_generated_derivation():
    # v1 : A |- lam v2. v2 v1 : (A -o B) -o B
    d = gen_derivation(GenConfig(seed=56, max_nodes=4))
    check_derivation(mll_to_nmll(nmll_to_mll(d)))


def test_mll_round_trip_of_a_generated_derivation():
    # B -o B, B par bot |- B: a ParrE whose cut must take the order of
    # the ParrE's conclusion, not of its premises
    m = gen_mll(GenConfig(seed=65, max_nodes=5))
    check_mll(nmll_to_mll(mll_to_nmll(m)))


def test_mll_round_trips_check_and_conclude_their_input():
    for max_nodes in (12, 36):
        for seed in range(200):
            m = gen_mll(GenConfig(seed=seed, max_nodes=max_nodes))
            back = nmll_to_mll(mll_to_nmll(m))
            check_mll(back)
            assert back.conclusion == m.conclusion, (max_nodes, seed)


def test_mll_to_nmll_keeps_the_order_of_every_node():
    # the order rule mll_to_nmll's builders keep, node by node: a
    # translated sequent erases to its source in the source's order
    for seed in range(50):
        m = gen_mll(GenConfig(seed=seed, max_nodes=24))
        for _, node in preorder(m, premises_of):
            assert type_erasure(mll_to_nmll(node).conclusion) == node.conclusion


def test_nd_round_trip_keeps_the_order_of_every_node():
    # the per-node rule: each node of nmll_to_mll(d), translated back,
    # erases to that node's sequent in its order
    held = total = 0
    for max_nodes in (12, 36):
        for seed in range(200):
            m = nmll_to_mll(gen_derivation(GenConfig(seed=seed, max_nodes=max_nodes)))
            for node in nodes(m, premises_of):
                total += 1
                held += type_erasure(mll_to_nmll(node).conclusion) == node.conclusion
    assert held == total, f"the rule holds at {held} of {total} nodes"


def test_splits_in_any_order_translate_in_that_order():
    # a context-splitting rule's conclusion may list its premises'
    # formulas in any order, which need not merge theirs: its translation
    # still checks and erases to it in that order, its close reordering
    # what the elimination cannot.  Each split of the generated
    # derivations of both calculi, its conclusion shuffled, as the root
    rng = random.Random(0)
    seen = Counter()
    for seed in range(50):
        for m in (gen_mll(GenConfig(seed=seed, max_nodes=24)),
                  nmll_to_mll(gen_derivation(GenConfig(seed=seed, max_nodes=24)))):
            for node in nodes(m, premises_of):
                if node.rule not in (MllRule.CUT, MllRule.LOLLI_L, MllRule.PARR_L):
                    continue
                left, right = list(node.conclusion.left), list(node.conclusion.right)
                rng.shuffle(left)
                rng.shuffle(right)
                split = MllDerivation(node.rule, MllSequent(tuple(left), tuple(right)),
                                      node.premises)
                d = mll_to_nmll(split)
                check_derivation(d)
                assert type_erasure(d.conclusion) == split.conclusion
                seen[node.rule] += 1
    assert min(seen.values()) > 50, seen


def test_nd_round_trip_of_ring():
    d = reconstruct(_INPUTS.ring_case(0, 8, random.Random(0)).sequent)
    check_derivation(mll_to_nmll(nmll_to_mll(d)))


def test_nd_round_trip_of_relay():
    d = reconstruct(_INPUTS.relay_case(0, 8, random.Random(0)).sequent)
    check_derivation(mll_to_nmll(nmll_to_mll(d)))


def _round_trip_inputs():
    """The 400 generated derivations, ring and relay at 8..48, and every
    sequent of the completeness probe (tests/test_completeness.py),
    reconstructed: the exhaustive check below its bound."""
    from tests.test_completeness import MAX_SIZE, TYPES, _dist_layer
    from lamp.testlab import closure

    yield from (gen_derivation(GenConfig(seed=seed, max_nodes=m))
                for m in (12, 36) for seed in range(200))
    sizes = range(8, 49, 8)
    yield from _ring_and_relay(rings=sizes, relays=sizes)
    seen = closure(TYPES, MAX_SIZE)
    for s in sorted(seen | _dist_layer(seen), key=str):
        yield reconstruct(s)


def test_nd_round_trip_keeps_every_rule_and_erasure():
    # each elimination comes back as the one node it was: the round trip
    # has d's rule at every path, and each node concludes the erasure of
    # d's node there, in its order
    count = 0
    for d in _round_trip_inputs():
        trip = mll_to_nmll(nmll_to_mll(d))
        check_derivation(trip)
        pairs = list(zip(preorder(d, premises_of), preorder(trip, premises_of)))
        assert len(pairs) == len(list(nodes(trip, premises_of)))
        for (path, a), (path2, b) in pairs:
            assert (path2, b.rule) == (path, a.rule), d.conclusion
            assert type_erasure(b.conclusion) == type_erasure(a.conclusion), \
                (d.conclusion, path)
        count += 1
    assert count == 400 + 12 + 1182


def test_translators_report_the_path_of_a_bad_node():
    # a broken axiom two nodes down: each translator names the node at
    # (0, 0), as the checker of its input does
    x_y = Sequent((("x", A),), (DeltaEntry(Var("y"), A),))
    d = _stars_over(Derivation(Rule.AX, x_y), 2)
    for check in (check_derivation, nmll_to_mll):
        with pytest.raises(derivations.RuleViolation) as err:
            check(d)
        assert err.value.path == (0, 0)
    m = MllDerivation(MllRule.AX_ID, MllSequent((A,), (B,)))
    for _ in range(2):
        c = m.conclusion
        m = MllDerivation(MllRule.BOT_R, MllSequent(c.left, c.right + (BOT,)), (m,))
    for check in (check_mll, mll_to_nmll):
        with pytest.raises(MllRuleViolation) as err:
            check(m)
        assert err.value.path == (0, 0)


# -- one tree and one violation for both calculi ----------------------------

def test_both_calculi_share_the_tree_and_the_violation():
    assert lamp.MllDerivation is lamp.Derivation
    assert lamp.MllRuleViolation is lamp.RuleViolation


def _cases_with(in_nd, in_mll):
    """(checks, tree, path): trees of each calculus with the node in_nd or
    in_mll at path, beside the checks of that calculus: at the root, under
    a unary node and as a binary node's second premise."""
    nd_checks = (check_derivation, nmll_to_mll)
    mll_checks = (check_mll, mll_to_nmll)
    star = Sequent((("x", A),), (DeltaEntry(Var("x"), A), derivations._STAR))
    lolli_e = gen_derivation(GenConfig(seed=0, max_nodes=6))
    assert lolli_e.rule is Rule.LOLLI_E
    return [
        (nd_checks, in_nd, ()),
        (nd_checks, _stars_over(Derivation(Rule.BOT_I, star, (in_nd,)), 1), (0, 0)),
        (nd_checks, Derivation(Rule.LOLLI_E, lolli_e.conclusion,
                               (lolli_e.premises[0], in_nd)), (1,)),
        (mll_checks, in_mll, ()),
        (mll_checks, Derivation(MllRule.BOT_R, MllSequent((A,), (A, BOT)), (in_mll,)),
         (0,)),
        (mll_checks, Derivation(MllRule.CUT, MllSequent((A,), (A,)),
                                (ax_id(A), in_mll)), (1,)),
    ]


def _violations(cases):
    """(check, the path and reason of its violation, the node at path)."""
    for checks, tree, path in cases:
        node = tree
        for k in path:
            node = node.premises[k]
        for check in checks:
            with pytest.raises(derivations.RuleViolation) as err:
                check(tree)
            yield check, (err.value.path, err.value.reason), path, node


def test_a_node_of_the_other_calculus_is_an_unknown_rule_at_its_path():
    cases = _cases_with(ax_id(A), Derivation(Rule.AX, derivations.axiom("x", A)))
    for check, found, path, node in _violations(cases):
        assert found == (path, f"unknown rule {node.rule!r}"), check.__name__


def test_a_conclusion_of_the_other_calculus_is_a_violation_at_its_path():
    # rules of the right calculus over the other calculus's sequents
    cases = _cases_with(Derivation(Rule.AX, MllSequent((A,), (A,))),
                        Derivation(MllRule.AX_ID, derivations.axiom("x", A)))
    for check, found, path, node in _violations(cases):
        want = "MllSequent, expected Sequent" if isinstance(node.rule, Rule) \
            else "Sequent, expected MllSequent"
        assert found == (path, f"conclusion is {want}"), check.__name__


# -- the oracle: the sequent calculus checker before the rule table ----------
# match_mll and _match_split as they were when both checkers matched each
# rule by its own branch, with multisets compared by Counter

_OLD_MLL_ARITY = {
    MllRule.AX_ID: 0, MllRule.AX_BOT: 0, MllRule.BOT_R: 1, MllRule.LOLLI_R: 1,
    MllRule.PARR_R: 1, MllRule.LOLLI_L: 2, MllRule.PARR_L: 2, MllRule.CUT: 2,
}

_OLD_SPLITTING = {
    MllRule.CUT: (None, False, "cut formulas do not match the contexts"),
    MllRule.LOLLI_L: (Lolli, False, "lolli-left does not match its premises"),
    MllRule.PARR_L: (ParT, True, "par-left does not match its premises"),
}


def _old_without(entries, i):
    return entries[:i] + entries[i + 1:]


def _old_same(a, *parts):
    return Counter(a) == Counter(x for p in parts for x in p)


def _old_match_split(con, p1, p2, cls, on_left):
    if cls is None:
        heads = [(None, (), None, None)]
    else:
        heads = [(k, (ty,), ty[1], ty[2]) for k, ty in enumerate(con.left)
                 if type(ty) is cls]
    found = None
    for k, intro, a, b in heads:
        left = con.left if k is None else _old_without(con.left, k)
        for i, a1 in enumerate(p1.left if on_left else p1.right):
            if a is not None and a1 != a:
                continue
            l1 = _old_without(p1.left, i) if on_left else p1.left
            r1 = p1.right if on_left else _old_without(p1.right, i)
            for j, b1 in enumerate(p2.left):
                if b1 != (a1 if k is None else b):
                    continue
                l2 = _old_without(p2.left, j)
                inst = ({"i": i, "j": j, "a": a1} if k is None
                        else {"k": k, "i": i, "j": j, "a": a, "b": b})
                if con.left == (l1 + l2 + intro if on_left else l1 + intro + l2) \
                        and con.right == r1 + p2.right:
                    return inst
                if found is None and _old_same(left, l1, l2) \
                        and _old_same(con.right, r1, p2.right):
                    found = inst
    return found


def _old_match_mll(node, path=()):
    rule, con, prems = node.rule, node.conclusion, node.premises
    if len(prems) != _OLD_MLL_ARITY[rule]:
        raise MllRuleViolation(path, f"{rule.value} expects {_OLD_MLL_ARITY[rule]} "
                                     f"premises, got {len(prems)}")

    if rule is MllRule.AX_ID:
        if len(con.left) == 1 and con.left == con.right:
            return {"a": con.left[0]}
        raise MllRuleViolation(path, "identity axiom must be  A |- A")

    if rule is MllRule.AX_BOT:
        if con.left == (BOT,) and con.right == ():
            return {}
        raise MllRuleViolation(path, "bottom axiom must be  bot |-")

    if rule is MllRule.BOT_R:
        p = prems[0].conclusion
        if p.left == con.left:
            for i, ty in enumerate(con.right):
                if ty == BOT and _old_without(con.right, i) == p.right:
                    return {"i": i}
        raise MllRuleViolation(path, "bot-right must add one bot on the right")

    if rule is MllRule.LOLLI_R:
        p = prems[0].conclusion
        for i, ty in enumerate(con.right):
            if type(ty) is Lolli:
                a, b = ty.arg, ty.res
                if p.right != con.right[:i] + (b,) + con.right[i + 1:]:
                    continue
                for j, ty2 in enumerate(p.left):
                    if ty2 == a and _old_without(p.left, j) == con.left:
                        return {"i": i, "j": j, "a": a, "b": b}
        raise MllRuleViolation(path, "lolli-right must move the antecedent left")

    if rule is MllRule.PARR_R:
        p = prems[0].conclusion
        if p.left == con.left:
            for i, ty in enumerate(con.right):
                if type(ty) is ParT:
                    a, b = ty.left, ty.right
                    if p.right == con.right[:i] + (a, b) + con.right[i + 1:]:
                        return {"i": i, "a": a, "b": b}
        raise MllRuleViolation(path, "par-right must split one par formula")

    cls, on_left, reason = _OLD_SPLITTING[rule]
    inst = _old_match_split(con, prems[0].conclusion, prems[1].conclusion, cls, on_left)
    if inst is not None:
        return inst
    raise MllRuleViolation(path, reason)


def _first_mll_violation(m):
    try:
        check_mll(m)
    except MllRuleViolation as err:
        return err.path, err.reason
    return None


def _assert_mll_agree(m):
    """Same outcome at every node, and check_mll stops at the oracle's first
    violation in preorder; returns how many nodes failed."""
    first, failed = None, 0
    for path, node in _nodes(m):
        old = _outcome(_old_match_mll, node, path)
        if old[0] == "violation":
            failed += 1
            first = first or (old[1], old[2])
        assert _outcome(match_mll, node, path) == old, path
    assert _first_mll_violation(m) == first
    return failed


_MLL_EDITS = ("drop", "duplicate", "swap", "atom")


def _mll_edit(m, kind, rng):
    """m with one edit of kind (see test_checker._edited) to one side of one
    node's conclusion, both drawn by rng, or None if that side has too few
    formulas."""
    path, node = rng.choice(list(_nodes(m)))
    c = node.conclusion
    side = rng.randrange(2)
    edited = _edited(c[1 + side], kind, rng)
    if edited is None:
        return None
    con = MllSequent(edited, c.right) if side == 0 else MllSequent(c.left, edited)
    return _replace(m, path, MllDerivation(node.rule, con, node.premises))


def test_generated_mll_and_single_edits_agree_with_oracle():
    rng = random.Random(0)
    outcomes = Counter()
    for max_nodes in (12, 36):
        for seed in range(200):
            m = gen_mll(GenConfig(seed=seed, max_nodes=max_nodes))
            assert _assert_mll_agree(m) == 0
            for kind in _MLL_EDITS:
                mutant = _mll_edit(m, kind, rng)
                if mutant is not None:
                    outcomes[kind, _assert_mll_agree(mutant) > 0] += 1
    # every kind of edit breaks some node; a swap of two equal formulas, or
    # of formulas a split matches as a multiset, breaks none
    assert all(outcomes[kind, True] > 40 for kind in _MLL_EDITS), outcomes
    assert outcomes["swap", False] > 20, outcomes


def test_ring_and_relay_translations_agree_with_oracle():
    rng = random.Random(0)
    failing = 0
    for d in _ring_and_relay(rings=(8, 24), relays=(8, 16)):
        m = nmll_to_mll(d)
        assert _assert_mll_agree(m) == 0
        for kind in _MLL_EDITS * 4:
            mutant = _mll_edit(m, kind, rng)
            failing += mutant is not None and _assert_mll_agree(mutant) > 0
    assert failing > 30


@lru_cache(maxsize=None)
def _generated_mll(seed, max_nodes):
    return gen_mll(GenConfig(seed=seed, max_nodes=max_nodes))


@settings(deadline=None)
@given(st.integers(0, 199), st.sampled_from((12, 36)), st.sampled_from(_MLL_EDITS),
       st.randoms(use_true_random=False))
def test_single_edits_agree_with_the_old_sequent_checker(seed, max_nodes, kind, rng):
    mutant = _mll_edit(_generated_mll(seed, max_nodes), kind, rng)
    if mutant is not None:
        _assert_mll_agree(mutant)


# -- nmll_to_mll: one name cache, no recursion -------------------------------

# SHA-256 of mll_to_sexpr(nmll_to_mll(d)), "\n\n" after each, over
# _translation_inputs(); taken when nmll_to_mll matched every node with a
# fresh name cache, by recursion
NMLL_TO_MLL_SHA256 = "c517317928c70d1a9d2b10538978268c0618f7385bce31fe211be95e9ee50a60"


def _translation_inputs():
    rng = random.Random(1)
    ds = [reconstruct(_INPUTS.ring_case(0, n, rng).sequent) for n in (8, 24, 48)]
    return ds + [gen_derivation(GenConfig(seed=seed, max_nodes=36))
                 for seed in range(50)]


def test_nmll_to_mll_output_is_byte_stable():
    h = hashlib.sha256()
    for d in _translation_inputs():
        h.update(mll_to_sexpr(nmll_to_mll(d)).encode())
        h.update(b"\n\n")
    assert h.hexdigest() == NMLL_TO_MLL_SHA256


# SHA-256 of derivation_to_sexpr(mll_to_nmll(m)), "\n\n" after each, over
# _mll_inputs(); taken when mll_to_nmll first turned the shapes nmll_to_mll
# writes for an elimination back into that elimination, which changed the
# six ring and relay inputs and the 29 generated ones with a cut against
# the bottom axiom
MLL_TO_NMLL_SHA256 = "bc67a049982738fb9822154cee3a90f0fa532b2844013e406d51ffe71b287074"


def _mll_inputs():
    rng = random.Random(1)
    cases = [_INPUTS.ring_case(0, n, rng) for n in (8, 24, 48)]
    cases += [_INPUTS.relay_case(0, n, rng) for n in (8, 16, 24)]
    ms = [nmll_to_mll(reconstruct(c.sequent)) for c in cases]
    return ms + [gen_mll(GenConfig(seed=seed, max_nodes=m))
                 for m in (9, 24) for seed in range(50)]


def test_mll_to_nmll_output_is_byte_stable():
    h = hashlib.sha256()
    for m in _mll_inputs():
        h.update(derivation_to_sexpr(mll_to_nmll(m)).encode())
        h.update(b"\n\n")
    assert h.hexdigest() == MLL_TO_NMLL_SHA256


def test_nmll_to_mll_reads_no_premise_names(monkeypatch):
    # the premise checks that matching defers read the names each subtree
    # gathered on the way up, so translating derivations that check reads
    # no premise's sequent names; a LolliE whose premises share f reads
    # them to report it
    calls = 0

    def counted(s):
        nonlocal calls
        calls += 1
        return sequent_names(s)

    monkeypatch.setattr(derivations, "sequent_names", counted)
    for d in _translation_inputs():
        nmll_to_mll(d)
    assert calls == 0
    fun_ty = Lolli(Lolli(A, A), B)
    lam = DeltaEntry(Send("f", Var("f")), Lolli(A, A))
    arg = Derivation(Rule.LOLLI_I, Sequent((), (lam,)),
                     (Derivation(Rule.AX, axiom("f", A)),))
    d = Derivation(Rule.LOLLI_E, Sequent((("f", fun_ty),), (DeltaEntry(
        App(Var("f"), lam.term), B),)), (Derivation(Rule.AX, axiom("f", fun_ty)), arg))
    with pytest.raises(derivations.RuleViolation,
                       match=r"premises 0 and 1 share variables \['f'\]"):
        nmll_to_mll(d)
    assert calls > 0


def test_nmll_to_mll_translates_a_thousand_node_chain():
    assert sys.getrecursionlimit() == 1000
    f = DeltaEntry(Var("f"), Lolli(A, B))
    d = _stars_over(Derivation(Rule.AX, Sequent((("f", Lolli(A, B)),), (f,))), 1000)
    m = nmll_to_mll(d)
    assert m.conclusion == type_erasure(d.conclusion)
    depth = 0
    while m.premises:
        assert m.rule is MllRule.BOT_R
        (m,) = m.premises
        depth += 1
    assert depth == 1000 and m.rule is MllRule.AX_ID


# -- the rule table rebuilds what the checker matched ------------------------

# where match_mll's instance data puts the positions MLL_FORWARD's builders
# read, beside the new formula's place; a split's is the builder's own,
# where an exact concatenation puts it
_POSITIONS = {
    MllRule.BOT_R: lambda inst: ((None,), inst["i"]),
    MllRule.LOLLI_R: lambda inst: (((inst["i"], inst["j"]),), None),
    MllRule.PARR_R: lambda inst: ((inst["i"],), None),
    MllRule.CUT: lambda inst: ((None, (inst["i"], inst["j"])), None),
    MllRule.LOLLI_L: lambda inst: ((None, (inst["i"], inst["j"])), None),
    MllRule.PARR_L: lambda inst: ((None, (inst["i"], inst["j"])), None),
}


def test_every_rule_rebuilds_the_conclusions_it_matched():
    # over the 400 generated derivations, every rule with premises: the
    # nodes are the generator's own output, in order or exact
    # concatenations, so the builder gives each conclusion exactly
    rules = Counter()
    for max_nodes in (12, 36):
        for seed in range(200):
            for _, node in _nodes(gen_mll(GenConfig(seed=seed, max_nodes=max_nodes))):
                if node.premises:
                    positions, at = _POSITIONS[node.rule](match_mll(node))
                    seqs = tuple(p.conclusion for p in node.premises)
                    assert MLL_FORWARD[node.rule].conclusion(
                        seqs, positions, at=at) == node.conclusion
                    rules[node.rule] += 1
    assert set(rules) == set(MLL_FORWARD) and min(rules.values()) > 100, rules
