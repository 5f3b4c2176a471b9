"""Sequent calculus checking and the two derivation translations."""

import hashlib
import random
import sys

import pytest

import lamp
from lamp import derivations
from lamp.derivations import Derivation, Rule, check_derivation, premises_of
from lamp.mll import (
    MllDerivation, MllRule, MllRuleViolation, MllSequent, check_mll,
    mll_to_nmll, nmll_to_mll, type_erasure,
)
from lamp.parser import parse_program
from lamp.reconstruct import reconstruct
from lamp.terms import (
    Atom, BOT, Close, DeltaEntry, Lolli, ParT, Sequent, Var, nodes, preorder,
    var_names,
)
from lamp.testlab import GenConfig, gen_derivation, gen_mll
from lamp.sexpr import derivation_to_sexpr, mll_to_sexpr
from tests.conftest import corpus_text
from tests.test_checker import _INPUTS, _stars_over

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
# and concludes its input exactly.  The ND round trip does not check yet:
# nmll_to_mll indexes the translated premises by position, and mll_to_nmll
# does not keep the ND side's order (ROADMAP item 1).  The smallest known
# witnesses below are strict xfails, whose marks go once item 1 makes that
# half sound.

def _item_1(raises, text):
    return pytest.mark.xfail(strict=True, raises=raises,
                             reason=f"ROADMAP item 1, round trip fails: {text}")


@_item_1(derivations.RuleViolation,
         "LolliI must abstract one declaration into a Send")
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the per-node order rule fails")
def test_nd_round_trip_keeps_the_order_of_every_node():
    # item 1's per-node rule: each node of nmll_to_mll(d), translated back,
    # erases to that node's sequent in its order.  It held at 13,063 of
    # the 14,764 nodes when it was written
    held = total = 0
    for max_nodes in (12, 36):
        for seed in range(200):
            m = nmll_to_mll(gen_derivation(GenConfig(seed=seed, max_nodes=max_nodes)))
            for node in nodes(m, premises_of):
                total += 1
                held += type_erasure(mll_to_nmll(node).conclusion) == node.conclusion
    assert held == total, f"the rule holds at {held} of {total} nodes"


@_item_1(derivations.RuleViolation,
         "ParrI must merge two adjacent typed entries")
def test_nd_round_trip_of_ring():
    d = reconstruct(_INPUTS.ring_case(0, 8, random.Random(0)).sequent)
    check_derivation(mll_to_nmll(nmll_to_mll(d)))


@_item_1(derivations.RuleViolation,
         "LolliI must abstract one declaration into a Send")
def test_nd_round_trip_of_relay():
    d = reconstruct(_INPUTS.relay_case(0, 8, random.Random(0)).sequent)
    check_derivation(mll_to_nmll(nmll_to_mll(d)))


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
# _mll_inputs(); taken when mll_to_nmll translated each node by recursion
MLL_TO_NMLL_SHA256 = "19f1d7cdcd3cf09bc87b6fe857a2a3eca4a7a181561d976ac11376d14341ef8a"


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


def test_nmll_to_mll_names_each_entry_object_once(monkeypatch):
    # nodes share the entries their rule leaves unchanged; one cache for
    # the whole walk computes each object's names once
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return var_names(t)

    monkeypatch.setattr(derivations, "var_names", counted)
    for d in _translation_inputs():
        entries = set()
        stack = [d]
        while stack:
            node = stack.pop()
            entries.update(id(e) for e in node.conclusion.delta)
            stack.extend(node.premises)
        calls = 0
        nmll_to_mll(d)
        assert calls <= len(entries)


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
