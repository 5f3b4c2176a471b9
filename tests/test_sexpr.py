"""Derivation serialization round trips for both calculi."""

import sys

import pytest

from lamp.derivations import Derivation, Rule
from lamp.parser import ParseError
from lamp.sexpr import (
    derivation_to_sexpr, mll_to_sexpr, parse_mll_sequent_text,
    sexpr_to_derivation, sexpr_to_mll,
)
from lamp.testlab import GenConfig, gen_derivation, gen_mll
from lamp.mll import MllSequent, mll_to_nmll
from lamp.terms import DeltaEntry, Lolli, Sequent, Var
from tests.test_checker import A, B, _stars_over


@pytest.mark.parametrize("seed", range(15))
def test_nmll_roundtrip(seed):
    d = gen_derivation(GenConfig(seed=seed, max_nodes=10))
    assert sexpr_to_derivation(derivation_to_sexpr(d)) == d


@pytest.mark.parametrize("seed", range(15))
def test_mll_roundtrip(seed):
    m = gen_mll(GenConfig(seed=seed, max_nodes=9))
    assert sexpr_to_mll(mll_to_sexpr(m)) == m


def test_translated_tree_roundtrip():
    m = gen_mll(GenConfig(seed=3, max_nodes=9))
    d = mll_to_nmll(m)
    assert sexpr_to_derivation(derivation_to_sexpr(d)) == d


def test_unknown_tag_rejected():
    with pytest.raises(ParseError):
        sexpr_to_derivation('(Frobnicate "|- x : A")')


def test_malformed_sexpr_rejected():
    with pytest.raises(ParseError):
        sexpr_to_derivation('(Ax "x : A |- x : A"')


def test_reader_round_trips_a_thousand_node_chain():
    # the writer prints any depth; the reader reads it back without
    # recursion (Derivation == would recurse, so compare node by node)
    assert sys.getrecursionlimit() == 1000
    f = DeltaEntry(Var("f"), Lolli(A, B))
    d = _stars_over(Derivation(Rule.AX, Sequent((("f", Lolli(A, B)),), (f,))), 1000)
    pairs = [(sexpr_to_derivation(derivation_to_sexpr(d)), d)]
    nodes = 0
    while pairs:
        got, want = pairs.pop()
        assert (got.rule, got.conclusion) == (want.rule, want.conclusion)
        assert len(got.premises) == len(want.premises)
        pairs.extend(zip(got.premises, want.premises))
        nodes += 1
    assert nodes == 1001


def test_reader_reports_the_first_bad_tag_in_preorder():
    text = '(BotI "|- * : bot" (Nope "|- x : A") (Bad "|- y : A"))'
    with pytest.raises(ParseError, match="'Nope'"):
        sexpr_to_derivation(text)
    with pytest.raises(ParseError, match="unterminated string"):
        sexpr_to_derivation('(Ax "x : A |- x : A)')
    with pytest.raises(ParseError, match="trailing input"):
        sexpr_to_derivation('(Ax "x : A |- x : A") (Ax "x : A |- x : A")')


@pytest.mark.parametrize("text,error", [
    ("A, B -o |- A", "1:9: expected a type, found '|-'"),
    ("A ,, B |- A", "1:4: expected a type, found ','"),
    ("A |- A |- A", "1:8: trailing input '|-'"),
    ("A", "1:2: expected '|-', found 'end of input'"),
])
def test_mll_sequent_errors_are_placed_in_the_whole_text(text, error):
    with pytest.raises(ParseError) as err:
        parse_mll_sequent_text(text)
    assert str(err.value) == error


def test_mll_sequent_text_skips_a_comment_holding_a_turnstile():
    assert parse_mll_sequent_text("A # a note: |- x\n |- A") \
        == MllSequent((A,), (A,))
