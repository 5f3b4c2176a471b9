"""Printing through a span memo: the text of a shared subterm is copied,
not printed again, and the output is the same, byte for byte, as printing
each term on its own; the memo stays linear in what it prints."""

import random
import tracemalloc
from functools import lru_cache

from hypothesis import given, strategies as st

from lamp.mll import MllSequent, nmll_to_mll, print_mll_sequent
from lamp.parser import parse_term, parse_type
from lamp.reconstruct import reconstruct
from lamp.reduction import Trace, cbv_trace, normalize
from lamp.sexpr import _write, derivation_to_sexpr, mll_to_sexpr
from lamp.terms import (
    App, Atom, BOT, Lolli, Par, ParT, Send, UNIT, Var, children, flatten_par,
    join_par, nodes, preorder, print_sequent, print_term, print_type,
    replace_at,
)
from lamp.testlab import GenConfig, gen_derivation, gen_mll
from tests.test_checker import _INPUTS
from tests.test_terms import _terms

SIZES = range(8, 49, 8)


@lru_cache(maxsize=1)
def _derivations():
    """400 generated derivations, then the bench's ring and relay programs
    at n = 8..48, reconstructed."""
    out = [gen_derivation(GenConfig(seed=seed, max_nodes=max_nodes))
           for max_nodes in (12, 36) for seed in range(200)]
    rng = random.Random(1)
    for make in (_INPUTS.ring_case, _INPUTS.relay_case):
        out += [reconstruct(make(0, n, rng).sequent) for n in SIZES]
    return out


def _render_alone(trace: Trace) -> str:
    """Trace.render with every state printed on its own, without a memo."""
    lines = [print_term(trace.initial)]
    lines += [f"step {k}: {desc} => {print_term(t)}"
              for k, (desc, t) in enumerate(trace.steps, start=1)]
    return "\n".join(lines)


def test_memo_printing_is_byte_identical():
    count = 0
    for d in _derivations():
        t = d.conclusion.joined_term()
        cbv = Trace(t, [(desc, join_par(s)) for desc, s in cbv_trace(flatten_par(t))])
        for trace in (normalize(t), cbv):
            assert trace.render() == _render_alone(trace)
        assert derivation_to_sexpr(d) == _write(d, print_sequent)
        count += 1
    assert count == 400 + 2 * len(SIZES)


@given(_terms(4), st.randoms(use_true_random=False))
def test_a_memo_prints_each_subterm_as_it_prints_alone(t, rng):
    # every subterm of t, and t with one of them replaced, printed through
    # one memo in a random order: a Send's lam or out reading belongs to
    # the Send alone, so a span cut out of a larger text is its own text
    subs = [(path, s) for path, s in preorder(t, children)]
    rng.shuffle(subs)
    memo, alive = {}, []  # alive keeps every root printed, as a caller must
    for path, s in subs:
        assert print_term(s, memo) == print_term(s)
        edited = replace_at(t, path, Send("x", Var("x")))
        alive.append(edited)
        assert print_term(edited, memo) == print_term(edited)
    assert print_term(t, memo) == print_term(t)


def test_mll_memo_printing_is_byte_identical():
    # mll_to_sexpr prints every conclusion through one span memo; printed
    # alone, each must give the same text
    ms = [gen_mll(GenConfig(seed=seed, max_nodes=max_nodes))
          for max_nodes in (12, 36) for seed in range(200)]
    ms += [nmll_to_mll(d) for d in _derivations()[400:]]
    assert len(ms) == 400 + 2 * len(SIZES)
    for m in ms:
        assert mll_to_sexpr(m) == _write(m, print_mll_sequent)


def test_a_type_printed_inside_another_prints_alone_as_an_item():
    # the memo holds the inner type as a span of the outer one's text, and
    # the sequent's own entry for it must be cut out of that text
    inner = Lolli(Atom("A"), Atom("B"))
    outer = Lolli(inner, BOT)  # alive while memo is used, as a caller must
    memo = {}
    assert print_type(outer, memo) == "(A -o B) -o bot"
    s = MllSequent((inner,), (ParT(inner, inner), inner))
    want = "A -o B |- A -o B par A -o B, A -o B"
    assert print_mll_sequent(s, memo) == print_mll_sequent(s) == want
    assert print_mll_sequent(s, memo) == want


def test_types_print_through_the_memo_terms_use():
    memo = {}
    small = parse_type("A -o B")
    big = Lolli(ParT(small, small), BOT)
    assert print_type(small, memo) == "A -o B"
    assert print_type(big, memo) == print_type(big) == "(A -o B par A -o B) -o bot"
    assert print_term(App(Var("f"), UNIT), memo) == "f *"
    assert len({id(text) for text, _, _ in memo.values()}) == 3


# -- linear memory -------------------------------------------------------------

CHAIN = 10_000


def _chain_trace() -> Trace:
    """normalize over the 10,000-component chain * | * | ..., with a beta
    redex at every thousandth component: each step rebuilds the spine above
    its redex and shares the rest of the state."""
    parts = [App(Send(f"a{k}", Var(f"a{k}")), UNIT) if k % 1000 == 0 else UNIT
             for k in range(CHAIN)]
    t = parts[-1]
    for p in reversed(parts[:-1]):
        t = Par(p, t)  # nested to the right, as the parser nests a chain
    return normalize(t)


def test_a_memo_holds_one_text_per_printed_root():
    chain = parse_term(" | ".join(["*"] * CHAIN))
    trace = _chain_trace()
    assert len(trace.steps) == CHAIN // 1000
    roots = [chain, trace.initial] + [t for _, t in trace.steps]
    memo = {}
    texts = [print_term(t, memo) for t in roots]
    assert texts == [print_term(t) for t in roots]
    assert trace.render() == _render_alone(trace)
    assert len({id(text) for text, _, _ in memo.values()}) <= len(roots)
    # one span per node with children, each printed anew once
    assert len(memo) == len({id(s) for t in roots for s in nodes(t, children)
                             if len(s) > s._first})


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_printing_the_chain_through_a_memo_peaks_within_two_megabytes():
    chain = parse_term(" | ".join(["*"] * CHAIN))
    alone = _peak(lambda: print_term(chain))
    memo = {}
    through = _peak(lambda: print_term(chain, memo))
    assert len(memo) == CHAIN - 1  # one span per Par
    assert through - alone < 2 * 2**20, (alone, through)
