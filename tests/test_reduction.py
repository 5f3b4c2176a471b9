"""Reduction engine: redex discovery, firing, normalization, exhaustive
enumeration, and the call-by-value discipline."""

import hashlib
import random

import pytest

from lamp import reduction
from lamp.parser import parse_program, parse_term
from lamp.reduction import (
    BudgetExceeded, StaleRedex, apply_redex, cbv_step, cbv_trace,
    comm_size, enumerate_normal_forms, find_redexes, is_value, normalize,
)
from lamp.runtime import run_concurrent
from lamp.terms import (
    App, Dist, Par, Send, UNIT, Var, _scan, flatten_par, join_par, print_term,
)
from lamp.testlab import GenConfig, gen_derivation
from tests.conftest import corpus_text
from tests.test_checker import _INPUTS

# sha256 over 400 generated programs of everything the reducers print:
# normalize's trace, each cbv step, three concurrent runs and, for small
# programs, every normal form; pins the behaviour of the reduction rules
REDUCTION_DIGEST = \
    "597a5565560ac3167505217058ded8b9d7172fbb5f7b531b2b505ba897d8c3f7"


def test_comm_size_unit():
    assert comm_size(UNIT) == 0


def test_comm_size_single_binder():
    assert comm_size(App(Send("x", Var("x")), Var("y"))) == 1


def test_comm_size_cyclic_corpus():
    prog = parse_program(corpus_text("cyclic"))
    assert comm_size(prog.sequent.joined_term()) == 3


def test_find_beta():
    t = App(Send("x", Var("x")), Var("y"))
    rs = find_redexes(t)
    assert [r.kind for r in rs] == ["beta"]


def test_find_comm_across_par():
    t = Par(App(Send("x", UNIT), Var("u")), Var("x"))
    rs = find_redexes(t)
    assert [r.kind for r in rs] == ["comm"]
    assert rs[0].receivers == ((1,),)


def test_orphan_dist_is_inert():
    t = Dist("x", "y", Par(Var("s"), Var("t")))
    assert find_redexes(t) == []


def test_receiver_inside_activator_not_offered():
    # the lone x sits in the argument of its own output: no par in between
    t = App(Send("x", UNIT), Var("x"))
    assert find_redexes(t) == []


def test_apply_comm():
    t = Par(App(Send("x", UNIT), Var("v")), Var("x"))
    r = find_redexes(t)[0]
    assert apply_redex(t, r) == Par(UNIT, Var("v"))


def test_apply_beta():
    t = App(Send("x", Var("x")), Var("y"))
    assert apply_redex(t, find_redexes(t)[0]) == Var("y")


def test_apply_dist():
    t = Par(Par(Var("x"), Dist("x", "y", Par(Var("s"), Var("t")))), Var("y"))
    r = find_redexes(t)[0]
    assert r.kind == "dist"
    assert apply_redex(t, r) == Par(Par(Var("s"), UNIT), Var("t"))


def test_stale_redex_rejected():
    t = Par(App(Send("x", UNIT), Var("v")), Var("x"))
    r = find_redexes(t)[0]
    t2 = apply_redex(t, r)
    with pytest.raises(StaleRedex):
        apply_redex(t2, r)


def test_capture_both_orders_reach_same_form():
    # x sends y's future value; y sends x's occurrence back: reducing in
    # either order ends at  v | *  , one order via capture-as-rebinding
    t = Par(App(Send("x", Var("y")), Var("v")),
            App(Send("y", UNIT), Var("x")))
    forms = enumerate_normal_forms(t)
    assert forms == {Par(Var("v"), UNIT)}
    # the capture route: communicate along y first
    r_y = [r for r in find_redexes(t) if r.activator == (1,)][0]
    t2 = apply_redex(t, r_y)
    assert t2 == Par(App(Send("x", Var("x")), Var("v")), UNIT)
    assert find_redexes(t2)[0].kind == "beta"


def test_normalize_single_beta():
    tr = normalize(App(Send("x", Var("x")), Var("y")))
    assert tr.final == Var("y")
    assert len(tr.steps) == 1


@pytest.mark.parametrize("n", [32, 64, 128])
def test_normalize_scans_once_per_step(monkeypatch, n):
    # a count guard, not a timing guard: each step is found and fired off
    # one scan of its state, and the normal form takes one more
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return _scan(t)

    monkeypatch.setattr(reduction, "_scan", counted)
    case = _INPUTS.ring_case(0, n, random.Random(n))
    trace = normalize(case.sequent.joined_term())
    assert len(trace.steps) >= n
    assert calls == len(trace.steps) + 1


@pytest.mark.parametrize("name,final_components,steps", [
    ("client_server_request", ["cost prod", "*"], 4),
    ("client_server_dialogue", ["*", "pay (cost prod)"], 8),
    ("cyclic", ["enc2 (enc1 M)", "*", "*"], 3),
    ("channel_transmission", ["print M", "*", "*"], 3),
    ("excluded_middle", ["x", "out x. *"], 0),
])
def test_corpus_traces(name, final_components, steps):
    prog = parse_program(corpus_text(name))
    t = prog.sequent.joined_term()
    tr = normalize(t)
    assert len(tr.steps) == steps
    assert len(tr.steps) == comm_size(t) - comm_size(tr.final)
    assert [print_term(c) for c in flatten_par(tr.final)] == final_components


def test_enumerate_simple():
    assert enumerate_normal_forms(App(Send("x", Var("x")), Var("y"))) \
        == {Var("y")}


def test_enumerate_corpus_confluent():
    for name in ["client_server_request", "cyclic", "channel_transmission"]:
        prog = parse_program(corpus_text(name))
        forms = enumerate_normal_forms(prog.sequent.joined_term())
        assert len(forms) == 1


def test_enumerate_budget():
    prog = parse_program(corpus_text("client_server_dialogue"))
    with pytest.raises(BudgetExceeded):
        enumerate_normal_forms(prog.sequent.joined_term(), max_states=3)


def test_maximal_traces_same_length():
    # explore every maximal reduction sequence of a small program and check
    # they all have length cs(t) - cs(nf)
    prog = parse_program(corpus_text("cyclic"))
    t0 = prog.sequent.joined_term()
    want = comm_size(t0) - comm_size(normalize(t0).final)
    seen_lengths = set()

    def walk(t, depth):
        rs = find_redexes(t)
        if not rs:
            seen_lengths.add(depth)
            return
        for r in rs:
            walk(apply_redex(t, r), depth + 1)

    walk(t0, 0)
    assert seen_lengths == {want}


def test_is_value():
    assert is_value(Send("x", UNIT))
    assert is_value(Par(Var("u"), Var("v")))
    assert not is_value(UNIT)
    assert not is_value(Var("x"))


def test_cbv_three_step_synchrony():
    # the synchronous handshake: the sender may only transmit once the
    # receiver's evaluation exposes the input variable
    t0 = parse_term("(out x. *) (lam a. a) | (lam z. z (x(y). y)) (lam k. k)")
    steps = cbv_trace(flatten_par(t0))
    rendered = [(d, print_term(join_par(s))) for d, s in steps]
    assert rendered == [
        ("Beta", "(out x. *) (lam a. a) | (lam k. k) ((lam y. y) x)"),
        ("Comm x", "* | (lam k. k) ((lam y. y) (lam a. a))"),
        ("Beta", "* | (lam k. k) (lam a. a)"),
        ("Beta", "* | lam a. a"),
    ]
    # the displayed synchronization is the three-step suffix
    assert [d for d, _ in rendered[1:]] == ["Comm x", "Beta", "Beta"]


def test_cbv_bare_input_stuck():
    assert cbv_step([parse_term("x(y). y")]) is None


def test_cbv_open_variable_stuck():
    assert cbv_step([Var("x")]) is None


def test_cbv_receiver_must_be_free():
    # the only x at an evaluation position of the other component is bound
    # by its out2, so the output has no receiver
    sender = App(Send("x", UNIT), Send("v", Var("v")))
    assert cbv_step([sender, Dist("x", "y", Var("x"))]) is None
    assert cbv_step([sender, Dist("u", "y", Var("x"))])[0] \
        == [UNIT, Dist("u", "y", Send("v", Var("v")))]
    assert cbv_step([]) is None


def test_cbv_sender_blocks_until_receiver_ready():
    # u | x(y).w: receiver is exposed immediately, handshake fires
    t = parse_term("(out x. out q. *) (lam a. a) | x(y). y")
    steps = cbv_trace(flatten_par(t))
    assert steps[0][0] == "Comm x"


def test_cbv_sound_wrt_asynchronous_engine():
    # a stuck-free cbv run ends at the one normal form, and every cbv
    # transition is literally one of the asynchronous redexes of its state
    t0 = parse_term("(out x. *) (lam a. a) | (lam z. z (x(y). y)) (lam k. k)")
    state = flatten_par(t0)
    while True:
        nxt = cbv_step(state)
        if nxt is None:
            break
        joined_before = join_par(state)
        state, redex = nxt
        assert redex in find_redexes(joined_before)
        assert apply_redex(joined_before, redex) == join_par(state)
    assert join_par(state) == normalize(t0).final


def test_cbv_sound_on_generated_programs():
    from lamp.testlab import GenConfig, gen_derivation
    for seed in range(150):
        t0 = gen_derivation(GenConfig(seed=seed, max_nodes=12)) \
            .conclusion.joined_term()
        state = flatten_par(t0)
        while True:
            nxt = cbv_step(state)
            if nxt is None:
                break
            joined = join_par(state)
            state, redex = nxt
            assert redex in find_redexes(joined)
            assert apply_redex(joined, redex) == join_par(state)
        final = join_par(state)
        if not find_redexes(final):  # ran to completion, not merely stuck
            assert flatten_par(final) == flatten_par(normalize(t0).final)


def test_redexes_leftmost_outermost_order():
    prog = parse_program(corpus_text("cyclic"))
    rs = find_redexes(prog.sequent.joined_term())
    assert [r.activator for r in rs] == sorted(r.activator for r in rs)


def test_reduction_behaviour_is_byte_stable():
    h = hashlib.sha256()
    for max_nodes in (12, 36):
        for seed in range(200):
            seq = gen_derivation(GenConfig(seed=seed, max_nodes=max_nodes)) \
                .conclusion
            t = seq.joined_term()
            lines = [normalize(t).render()]
            lines += [f"{desc} => {print_term(join_par(state))}"
                      for desc, state in cbv_trace(flatten_par(t))]
            lines += [print_term(join_par(run_concurrent(seq, seed=r)))
                      for r in range(3)]
            if comm_size(t) <= 6:
                lines += sorted(print_term(n) for n in enumerate_normal_forms(t))
            h.update(("\n".join(lines) + "\n").encode())
    assert h.hexdigest() == REDUCTION_DIGEST
