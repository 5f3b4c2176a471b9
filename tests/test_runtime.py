"""Concurrent runtime: channel discipline, determinacy, agreement with the
sequential normalizer."""

import random
from collections import Counter

import pytest

from lamp import runtime
from lamp.parser import parse_program, parse_term
from lamp.reconstruct import reconstruct
from lamp.reduction import normalize
from lamp.runtime import (
    ChannelCell, ChannelProtocolError, DeadlockReport, run_concurrent,
)
from lamp.testlab import GenConfig, gen_derivation
from lamp.terms import (
    App, DeltaEntry, Par, ParT, BOT, Send, Sequent, UNIT, Var,
    flatten_par, print_term,
)
from tests.conftest import corpus_text
from tests.test_checker import _INPUTS


def test_single_transmission():
    # out x applied to * sends the unit; v stays; receiver becomes v
    seq = Sequent((), (DeltaEntry(
        Par(App(Send("x", UNIT), Var("v")), Var("x")),
        ParT(BOT, BOT)),))
    assert run_concurrent(seq) == [UNIT, Var("v")]


@pytest.mark.parametrize("name,expected", [
    ("cyclic", ["*", "*", "enc2 (enc1 M)"]),
    ("channel_transmission", ["*", "*", "print M"]),
    ("client_server_request", ["*", "cost prod"]),
    ("client_server_dialogue", ["*", "pay (cost prod)"]),
])
def test_corpus_runs_match_normalizer_50_seeds(name, expected):
    prog = parse_program(corpus_text(name))
    want = sorted(print_term(t) for t in
                  flatten_par(normalize(prog.sequent.joined_term()).final))
    assert want == sorted(expected)
    for seed in range(50):
        got = sorted(print_term(t)
                     for t in run_concurrent(prog.sequent, seed=seed))
        assert got == want


def test_half_local_binary_output_matches_normalizer():
    # out2 v14 v0 sends v14's value to a receiver in its own component and
    # v0's to close(v0) in another, on every scheduler seed
    prog = parse_program(
        "|- lam v12. (out2 v14 v0. (lam v5. v5 | *)"
        " | v14 ((lam v1. v1) (lam v8. v8) v12)) : B -o (bot par B),"
        " close(v0), * : bot")
    reconstruct(prog.sequent, prog.annotations)
    want = sorted(print_term(t) for t in
                  flatten_par(normalize(prog.sequent.joined_term()).final))
    assert want == ["*", "close(*)", "lam v12. (* | v12)"]
    for seed in range(20):
        got = sorted(print_term(t)
                     for t in run_concurrent(prog.sequent, seed=seed))
        assert got == want, seed


def test_cell_discipline():
    cell = ChannelCell("x")
    cell.fill(UNIT)
    assert cell.consume() == UNIT
    with pytest.raises(ChannelProtocolError):
        cell.fill(UNIT)
    with pytest.raises(ChannelProtocolError):
        cell.consume()


def test_double_fill_rejected():
    cell = ChannelCell("x")
    cell.fill(UNIT)
    with pytest.raises(ChannelProtocolError):
        cell.fill(Var("v"))


def test_untyped_dangling_send_reports_deadlock():
    # an applied output with no receiver anywhere fills a cell nobody
    # drains; the runtime reports it instead of hanging, naming the worker
    # that sent the value
    prog = parse_program("v : A |- (out x. *) v | * : bot")
    with pytest.raises(DeadlockReport) as info:
        run_concurrent(prog.sequent)
    assert str(info.value) == (
        "stuck: workers [0] blocked, channels ['x'] undelivered")
    # worker 1 waits on y, which no declaration binds and no worker sends
    prog = parse_program("v : A |- (out x. *) v : bot, close(y)")
    with pytest.raises(DeadlockReport) as info:
        run_concurrent(prog.sequent)
    assert info.value.blocked_workers == [0, 1]
    assert info.value.pending_channels == ["x"]


def test_non_linear_program_exhausts_round_budget():
    # beta copies the argument of lam x. x x, so the run never settles; the
    # round budget ends it at once, whatever the speed of the machine
    prog = parse_program("|- (lam x. x x) (lam y. y y) : A")
    with pytest.raises(DeadlockReport) as info:
        run_concurrent(prog.sequent)
    assert info.value.out_of_rounds


@pytest.mark.parametrize("text", [
    # the only receiver is the activator's own argument: fully local, yet
    # no redex, since its least common ancestor is the App
    "(out x. *) x",
    # x is local but not across a Par, and y is in another component
    "(out2 x y. (* | *)) x | y",
])
def test_untyped_activator_that_cannot_send_is_left_alone(text):
    term = parse_term(text)
    seq = Sequent((), (DeltaEntry(term, None),))
    assert run_concurrent(seq) == flatten_par(term)


def test_worker_order_is_seeded():
    prog = parse_program(corpus_text("cyclic"))
    a = run_concurrent(prog.sequent, seed=3)
    b = run_concurrent(prog.sequent, seed=3)
    assert a == b


# -- idle workers sleep --------------------------------------------------------

class _AlwaysAwake(runtime._Worker):
    """A worker that never sleeps: polled every round, as before workers
    slept until a cell filled."""

    @property
    def asleep(self):
        return False

    @asleep.setter
    def asleep(self, value):
        pass


def _counted_run(monkeypatch, sequent, seed):
    # every poll starts one redex search over a fresh scan of its worker's term
    calls = 0
    real = runtime._redexes

    def counted(state):
        nonlocal calls
        calls += 1
        return real(state)

    monkeypatch.setattr(runtime, "_redexes", counted)
    return run_concurrent(sequent, seed=seed), calls


@pytest.mark.parametrize("n", [32, 64, 128])
def test_ring_makes_a_linear_number_of_redex_searches(monkeypatch, n):
    # a count guard, not a timing guard: a worker that cannot move is not
    # polled again until a cell for a name free in its term is filled
    case = _INPUTS.ring_case(0, n, random.Random(n))
    final, calls = _counted_run(monkeypatch, case.sequent, seed=n)
    assert Counter(final) == case.concurrent_multiset()
    assert calls <= 8 * (n + 1)
    monkeypatch.setattr(runtime, "_Worker", _AlwaysAwake)
    polled, polled_calls = _counted_run(monkeypatch, case.sequent, seed=n)
    assert polled == final
    assert polled_calls > n * n / 2


def test_sleeping_workers_leave_the_schedule_unchanged(monkeypatch):
    # a poll of a term no fill has touched finds nothing, so skipping it
    # changes no step: the same final list, in the same order, on every seed
    rng = random.Random(0)
    programs = [_INPUTS.ring_case(0, 12, rng).sequent,
                _INPUTS.relay_case(0, 8, rng).sequent]
    programs += [gen_derivation(GenConfig(seed=seed, max_nodes=36)).conclusion
                 for seed in range(60)]
    want = []
    for seq in programs:
        want.append([run_concurrent(seq, seed=s) for s in range(3)])
    monkeypatch.setattr(runtime, "_Worker", _AlwaysAwake)
    assert [[run_concurrent(seq, seed=s) for s in range(3)]
            for seq in programs] == want


def test_final_list_is_the_same_on_every_seed():
    # the scheduler's seed orders the workers' polls, and on these programs
    # no order moves the final list: each worker ends with the same term
    rng = random.Random(0)
    programs = [gen_derivation(GenConfig(seed=seed, max_nodes=m)).conclusion
                for m in (12, 36) for seed in range(200)]
    programs += [make(0, n, rng).sequent for n in range(8, 25)
                 for make in (_INPUTS.ring_case, _INPUTS.relay_case)]
    for seq in programs:
        first = run_concurrent(seq, seed=0)
        for seed in range(1, 10):
            assert run_concurrent(seq, seed=seed) == first, \
                (print_term(seq.joined_term()), seed)
