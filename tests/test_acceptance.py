"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION line on success so a `-s` run shows the
scoreboard; every tolerance is pinned here (they are all exact: the
calculus' metatheorems hold with zero slack at this scale).
"""

import time

from lamp.derivations import check_derivation
from lamp.metatheory import check_subformula
from lamp.mll import check_mll, mll_to_nmll, nmll_to_mll, type_erasure
from lamp.parser import parse_program, parse_term
from lamp.reconstruct import reconstruct
from lamp.reduction import (
    apply_redex, cbv_trace, comm_size, enumerate_normal_forms,
    find_redexes, normalize,
)
from lamp.runtime import run_concurrent
from lamp.terms import (
    App, DeltaEntry, Dist, Send, Sequent, children, flatten_par, join_par,
    nodes, print_term, split_joined,
)
from lamp.testlab import GenConfig, gen_derivation, gen_mll
from tests.conftest import CORPUS_NAMES, GOLDEN, corpus_text, run_cli
from tests.test_typing import excluded_middle_tree


def _ok(n, text):
    print(f"CRITERION {n}: PASS - {text}")


def _corpus(name):
    return parse_program(corpus_text(name))


def _generated(n, max_nodes=12, base=10_000):
    for k in range(n):
        yield k, gen_derivation(GenConfig(seed=base + k, max_nodes=max_nodes))


def test_criterion_1_corpus_traces():
    expected = {
        "client_server_request": ["cost prod", "*"],
        "client_server_dialogue": ["*", "pay (cost prod)"],
        "cyclic": ["enc2 (enc1 M)", "*", "*"],
        "channel_transmission": ["print M", "*", "*"],
    }
    t0 = time.time()
    for name, final in expected.items():
        prog = _corpus(name)
        t = prog.sequent.joined_term()
        tr = normalize(t)
        assert [print_term(c) for c in flatten_par(tr.final)] == final, name
        assert len(tr.steps) == comm_size(t) - comm_size(tr.final), name
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"corpus normalization took {elapsed:.2f}s"
    for name in CORPUS_NAMES:
        got = run_cli("run", f"corpus/{name}.lamp")
        assert got.returncode == 0, f"{name}: {got.stderr}"
        assert got.stdout == (GOLDEN / f"{name}.trace.txt").read_text(), name
    _ok(1, f"four traces + golden byte-match in {elapsed:.2f}s")


def test_criterion_2_excluded_middle_exact():
    prog = _corpus("excluded_middle")
    d = reconstruct(prog.sequent, prog.annotations)
    assert d == excluded_middle_tree()
    m = nmll_to_mll(d)
    check_mll(m)
    _ok(2, "derivation equals the displayed tree; translation checks")


def test_criterion_3_step_decrement():
    t0 = time.time()
    checked = 0
    for _, d in _generated(500):
        seq = d.conclusion
        t = seq.joined_term()
        while True:
            redexes = find_redexes(t)
            if not redexes:
                break
            for r in redexes:
                assert comm_size(apply_redex(t, r)) == comm_size(t) - 1
                checked += 1
            t = apply_redex(t, redexes[0])
    elapsed = time.time() - t0
    assert elapsed < 30, f"{elapsed:.1f}s"
    _ok(3, f"{checked} single steps all decrement by one ({elapsed:.1f}s)")


def test_criterion_4_confluence():
    t0 = time.time()
    enumerated = 0
    for _, d in _generated(500):
        t = d.conclusion.joined_term()
        if comm_size(t) <= 6:
            assert len(enumerate_normal_forms(t, 100_000)) == 1
            enumerated += 1
    for name in CORPUS_NAMES:
        t = _corpus(name).sequent.joined_term()
        assert len(enumerate_normal_forms(t, 100_000)) == 1
        enumerated += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"{elapsed:.1f}s"
    _ok(4, f"{enumerated} exhaustive enumerations, one normal form each "
           f"({elapsed:.1f}s)")


def test_criterion_5_subject_reduction():
    t0 = time.time()
    reducts = 0
    for seed, d in _generated(500):
        seq = d.conclusion
        m = len(seq.delta)
        types = [e.type for e in seq.delta]
        current = seq
        while True:
            joined = current.joined_term()
            redexes = find_redexes(joined)
            if not redexes:
                break
            for r in redexes:
                parts = split_joined(apply_redex(joined, r), m)
                reduct = Sequent(current.gamma,
                                 tuple(DeltaEntry(t, ty)
                                       for t, ty in zip(parts, types)))
                d2 = reconstruct(reduct)  # raises on failure
                assert d2.conclusion.gamma == seq.gamma, seed
                assert [e.type for e in d2.conclusion.delta] == types, seed
                reducts += 1
            parts = split_joined(apply_redex(joined, redexes[0]), m)
            current = Sequent(current.gamma,
                              tuple(DeltaEntry(t, ty)
                                    for t, ty in zip(parts, types)))
    elapsed = time.time() - t0
    assert elapsed < 60, f"{elapsed:.1f}s"
    _ok(5, f"{reducts} one-step reducts re-typecheck identically "
           f"({elapsed:.1f}s)")


def test_criterion_6_progress_and_no_deadlock():
    t0 = time.time()
    with_potential = 0
    k = 0
    while with_potential < 500:
        d = gen_derivation(GenConfig(seed=20_000 + k, max_nodes=12))
        k += 1
        seq = d.conclusion
        t = seq.joined_term()
        has_potential = any(
            isinstance(s, Dist)
            or (isinstance(s, App) and isinstance(s.fun, Send))
            for s in nodes(t, children))
        if not has_potential:
            continue
        with_potential += 1
        assert find_redexes(t), f"progress violated at seed {20_000 + k - 1}"
        for rseed in range(5):
            run_concurrent(seq, seed=rseed)  # DeadlockReport would raise
    elapsed = time.time() - t0
    _ok(6, f"{with_potential} programs with communication potential all "
           f"reducible; no deadlock across 5 seeds each ({elapsed:.1f}s)")


def test_criterion_7_subformula():
    t0 = time.time()
    for seed, d in _generated(200, base=30_000):
        seq = d.conclusion
        m = len(seq.delta)
        types = [e.type for e in seq.delta]
        final = normalize(seq.joined_term()).final
        parts = split_joined(final, m)
        reduct = Sequent(seq.gamma,
                         tuple(DeltaEntry(t, ty)
                               for t, ty in zip(parts, types)))
        nd = reconstruct(reduct)
        check_subformula(nd)
    elapsed = time.time() - t0
    _ok(7, f"200 normal-form reconstructions pass the subformula audit "
           f"({elapsed:.1f}s)")


def test_criterion_8_translation_soundness():
    t0 = time.time()
    for seed, d in _generated(200, base=40_000):
        m = nmll_to_mll(d)
        check_mll(m)
        assert m.conclusion == type_erasure(d.conclusion)
    for seed in range(200):
        m = gen_mll(GenConfig(seed=50_000 + seed, max_nodes=9))
        check_mll(m)
        d = mll_to_nmll(m)
        check_derivation(d)
        assert type_erasure(d.conclusion) == m.conclusion
    elapsed = time.time() - t0
    _ok(8, f"200 derivations translated each way, all check ({elapsed:.1f}s)")


def test_criterion_9_cbv_synchrony():
    t0 = parse_term("(out x. *) (lam a. a) | (lam z. z (x(y). y)) (lam k. k)")
    steps = cbv_trace(flatten_par(t0))
    rendered = [(d, print_term(join_par(s))) for d, s in steps]
    # the displayed three-step synchronization, verbatim
    assert rendered[1:] == [
        ("Comm x", "* | (lam k. k) ((lam y. y) (lam a. a))"),
        ("Beta", "* | (lam k. k) (lam a. a)"),
        ("Beta", "* | lam a. a"),
    ]
    # reaching its start takes exactly the one announced head contraction
    assert rendered[0] == (
        "Beta", "(out x. *) (lam a. a) | (lam k. k) ((lam y. y) x)")
    assert cbv_trace([parse_term("x(y). y")]) == []
    _ok(9, "synchronous handshake reproduced step for step; bare input stuck")
