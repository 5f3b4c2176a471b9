"""The operations a workload runs on each program, and their checks.

Each operation mirrors one ``lamp`` command path and takes ``call``, either
``tracer.untraced`` or a ``Tracer.call``, through which it makes every call
into lamp.  Run and enumerate have a traced form that drives the engine
through its public redex calls, so that redex search, firing and printing
show up apart; the paired untraced run checks it against ``normalize`` and
``enumerate_normal_forms``.

A check returns ``None`` when the output matches its reference, or a short
reason.  References come from ``inputs``, not from the code under test.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from lamp.derivations import check_derivation
from lamp.mll import MllSequent, check_mll, mll_to_nmll, nmll_to_mll
from lamp.parser import parse_program
from lamp.reconstruct import TypecheckError, reconstruct
from lamp.reduction import (
    BudgetExceeded, Trace, apply_redex, cbv_trace, enumerate_normal_forms,
    find_redexes, normalize,
)
from lamp.runtime import run_concurrent
from lamp.sexpr import derivation_to_sexpr
from lamp.terms import flatten_par, join_par, print_term

from inputs import Case, count_outputs

ENUMERATE_BUDGET = 100_000  # the CLI's default --budget


def _nodes(d) -> int:
    return 1 + sum(_nodes(p) for p in d.premises)


# -- lamp check: text -> verdict -------------------------------------------

def check(case: Case, call, counts: Optional[Counter] = None):
    """parse_program + reconstruct + check_derivation + derivation_to_sexpr.
    Returns (program, derivation or None when rejected, printed derivation)."""
    prog = call("parser.parse_program", parse_program, case.text)
    if counts is not None:
        counts["parser.chars"] += len(case.text)
    try:
        d = call("reconstruct.reconstruct", reconstruct, prog.sequent, prog.annotations)
    except TypecheckError:
        if counts is not None:
            counts["reconstruct.rejected"] += 1
        return prog, None, None
    call("derivations.check_derivation", check_derivation, d)
    text = call("sexpr.derivation_to_sexpr", derivation_to_sexpr, d)
    if counts is not None:
        counts["derivations.nodes"] += _nodes(d)
    return prog, d, text


def verify_check(case: Case, out) -> Optional[str]:
    prog, d, text = out
    if prog.sequent != case.sequent:
        return "parsed sequent differs from the generated one"
    if (d is not None) != case.well_typed:
        return "accepted an ill-typed program" if d is not None \
            else "rejected a well-typed program"
    if d is not None and (d.conclusion != case.sequent or not text.startswith("(")):
        return "derivation does not conclude the program"
    return None


# -- lamp run --mode full: term -> rendered trace ----------------------------

def run(term, call, counts: Optional[Counter] = None):
    """normalize + Trace.render.  Traced (counts given), it drives
    normalization itself through find_redexes / apply_redex / print_term,
    in normalize's order."""
    if counts is None:
        trace = call("reduction.normalize", normalize, term)
        return trace, trace.render()
    trace = Trace(term, [])
    t = term
    while True:
        redexes = call("reduction.find_redexes", find_redexes, t)
        counts["reduction.redexes_found"] += len(redexes)
        if not redexes:
            break
        r = redexes[0]
        desc = r.describe(t)
        t = call("reduction.apply_redex", apply_redex, t, r)
        counts[f"reduction.steps.{r.kind}"] += 1
        trace.steps.append((desc, t))
    lines = [call("terms.print_term", print_term, term)]
    for k, (desc, s) in enumerate(trace.steps, start=1):
        lines.append(f"step {k}: {desc} => {call('terms.print_term', print_term, s)}")
    return trace, "\n".join(lines)


def verify_run(case: Case, term, out) -> Optional[str]:
    trace, text = out
    if len(trace.steps) != case.steps:
        return f"{len(trace.steps)} steps, expected {case.steps}"
    if count_outputs(term) - count_outputs(trace.final) != len(trace.steps):
        return "step count differs from the drop in comm_size"
    if trace.final != case.normal_form:
        return "normal form differs from the reference"
    if text.count("\n") != len(trace.steps):
        return "rendered trace has the wrong number of lines"
    return None


# -- lamp run --mode cbv -----------------------------------------------------

def cbv(term, call, counts: Optional[Counter] = None):
    steps = call("reduction.cbv_trace", cbv_trace, flatten_par(term))
    lines = [call("terms.print_term", print_term, term)]
    for k, (desc, state) in enumerate(steps, start=1):
        lines.append(f"step {k}: {desc} => "
                     f"{call('terms.print_term', print_term, join_par(state))}")
    if counts is not None:
        counts["reduction.cbv.steps"] += len(steps)
    return steps, "\n".join(lines)


def verify_cbv(case: Case, term, out) -> Optional[str]:
    steps, _ = out
    if len(steps) != case.cbv_steps:
        return f"{len(steps)} cbv steps, expected {case.cbv_steps}"
    final = steps[-1][1] if steps else flatten_par(term)
    if tuple(final) != case.cbv_slots:
        return "cbv final state differs from the reference"
    return None


# -- lamp run --mode concurrent: one call per scheduler seed -----------------

def concurrent(sequent, seed: int, call):
    return call("runtime.run_concurrent", lambda: run_concurrent(sequent, seed=seed))


def verify_concurrent(case: Case, final) -> Optional[str]:
    if Counter(final) != case.concurrent_multiset():
        return "final component multiset differs from the reference"
    return None


# -- lamp translate, both directions chained ----------------------------------

def translate(d, call):
    m = call("mll.nmll_to_mll", nmll_to_mll, d)
    call("mll.check_mll", check_mll, m)
    back = call("mll.mll_to_nmll", mll_to_nmll, m)
    call("derivations.check_derivation", check_derivation, back)
    return m, back


def verify_translate(case: Case, out) -> Optional[str]:
    m, back = out
    s = case.sequent
    typed = tuple(e.type for e in s.delta if e.type is not None)
    if m.conclusion != MllSequent(tuple(ty for _, ty in s.gamma), typed):
        return "to-mll conclusion is not the type erasure"
    b = back.conclusion
    if Counter(ty for _, ty in b.gamma) != Counter(ty for _, ty in s.gamma) \
            or Counter(e.type for e in b.delta if e.type is not None) != Counter(typed):
        return "to-nmll conclusion does not erase back"
    return None


# -- lamp enumerate -----------------------------------------------------------

def _bfs(term, call, counts: Counter) -> set:
    """enumerate_normal_forms' breadth-first search, step for step."""
    seen = {term}
    normal = set()
    frontier = [term]
    while frontier:
        nxt = []
        for s in frontier:
            redexes = call("reduction.find_redexes", find_redexes, s)
            counts["reduction.redexes_found"] += len(redexes)
            if not redexes:
                normal.add(s)
                continue
            for r in redexes:
                s2 = call("reduction.apply_redex", apply_redex, s, r)
                counts[f"reduction.steps.{r.kind}"] += 1
                if s2 not in seen:
                    seen.add(s2)
                    if len(seen) > ENUMERATE_BUDGET:
                        raise BudgetExceeded(len(seen))
                    nxt.append(s2)
        frontier = nxt
    counts["reduction.states"] += len(seen)
    return normal


def enumerate_forms(case: Case, call, counts: Optional[Counter] = None):
    """parse_program + enumerate_normal_forms + the confluence verdict."""
    term = call("parser.parse_program", parse_program, case.text).sequent.joined_term()
    if counts is None:
        forms = call("reduction.enumerate_normal_forms", enumerate_normal_forms,
                     term, ENUMERATE_BUDGET)
    else:
        forms = call("reduction.enumerate_normal_forms", _bfs, term, call, counts)
        counts["reduction.normal_forms"] += len(forms)
        counts["parser.chars"] += len(case.text)
    return forms, len(forms) == 1


def verify_enumerate(case: Case, out) -> Optional[str]:
    forms, confluent = out
    if not confluent:
        return f"{len(forms)} normal forms"
    if forms != {case.normal_form}:
        return "normal form differs from the reference"
    return None
