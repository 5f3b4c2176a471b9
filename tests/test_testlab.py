"""Generator reproducibility and coverage, plus the property suite driver
and its ability to catch an injected engine bug."""

import hashlib
import importlib
import inspect
import typing
from collections import Counter

import pytest

from lamp.derivations import (
    ForwardRule, Rule, check_channel_linearity, check_derivation, premises_of,
)
from lamp.reconstruct import reconstruct
from lamp import mll, testlab
from lamp.reduction import apply_redex, comm_size, find_redexes, normalize
from lamp.sexpr import derivation_to_sexpr, mll_to_sexpr
from lamp.terms import App, Send, nodes, replace_at, subterm_at
from lamp.testlab import (
    GenConfig, gen_derivation, gen_mll, run_property_suite,
)
from tests.conftest import SRC


def test_reproducible():
    cfg = GenConfig(seed=42, max_nodes=12)
    assert gen_derivation(cfg) == gen_derivation(cfg)
    assert gen_mll(cfg) == gen_mll(cfg)


def test_generation_is_byte_stable():
    # sha256 of 500 generated derivations; any change to the rng draws or
    # to the option order of a forward rule moves it
    h = hashlib.sha256()
    for m in (1, 7, 12, 20, 36):
        for seed in range(100):
            d = gen_derivation(GenConfig(seed=seed, max_nodes=m))
            h.update((derivation_to_sexpr(d) + "\n").encode())
    assert h.hexdigest() == \
        "5ccc63081722060b7a2370dffd5992a29de9144557f93289f0af76bba3ddca6a"


def test_mll_generation_is_byte_stable():
    # sha256 of 500 generated sequent calculus derivations, taken when the
    # generator recounted each pool entry's nodes on every draw
    h = hashlib.sha256()
    for m in (1, 7, 12, 20, 36):
        for seed in range(100):
            d = gen_mll(GenConfig(seed=seed, max_nodes=m))
            h.update((mll_to_sexpr(d) + "\n").encode())
    assert h.hexdigest() == \
        "e35f536b06456946cf8a5c2f0cb6a902c16b937d931b37bef59425224bc14921"


@pytest.mark.parametrize("gen,show,max_nodes,digest", [
    (gen_derivation, derivation_to_sexpr, 48,
     "d1f4542d2b797a074cf9f9bb766531362a945efe34e75a89b61074fc48a05850"),
    (gen_derivation, derivation_to_sexpr, 96,
     "53446d7010cb03b61a260430bef8b0681b7212d1f97be543e34a39992d11455a"),
    (gen_mll, mll_to_sexpr, 48,
     "e44b84d073ab7b1d3ca2e147d91db675038d4fc80fdb61163615122eca0ef13f"),
    (gen_mll, mll_to_sexpr, 96,
     "71743ef0881608523f5d2407f6397c44ed72cbfda80dc976803a644f6d858dbc"),
], ids=["nd-48", "nd-96", "mll-48", "mll-96"])
def test_generation_is_byte_stable_at_larger_sizes(gen, show, max_nodes, digest):
    # sha256 of 50 derivations at the sizes the property suites and the
    # bench draw at, past the 36 nodes the digests above reach
    h = hashlib.sha256()
    for seed in range(50):
        d = gen(GenConfig(seed=seed, max_nodes=max_nodes))
        h.update((show(d) + "\n").encode())
    assert h.hexdigest() == digest


def _nested_loop_options(g, fr):
    """The reference listing of a draw's options: nested loops over the
    premises, every pool entry for every prefix, each premise's positions
    listed afresh."""
    options = [((), (), g.cfg.max_nodes - 1)]
    for n, premise in enumerate(fr.premises):
        grown = []
        for ks, prev, budget in options:
            v = fr.reads[n - 1](prev) if n else None
            for k, (d, size, _) in enumerate(g.pool):
                if k in ks or size > budget:
                    continue
                s = d.conclusion
                for p in premise(s, v):
                    grown.append((ks + (k,), prev + ((s, p),), budget - size))
        options = grown
    return options


GENERATORS = [(testlab._Gen, gen_derivation), (testlab._MllGen, gen_mll)]


@pytest.mark.parametrize("cls,gen", GENERATORS, ids=["nd", "mll"])
def test_each_draw_offers_the_nested_loop_options(monkeypatch, cls, gen):
    draws = []
    indexed = cls._options

    def checked(self, fr):
        options = indexed(self, fr)
        assert options == _nested_loop_options(self, fr)
        draws.append(len(options))
        return options

    monkeypatch.setattr(cls, "_options", checked)
    for max_nodes in (12, 36):
        for seed in range(200):
            gen(GenConfig(seed=seed, max_nodes=max_nodes))
    # draws that offer nothing and draws that offer several both occur
    assert len(draws) > 10_000 and 0 in draws and max(draws) > 5


@pytest.mark.parametrize("owner,name,gen", [
    (testlab._Gen, "table", gen_derivation), (mll, "MLL_FORWARD", gen_mll),
], ids=["nd", "mll"])
def test_each_premise_position_is_listed_once(monkeypatch, owner, name, gen):
    # counted per (pool entry, rule, premise, value read); a pool entry is
    # its conclusion object, which lives as long as the run.  The table is
    # patched where each generator reads it: the sequent calculus's in mll
    calls = Counter()

    def counted(rule, n, premise):
        def listed(s, v):
            calls[id(s), rule, n, v] += 1
            return premise(s, v)
        listed.__dict__.update(premise.__dict__)  # what the lister takes
        return listed

    monkeypatch.setattr(owner, name, {
        rule: fr._replace(premises=tuple(
            counted(rule, n, premise) for n, premise in enumerate(fr.premises)))
        for rule, fr in getattr(owner, name).items()})
    total = 0
    for max_nodes in (12, 36):
        for seed in range(100):
            calls.clear()
            gen(GenConfig(seed=seed, max_nodes=max_nodes))
            assert max(calls.values(), default=1) == 1, (seed, max_nodes)
            total += sum(calls.values())
    assert total > 10_000


def _defined_functions(module):
    """Every function and method defined in module, nested classes' too."""
    stack = [vars(module)]
    while stack:
        for value in stack.pop().values():
            value = getattr(value, "__func__", value)  # a static or class method's
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                stack.append(vars(value))
            elif inspect.isfunction(value):
                yield value


def test_every_functions_annotations_resolve():
    # each module's annotations name only what it imports, so tools that
    # read them (typing.get_type_hints) resolve every one
    assert typing.get_type_hints(testlab._Gen._options)["fr"] is ForwardRule
    names = sorted(p.stem for p in (SRC / "lamp").glob("*.py"))
    failed, seen = [], 0
    for name in names:
        module = importlib.import_module("lamp" if name == "__init__" else f"lamp.{name}")
        for fn in _defined_functions(module):
            seen += 1
            try:
                typing.get_type_hints(fn)
            except NameError as err:
                failed.append(f"{fn.__module__}.{fn.__qualname__}: {err}")
    assert not failed, failed
    assert seen > 200  # 240 when written


def test_generated_derivations_check():
    for seed in range(60):
        check_derivation(gen_derivation(GenConfig(seed=seed, max_nodes=11)))


def test_size_one_yields_an_axiom():
    for seed in range(10):
        d = gen_derivation(GenConfig(seed=seed, max_nodes=1))
        assert d.rule is Rule.AX


def test_size_cap_respected():
    for seed in range(40):
        d = gen_derivation(GenConfig(seed=seed, max_nodes=7))
        assert sum(1 for _ in nodes(d, premises_of)) <= 7


def test_every_internal_sequent_is_linear():
    for seed in range(40):
        d = gen_derivation(GenConfig(seed=seed, max_nodes=11))
        for node in nodes(d, premises_of):
            check_channel_linearity(node.conclusion)


def test_generated_conclusions_reconstruct():
    for seed in range(80):
        d = gen_derivation(GenConfig(seed=seed, max_nodes=11))
        d2 = reconstruct(d.conclusion)
        check_derivation(d2)
        assert d2.conclusion == d.conclusion


def test_normalization_length_formula_on_generated():
    for seed in range(40):
        d = gen_derivation(GenConfig(seed=seed, max_nodes=11))
        t = d.conclusion.joined_term()
        tr = normalize(t)
        assert len(tr.steps) == comm_size(t) - comm_size(tr.final)


def test_rule_coverage_over_many_cases():
    seen = set()
    for seed in range(1000):
        d = gen_derivation(GenConfig(seed=seed, max_nodes=9))
        stack = [d]
        while stack:
            n = stack.pop()
            seen.add(n.rule)
            stack.extend(n.premises)
        if len(seen) == len(Rule):
            break
    assert seen == set(Rule)


def test_empty_suite_passes():
    report = run_property_suite(0, GenConfig(seed=0))
    assert report.passed
    assert all(r.cases == 0 for r in report.results)


def test_suite_passes():
    report = run_property_suite(100, GenConfig(seed=5, max_nodes=12))
    assert report.passed, report.render()


def test_corrupted_reducer_is_caught():
    # a comm that drops the receiver replacement breaks linearity, and the
    # subject reduction suite must notice
    def corrupted(t):
        out = []
        for r in find_redexes(t):
            if r.kind == "comm":
                node = subterm_at(t, r.activator)
                assert isinstance(node, App) and isinstance(node.fun, Send)
                out.append(replace_at(t, r.activator, node.fun.body))
            else:
                out.append(apply_redex(t, r))
        return out

    report = run_property_suite(40, GenConfig(seed=11, max_nodes=11),
                                reducts=corrupted)
    by_name = {r.name: r for r in report.results}
    assert by_name["subject-reduction"].failures > 0
    seed = by_name["subject-reduction"].first_failing_seed
    assert seed is not None
    # the report names the seed that failed first on the suite's line
    line = next(x for x in report.render().splitlines()
                if x.startswith("subject-reduction:"))
    assert line.endswith(f" first-failing-seed={seed}")


def test_each_reduct_is_built_once(monkeypatch):
    # the walk builds every one-step reduct of every state once, and the
    # suites read them from it; the (state, redex) pairs are counted here
    # on the path API, independently of the walk
    calls = []
    real = testlab._reducts
    monkeypatch.setattr(testlab, "_reducts",
                        lambda t: (calls.append(1) or s for s in real(t)))
    cfg = GenConfig(seed=4, max_nodes=14)
    run_property_suite(30, cfg)
    pairs = 0
    for case in range(30):
        t = gen_derivation(GenConfig(cfg.seed * 1_000_003 + case,
                                     cfg.max_nodes)).conclusion.joined_term()
        while redexes := find_redexes(t):
            pairs += len(redexes)
            t = apply_redex(t, redexes[0])
    assert pairs > 30
    assert len(calls) == pairs


def test_a_raising_engine_fails_every_suite():
    def broken(t):
        raise RuntimeError("engine fault")

    report = run_property_suite(3, GenConfig(seed=1), reducts=broken)
    assert [(r.cases, r.failures) for r in report.results] == [(3, 3)] * 7


def test_report_render_format():
    report = run_property_suite(3, GenConfig(seed=2, max_nodes=8))
    for line in report.render().splitlines():
        assert "cases=" in line and "failures=" in line
