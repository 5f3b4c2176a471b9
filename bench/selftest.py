"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

It checks that the same seed gives byte-identical inputs and the same
attempted and failed counts, that every metric
BENCHMARK.json names is printed with its unit by each workload in both trace
modes, that a corrupted reference output makes operations fail, and that
the benchmark refuses to run without the lamp sources next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from inputs import make_inputs  # noqa: E402
from lamp.terms import UNIT, Var, join_par  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        a = make_inputs(workload, 7).render()
        assert a == make_inputs(workload, 7).render(), workload
        assert a != make_inputs(workload, 8).render(), workload


def test_same_seed_same_counts():
    runs = [bench("--workload", "ring", "--seed", "5", "--seconds", "1", "--trace", "0")
            for _ in range(2)]
    a, b = (json.loads(r.stdout.strip().splitlines()[-1]) for r in runs)
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]), (a, b)
    assert a["failed"] > 0, a


def test_every_metric_printed_with_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            r = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", trace)
            assert r.returncode == 0, r.stderr
            result = json.loads(r.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace, r.stdout)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace)
            for name, unit in want.items():
                assert any(line.split("\t")[1:2] == [name] and unit in line.split("\t")
                           for line in r.stdout.splitlines()[:-1]), (workload, name)


def _failures(workload: str, corrupt) -> run.Stats:
    inputs = make_inputs(workload, 3)
    run.prepare_references(inputs)
    case = min(inputs.cases, key=lambda c: len(c.text))
    corrupt(case)
    stats = run.Stats()
    run.Runner(workload).program(case, stats)
    return stats


def test_corrupted_reference_fails():
    def ring(case):
        case.normal_slots = (Var("nobody"),) + case.normal_slots[1:]
        case.normal_form = join_par(list(case.normal_slots))

    def typecheck(case):
        case.well_typed = not case.well_typed

    def confluence(case):
        case.normal_form = UNIT

    for workload, corrupt in (("ring", ring), ("typecheck", typecheck),
                              ("confluence", confluence)):
        stats = _failures(workload, corrupt)
        assert stats.wrong > 0 and stats.failed / stats.attempted > 0, workload


def test_refuses_without_sources():
    stripped = run.OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(BENCH, stripped / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        r = bench("--workload", "ring", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=stripped)
        assert r.returncode != 0
        assert not r.stdout.strip().startswith("{") and '"correct"' not in r.stdout
    finally:
        shutil.rmtree(stripped, ignore_errors=True)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as err:
                failed += 1
                print(f"FAIL {name}: {str(err)[:300]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
