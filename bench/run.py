"""The lamp benchmark: one command, seeded inputs, checked outputs.

    python3 bench/run.py --workload ring|typecheck|confluence --seed N \
        --seconds S --trace 0|1

Workloads (one process, one thread, closed loop: a program starts when the
previous one is done; the program list is replayed in whole passes, as many
as take about ``--seconds`` at the machine's usual speed, see ``PASS_S``):

* ``ring``: ring(n) and relay(n), n = 8..48, through ``lamp check``, ``run``
  (full, cbv, concurrent on three scheduler seeds) and ``translate`` in both
  directions.  Loads redex search and the runtime; bypasses enumeration.
* ``typecheck``: generated programs, half well typed and half with one atom
  swapped, through ``lamp check``.  Loads reconstruct's split search;
  bypasses reduction entirely.
* ``confluence``: ``lamp enumerate`` on ring(6..10) and generated programs of
  comm_size 7-9.  Runs find_redexes/apply_redex thousands of times on small
  states; bypasses reconstruct.

Set-up (import lamp, generate and write the inputs: bench/make_inputs.py)
runs three times, each in a fresh process, and reports the median.  The
``lamp`` CLI runs as a subprocess on the corpus, spread over the run, and
its output is byte-compared with ``corpus/golden``.  Every operation's
output is checked against a reference built in ``inputs.py``; an exception
or a wrong output counts as a failed operation.

Every time reported with ``--trace 0`` is scaled to a reference speed of
the machine (``speed.py``), the raw value of each end-to-end metric printed
next to it: a shared VM's cores can change speed by a third for seconds at
a time.  Each run makes a
fixed number of passes for its ``--seconds``, so that its attempted and
failed counts are the same on every run of a seed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from spans recorded around each call into lamp, each program run once
untraced and once traced so the tracing overhead is measured in the same
run.  Spans and inputs are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("ring", "typecheck", "confluence")
SETUP_REPEATS = 3
CORPUS_NAMES = ("excluded_middle", "client_server_request",
                "client_server_dialogue", "cyclic", "channel_transmission")
P90_MIN_SAMPLES = 100
WATCHDOG_S = 175  # a run must end within 180 s

# Seconds one untraced pass over a workload's programs takes, and one CLI
# command, on a 2-vCPU x86 VM at its usual speed.  A run makes as many
# passes and CLI rounds as fill ``--seconds`` at these speeds, a fixed
# number for a given ``--seconds``: every run then attempts the same
# operations, so its attempted and failed counts do not depend on how fast
# the machine happened to be.  A faster lamp makes the run shorter, not
# longer.
PASS_S = {"ring": 8.4, "typecheck": 1.5, "confluence": 6.2}
CLI_S = 0.16
CLI_SHARE = 0.2  # of an untraced run's time, spent in the CLI
TRACED_PASS_COST = 2.3  # a traced pass (traced + untraced run) over an untraced one


class Watchdog(BaseException):
    """Raised by SIGALRM; not an Exception, so no operation counts it as its
    own failure, and subprocess.run kills its child on the way out."""

# end-to-end metrics, printed with --trace 0 on every workload
E2E_UNITS = {
    "setup_s": "s",
    "program_ms_gmean": "ms",
    "programs_per_s": "1/s",
    "cli_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# per-layer spans: lamp's public functions, each with the end-to-end metric
# and workload it should move
LAYERS = {
    "parser.parse_program": "check_ms_p50 on ring, cli_ms_p50",
    "reconstruct.reconstruct": "check_ms_p90 on typecheck",
    "derivations.check_derivation": "check_ms_p50 on ring, translate_ms_p50",
    "sexpr.derivation_to_sexpr": "check_ms_p50, cli_ms_p50",
    "reduction.find_redexes": "run_ms_p90 on ring, enumerate_ms_p50 on confluence",
    "reduction.apply_redex": "run_ms_p90 on ring, enumerate_ms_p50 on confluence",
    "terms.print_term": "run_ms_p50 on ring",
    "reduction.cbv_trace": "cbv_ms_p50 on ring",
    "reduction.enumerate_normal_forms": "enumerate_ms_p50/p90 on confluence",
    "runtime.run_concurrent": "concurrent_ms_p90 on ring",
    "mll.nmll_to_mll": "translate_ms_p50 on ring",
    "mll.check_mll": "translate_ms_p50 on ring",
    "mll.mll_to_nmll": "translate_ms_p50 on ring",
    "testlab.gen_derivation": "setup_s on typecheck and confluence",
}
COUNTS = {
    "parser.chars": "check_ms_p50 on ring, cli_ms_p50",
    "reconstruct.rejected": "check_ms_p90 on typecheck",
    "derivations.nodes": "check_ms_p50 on ring, translate_ms_p50",
    "reduction.redexes_found": "run_ms_p90 on ring, enumerate_ms_p50",
    "reduction.steps.beta": "run_ms_p90 on ring, enumerate_ms_p50",
    "reduction.steps.comm": "run_ms_p90 on ring, enumerate_ms_p50",
    "reduction.steps.dist": "run_ms_p90 on ring, enumerate_ms_p50",
    "reduction.cbv.steps": "cbv_ms_p50 on ring",
    "reduction.normal_forms": "enumerate_ms_p50 on confluence",
    "reduction.states": "enumerate_ms_p50 on confluence",
}
# log-log slope of per-program self time against n on ring; normalize is
# cubic today, and an indexed engine should move reduction.growth toward 1
GROWTH = {
    "reduction.growth": ("reduction.find_redexes", "reduction.apply_redex"),
    "runtime.growth": ("runtime.run_concurrent",),
    "derivations.growth": ("derivations.check_derivation",),
    "reconstruct.growth": ("reconstruct.reconstruct",),
}


NOTES = {
    "reconstruct.max_ms": "check_ms_p90 on typecheck",
    **{name: f"slope of {'+'.join(spans)} self time against n on ring"
       for name, spans in GROWTH.items()},
    "trace.overhead_pct": "traced against untraced time of the same programs",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYERS:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({name: "count" for name in COUNTS})
    units["reconstruct.max_ms"] = "ms"
    units.update({name: "log/log" for name in GROWTH})
    units["trace.overhead_pct"] = "%"
    units["trace.spans"] = "count"
    return units


def import_lamp() -> None:
    """Import lamp from this checkout's src/, and nothing else."""
    if not (SRC / "lamp" / "__init__.py").is_file():
        sys.exit(f"bench: no lamp package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import lamp
    if Path(lamp.__file__).resolve().parent != SRC / "lamp":
        sys.exit(f"bench: imported lamp from {lamp.__file__}, not {SRC}")


class Stats:
    """Per-operation samples and failures of one run."""

    def __init__(self) -> None:
        self.ms: dict[str, list[float]] = defaultdict(list)
        self.when: dict[str, list[tuple[float, float]]] = defaultdict(list)
        # (program id, ms, start, end) of every program run
        self.programs: list[tuple[int, float, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()

    def fail(self, op: str, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.reasons[f"{op}: {reason}"] += 1

    def time(self, op: str, t0: float) -> None:
        t1 = perf_counter()
        self.ms[op].append((t1 - t0) * 1000)
        self.when[op].append((t0, t1))

    def op_ms(self, speed=None) -> dict[str, list[float]]:
        """Each operation's times, scaled to the reference speed if given."""
        if speed is None:
            return dict(self.ms)
        return {op: [speed.scale(ms, *w) for ms, w in zip(xs, self.when[op])]
                for op, xs in self.ms.items()}


class Runner:
    """Runs programs through a workload's pipeline, traced or not."""

    def __init__(self, workload: str, tracer=None, speed=None):
        import ops  # imports lamp, so only after import_lamp()
        from tracer import untraced
        self.ops = ops
        self.workload = workload
        self.tracer = tracer
        self.call = tracer.call if tracer else untraced
        self.counts = tracer.counts if tracer else None
        self.speed = speed

    def attempt(self, stats: Stats, op: str, fn, verify):
        """Time one operation, then check its output outside the timing."""
        stats.attempted += 1
        if self.speed:
            self.speed.tick()
        t0 = perf_counter()
        try:
            out = self.call(f"op.{op}", fn)
        except Exception as err:  # a crash is a failed operation, not the end
            stats.time(op, t0)
            detail = str(err).rsplit("]: ", 1)[-1][:80]
            stats.fail(op, f"{type(err).__name__}: {detail}", wrong=False)
            return None
        stats.time(op, t0)
        reason = verify(out)
        if reason:
            stats.fail(op, reason, wrong=True)
        return out

    def program(self, case, stats: Stats) -> dict:
        """Run one program through the workload's pipeline."""
        ops, call, counts = self.ops, self.call, self.counts
        if self.tracer:
            self.tracer.pid = case.pid
        before = {op: len(xs) for op, xs in stats.ms.items()}
        start = perf_counter()
        outs = {}
        if self.workload == "confluence":
            outs["enumerate"] = self.attempt(
                stats, "enumerate", lambda: ops.enumerate_forms(case, call, counts),
                lambda o: ops.verify_enumerate(case, o))
        else:
            outs["check"] = out = self.attempt(
                stats, "check", lambda: ops.check(case, call, counts),
                lambda o: ops.verify_check(case, o))
            if self.workload == "ring":
                self.reduce(case, out, stats, outs)
        ms = sum(sum(xs[before.get(op, 0):]) for op, xs in stats.ms.items())
        stats.programs.append((case.pid, ms, start, perf_counter()))
        return outs

    def reduce(self, case, checked, stats: Stats, outs: dict) -> None:
        ops, call, counts = self.ops, self.call, self.counts
        downstream = 3 + len(case.sched_seeds)
        if checked is None or checked[1] is None:
            stats.attempted += downstream
            stats.failed += downstream
            stats.reasons["ring: check failed, nothing to reduce"] += downstream
            return
        prog, d, _ = checked
        term = prog.sequent.joined_term()
        outs["run"] = self.attempt(stats, "run", lambda: ops.run(term, call, counts),
                                   lambda o: ops.verify_run(case, term, o))
        outs["cbv"] = self.attempt(stats, "cbv", lambda: ops.cbv(term, call, counts),
                                   lambda o: ops.verify_cbv(case, term, o))
        for seed in case.sched_seeds:
            self.attempt(stats, "concurrent",
                         lambda: ops.concurrent(prog.sequent, seed, call),
                         lambda o: ops.verify_concurrent(case, o))
        self.attempt(stats, "translate", lambda: ops.translate(d, call),
                     lambda o: ops.verify_translate(case, o))


def agree(plain: dict, traced: dict) -> bool:
    """The traced engine's outputs equal normalize's and enumerate's."""
    for op, part in (("run", 1), ("enumerate", 0)):
        a, b = plain.get(op), traced.get(op)
        if a is not None and b is not None and a[part] != b[part]:
            return False
    return True


def timed_setups(workload: str, seed: int,
                 speed: Speed) -> tuple[list[tuple[float, float]], str]:
    """Run the set-up step SETUP_REPEATS times, each in a fresh process with
    a reference sample on either side and more taken by the set-up itself;
    returns each one's (seconds less its reference samples, start, end),
    and the inputs text they all wrote.
    Subprocesses here and in Cli get no timeout: with one, Popen.wait
    polls in 50 ms steps and the times come out quantized; the watchdog
    bounds the run instead."""
    out = OUT / f"inputs-{workload}-{seed}.txt"
    samples = OUT / f"speed-{workload}-{seed}.json"
    spans, texts = [], set()
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = perf_counter()
        subprocess.run([sys.executable, str(BENCH / "make_inputs.py"),
                        "--workload", workload, "--seed", str(seed), "--out", str(out),
                        "--speed", str(samples)], check=True)
        t1 = perf_counter()
        child = json.loads(samples.read_text())
        speed.add(child["at"], child["took"])
        spans.append((t1 - t0 - sum(child["took"]), t0, t1))
        speed.sample()
        texts.add(out.read_text(encoding="utf-8"))
    if len(texts) != 1:
        sys.exit("bench: the same seed gave different inputs")
    return spans, texts.pop()


def prepare_references(inputs) -> None:
    """Generated confluence programs have no constructor-built normal form;
    their reference is normalize's, a different engine than enumerate."""
    from lamp.parser import parse_program
    from lamp.reduction import normalize
    for case in inputs.cases:
        if case.normal_form is None and inputs.workload == "confluence":
            case.normal_form = normalize(parse_program(case.text).sequent.joined_term()).final


class Cli:
    """`lamp run` and `lamp check` on the corpus programs as subprocesses,
    each output byte-compared with its golden file.  `rounds` times every
    command runs, the calls spread evenly between the run's `programs`
    programs so that the samples cover the whole run rather than one moment
    of it."""

    def __init__(self, stats: Stats, speed: Speed, rounds: int, programs: int):
        self.stats = stats
        self.speed = speed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["LAMP_COLOR"] = "0"
        self.commands = [(cmd, name, golden) for name in CORPUS_NAMES
                         for cmd, golden in (("run", "trace"), ("check", "check"))]
        self.ms: list[float] = []
        self.when: list[tuple[float, float]] = []
        calls = rounds * len(self.commands)
        self.due = [k * programs // calls for k in range(calls)]

    def call(self) -> None:
        cmd, name, golden = self.commands[len(self.ms) % len(self.commands)]
        self.stats.attempted += 1
        self.speed.sample()
        t0 = perf_counter()
        r = subprocess.run(
            [sys.executable, "-m", "lamp.cli", cmd, f"corpus/{name}.lamp"],
            cwd=ROOT, env=self.env, capture_output=True)
        t1 = perf_counter()
        self.speed.sample()
        self.ms.append((t1 - t0) * 1000)
        self.when.append((t0, t1))
        want = (ROOT / "corpus" / "golden" / f"{name}.{golden}.txt").read_bytes()
        if r.returncode != 0 or r.stdout != want:
            self.stats.fail(f"cli {cmd}", f"{name}: exit {r.returncode} "
                            "or output differs from golden", wrong=True)

    def tick(self, done: int) -> None:
        """Run the calls due once `done` programs have run."""
        while len(self.ms) < len(self.due) and self.due[len(self.ms)] <= done:
            self.call()

    def finish(self) -> None:
        self.tick(len(self.due) and self.due[-1])


def plan(workload: str, seconds: float, traced: bool) -> tuple[int, int]:
    """Passes over the programs and CLI rounds that fill `seconds`."""
    if traced:
        return max(1, round(seconds / (PASS_S[workload] * TRACED_PASS_COST))), 0
    passes = max(1, round(seconds * (1 - CLI_SHARE) / PASS_S[workload]))
    rounds = max(1, round(seconds * CLI_SHARE / (CLI_S * len(CORPUS_NAMES) * 2)))
    return passes, rounds


def measure(runner: Runner, cases: list, passes: int, rng: random.Random,
            stats: Stats, paired: Runner | None = None,
            paired_stats: Stats | None = None, between=None) -> None:
    """Replay the program list `passes` times, each pass in a new seeded
    order, so that every program is measured equally often.
    With `paired`, each program also runs through the other runner, the two
    alternating which goes first, and their outputs must agree.  `between`
    is called before every program with the number of programs run so far."""
    order = list(cases)
    done = 0
    for k in range(passes):
        rng.shuffle(order)
        for case in order:
            if between:
                between(done)
            done += 1
            if paired is None:
                runner.program(case, stats)
                continue
            pair = [(runner, stats), (paired, paired_stats)]
            if k % 2:
                pair.reverse()
            outs = {id(r): r.program(case, s) for r, s in pair}
            if not agree(outs[id(paired)], outs[id(runner)]):
                stats.fail("trace", "traced engine differs from normalize/enumerate",
                           wrong=True)


def report_ops(stats: Stats, workload: str, speed: Speed | None = None) -> None:
    """Print each operation's latency with its unit and sample count."""
    for op, xs in sorted(stats.op_ms(speed).items()):
        print(f"{workload}\t{op}_ms_p50\t{statistics.median(xs):.4f}\tms\tsamples={len(xs)}")
        if len(xs) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(xs, n=10)[8]
            print(f"{workload}\t{op}_ms_p90\t{p90:.4f}\tms\tsamples={len(xs)}")
    ratio = stats.failed / stats.attempted if stats.attempted else 0.0
    print(f"{workload}\tfailed_ratio\t{ratio:.4f}\tratio\t"
          f"failed={stats.failed} attempted={stats.attempted}")
    for reason, k in sorted(stats.reasons.items()):
        print(f"{workload}\tfailure\t{k}\t{reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def expire(*_):
        raise Watchdog(f"run exceeded {WATCHDOG_S} s")
    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    import_lamp()
    OUT.mkdir(exist_ok=True)
    rng = random.Random(f"lamp-bench-order:{args.workload}:{args.seed}")

    if args.trace:
        return traced_main(args, rng)

    from inputs import make_inputs
    speed = Speed()
    setups, text = timed_setups(args.workload, args.seed, speed)
    inputs = make_inputs(args.workload, args.seed)
    if inputs.render() != text:
        sys.exit("bench: inputs differ between processes")
    prepare_references(inputs)

    stats = Stats()
    passes, rounds = plan(args.workload, args.seconds, traced=False)
    cli = Cli(stats, speed, rounds, passes * len(inputs.cases))
    measure(Runner(args.workload, speed=speed), inputs.cases, passes, rng, stats,
            between=cli.tick)
    cli.finish()
    speed.sample()

    def metrics_of(scale):
        # each program's median over the passes, then their geometric mean:
        # every program weighs the same and the whole run's samples enter
        # it, so it neither jumps between programs of different size nor
        # rests on one moment of the run
        by_program = defaultdict(list)
        for pid, ms, t0, t1 in stats.programs:
            by_program[pid].append(scale(ms, t0, t1))
        total_ms = sum(sum(xs) for xs in by_program.values())
        return {
            "setup_s": statistics.median(scale(s, t0, t1) for s, t0, t1 in setups),
            "program_ms_gmean": statistics.geometric_mean(
                statistics.median(xs) for xs in by_program.values()),
            "programs_per_s": len(stats.programs) / (total_ms / 1000),
            "cli_ms_p50": statistics.median(
                scale(ms, *w) for ms, w in zip(cli.ms, cli.when)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = metrics_of(speed.scale)
    raw = metrics_of(lambda ms, t0, t1: ms)
    print(f"{args.workload}\tprograms={len(inputs.cases)} passes={passes} "
          f"program_samples={len(stats.programs)} cli_samples={len(cli.ms)} "
          f"setup_samples={len(setups)} {speed.summary()}")
    for name, value in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.4f}\t{E2E_UNITS[name]}\t"
              f"raw={raw[name]:.4f}")
    report_ops(stats, args.workload, speed)
    print(json.dumps({
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_main(args, rng: random.Random) -> int:
    from inputs import make_inputs
    from lamp.testlab import gen_derivation
    from tracer import Tracer, loglog_slope

    tracer = Tracer()
    inputs = make_inputs(args.workload, args.seed, lambda cfg: tracer.call(
        "testlab.gen_derivation", gen_derivation, cfg))
    prepare_references(inputs)

    stats, plain_stats = Stats(), Stats()
    passes, _ = plan(args.workload, args.seconds, traced=True)
    measure(Runner(args.workload, tracer), inputs.cases, passes, rng,
            stats, Runner(args.workload), plain_stats)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv")

    secs, calls = tracer.busy()
    units = per_layer_units()
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.s"] = secs.get(name, 0.0)
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    metrics["reconstruct.max_ms"] = tracer.max_duration("reconstruct.reconstruct") * 1000
    sizes = {c.pid: c.n for c in inputs.cases if c.kind == "ring"}
    for name, spans in GROWTH.items():
        per = tracer.per_program(spans)
        metrics[name] = loglog_slope([(sizes[p], s) for p, s in per.items() if p in sizes]) \
            if args.workload == "ring" else 0.0
    metrics["trace.overhead_pct"] = \
        (sum(p[1] for p in stats.programs) / sum(p[1] for p in plain_stats.programs) - 1) * 100
    metrics["trace.spans"] = len(tracer.spans)

    print(f"{args.workload}\tprograms={len(inputs.cases)} passes={passes} traced")
    for name, value in metrics.items():
        base = name.rsplit(".", 1)[0]
        moves = LAYERS.get(base) or COUNTS.get(name) or NOTES.get(name, "")
        print(f"{args.workload}\t{name}\t{value:.6g}\t{units[name]}\t{moves}")
    report_ops(stats, args.workload)
    print(json.dumps({
        "correct": stats.wrong == 0 and plain_stats.wrong == 0,
        "attempted": stats.attempted + plain_stats.attempted,
        "failed": stats.failed + plain_stats.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
