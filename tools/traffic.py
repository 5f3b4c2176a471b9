"""List the lines of lamp's functions that no benchmark workload runs.

    python3 tools/traffic.py

For each workload of ``bench/run.py`` (ring, typecheck, confluence) at
seed 2, it generates the inputs as the benchmark's set-up does
(``bench/inputs.py``), then runs one untraced pass over the programs
through ``bench/run.py``'s ``Runner``, which calls ``bench/ops.py`` as a
timed run does.  It also runs the benchmark's CLI commands, ``lamp run``
and ``lamp check`` on each corpus program, in process.  A line tracer
(``sys.settrace``) records every line of ``src/lamp`` run by importing
lamp, the set-up, the pass or the CLI; the reference normal forms the
benchmark builds before its timed loop are left out.  The tracer stops
tracing a function once all of its lines have run.

It prints, per ``src/lamp`` file, how many lines of function bodies
(lambdas and comprehensions included; a ``def`` line and a class body
not) none of it ran,
then those lines, as ranges under the function that holds them, and the
seconds the whole report took.  A report, not a gate: it exits 0 whatever
it finds.  It uses the standard library only.
"""

from __future__ import annotations

import contextlib
import dis
import inspect
import io
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAMP = SRC / "lamp"
SEED = 2
WORKLOADS = ("ring", "typecheck", "confluence")
CORPUS_NAMES = ("excluded_middle", "client_server_request",
                "client_server_dialogue", "cyclic", "channel_transmission")


def _name(code) -> str:
    return getattr(code, "co_qualname", code.co_name)  # Python 3.11 on


def _key(code) -> tuple:
    return code.co_filename, _name(code), code.co_firstlineno


def _is_function(code) -> bool:
    """Whether code is a function's, not a module's or a class body's."""
    return bool(code.co_flags & inspect.CO_NEWLOCALS)


def _body(code) -> set[int]:
    """The lines of code's body on which an instruction starts."""
    return {line for _, line in dis.findlinestarts(code)
            if line is not None and line != code.co_firstlineno}


class LineTracer:
    """The lines run of each function of files under LAMP, by _key."""

    def __init__(self) -> None:
        self.ran: dict[tuple, set[int]] = defaultdict(set)
        self.left: dict[tuple, set[int]] = {}  # lines not run yet, by _key

    def __call__(self, frame, event, arg):
        code = frame.f_code
        key = _key(code)
        left = self.left.get(key)
        if left is None:
            if not code.co_filename.startswith(str(LAMP)) or not _is_function(code):
                return None
            left = self.left[key] = _body(code)
        if not left:
            return None
        ran = self.ran[key]

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in left:
                left.discard(frame.f_lineno)
                ran.add(frame.f_lineno)
                if not left:
                    return None
            return local
        return local

    @contextlib.contextmanager
    def on(self):
        sys.settrace(self)
        try:
            yield
        finally:
            sys.settrace(None)


def _functions(path: Path):
    """Every function code object compiled from path, nested ones too."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        if _is_function(code):
            yield code
        stack.extend(c for c in code.co_consts if hasattr(c, "co_firstlineno"))


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for k, line in enumerate(lines):
        if start is None:
            start = line
        if k + 1 == len(lines) or lines[k + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main() -> int:
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    sys.setrecursionlimit(10_000)  # the tracer's frames count against the limit
    tracer = LineTracer()
    with tracer.on():
        from inputs import make_inputs
        from run import Runner, Stats, prepare_references
        from lamp import cli
        import ops  # noqa: F401  (Runner's import of lamp's modules, traced)
    for workload in WORKLOADS:
        with tracer.on():
            inputs = make_inputs(workload, SEED)
        prepare_references(inputs)
        runner, stats = Runner(workload), Stats()
        with tracer.on():
            for case in inputs.cases:
                runner.program(case, stats)
        print(f"{workload}: {len(inputs.cases)} programs, "
              f"{stats.failed} of {stats.attempted} operations failed")
    with tracer.on(), contextlib.redirect_stdout(io.StringIO()):
        for name in CORPUS_NAMES:
            for command in ("run", "check"):
                cli.main([command, str(ROOT / "corpus" / f"{name}.lamp")])

    total = 0
    for path in sorted(LAMP.glob("*.py")):
        unrun, size = defaultdict(list), 0
        for code in _functions(path):
            body = _body(code)
            size += len(body)
            missed = sorted(body - tracer.ran.get(_key(code), set()))
            if missed:
                unrun[_name(code)] += missed
        n = sum(map(len, unrun.values()))
        total += n
        print(f"{path.relative_to(ROOT)}: {n} of {size} function-body lines not run")
        for name, lines in sorted(unrun.items(), key=lambda item: min(item[1])):
            print(f"  {name}: {_ranges(sorted(lines))}")
    print(f"total: {total} lines not run; {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
