"""Show what each lamp command compiles at start-up.

    python3 tools/startup.py [FILE]

Runs ``lamp parse|check|run|enumerate FILE`` (by default
corpus/cyclic.lamp) as ``python -X importtime -m lamp.cli`` with
PYTHONDONTWRITEBYTECODE=1, so that every lamp module is compiled from
source as a fresh checkout compiles it.  For each command it prints the
modules imported after ``site`` (the ones the command itself brings in),
slowest first, with their self and cumulative import times in ms, then
their total self time.  It reports and exits 0 whatever the times are;
it exits 1 only if a command fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("parse", "check", "run", "enumerate")


def imports_after_site(stderr: str) -> list[tuple[str, int, int]]:
    """(module, self us, cumulative us) of each line of -X importtime's
    report that follows the line for site."""
    rows = []
    seen_site = False
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if seen_site:
            rows.append((name, int(self_us), int(cumulative_us)))
        seen_site = seen_site or name == "site"
    return rows


def main(argv: list[str]) -> int:
    path = argv[0] if argv else "corpus/cyclic.lamp"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", LAMP_COLOR="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    failed = False
    for command in COMMANDS:
        r = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "lamp.cli", command, path],
            cwd=ROOT, env=env, capture_output=True, text=True)
        rows = imports_after_site(r.stderr)
        print(f"lamp {command} {path}: exit {r.returncode}, "
              f"{len(rows)} modules after site, "
              f"{sum(s for _, s, _ in rows) / 1000:.1f} ms self")
        for name, self_us, cumulative_us in sorted(rows, key=lambda row: -row[1]):
            print(f"  {self_us / 1000:7.2f} {cumulative_us / 1000:7.2f}  {name}")
        failed = failed or r.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
