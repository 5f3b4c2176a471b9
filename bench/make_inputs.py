"""The benchmark's set-up step: import lamp, generate one workload's inputs
from its seed and write them out.  ``bench/run.py`` times this script as a
fresh process, so that every timed set-up pays for the import too.

    python3 bench/make_inputs.py --workload W --seed N --out FILE [--speed FILE]

With ``--speed`` it also takes reference-speed samples (``speed.py``)
before, during (between generated derivations) and after generation, and
writes them, with the seconds they took,
to that file as JSON, so that a set-up that lasts seconds is scaled by the
machine's speed during it, not only at its ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--speed")
    args = ap.parse_args()
    from inputs import make_inputs
    from lamp.testlab import gen_derivation
    from speed import Speed
    speed = Speed()

    def gen(cfg):
        if args.speed:
            speed.tick()
        return gen_derivation(cfg)

    if args.speed:
        speed.sample()
    text = make_inputs(args.workload, args.seed, gen).render()
    Path(args.out).write_text(text, encoding="utf-8")
    if args.speed:
        speed.sample()
        Path(args.speed).write_text(json.dumps({"at": speed.at, "took": speed.took}))


if __name__ == "__main__":
    main()
