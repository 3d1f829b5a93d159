"""Benchmark of the polychow CLI: time to verdict on its workloads.

    python3 perfbench/run.py --workload verify_ladder --seed 1 --seconds 50 --trace 0

BENCHMARK.json gates verify_ladder and ring_deep.  polyperm runs the same
way but is not gated: on a shared two-vCPU VM its run-to-run spread
(IQR/median of 10 runs) reached 0.33, over the 0.25 bound; its polytope
layer is still measured inside verify_ladder's polyperm sections.

Run from the root of a source checkout; polychow is imported from ./src.
This process only starts the capped child, harness.py, which runs the
whole run, one op at a time with no threads, checks every verdict and
prints the results; its last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The child is killed if
it has not ended within RUN_TIMEOUT_S, and the run then fails; a set-up
process it may have running then ends by itself within a second.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 176.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polychow" / "__init__.py").is_file():
        print("no polychow sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED="0")   # repeatable set order
    child = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), str(ROOT), args.workload,
         str(args.seed), repr(monotonic()), "trace" if args.trace else "time",
         str(args.seconds)],
        env=env)
    try:
        return child.wait(RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("run did not end within %.0f s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
