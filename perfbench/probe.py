"""One-shot capacity probe of the heavy ladder rungs; never gated.

    python3 perfbench/probe.py

Each rung of workloads.py's capacity list (chow --iso-check on U(4,5),
verify-all on B(1,1,1,1,1) and on U(4,6)) runs once, with seed 0, in its
own child process under an RLIMIT_AS cap of PROBE_CAP_MB and a time limit
of PROBE_TIMEOUT_S.  Each is recorded as ok, timeout, oom or error, with
its time, the peak RSS of its child and the sections that failed.  Never
run these rungs uncapped: U(4,6) exhausts the memory of the machine.
"""

import json
import os
import resource
import subprocess
import sys
from time import monotonic

import harness
import workloads
from run import ROOT

PROBE_CAP_MB = 2048
PROBE_TIMEOUT_S = 200.0
SEED = 0


def child(i):
    """Run rung i in this process, capped; print its row as JSON."""
    cli, ops, paths, _ = harness.set_up(str(ROOT), "capacity", monotonic(), PROBE_CAP_MB)
    op = ops[i]
    argv = [op.argv[0], "--instance", paths[i], "--seed", str(SEED)] + op.argv[1:]
    result = harness.run_op(cli.main, argv, PROBE_TIMEOUT_S)
    row = {"status": result["kind"], "seconds": round(result["seconds"], 3),
           "detail": result["detail"]}
    if result["kind"] == "ok":
        failed, problems = workloads.check(op, result["rc"], result["stdout"])
        row["failed_sections"] = sorted(failed)
        row["problems"] = problems
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    print(json.dumps(row))


def probe(i, op):
    start = monotonic()
    env = dict(os.environ, PYTHONHASHSEED="0")   # as in the benchmark runs
    proc = subprocess.Popen([sys.executable, __file__, str(i)], stdout=subprocess.PIPE,
                            env=env)
    stuck = False
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S + 60)
    except subprocess.TimeoutExpired:       # stuck where SIGALRM cannot interrupt
        stuck = True
        proc.kill()
        out, _ = proc.communicate()
    if proc.returncode == 0:
        row = json.loads(out.splitlines()[-1])
    else:
        kind = "timeout" if stuck else "oom" if proc.returncode == -9 else "error"
        row = {"status": kind, "seconds": round(monotonic() - start, 3),
               "detail": "exit code %d" % proc.returncode, "peak_rss_mb": None}
    return dict({"rung": op.label, "command": " ".join(op.argv)}, **row)


def main():
    if not (ROOT / "src" / "polychow" / "__init__.py").is_file():
        print("no polychow sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    rows = []
    for i, op in enumerate(workloads.ops_for("capacity")):
        row = probe(i, op)
        print("%-14s %-22s %-8s %9.2f s %8s MB  %s" % (
            row["rung"], row["command"], row["status"], row["seconds"],
            row["peak_rss_mb"], row.get("failed_sections", row["detail"])), flush=True)
        rows.append(row)
    print(json.dumps({"cap_mb": PROBE_CAP_MB, "timeout_s": PROBE_TIMEOUT_S,
                      "seed": SEED, "rungs": rows}))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        child(int(sys.argv[1]))
        sys.exit(0)
    sys.exit(main())
