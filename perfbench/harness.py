"""The benchmark's capped child process: runs one workload pass and measures it.

    harness.py ROOT WORKLOAD SEED SPAWNED MODE [SECONDS]

run.py starts it.  SPAWNED is the time.monotonic() reading at which the
process was spawned (CLOCK_MONOTONIC, the same clock in every process), so
set-up is measured from process start.  MODE is

    time    run the ops `plan` sets out for SECONDS; end-to-end metrics
    trace   run each op untraced, then traced twice; per-layer metrics
    setup   set up, print the set-up time and exit

The process caps its own address space (RLIMIT_AS), imports polychow from
ROOT/src, writes the workload's instances to OUTDIR and runs every op in
this one process, one at a time, through `polychow.cli.main` with stdout
captured.  An op that raises, runs out of memory (MemoryError under the
cap) or overruns its time limit (SIGALRM from setitimer, raised inside the
op) is recorded with its kind, and the pass goes on.  Every verdict is
checked against workloads.py.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 (time): the ops run as `plan` sets out from their nominal times
  and SECONDS: each op at least twice, spread over the run, the same ops
  in every run, so `attempted` and `failed` repeat exactly.  Metrics are the
  end-to-end ones of BENCHMARK.json, from per-op medians.
--trace 1 (trace): each op runs untraced, then traced twice, into two
  recorders (spans.py wraps each layer's public functions from outside).
  Metrics are the per-layer ones: self times averaged over the two
  recorders, counts of one.  The counts must repeat exactly between the
  recorders, and every traced op's stdout must be byte-identical to its
  untraced run.  Such a run takes three passes, whatever SECONDS says.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
OUTDIR = HERE / "out"

CAP_MB = 1024            # RLIMIT_AS of the pass; gated passes peak below 50 MB
SETUPS = 9               # set-ups per run, spread over it; setup_s is their median
MIN_SAMPLES = 2          # samples of each op per timed run; an op's time is their median
MIDDLE_SAMPLES = 7       # samples of the op that sets op_p50_s, where the run has room
SETUP_TIMEOUT_S = 30.0
OP_TIMEOUT_S = 60.0      # three times the slowest gated op
RUN_LIMIT_S = 150.0      # no planned op starts after this, counted from spawn
RUN_END_S = 170.0        # every op is stopped by then, so a run ends within 180 s

# Counts that must repeat exactly for a fixed seed.  The seed-dependent
# ones depend on sampled points (support checks stop at the first cone
# that contains a point), so they repeat for the same seed only.
EXACT_COUNTS = ["building.nested_sets", "chow.basis_dim", "chow.generators",
                "chow.pairs_built", "chow.reduce_calls", "fan.cone_tests",
                "fan.cones", "linalg.calls", "polytope.samples",
                "polytope.vertices"]
SEED_DEPENDENT = {"fan.cone_tests", "linalg.calls"}

# Per-layer metric -> (end-to-end metric it should move, on which workload).
LAYER_MAP = {
    "polymatroid.validate_s": ("nothing (control)", "all"),
    "lift.flats_s": ("nothing (control)", "all"),
    "building.nested_complex_s": ("wall_s", "verify_ladder"),
    "building.nested_sets": ("wall_s", "verify_ladder"),
    "building.validate_s": ("wall_s", "verify_ladder, ring_deep"),
    "fan.build_s": ("wall_s", "verify_ladder"),
    "fan.cones": ("wall_s", "verify_ladder"),
    "fan.unimodular_s": ("wall_s, op_max_s", "verify_ladder"),
    "fan.face_closed_s": ("wall_s, op_max_s", "verify_ladder"),
    "fan.pairwise_faces_s": ("wall_s, op_max_s", "verify_ladder"),
    "fan.balancing_s": ("wall_s, op_max_s", "verify_ladder"),
    "fan.support_s": ("wall_s", "verify_ladder (0 on ring_deep)"),
    "fan.cone_tests": ("wall_s", "verify_ladder (0 on ring_deep)"),
    "fan.cone_hit_ratio": ("wall_s", "verify_ladder (0 on ring_deep)"),
    "polytope.build_s": ("peak_rss_mb, op_max_s", "polyperm (ungated); minor on verify_ladder"),
    "polytope.vertices": ("peak_rss_mb, op_max_s", "polyperm (ungated); minor on verify_ladder"),
    "polytope.normal_fan_s": ("wall_s, op_p50_s", "polyperm (ungated); minor on verify_ladder"),
    "polytope.argmin_s": ("wall_s, op_p50_s", "polyperm (ungated); minor on verify_ladder"),
    "polytope.samples": ("wall_s, op_p50_s", "polyperm (ungated); minor on verify_ladder"),
    "chow.pairs_built": ("wall_s", "verify_ladder"),
    "chow.dp_ring_s": ("wall_s", "verify_ladder"),
    "chow.fy_ring_s": ("wall_s", "verify_ladder"),
    "chow.generators": ("wall_s", "verify_ladder"),
    "chow.graded_ring_s": ("wall_s, peak_rss_mb", "ring_deep"),
    "chow.basis_dim": ("wall_s, peak_rss_mb", "ring_deep"),
    "chow.reduce_s": ("wall_s, op_max_s", "ring_deep"),
    "chow.reduce_calls": ("wall_s, op_max_s", "ring_deep"),
    "chow.iso_check_s": ("wall_s", "verify_ladder, ring_deep"),
    "chow.pairing_s": ("wall_s", "verify_ladder, ring_deep"),
    "chow.nested_basis_s": ("wall_s", "verify_ladder, ring_deep"),
    "kahler.convexity_s": ("op_max_s, wall_s", "ring_deep"),
    "kahler.hl_s": ("op_max_s, wall_s", "ring_deep"),
    "kahler.hr_s": ("op_max_s, wall_s", "ring_deep"),
    "linalg.solve_s": ("wall_s", "verify_ladder"),
    "linalg.kernel_s": ("wall_s", "verify_ladder, ring_deep"),
    "linalg.det_s": ("wall_s", "ring_deep"),
    "linalg.rank_s": ("wall_s", "verify_ladder"),
    "linalg.snf_s": ("wall_s", "verify_ladder"),
    "linalg.calls": ("the parent layer's metric", "verify_ladder, ring_deep"),
    "cli.other_s": ("nothing (control)", "all"),
    "trace.overhead_s": ("-", "all"),
    "polychow.src_lines": ("- (ungated; tracked for simplicity changes)", "all"),
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def run_op(main, argv, limit_s, recorder=None, op_id=None):
    """Run main(argv) with stdout and stderr captured and a time limit.

    `kind` is "ok", "error", "oom" (MemoryError) or "timeout".  With a
    recorder, the op is its root span; the caller installs the probes.
    """
    out, err = io.StringIO(), io.StringIO()
    rc, kind, detail = None, "ok", None
    gc.collect()
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if recorder is None:
                    rc = main(argv)
                else:
                    rc = recorder.run_op(op_id, lambda: main(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        kind, detail = "timeout", "over %.0f s" % limit_s
    except MemoryError:
        kind, detail = "oom", "MemoryError"
    except SystemExit as exc:
        kind, detail = "error", "SystemExit(%r): %s" % (exc.code, err.getvalue()[-500:])
    except Exception:                                     # report, go on
        kind, detail = "error", traceback.format_exc(limit=-3)[-2000:]
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
            "kind": kind, "detail": detail}


def set_up(root, workload, spawned, cap_mb=CAP_MB):
    """Cap this process, import polychow from root/src and write the
    instances; returns (cli module, ops, instance paths, set-up seconds)."""
    cap = cap_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import polychow
    from polychow import cli
    if not os.path.realpath(polychow.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit("polychow imported from %s, not from %s" % (polychow.__file__, src))
    ops = workloads.ops_for(workload)
    OUTDIR.mkdir(exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        path = OUTDIR / ("%s-%d.json" % (workload, i))
        with open(path, "w") as fh:
            json.dump(op.instance, fh)
        paths.append(str(path))
    return cli, ops, paths, monotonic() - spawned


class Pass:
    """Runs a workload's ops in this process and checks every result
    against the workload's oracle."""

    def __init__(self, root, workload, seed, cli, ops, paths, spawned):
        self.root, self.workload, self.seed = root, workload, seed
        self.cli, self.ops, self.paths = cli, ops, paths
        self.spawned = spawned
        self.attempted = self.failed = 0
        self.problems = []
        self.known = []
        self.digests = {}

    def elapsed(self):
        return monotonic() - self.spawned

    def run(self, i, recorder=None):
        """Run op i, traced into `recorder` if given; returns
        (seconds, stdout digest or None, failed)."""
        op = self.ops[i]
        argv = [op.argv[0], "--instance", self.paths[i], "--seed", str(self.seed)] + op.argv[1:]
        limit = min(OP_TIMEOUT_S, max(1.0, RUN_END_S - self.elapsed()))
        self.attempted += 1
        if recorder is None:
            result = run_op(self.cli.main, argv, limit)
        else:
            undo = spans.install(recorder)
            try:
                result = run_op(self.cli.main, argv, limit, recorder, i)
            finally:
                spans.uninstall(undo)
            left = spans.probes_left()
            if left:
                self.problems.append("probes left after tracing: %s" % left)
        if result["kind"] != "ok":
            self.failed += 1
            self.problems.append("%s: %s (%s)" % (op.label, result["kind"], result["detail"]))
            return result["seconds"], None, True
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            self.problems.append("%s: stdout differs from the first untraced run%s"
                                 % (op.label, " (traced)" if recorder is not None else ""))
        failed_sections, problems = workloads.check(op, result["rc"], result["stdout"])
        self.problems.extend("%s: %s" % (op.label, p) for p in problems)
        if failed_sections:
            self.failed += 1
            if failed_sections <= op.known_failures:
                note = "known failure: %s failed %s" % (
                    op.label, ", ".join(sorted(failed_sections)))
                if note not in self.known:
                    self.known.append(note)
        return result["seconds"], digest, bool(failed_sections)

    def setup_time(self):
        """Set-up time of a fresh process of this harness."""
        out = subprocess.run(
            [sys.executable, __file__, self.root, self.workload, str(self.seed),
             repr(monotonic()), "setup"],
            stdout=subprocess.PIPE, check=True, timeout=SETUP_TIMEOUT_S)
        return float(out.stdout)


def plan(ops, seconds):
    """The ops a run of `seconds` times, in order, from the ops' nominal
    times; the same for every run, so every run does the same work.

    Each op runs at least MIN_SAMPLES times.  Then, while the run's nominal
    time allows, the middle op by nominal time, which alone sets op_p50_s,
    gets samples up to MIDDLE_SAMPLES, and after it the op with the fewest
    samples (the shortest first) among those that still fit gets one more.
    Each op's samples are spread evenly over the run.
    """
    counts = [MIN_SAMPLES] * len(ops)
    total = MIN_SAMPLES * sum(op.nominal_s for op in ops)
    middle = sorted(range(len(ops)), key=lambda j: (ops[j].nominal_s, j))[(len(ops) - 1) // 2]
    while True:
        fits = [i for i, op in enumerate(ops) if total + op.nominal_s <= seconds]
        if not fits:
            break
        if middle in fits and counts[middle] < MIDDLE_SAMPLES:
            i = middle
        else:
            i = min(fits, key=lambda j: (counts[j], ops[j].nominal_s, j))
        counts[i] += 1
        total += ops[i].nominal_s
    return [i for _, i in sorted(((r + 0.5) / counts[i], i)
                                 for i in range(len(ops)) for r in range(counts[i]))]


def untraced(bench, seconds, setups):
    """Run the plan for `seconds`; returns each op's samples and the
    number of ops that failed on their first run.

    Set-ups are measured at op boundaries spread evenly over the plan, so
    that their median sees the host as the ops do.
    """
    n = len(bench.ops)
    order = plan(bench.ops, seconds)
    marks = {round(k * len(order) / SETUPS) for k in range(1, SETUPS)}
    samples = [[] for _ in range(n)]
    first_failed = 0
    for position, i in enumerate(order):
        if position in marks:
            setups.append(bench.setup_time())
        if bench.elapsed() > RUN_LIMIT_S:
            print("run stopped after %d of %d planned ops: over %.0f s"
                  % (position, len(order), RUN_LIMIT_S))
            break
        first = not samples[i]
        seconds_taken, _, failed = bench.run(i)
        samples[i].append(seconds_taken)
        first_failed += first and failed
    while len(setups) < SETUPS:
        setups.append(bench.setup_time())
    return samples, first_failed


def end_to_end(bench, seconds, setup_s):
    setups = [setup_s]
    samples, first_failed = untraced(bench, seconds, setups)
    medians = [statistics.median(s) for s in samples]
    slowest = max(range(len(medians)), key=medians.__getitem__)
    n = len(bench.ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    "median of %d set-ups: interpreter, import polychow, instances"
                    % len(setups)),
        "wall_s": (sum(medians), "s", "sum of the %d per-op medians" % n),
        "op_p50_s": (statistics.median(medians), "s", "median of %d per-op medians" % n),
        "op_max_s": (medians[slowest], "s", "slowest of %d ops: %s"
                     % (n, bench.ops[slowest].label)),
        "peak_rss_mb": (peak_rss_mb, "MB", "peak RSS of the process that runs the pass"),
    }
    print("%-28s %8s  %s" % ("op", "median_s", "samples"))
    for op, s in zip(bench.ops, samples):
        print("%-28s %8.3f  %d" % (op.label, statistics.median(s), len(s)))
    for name, (value, unit, note) in metrics.items():
        print("%-14s %12.4f %-3s  %s" % (name, value, unit, note))
    print("%-14s %12.4f %-3s  %d of %d ops failed on their first run"
          % ("failed_frac", first_failed / n, "", first_failed, n))
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}


def src_lines(root):
    return sum(len(p.read_text().splitlines())
               for p in sorted((Path(root) / "src" / "polychow").rglob("*.py")))


def per_layer(bench):
    """Each op untraced, then traced into recorder 0, then into recorder 1,
    so the three runs of an op see the host alike."""
    recorders = [spans.Recorder(), spans.Recorder()]
    walls = [0.0, 0.0, 0.0]
    for i in range(len(bench.ops)):
        for k, recorder in enumerate([None] + recorders):
            walls[k] += bench.run(i, recorder)[0]
    for k, recorder in enumerate(recorders):
        dump = OUTDIR / ("spans-%s-seed%d-recorder%d.json" % (bench.workload, bench.seed, k))
        with open(dump, "w") as fh:
            json.dump(recorder.dump(), fh)
    summaries = [recorder.summary() for recorder in recorders]
    untraced_wall, traced_walls = walls[0], walls[1:]

    counts = [dict.fromkeys(EXACT_COUNTS, 0) for _ in summaries]
    for c, summary in zip(counts, summaries):
        c.update(summary["counts"])
    for name in EXACT_COUNTS:
        if counts[0][name] != counts[1][name]:
            bench.problems.append("count %s did not repeat: %d then %d"
                                % (name, counts[0][name], counts[1][name]))
    values = {}
    for name in spans.TIME_METRICS:
        values[name] = (statistics.mean(s["self_time"].get(name, 0.0) for s in summaries), "s")
    for name in EXACT_COUNTS:
        values[name] = (counts[0][name], "count")
    hits = counts[0].get("fan.cone_hits", 0)
    tests = counts[0]["fan.cone_tests"]
    values["fan.cone_hit_ratio"] = (hits / tests if tests else 0.0, "ratio")
    values["trace.overhead_s"] = (statistics.mean(traced_walls) - untraced_wall, "s")
    values["polychow.src_lines"] = (src_lines(bench.root), "count")

    print("untraced wall %.4f s; traced walls %s s; %d spans per traced pass"
          % (untraced_wall, ", ".join("%.4f" % w for w in traced_walls),
             summaries[0]["spans"]))
    for name in sorted(values):
        value, unit = values[name]
        moves, on = LAYER_MAP[name]
        label = " (seed-dependent)" if name in SEED_DEPENDENT else ""
        print("%-26s %14.6g %-5s moves %s on %s%s" % (name, value, unit, moves, on, label))
    if tests:
        print("fan.cone_hit_ratio base: %d of %d cone tests returned True" % (hits, tests))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv):
    root, workload, seed, spawned, mode = argv[:5]
    seed, spawned = int(seed), float(spawned)
    cli, ops, paths, setup_s = set_up(root, workload, spawned)
    if mode == "setup":
        print(repr(setup_s))
        return 0
    bench = Pass(root, workload, seed, cli, ops, paths, spawned)
    print("workload %s seed %d mode %s: %d ops per pass" % (workload, seed, mode, len(ops)))
    if mode == "trace":
        metrics = per_layer(bench)
    else:
        metrics = end_to_end(bench, float(argv[5]), setup_s)
    for i, op in enumerate(ops):
        if i in bench.digests:
            print("digest %s seed=%d op=%s sha256=%s"
                  % (workload, seed, op.label, bench.digests[i]))
    for note in bench.known:
        print(note)
    for problem in bench.problems:
        print("PROBLEM " + problem)
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
