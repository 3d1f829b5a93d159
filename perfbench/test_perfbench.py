"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness      # noqa: E402
import spans        # noqa: E402
import workloads    # noqa: E402
from polychow import cli  # noqa: E402

# Cheap ops that reach every layer between them.
SMALL = [
    workloads.Op("B(2,2)", {"rank": workloads.boolean_table((2, 2))},
                 ["verify-all", "--trials", "50"], 0.2, hilbert=(1, 3, 3, 1)),
    workloads.Op("B(1,1,2)/kahler", {"rank": workloads.boolean_table((1, 1, 2))},
                 ["kahler"], 0.2, rank=4),
    workloads.Op("B(2,1)", {"rank": workloads.boolean_table((2, 1))},
                 ["polyperm", "--verify-fan", "--trials", "50"], 0.1, vertices=4),
]


def run_small(tmp_path, seed, recorder=None):
    outputs = []
    for i, op in enumerate(SMALL):
        path = tmp_path / ("%d.json" % i)
        path.write_text(json.dumps(op.instance))
        argv = [op.argv[0], "--instance", str(path), "--seed", str(seed)] + op.argv[1:]
        result = harness.run_op(cli.main, argv, 60, recorder, i)
        assert result["kind"] == "ok", result["detail"]
        assert workloads.check(op, result["rc"], result["stdout"]) == (set(), [])
        outputs.append(result["stdout"])
    return outputs


def namespaces():
    """Every binding of every polychow module and class, by identity."""
    out = {}
    for m in spans.polychow_modules():
        for key, value in vars(m).items():
            out[(m.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(m.__name__, key, attr)] = member
    return out


def traced(tmp_path, seed):
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        outputs = run_small(tmp_path, seed, recorder)
    finally:
        spans.uninstall(undo)
    return outputs, recorder


def test_traced_stdout_matches_untraced_and_probes_are_removed(tmp_path):
    before = namespaces()
    plain = run_small(tmp_path, 3)
    outputs, recorder = traced(tmp_path, 3)
    assert outputs == plain
    assert spans.probes_left() == []
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # every probe fired at least once on these ops, so each layer is reached
    summary = recorder.summary()
    for module, attr, metric, kind, counter in spans.PROBES:
        if kind != spans.COUNT:
            assert summary["self_time"].get(metric, 0) > 0, (module, attr)
    assert summary["counts"]["fan.cone_tests"] > 0
    assert summary["counts"]["chow.pairs_built"] == 3     # 2 in verify-all, 1 in kahler


def test_counts_repeat_exactly_and_seed_labels_hold(tmp_path):
    _, first = traced(tmp_path, 3)
    _, again = traced(tmp_path, 3)
    _, other = traced(tmp_path, 4)
    for name in harness.EXACT_COUNTS:
        assert first.counts.get(name, 0) == again.counts.get(name, 0), name
        if name not in harness.SEED_DEPENDENT:
            assert first.counts.get(name, 0) == other.counts.get(name, 0), name


def test_self_times_add_up_to_op_time(tmp_path):
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        path = tmp_path / "b.json"
        path.write_text(json.dumps(SMALL[0].instance))
        result = harness.run_op(cli.main, ["verify-all", "--instance", str(path),
                                           "--trials", "50"], 60, recorder, 0)
    finally:
        spans.uninstall(undo)
    root = [s for s in recorder.spans if s[3] is None]
    assert len(root) == 1 and root[0][0] == "cli"
    total = sum(recorder.self_time.values())
    assert abs(total - (root[0][2] - root[0][1])) < 1e-6
    assert total <= result["seconds"]


def verify_all_output(sections, hilbert):
    report = {"sections": {name: {"status": status, "report": {}}
                           for name, status in sections.items()},
              "all_pass": all(s == "pass" for s in sections.values())}
    report["sections"]["chow"]["report"]["hilbert"] = list(hilbert)
    return json.dumps({"command": "verify-all", "pass": report["all_pass"],
                       "report": report, "seed": 0})


SECTIONS = ["validate", "geometric-flats", "nested-complex", "fan", "polyperm",
            "chow", "kahler", "support-refinement"]


def test_oracle_separates_known_and_unexpected_failures():
    op = workloads.Op("U", {}, ["verify-all"], 1.0, hilbert=(1, 11, 1),
                      known_failures=("kahler",))
    ok = dict.fromkeys(SECTIONS, "pass")
    assert workloads.check(op, 0, verify_all_output(ok, (1, 11, 1))) == (set(), [])
    known = dict(ok, kahler="fail")
    assert workloads.check(op, 1, verify_all_output(known, (1, 11, 1))) == ({"kahler"}, [])
    other = dict(ok, fan="fail")
    failed, problems = workloads.check(op, 1, verify_all_output(other, (1, 11, 1)))
    assert failed == {"fan"} and problems
    failed, problems = workloads.check(op, 0, verify_all_output(ok, (1, 12, 1)))
    assert failed == {"hilbert"} and problems
    failed, problems = workloads.check(op, 0, "Traceback")
    assert problems


def test_op_errors_and_timeouts_are_contained():
    def boom(argv):
        raise ValueError("boom")

    def exhausted(argv):
        raise MemoryError

    def spin(argv):
        while True:
            pass

    assert harness.run_op(boom, [], 60)["kind"] == "error"
    assert harness.run_op(exhausted, [], 60)["kind"] == "oom"
    assert harness.run_op(spin, [], 0.05)["kind"] == "timeout"
    assert harness.run_op(lambda argv: 0, [], 60)["kind"] == "ok"   # alarm is off


def test_address_space_cap_gives_oom_in_the_child_only():
    code = ("import resource, sys; sys.path.insert(0, %r); import harness; "
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
            "print(harness.run_op(lambda argv: bytearray(1 << 30), [], 60)['kind'])"
            % str(HERE))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert out.stdout.strip() == "oom"


def test_plan_is_fixed_by_the_seconds_and_spreads_each_op():
    for workload in workloads.WORKLOADS:
        ops = workloads.ops_for(workload)
        order = harness.plan(ops, 50)
        assert order == harness.plan(workloads.ops_for(workload), 50)
        counts = [order.count(i) for i in range(len(ops))]
        assert min(counts) >= harness.MIN_SAMPLES
        floor = harness.MIN_SAMPLES * sum(op.nominal_s for op in ops)
        assert sum(ops[i].nominal_s for i in order) <= max(50, floor) + 1e-9
    ladder = workloads.ops_for("verify_ladder")
    order = harness.plan(ladder, 52)
    assert ladder[2].label == "B(1,1,2)"                       # the median op
    assert order.count(2) == harness.MIDDLE_SAMPLES
    middle = [p for p, i in enumerate(order) if i == 2]
    slowest = [p for p, i in enumerate(order) if i == 5]            # B(2,2,1)
    assert middle[0] < slowest[0] < middle[3] < slowest[1] < middle[-1]


def test_timeout_is_recorded_and_the_pass_continues(tmp_path, monkeypatch):
    ops = workloads.ops_for("verify_ladder")
    paths = []
    for i, op in enumerate(ops):
        path = tmp_path / ("%d.json" % i)
        path.write_text(json.dumps(op.instance))
        paths.append(str(path))
    bench = harness.Pass(str(ROOT), "verify_ladder", 0, cli, ops, paths, time.monotonic())
    monkeypatch.setattr(harness, "OP_TIMEOUT_S", 0.01)
    seconds, digest, failed = bench.run(5)                  # B(2,2,1): seconds
    assert failed and digest is None
    assert "timeout" in bench.problems[-1]
    monkeypatch.setattr(harness, "OP_TIMEOUT_S", 60.0)
    seconds, digest, failed = bench.run(0)                  # the pass goes on
    assert not failed and digest
    assert bench.attempted == 2 and bench.failed == 1


def fresh_checkout(tmp_path):
    """BENCHMARK.json, perfbench and src as a fresh checkout has them."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_set_up_works_in_a_fresh_checkout(tmp_path):
    root = fresh_checkout(tmp_path)
    shutil.copytree(ROOT / "src" / "polychow", root / "src" / "polychow",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/harness.py", str(root), "ring_deep",
                          "0", repr(time.monotonic()), "setup"],
                         cwd=root, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert 0 < float(out.stdout) < 30
    assert len(list((root / "perfbench" / "out").glob("ring_deep-*.json"))) == 2


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == ["verify_ladder", "ring_deep"]
    assert set(workloads.WORKLOADS) == {"verify_ladder", "ring_deep", "polyperm"}
    assert {m["name"] for m in bench["per_layer"]} == set(harness.LAYER_MAP)
    assert set(spans.TIME_METRICS) | set(harness.EXACT_COUNTS) <= set(harness.LAYER_MAP)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_s", "op_max_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    fresh_checkout(tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "polyperm",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
