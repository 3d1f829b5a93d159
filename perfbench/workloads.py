"""The benchmark's workloads: instances, operations and expected verdicts.

An operation ("op") is one `polychow` CLI invocation on one instance.  Every
expected verdict below is a theorem (Pagaria-Pezzali for polymatroids,
Adiprasito-Huh-Katz for matroids), so none of them depends on the seed.

This module imports nothing from polychow: the rank tables are generated
here from their closed forms, so the program only ever sees generated input.
"""

import json
from math import factorial, prod

TRIALS = "200"


def boolean_table(fibers):
    """Rank table of the Boolean polymatroid B(fibers): rank(S) = sum of the
    fibre sizes of the elements of S."""
    return [sum(f for i, f in enumerate(fibers) if S >> i & 1)
            for S in range(1 << len(fibers))]


def uniform_table(r, n):
    """Rank table of the uniform matroid U(r, n)."""
    return [min(bin(S).count("1"), r) for S in range(1 << n)]


def partitions(m, largest=None):
    """Partitions of m as non-increasing tuples, largest part first."""
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for k in range(min(m, largest), 0, -1):
        for rest in partitions(m - k, k):
            yield (k,) + rest


class Op:
    """One CLI invocation with what its output must show.

    `hilbert` is the known Hilbert function (verify-all and chow; None
    where no value is known);
    `vertices` the known vertex count (polyperm); `rank` the rank whose
    admissible degrees kahler must report.  `known_failures` lists the
    verify-all sections that fail today although the theorem says pass;
    such an op counts as failed, but only a failure outside that list
    makes the run incorrect.  `nominal_s` is the op's time on a two-vCPU
    VM (Python 3, one core busy); the harness plans a run's samples from
    it, so that every run of a workload does the same work.
    """

    def __init__(self, label, instance, argv, nominal_s, hilbert=None,
                 vertices=None, rank=None, known_failures=()):
        self.label = label
        self.instance = instance
        self.argv = argv
        self.nominal_s = nominal_s
        self.hilbert = hilbert
        self.vertices = vertices
        self.rank = rank
        self.known_failures = frozenset(known_failures)


def _verify_all(label, instance, nominal_s, hilbert, known_failures=()):
    return Op(label, instance, ["verify-all", "--trials", TRIALS], nominal_s,
              hilbert=hilbert, known_failures=known_failures)


def _ladder():
    u34 = {"rank": uniform_table(3, 4), "building_set": [1, 2, 4, 8, 15]}
    return [
        _verify_all("B(2,2)", {"rank": boolean_table((2, 2))}, 0.55, (1, 3, 3, 1)),
        # P(2,2; r=4) is given by its rank table, which equals B(2,2)'s.
        _verify_all("P(2,2;r=4)", {"rank": [0, 2, 2, 4]}, 0.65, (1, 3, 3, 1)),
        _verify_all("B(1,1,2)", {"rank": boolean_table((1, 1, 2))}, 1.2,
                    (1, 5, 5, 1)),
        _verify_all("U(3,4)/G=singletons+E", u34, 0.45, (1, 1, 1)),
        _verify_all("B(1,1,1,1)", {"rank": boolean_table((1, 1, 1, 1))}, 7.3,
                    (1, 11, 11, 1)),
        _verify_all("B(2,2,1)", {"rank": boolean_table((2, 2, 1))}, 10.0,
                    (1, 6, 10, 6, 1)),
        # Kahler is a theorem here (AHK); today's `kahler: fail` is a known
        # false failure that stays in the workload and is counted.
        _verify_all("U(3,5)", {"rank": uniform_table(3, 5)}, 2.65, (1, 11, 1),
                    known_failures=("kahler",)),
    ]


def _ring_deep():
    b222 = {"rank": boolean_table((2, 2, 2))}
    return [
        Op("B(2,2,2)/chow", b222, ["chow", "--iso-check"], 7.0,
           hilbert=(1, 7, 16, 16, 7, 1)),
        Op("B(2,2,2)/kahler", b222, ["kahler"], 19.5, rank=6),
    ]


def _polyperm():
    ops = []
    for m in range(1, 7):
        for fibers in partitions(m):
            ops.append(Op("B(%s)" % ",".join(map(str, fibers)),
                          {"rank": boolean_table(fibers)},
                          ["polyperm", "--verify-fan", "--trials", TRIALS], 0.4,
                          vertices=factorial(len(fibers)) * prod(fibers)))
    return ops


def _capacity():
    """Heavy rungs for the one-shot capacity probe (probe.py), never gated:
    each runs once, in its own capped child."""
    return [
        Op("U(4,5)/chow", {"rank": uniform_table(4, 5)}, ["chow", "--iso-check"], 150.0,
           hilbert=(1, 21, 21, 1)),
        _verify_all("B(1,1,1,1,1)", {"rank": boolean_table((1, 1, 1, 1, 1))},
                    200.0, (1, 26, 66, 26, 1)),
        _verify_all("U(4,6)", {"rank": uniform_table(4, 6)}, 200.0, None),
    ]


WORKLOADS = {
    "verify_ladder": _ladder,
    "ring_deep": _ring_deep,
    "polyperm": _polyperm,
}


def ops_for(workload):
    return _capacity() if workload == "capacity" else WORKLOADS[workload]()


def check(op, rc, stdout):
    """Compare one op's exit code and stdout with its expectations.

    Returns (failed_sections, problems): the sections or checks whose
    verdict is not `pass`, and the mismatches that no verdict explains
    (wrong invariant, unreadable output, inconsistent exit code).
    """
    try:
        out = json.loads(stdout)
    except ValueError:
        return {"output"}, ["stdout is not one JSON object"]
    problems = []
    failed = set()
    report = out.get("report", {})
    if op.argv[0] == "verify-all":
        for name, section in report.get("sections", {}).items():
            if section.get("status") != "pass":
                failed.add(name)
        hilbert = report.get("sections", {}).get("chow", {}).get("report", {}).get("hilbert")
        if op.hilbert is not None and (hilbert is None or tuple(hilbert) != op.hilbert):
            failed.add("hilbert")
            problems.append("hilbert %r, expected %r" % (hilbert, op.hilbert))
        if len(report.get("sections", {})) != 8:
            problems.append("verify-all reported %d sections, expected 8"
                            % len(report.get("sections", {})))
    elif op.argv[0] == "chow":
        for key in ("basis_matches", "pairing_unimodular", "iso_check"):
            if report.get(key) is not True:
                failed.add(key)
        hilbert = report.get("hilbert")
        if op.hilbert is not None and (hilbert is None or tuple(hilbert) != op.hilbert):
            failed.add("hilbert")
            problems.append("hilbert %r, expected %r" % (hilbert, op.hilbert))
    elif op.argv[0] == "kahler":
        verdicts = report.get("verdicts", {})
        expected = {"%s_k%d" % (kind, k) for k in range((op.rank + 1) // 2)
                    for kind in ("poincare", "hard_lefschetz", "hodge_riemann")}
        if set(verdicts) != expected:
            problems.append("kahler verdicts %r, expected %r"
                            % (sorted(verdicts), sorted(expected)))
        failed.update(k for k, v in verdicts.items() if v is not True)
    elif op.argv[0] == "polyperm":
        if report.get("normal_fan_matches") is not True:
            failed.add("normal_fan")
        count = len(report.get("vertices", ()))
        if count != op.vertices:
            failed.add("vertices")
            problems.append("%d vertices, expected %d" % (count, op.vertices))
    if out.get("pass") is not True and not failed:
        failed.add("pass")
    if out.get("pass") is True and failed:
        problems.append("pass is true but %s failed" % sorted(failed))
    if rc != (0 if out.get("pass") is True else 1):
        problems.append("exit code %r with pass=%r" % (rc, out.get("pass")))
    unexpected = failed - op.known_failures
    if unexpected:
        problems.append("failed: %s" % ", ".join(sorted(unexpected)))
    return failed, problems
