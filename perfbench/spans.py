"""Per-layer tracing of polychow from outside the program.

`install` rebinds the public functions listed in PROBES, in every polychow
module namespace that binds them, and replaces a few class `__init__`s.
`uninstall` puts every original back.  Each probe is one of three kinds:

- SPAN: a span (name, start, end, parent span, op id) is kept in memory;
- LEAF: a hot function (10^4 to 10^5 calls per pass); its calls and time
  are aggregated per parent name instead of kept one span per call;
- COUNT: only counted, not timed, so its time stays in its caller's.

A layer's self time is its spans' duration minus the time of its child
spans and leaves.  The op itself is the root span, so its self time is the
time spent outside every layer (argument parsing, JSON, guards).
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"
ROOT_METRIC = "cli.other_s"
MARK = "_perfbench_probe"


def _one(key):
    return lambda args, result: {key: 1}


def _cones(args, result):
    return {"fan.cones": len(result.cones)}


def _generators(args, result):
    return {"chow.generators": len(result.groebner)}


# (module, attribute, metric, kind, counter); counter(args, result) -> dict
PROBES = [
    ("polymatroid", "Polymatroid.__init__", "polymatroid.validate_s", SPAN, None),
    ("lift", "lift", "lift.flats_s", SPAN, None),
    ("lift", "geometric_flat_lattice", "lift.flats_s", SPAN, None),
    ("building", "maximal_building_set", "lift.flats_s", SPAN, None),
    ("building", "nested_complex", "building.nested_complex_s", SPAN,
     lambda args, result: {"building.nested_sets": len(result)}),
    ("building", "BuildingSet.__init__", "building.validate_s", SPAN, None),
    # bergman_fan returns nested_set_fan's fan, so only the two leaf
    # builders count cones.
    ("fan", "bergman_fan", "fan.build_s", SPAN, None),
    ("fan", "nested_set_fan", "fan.build_s", SPAN, _cones),
    ("fan", "boolean_bergman_fan", "fan.build_s", SPAN, _cones),
    ("fan", "is_unimodular", "fan.unimodular_s", SPAN, None),
    ("fan", "is_face_closed", "fan.face_closed_s", SPAN, None),
    ("fan", "pairwise_intersections_are_faces", "fan.pairwise_faces_s", SPAN, None),
    ("fan", "balancing_check", "fan.balancing_s", SPAN, None),
    ("fan", "same_support", "fan.support_s", SPAN, None),
    ("fan", "refines", "fan.support_s", SPAN, None),
    ("fan", "in_support", "fan.support_s", SPAN, None),
    ("fan", "cone_contains", None, COUNT,
     lambda args, result: {"fan.cone_tests": 1, "fan.cone_hits": int(bool(result))}),
    ("polytope", "Polypermutohedron.__init__", "polytope.build_s", SPAN,
     lambda args, result: {"polytope.vertices": len(args[0].vertices)}),
    ("polytope", "normal_fan_equals", "polytope.normal_fan_s", SPAN, None),
    ("polytope", "minimizing_vertices", "polytope.argmin_s", LEAF,
     _one("polytope.samples")),
    ("chow", "ChowPair.__init__", None, COUNT, _one("chow.pairs_built")),
    ("chow", "dp_ring", "chow.dp_ring_s", SPAN, _generators),
    ("chow", "fy_ring", "chow.fy_ring_s", SPAN, _generators),
    ("chow", "GradedRing.__init__", "chow.graded_ring_s", SPAN,
     lambda args, result: {"chow.basis_dim": sum(map(len, args[0].basis))}),
    ("chow", "reduce_poly", "chow.reduce_s", LEAF, _one("chow.reduce_calls")),
    ("chow", "phi_iso_check", "chow.iso_check_s", SPAN, None),
    ("chow", "pairing_matrix", "chow.pairing_s", SPAN, None),
    ("chow", "nested_basis", "chow.nested_basis_s", SPAN, None),
    ("kahler", "nestohedron_class", "kahler.convexity_s", SPAN, None),
    ("kahler", "hard_lefschetz_check", "kahler.hl_s", SPAN, None),
    ("kahler", "hodge_riemann_check", "kahler.hr_s", SPAN, None),
    ("linalg", "solve", "linalg.solve_s", LEAF, _one("linalg.calls")),
    ("linalg", "kernel_basis", "linalg.kernel_s", LEAF, _one("linalg.calls")),
    ("linalg", "det", "linalg.det_s", LEAF, _one("linalg.calls")),
    ("linalg", "rank", "linalg.rank_s", LEAF, _one("linalg.calls")),
    ("linalg", "smith_normal_form", "linalg.snf_s", LEAF, _one("linalg.calls")),
]

TIME_METRICS = sorted({p[2] for p in PROBES if p[2]} | {ROOT_METRIC})


class Recorder:
    """Spans, leaf aggregates, self times and counts of one traced pass."""

    def __init__(self):
        self.stack = []                    # frames: [child_seconds, name, span]
        self.spans = []                    # (name, start, end, parent, op)
        self.leaves = defaultdict(lambda: [0, 0.0])   # (name, parent) -> calls, s
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.op = None

    def run_op(self, op, fn):
        """Call fn() as the root span of op `op`."""
        self.op = op
        return self._timed(fn, "cli", ROOT_METRIC, True, None)()

    def _timed(self, fn, name, metric, keep_span, counter):
        stack, spans = self.stack, self.spans

        def probe(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            frame = [0.0, name, parent]
            if keep_span:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                self.self_time[metric] += elapsed - frame[0]
                if keep_span:
                    spans[frame[2]] = (name, start, end, parent, self.op)
                else:
                    leaf = self.leaves[(name, stack[-1][1] if stack else None)]
                    leaf[0] += 1
                    leaf[1] += elapsed
            if counter is not None:
                self._count(counter(args, result))
            return result
        return probe

    def _counted(self, fn, counter):
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(counter(args, result))
            return result
        return probe

    def _count(self, increments):
        for key, value in increments.items():
            self.counts[key] += value

    def wrap(self, fn, name, metric, kind, counter):
        if kind == COUNT:
            probe = self._counted(fn, counter)
        else:
            probe = self._timed(fn, name, metric, kind == SPAN, counter)
        probe = functools.wraps(fn)(probe)
        setattr(probe, MARK, True)
        return probe

    def summary(self):
        return {"self_time": dict(self.self_time), "counts": dict(self.counts),
                "spans": len(self.spans)}

    def dump(self):
        """Spans and leaf aggregates as JSON-ready lists."""
        return {"spans": self.spans,
                "leaves": [[name, parent, calls, seconds]
                           for (name, parent), (calls, seconds) in self.leaves.items()]}


def polychow_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "polychow" or name.startswith("polychow.")]


def install(recorder):
    """Wrap every probe; returns the undo list for `uninstall`."""
    modules = polychow_modules()
    owners = {m.__name__: m for m in modules}
    undo = []
    for module, attr, metric, kind, counter in PROBES:
        owner = owners["polychow." + module]
        name = "%s.%s" % (module, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, recorder.wrap(original, name, metric, kind, counter))
            undo.append((cls, method, original))
            continue
        original = getattr(owner, attr)
        probe = recorder.wrap(original, name, metric, kind, counter)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, probe)
                    undo.append((m, key, original))
    return undo


def uninstall(undo):
    for target, key, original in reversed(undo):
        setattr(target, key, original)


def probes_left():
    """Names still bound to a probe in any polychow namespace or class."""
    left = []
    for m in polychow_modules():
        for key, value in vars(m).items():
            if getattr(value, MARK, False):
                left.append("%s.%s" % (m.__name__, key))
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        left.append("%s.%s.%s" % (m.__name__, key, attr))
    return sorted(set(left))
