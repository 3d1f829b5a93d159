"""Batch command line front end: JSON in, JSON report out.

Instance files look like

    {"n": 2, "rank": [0, 2, 2, 3], "building_set": [1, 2, 3],
     "c": [1, 2], "seed": 0}

where the rank table lists ranks of the 2^n subsets in numeric mask
order.  The building set (list of flat masks) defaults to all nonempty
flats; command line flags override file values.  Exit code 0 means every
requested check passed.
"""

import argparse
import json
import sys

from . import linalg
from .building import BuildingSet, BuildingSetError, maximal_building_set, nested_complex
from .chow import ChowPair, nested_basis, pairing_matrix, phi_iso_check
from .fan import (bergman_fan, boolean_bergman_fan, maximal_bergman_fan_direct,
                  same_support, validate_fan)
from .kahler import kahler_package_report
from .lift import geometric_flat_lattice, lift
from .polymatroid import Polymatroid, PolymatroidError, ProjectionMap
from .polytope import Polypermutohedron, normal_fan_equals

MAX_GROUND_OVERALL = 16
MAX_GROUND_HEAVY = 8  # fan, chow, kahler, verify-all

COMMANDS = ("validate", "flats", "lift-rank", "geometric-flats", "nested-complex",
            "fan", "polyperm", "chow", "kahler", "verify-all")


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def load_instance(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError("cannot read instance: %s" % exc)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError("malformed JSON at line %d column %d: %s"
                       % (exc.lineno, exc.colno, exc.msg))
    if not isinstance(data, dict) or ("rank" not in data and "rank_table" not in data):
        raise CliError("instance must be an object with a rank field")
    return data


def is_integer(x):
    """True for a JSON integer; JSON true and false load as bools, which
    Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def integer_list(value, what):
    if not isinstance(value, list) or not all(map(is_integer, value)):
        raise CliError("%s must be a list of integers" % what)
    return value


def build_polymatroid(data):
    table = integer_list(data.get("rank", data.get("rank_table")), "rank")
    try:
        return Polymatroid(table)
    except PolymatroidError as exc:
        raise CliError("invalid polymatroid (%s axiom, witness %r): %s"
                       % (exc.axiom, exc.witness, exc), code=1)


def resolve_building_set(P, data, flag):
    source = flag
    if source is None:
        source = "maximal" if "building_set" not in data else data["building_set"]
    if source == "maximal":
        return maximal_building_set(P)
    if isinstance(source, str):
        try:
            with open(source) as fh:
                source = json.load(fh)
        except OSError as exc:
            raise CliError("cannot read building set: %s" % exc)
        except json.JSONDecodeError as exc:
            raise CliError("malformed JSON at line %d column %d: %s"
                           % (exc.lineno, exc.colno, exc.msg))
    integer_list(source, "building set masks")
    try:
        return BuildingSet(P, source)
    except BuildingSetError as exc:
        raise CliError("invalid building set: %s" % exc, code=1)


def guard(P, command):
    m = sum(P.rank(1 << i) for i in range(P.n))
    if m > MAX_GROUND_OVERALL:
        raise CliError("lifted ground set size %d exceeds the limit %d"
                       % (m, MAX_GROUND_OVERALL))
    if command in ("fan", "chow", "kahler", "verify-all", "nested-complex") \
            and P.n > MAX_GROUND_HEAVY:
        raise CliError("ground set size %d exceeds the limit %d for %s"
                       % (P.n, MAX_GROUND_HEAVY, command))


def cmd_validate(P, G, args):
    return {"valid": True, "rank": P.r, "ground_size": P.n}, True


def cmd_flats(P, G, args):
    flats = P.flats()
    return {"flats": list(flats), "count": len(flats),
            "ranks": [P.rank(f) for f in flats]}, True


def cmd_lift_rank(P, G, args):
    M = lift(P)
    report = {"fiber_sizes": list(M.proj.fiber_sizes),
              "ground_size": M.m, "rank": M.r}
    if M.m <= 12:
        report["ranks"] = [M.rank(S) for S in range(1 << M.m)]
    return report, True


def cmd_geometric_flats(P, G, args):
    M = lift(P)
    lattice, geo, mapping = geometric_flat_lattice(M)
    iso = True
    for f in lattice.flats:
        for g in lattice.flats:
            if (f & g == f) != (mapping[f] & mapping[g] == mapping[f]):
                iso = False
            if M.closure(mapping[f] | mapping[g]) != mapping[lattice.join(f, g)]:
                iso = False
    return {"base_flats": len(lattice.flats), "geometric_flats": list(geo),
            "isomorphic": iso}, iso


def cmd_nested_complex(P, G, args):
    complexes = nested_complex(G)
    by_size = {}
    for N in complexes:
        by_size[len(N)] = by_size.get(len(N), 0) + 1
    return {"members": len(G), "nested_sets": len(complexes),
            "by_size": [by_size.get(k, 0) for k in range(max(by_size) + 1)]}, True


def cmd_fan(P, G, args):
    fan = bergman_fan(P, G)
    report = {"rays": [list(r) for r in fan.rays],
              "cones": sorted(sorted(c) for c in fan.cones),
              "max_dim": fan.max_dim,
              "maximal_cones": len(fan.maximal_cones())}
    ok = True
    if args.check:
        checks = validate_fan(fan, expected_max_dim=P.r - 1)
        report["checks"] = checks
        ok = all(checks.values())
    return report, ok


def cmd_polyperm(P, G, args):
    proj = ProjectionMap([P.rank(1 << i) for i in range(P.n)])
    c = args.instance_data.get("c")
    try:
        Q = Polypermutohedron(proj, None if c is None else integer_list(c, "c"))
    except ValueError as exc:
        raise CliError("invalid c: %s" % exc)
    report = {"fiber_sizes": list(proj.fiber_sizes),
              "c": list(Q.c),
              "vertices": [list(v) for v in Q.vertices]}
    ok = True
    if args.verify_fan:
        fan = boolean_bergman_fan(proj)
        ok = normal_fan_equals(Q, fan, trials=args.trials, seed=args.seed)
        report["normal_fan_matches"] = ok
    return report, ok


def cmd_chow(P, G, args):
    pair = ChowPair(P, G)
    hilbert_dp = pair.dp.hilbert()
    hilbert_fy = pair.fy.hilbert()
    basis_matches = tuple(tuple(b) for b in pair.dp.basis) == nested_basis(P, G)
    dets = []
    pairing_ok = True
    for k in range(P.r):
        matrix = pairing_matrix(pair, k)
        if not matrix:
            dets.append(1)
            continue
        if len(matrix) != len(matrix[0]):
            pairing_ok = False
            dets.append(0)
            continue
        d = linalg.det(matrix)
        dets.append(int(d))
        if d not in (1, -1):
            pairing_ok = False
    report = {"hilbert": list(hilbert_dp), "hilbert_fy": list(hilbert_fy),
              "basis": [[list(mono) for mono in degree] for degree in pair.dp.basis],
              "basis_matches": basis_matches,
              "pairing_det": dets,
              "pairing_unimodular": pairing_ok}
    ok = (hilbert_dp == hilbert_fy and basis_matches and pairing_ok
          and hilbert_dp == hilbert_dp[::-1])
    if args.iso_check:
        iso_ok = phi_iso_check(pair)
        report["iso_check"] = iso_ok
        ok = ok and iso_ok
    return report, ok


def cmd_kahler(P, G, args):
    pair = ChowPair(P, G)
    report = kahler_package_report(pair)
    return {"rank": P.r, "verdicts": report}, all(report.values())


def cmd_verify_all(P, G, args):
    full = argparse.Namespace(**vars(args))
    full.check = True
    full.iso_check = True
    full.verify_fan = True
    sections = {}
    passed = True
    plan = [("validate", cmd_validate), ("geometric-flats", cmd_geometric_flats),
            ("nested-complex", cmd_nested_complex), ("fan", cmd_fan),
            ("polyperm", cmd_polyperm), ("chow", cmd_chow), ("kahler", cmd_kahler)]
    for name, func in plan:
        try:
            report, ok = func(P, G, full)
        except (AssertionError, ValueError, BuildingSetError) as exc:
            report, ok = {"error": str(exc)}, False
        sections[name] = {"status": "pass" if ok else "fail", "report": report}
        passed = passed and ok
    fine = bergman_fan(P, maximal_building_set(P))
    coarse = bergman_fan(P, G)
    support_ok = same_support(fine, coarse, trials=max(args.trials, 1000),
                              seed=args.seed)
    sections["support-refinement"] = {"status": "pass" if support_ok else "fail",
                                      "report": {"equal_support": support_ok}}
    passed = passed and support_ok
    return {"sections": sections, "all_pass": passed}, passed


HANDLERS = {
    "validate": cmd_validate,
    "flats": cmd_flats,
    "lift-rank": cmd_lift_rank,
    "geometric-flats": cmd_geometric_flats,
    "nested-complex": cmd_nested_complex,
    "fan": cmd_fan,
    "polyperm": cmd_polyperm,
    "chow": cmd_chow,
    "kahler": cmd_kahler,
    "verify-all": cmd_verify_all,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="polychow",
        description="Bergman fans and Chow rings of polymatroids, exactly.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--instance", required=True, help="path to instance JSON")
    parser.add_argument("--building-set", default=None,
                        help="path to a JSON list of flat masks, or 'maximal'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--json-indent", type=int, default=None)
    parser.add_argument("--check", action="store_true",
                        help="run structural validators (fan)")
    parser.add_argument("--iso-check", action="store_true",
                        help="verify the presentation isomorphism (chow)")
    parser.add_argument("--verify-fan", action="store_true",
                        help="verify the inner normal fan (polyperm)")
    args = parser.parse_args(argv)

    try:
        if args.trials < 1:
            raise CliError("--trials must be at least 1")
        data = load_instance(args.instance)
        P = build_polymatroid(data)
        guard(P, args.command)
        G = resolve_building_set(P, data, args.building_set)
        if args.seed is None:
            args.seed = data.get("seed", 0)
            if not is_integer(args.seed):
                raise CliError("seed must be an integer")
        args.instance_data = data
        report, ok = HANDLERS[args.command](P, G, args)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return exc.code
    except PolymatroidError as exc:
        print(json.dumps({"error": str(exc), "axiom": exc.axiom,
                          "witness": exc.witness}, sort_keys=True), file=sys.stderr)
        return 1
    except BuildingSetError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    output = {"command": args.command, "seed": args.seed, "report": report,
              "pass": bool(ok)}
    print(json.dumps(output, indent=args.json_indent, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
