"""Batch command line front end: JSON in, JSON report out.

Instance files look like

    {"rank": [0, 2, 2, 3], "building_set": [1, 2, 3], "c": [1, 2], "seed": 0}

where the rank table lists ranks of the 2^n subsets in numeric mask
order, so its length gives the ground-set size n.  The building set (a
list of flat masks, or "maximal") defaults to all nonempty flats; a path
to a JSON list of masks comes only from --building-set.  Command line
flags override file values.  Exit code 0 means every requested check
passed.
"""

import argparse
import json
import sys
from collections import Counter
from math import comb, factorial, prod

from .building import BuildingSet, BuildingSetError, maximal_building_set, nested_complex
from .chow import ChowPair, nested_basis, pairing_det, phi_iso_check
from .fan import bergman_fan, boolean_bergman_fan, same_support, validate_fan
from .kahler import kahler_package_report
from .lift import geometric_flat_lattice, lift
from .polymatroid import MAX_GROUND, Polymatroid, PolymatroidError, memoized
from .polytope import Polypermutohedron, normal_fan_equals, weights

MAX_GROUND_HEAVY = 8  # bounds P.n for HEAVY_COMMANDS
MAX_POLYPERM_VERTICES = 362_880  # 9!: `polyperm` takes 1.4 s on a 2-vCPU VM
MAX_FAN_LOOPS = 47_293  # Fubini(7): B(1^7) `polyperm --verify-fan` takes 1.7 s there

# The commands that read the building set G; they enumerate nested sets.
# Their handlers take G, the others the polymatroid P.
HEAVY_COMMANDS = ("nested-complex", "fan", "chow", "kahler", "verify-all")


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


class ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a CliError (exit 2 with a JSON
    reason) instead of argparse's usage text; --help is unchanged."""

    def error(self, message):
        raise CliError(message)


def read_json(path, what):
    """The JSON value in the file at `path`; `what` names the file in the
    error when it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError("cannot read %s: %s" % (what, exc))
    except json.JSONDecodeError as exc:
        raise CliError("malformed JSON at line %d column %d: %s"
                       % (exc.lineno, exc.colno, exc.msg))
    except RecursionError:
        raise CliError("cannot read %s: JSON nested too deeply" % what)


def load_instance(path):
    data = read_json(path, "instance")
    if not isinstance(data, dict) or "rank" not in data:
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
    table = integer_list(data["rank"], "rank")
    try:
        return Polymatroid(table)
    except PolymatroidError as exc:
        if exc.axiom == "size":              # a library limit, not an axiom
            raise CliError(str(exc))
        raise CliError("invalid polymatroid (%s axiom, witness %r): %s"
                       % (exc.axiom, exc.witness, exc), code=1)


def resolve_building_set(P, data, flag):
    source = data.get("building_set", "maximal") if flag is None else flag
    if source == "maximal":
        return maximal_building_set(P)
    if flag is not None:
        source = read_json(flag, "building set")
    integer_list(source, "building set masks")
    try:
        return BuildingSet(P, source)
    except BuildingSetError as exc:
        raise CliError("invalid building set: %s" % exc, code=1)


def polyperm_costs(sizes):
    """(n! * prod s_i, Fubini(n) * prod (2^s_i - 1)) for fiber sizes s_i:
    the transversals Polypermutohedron enumerates and the loops of
    boolean_bergman_fan, whose chains of proper nonempty subsets are the
    Fubini(n) ordered set partitions."""
    n = len(sizes)
    fubini = sum((-1) ** (k - j) * comb(k, j) * j ** n
                 for k in range(n + 1) for j in range(k + 1))
    return factorial(n) * prod(sizes), fubini * prod((1 << s) - 1 for s in sizes)


def polyperm_refusal(P, command, fan=True):
    """Why building Q(pi; c), and with `fan` its Boolean fan, costs too much
    for `command`, or None: `guard` refuses on it, `cmd_fan` routes by it."""
    vertices, loops = polyperm_costs([P.rank(1 << i) for i in range(P.n)])
    if vertices > MAX_POLYPERM_VERTICES:
        return ("polypermutohedron vertex count %d exceeds the limit %d"
                % (vertices, MAX_POLYPERM_VERTICES))
    if fan and loops > MAX_FAN_LOOPS:
        return ("Boolean fan loop count %d exceeds the limit %d for %s"
                % (loops, MAX_FAN_LOOPS, command))
    return None


def guard(P, command, verify_fan):
    m = sum(P.rank(1 << i) for i in range(P.n))
    if P.n == 0 and command in HEAVY_COMMANDS + ("polyperm",):
        raise CliError("%s needs a nonempty ground set" % command)
    if m > MAX_GROUND:
        raise CliError("lifted ground set size %d exceeds the limit %d"
                       % (m, MAX_GROUND))
    if command in HEAVY_COMMANDS and P.n > MAX_GROUND_HEAVY:
        raise CliError("ground set size %d exceeds the limit %d for %s"
                       % (P.n, MAX_GROUND_HEAVY, command))
    if command in ("polyperm", "verify-all") and (
            refusal := polyperm_refusal(P, command, verify_fan or command == "verify-all")):
        raise CliError(refusal)


def cmd_validate(P, args):
    return {"valid": True, "rank": P.r, "ground_size": P.n}, True


def cmd_flats(P, args):
    flats = P.flats()
    return {"flats": list(flats), "count": len(flats),
            "ranks": [P.rank(f) for f in flats]}, True


def cmd_lift_rank(P, args):
    M = lift(P)
    report = {"fiber_sizes": list(M.proj.fiber_sizes),
              "ground_size": M.n, "rank": M.r}
    if M.n <= 12:
        report["ranks"] = [M.rank(S) for S in range(1 << M.n)]
    return report, True


def cmd_geometric_flats(P, args):
    flats, geo, _, iso = geometric_flat_lattice(lift(P))
    return {"base_flats": len(flats), "geometric_flats": list(geo),
            "isomorphic": iso}, iso


def cmd_nested_complex(G, args):
    complexes = nested_complex(G)
    by_size = Counter(map(len, complexes))
    return {"members": len(G), "nested_sets": len(complexes),
            "by_size": [by_size[k] for k in range(max(by_size) + 1)]}, True


def cmd_fan(G, args):
    fan = bergman_fan(G)
    report = {"rays": [list(r) for r in fan.rays],
              "cones": sorted(sorted(c) for c in fan.cones),
              "max_dim": fan.max_dim,
              "maximal_cones": len(fan.maximal_cones())}
    ok = True
    if args.check:
        polyperm_weights(G.base, args)  # an invalid c exits 2 at any size
        # the certified Boolean fan as the ambient, where the polyperm limits admit Q
        ambient = None if polyperm_refusal(G.base, "fan") else normal_fan(G.base, args)
        checks = validate_fan(fan, expected_max_dim=G.base.r - 1, ambient=ambient)
        report["checks"] = checks
        ok = all(checks.values())
    return report, ok


def polyperm_weights(P, args):
    """The instance's c, checked without building Q: `polyperm`, `fan --check`
    and `verify-all` read it here, so each exits 2 on an invalid c."""
    c = args.instance_data.get("c")
    try:
        return weights(P.n, None if c is None else integer_list(c, "c"))
    except ValueError as exc:
        raise CliError("invalid c: %s" % exc)


def polypermutohedron(P, args):
    """Q(pi; c) on P's fibers at the instance's c, memoized on P."""
    return memoized(P, "polypermutohedron",
                    lambda: Polypermutohedron(lift(P).proj, polyperm_weights(P, args)))


def normal_fan(P, args):
    """The Boolean fan of P's fibers if it is the normal fan of Q, else None;
    memoized on P, so verify-all's fan section reads the polyperm verdict."""
    def build():
        Q = polypermutohedron(P, args)
        fan = boolean_bergman_fan(Q.proj)
        return fan if normal_fan_equals(Q, fan) else None

    return memoized(P, "normal fan", build)


def cmd_polyperm(P, args):
    Q = polypermutohedron(P, args)
    report = {"fiber_sizes": list(Q.proj.fiber_sizes),
              "c": list(Q.c),
              "vertices": [list(v) for v in Q.vertices]}
    ok = True
    if args.verify_fan:
        ok = normal_fan(P, args) is not None
        report["normal_fan_matches"] = ok
    return report, ok


def cmd_chow(G, args):
    pair = ChowPair(G)
    hilbert_dp = pair.dp.hilbert()
    hilbert_fy = pair.fy.hilbert()
    basis = tuple(tuple(map(pair.dp.codec.exponents, b)) for b in pair.dp.basis)
    basis_matches = basis == nested_basis(G)
    dets = [pairing_det(pair, k) for k in range(pair.P.r)]
    pairing_ok = all(d in (1, -1) for d in dets)
    report = {"hilbert": list(hilbert_dp), "hilbert_fy": list(hilbert_fy),
              "basis": [[list(mono) for mono in degree] for degree in basis],
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


def cmd_kahler(G, args):
    report = kahler_package_report(ChowPair(G))
    return {"rank": G.base.r, "verdicts": report}, all(report.values())


def support_refinement(G, args):
    fine = bergman_fan(maximal_building_set(G.base))
    ok = same_support(fine, bergman_fan(G))
    return {"equal_support": ok}, ok


def cmd_verify_all(G, args):
    full = argparse.Namespace(**{**vars(args), "check": True, "iso_check": True,
                                 "verify_fan": True})
    sections = {}
    passed = True
    P = G.base
    # polyperm and fan read c alike (polyperm_weights): an invalid c exits 2
    plan = [("validate", cmd_validate, P), ("geometric-flats", cmd_geometric_flats, P),
            ("nested-complex", cmd_nested_complex, G), ("polyperm", cmd_polyperm, P),
            ("fan", cmd_fan, G), ("chow", cmd_chow, G), ("kahler", cmd_kahler, G),
            ("support-refinement", support_refinement, G)]
    for name, func, subject in plan:
        try:
            report, ok = func(subject, full)
        except (AssertionError, ValueError) as exc:
            # an error of the tooling refutes nothing
            report, ok = {"reason": str(exc)}, None
        status = "undecided" if ok is None else "pass" if ok else "fail"
        sections[name] = {"status": status, "report": report}
        passed = passed and status == "pass"
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
    parser = ArgumentParser(
        prog="polychow",
        description="Bergman fans and Chow rings of polymatroids, exactly.")
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--instance", required=True, help="path to instance JSON")
    parser.add_argument("--building-set", default=None,
                        help="path to a JSON list of flat masks, or 'maximal'")
    parser.add_argument("--seed", type=int, default=None,
                        help="echoed in the output; changes no verdict")
    parser.add_argument("--trials", type=int, default=1000,
                        help="must be at least 1; changes no verdict")
    parser.add_argument("--json-indent", type=int, default=None)
    parser.add_argument("--check", action="store_true",
                        help="run structural validators (fan)")
    parser.add_argument("--iso-check", action="store_true",
                        help="verify the presentation isomorphism (chow)")
    parser.add_argument("--verify-fan", action="store_true",
                        help="verify the inner normal fan (polyperm)")
    try:
        args = parser.parse_args(argv)
        if args.trials < 1:
            raise CliError("--trials must be at least 1")
        if args.json_indent is not None and args.json_indent < 0:
            raise CliError("--json-indent must be at least 0")
        data = load_instance(args.instance)
        P = build_polymatroid(data)
        guard(P, args.command, args.verify_fan)
        subject = (resolve_building_set(P, data, args.building_set)
                   if args.command in HEAVY_COMMANDS else P)
        if args.seed is None:
            args.seed = data.get("seed", 0)
            if not is_integer(args.seed):
                raise CliError("seed must be an integer")
        args.instance_data = data
        report, ok = HANDLERS[args.command](subject, args)
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
