"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`.  Each criterion prints its
verdict on a line of its own (bypassing capture so the lines are always
visible) and fails the suite if the verdict is FAIL.
"""

import json
import sys

import pytest

import polychow as pc
from polychow import linalg
from polychow.cli import main as cli_main
from polychow.kahler import nestohedron_class
from conftest import (P1, P2, P3, P4, U34, U34_MIN_BUILDING,
                      B111_MIN_BUILDING, all_partitions_m6, boolean_table,
                      building_of, small_family)
from oracles import (as_polymatroid, deg_fy, maximal_bergman_fan_direct,
                     sampled_same_support, zring_hilbert)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def verdict(number, name, ok):
    line = "criterion %d (%s): %s" % (number, name, "PASS" if ok else "FAIL")
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    assert ok, line


FIXTURES = [P1, P2, P3, P4, U34]
BOOLEAN_FIBERS_M6 = [(1, 1), (2,), (1, 2), (1, 1, 1), (2, 2), (1, 1, 2),
                     (2, 2, 2), (1, 1, 1, 1), (1, 2, 3)]


def fixture_polymatroids():
    tables = list(FIXTURES) + [boolean_table(f) for f in BOOLEAN_FIBERS_M6]
    return [pc.Polymatroid(t) for t in tables
            if sum(pc.Polymatroid(t).rank(1 << i)
                   for i in range(pc.Polymatroid(t).n)) <= 6]


def test_criterion_01_lift_correctness():
    ok = True
    family = small_family()
    assert len(family) >= 84   # the enumeration really is a family
    for P in family:
        M = pc.lift(P)
        full = M.full_mask
        ranks = [M.rank(S) for S in range(full + 1)]
        if ranks[0] != 0:
            ok = False
            break
        for S in range(full + 1):
            for e in range(M.n):
                if not S >> e & 1 and ranks[S | 1 << e] - ranks[S] not in (0, 1):
                    ok = False
        for a in range(full + 1):
            for b in range(a, full + 1):
                if ranks[a | b] + ranks[a & b] > ranks[a] + ranks[b]:
                    ok = False
        # rank identity on fiber-stable sets
        for A in range(1 << P.n):
            if ranks[M.proj.preimages[A]] != P.rank(A):
                ok = False
        # minimality: every fiber is independent
        for fm in M.proj.fiber_masks:
            if ranks[fm] != bin(fm).count("1"):
                ok = False
        if not ok:
            break
    verdict(1, "lift satisfies the matroid axioms", ok)


def test_criterion_02_lattice_isomorphism():
    ok = True
    for P in small_family():
        M = pc.lift(P)
        flats, geo, mapping, isomorphic = pc.geometric_flat_lattice(M)
        # the flats of the whole lift that are unions of fibers
        fibers = M.proj.fiber_masks
        if not isomorphic or geo != tuple(
                F for F in M.flats() if all(F & fm in (0, fm) for fm in fibers)):
            ok = False
        for f in flats:
            for g in flats:
                if (f & g == f) != (mapping[f] & mapping[g] == mapping[f]):
                    ok = False
                if M.closure(mapping[f] | mapping[g]) != mapping[P.closure(f | g)]:
                    ok = False
        if not ok:
            break
    verdict(2, "geometric flat lattice isomorphic to the base lattice", ok)


def test_criterion_03_fan_cross_construction():
    ok = True
    for P in fixture_polymatroids():
        if pc.bergman_fan(pc.maximal_building_set(P)) != maximal_bergman_fan_direct(P):
            ok = False
    for fibers in BOOLEAN_FIBERS_M6:
        proj = pc.ProjectionMap(fibers)
        B = pc.boolean_polymatroid(proj)
        if pc.bergman_fan(pc.maximal_building_set(B)) != pc.boolean_bergman_fan(proj):
            ok = False
    verdict(3, "Bergman fan constructions agree cone for cone", ok)


def test_criterion_04_polytope_duality():
    partitions = all_partitions_m6()
    assert len(partitions) == 29
    ok = True
    for fibers in partitions:
        proj = pc.ProjectionMap(fibers)
        Q = pc.Polypermutohedron(proj)
        fan = pc.boolean_bergman_fan(proj)
        if not pc.normal_fan_equals(Q, fan):
            ok = False
    verdict(4, "polypermutohedron normal fan equals the Boolean fan", ok)


def test_criterion_05_fan_structure():
    ok = True
    for P in fixture_polymatroids():
        fan = pc.bergman_fan(pc.maximal_building_set(P))
        if fan.max_dim != P.r - 1:
            ok = False
        if not pc.is_unimodular(fan) or not pc.is_face_closed(fan):
            ok = False
        if not pc.balancing_check(fan):
            ok = False
        if not pc.pairwise_intersections_are_faces(fan):
            ok = False
    verdict(5, "fans are unimodular, face-closed, pure, and balanced", ok)


def test_criterion_06_support_refinement():
    ok = True
    for G in [building_of(t) for t in FIXTURES] + [building_of(U34, U34_MIN_BUILDING)]:
        fine = maximal_bergman_fan_direct(as_polymatroid(pc.lift(G.base)))
        coarse = pc.bergman_fan(G)
        if not pc.refines(fine, coarse):
            ok = False
        if pc.same_support(fine, coarse) is not True or not sampled_same_support(fine, coarse):
            ok = False
    verdict(6, "lift fan refines the building-set fan with equal support", ok)


def test_criterion_07_groebner_basis_agreement():
    ok = True
    for G in [building_of(t) for t in FIXTURES] + [building_of(U34, U34_MIN_BUILDING)]:
        ring = pc.dp_ring(G)
        basis = tuple(tuple(map(ring.codec.exponents, b)) for b in ring.basis)
        if tuple(tuple(sorted(b, reverse=True)) for b in basis) != pc.nested_basis(G):
            ok = False
        h = ring.hilbert()
        if h != pc.fy_ring(G).hilbert() or h != h[::-1]:
            ok = False
    expected = {tuple(P1): (1, 1), tuple(P3): (1, 3, 1), tuple(U34): (1, 7, 1)}
    for table, h in expected.items():
        P = pc.Polymatroid(list(table))
        if pc.dp_ring(pc.maximal_building_set(P)).hilbert() != h:
            ok = False
        if zring_hilbert(P) != h:
            ok = False
    verdict(7, "standard monomial bases and Hilbert functions agree", ok)


def test_criterion_08_presentation_isomorphism():
    ok = True
    small = [pc.Polymatroid(t) for t in
             (P1, P2, P3, boolean_table((1, 1)), boolean_table((1, 2)),
              boolean_table((1, 1, 1)), boolean_table((1, 1, 2)))]
    for P in small:
        if not pc.phi_iso_check(pc.ChowPair(pc.maximal_building_set(P))):
            ok = False
    # strictly smaller building sets, where they exist at this scale
    seconds = [(boolean_table((1, 1, 1)), B111_MIN_BUILDING),
               (boolean_table((1, 1, 2)), [1, 2, 4, 7]),
               (U34, U34_MIN_BUILDING)]
    for table, members in seconds:
        P = pc.Polymatroid(table)
        pair = pc.ChowPair(pc.BuildingSet(P, members))
        if len(pair.G.members) >= len(pc.maximal_building_set(P).members):
            ok = False
        if not pc.phi_iso_check(pair):
            ok = False
    verdict(8, "variable substitution is a ring isomorphism", ok)


def test_criterion_09_poincare_duality():
    ok = True
    cases = [(t, None) for t in FIXTURES] + [(U34, U34_MIN_BUILDING)]
    for table, members in cases:
        pair = pc.ChowPair(building_of(table, members))
        P = pair.P
        for k in range(P.r):
            for ring in ("dp", "fy"):
                matrix = pc.pairing_matrix(pair, k, ring=ring)
                if matrix and (len(matrix) != len(matrix[0])
                               or linalg.det(matrix) not in (1, -1)):
                    ok = False
        for m in pair.maximal_nested_monomials():
            if deg_fy(pair, {m: 1}) != 1:
                ok = False
    verdict(9, "integral Poincare pairing with degree one on maximal cones", ok)


def test_criterion_10_kahler_package():
    ok = True
    cases = [(P1, None), (P2, None), (P3, None), (P4, None),
             (U34, U34_MIN_BUILDING), (boolean_table((1, 1, 2)), None)]
    for table, members in cases:
        pair = pc.ChowPair(building_of(table, members))
        P = pair.P
        try:
            ambient, values, ell = nestohedron_class(pair)
        except AssertionError:
            ok = False
            continue
        if not pc.is_strictly_convex(ambient, values):
            ok = False
        for k in range((P.r + 1) // 2):
            if not pc.hard_lefschetz_check(pair, ell, k):
                ok = False
            if not pc.hodge_riemann_check(pair, ell, k):
                ok = False
    verdict(10, "hard Lefschetz and Hodge-Riemann with a convex class", ok)


def test_criterion_11_determinism(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"n": 2, "rank": P3, "seed": 11}))
    argv = ["verify-all", "--instance", str(path), "--trials", "100"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and out1
    verdict(11, "verify-all reports are byte-identical per seed", bool(ok))
