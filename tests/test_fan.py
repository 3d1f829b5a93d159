from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

import polychow as pc
from polychow import linalg
from polychow.fan import (complete_fan_certificate, integral, locate,
                          pairwise_faces_by_circuits, primitive)
from conftest import (BOOLEAN_FIBERS, P1, P2, P3, P4, U34, U34_MIN_BUILDING,
                      boolean_table)


def random_point(rng, dim, spread=10_000):
    """The rational sampler the fan checks drew from before they drew in
    integers."""
    return tuple(Fraction(rng.randint(-spread, spread), rng.randint(1, 97))
                 for _ in range(dim))


def fan_of(table, members=None):
    P = pc.Polymatroid(table)
    G = None if members is None else pc.BuildingSet(P, members)
    return P, pc.bergman_fan(P, G)


def test_p1_fan_is_a_line():
    P, fan = fan_of(P1)
    # lift has two elements, quotient dimension 1, rays +1 and -1
    assert fan.ambient_dim == 1
    assert set(fan.rays) == {(1,), (-1,)}
    assert fan.max_dim == 1
    assert len(fan.maximal_cones()) == 2


def test_p2_fan_three_rays():
    P, fan = fan_of(P2)
    assert fan.ambient_dim == 2
    assert len(fan.rays) == 3
    assert fan.max_dim == 1
    assert len(fan.maximal_cones()) == 3
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, -1)}


def test_p3_fan_shape():
    P, fan = fan_of(P3)
    assert fan.ambient_dim == 3
    assert len(fan.rays) == 6
    assert fan.max_dim == 2
    assert len(fan.maximal_cones()) == 8


def test_cross_construction_maximal():
    for table in (P1, P2, P3, U34):
        P = pc.Polymatroid(table)
        assert pc.bergman_fan(P) == pc.maximal_bergman_fan_direct(P)


def test_boolean_third_route():
    for fibers in ((1, 1), (2,), (1, 2), (1, 1, 1), (2, 2)):
        proj = pc.ProjectionMap(fibers)
        P = pc.boolean_polymatroid(proj)
        assert pc.bergman_fan(P) == pc.boolean_bergman_fan(proj)
        assert pc.boolean_bergman_fan(proj) == pc.maximal_bergman_fan_direct(P)


def test_validators_on_fixture_fans():
    for table in (P1, P2, P3):
        P, fan = fan_of(table)
        checks = pc.validate_fan(fan, expected_max_dim=P.r - 1)
        assert all(checks.values()), checks


def test_validators_on_second_building_set():
    P, fan = fan_of(U34, U34_MIN_BUILDING)
    checks = pc.validate_fan(fan, expected_max_dim=2)
    assert all(checks.values()), checks


def test_balancing_weight_one():
    for table in (P2, P3, U34):
        P, fan = fan_of(table)
        assert pc.balancing_check(fan)


def test_unimodular_and_face_closed():
    P, fan = fan_of(P3)
    assert pc.is_unimodular(fan)
    assert pc.is_face_closed(fan)
    assert pc.pairwise_intersections_are_faces(fan)


def test_find_cone_examples():
    P, fan = fan_of(P2)
    # e_0 + e_{1 in the 2-fiber} is not in the support of U_{2,3}
    assert pc.find_cone(fan, (1, 1)) is None or not pc.cone_contains(
        fan, pc.find_cone(fan, (1, 1)), (1, 1))
    assert pc.in_support(fan, (1, 0))
    assert not pc.in_support(fan, (1, 1))
    assert pc.in_support(fan, (0, 0))


def test_cone_coordinates_roundtrip():
    P, fan = fan_of(P3)
    for cone in fan.maximal_cones():
        rays = fan.cone_rays(cone)
        point = tuple(sum(2 * r[i] + 3 * rays[-1][i] for r in rays)
                      for i in range(fan.ambient_dim))
        coords = pc.cone_coordinates(fan, cone, point)
        assert coords is not None and all(c >= 0 for c in coords)
        found = pc.find_cone(fan, point)
        assert found is not None and set(found) <= set(cone)


def test_refinement_of_coarser_building_set():
    P = pc.Polymatroid(U34)
    fine = pc.bergman_fan(P)
    coarse = pc.bergman_fan(P, pc.BuildingSet(P, U34_MIN_BUILDING))
    assert len(fine.rays) == 10   # 4 singleton flats + 6 pair flats
    assert len(coarse.rays) == 4  # the singleton flats; E gives no ray
    assert pc.refines(fine, coarse)
    assert pc.same_support(fine, coarse, trials=500)


def test_lift_fan_refined_by_boolean_fan_support_differs():
    P = pc.Polymatroid(P3)
    lifted = pc.bergman_fan(P)
    boolean = pc.boolean_bergman_fan(pc.ProjectionMap((2, 2)))
    # the boolean fan is complete; the lift fan is a proper subfan support
    assert not pc.same_support(boolean, lifted, trials=200)
    assert pc.is_complete(boolean)
    assert not pc.is_complete(lifted)


def test_sigma_p3_refines_u34_fan():
    # the fan of the lift of (0,2,2,3) with the lifted maximal building
    # set refines the fan of U_{3,4} with its minimal building set: both
    # have the same support (all of the tropical linear space)
    P3p = pc.Polymatroid(P3)
    fine = pc.bergman_fan(P3p)
    U = pc.Polymatroid(U34)
    coarse = pc.bergman_fan(U, pc.BuildingSet(U, U34_MIN_BUILDING))
    assert len(fine.rays) == 6
    assert pc.same_support(fine, coarse, trials=500)


def test_nested_set_fan_matches_bergman():
    P = pc.Polymatroid(P2)
    M, Gt = pc.lifted_building_set(P)
    fan = pc.nested_set_fan(Gt, M.full_mask, M.m)
    assert fan == pc.bergman_fan(P)


# --- references: Fraction solves and extreme-ray enumeration ------------------


def reference_cone_coordinates(fan, cone, w):
    """Coordinates of w in the cone's ray basis by one Fraction solve."""
    rays = fan.cone_rays(cone)
    if not rays:
        return [] if all(x == 0 for x in w) else None
    cols = [[Fraction(r[i]) for r in rays] for i in range(fan.ambient_dim)]
    return linalg.solve(cols, [Fraction(x) for x in w])


def reference_cone_contains(fan, cone, w, strict=False):
    coords = reference_cone_coordinates(fan, cone, w)
    if coords is None:
        return False
    return all(c > 0 for c in coords) if strict else all(c >= 0 for c in coords)


def extreme_rays_nonneg_kernel(A):
    """Extreme rays of {z >= 0 : A z = 0}, by minimal-support enumeration."""
    ncols = len(A[0])
    out = []
    for size in range(1, min(ncols, linalg.rank(A) + 1) + 1):
        for J in combinations(range(ncols), size):
            basis = linalg.kernel_basis([[row[j] for j in J] for row in A])
            if len(basis) != 1:
                continue
            v = basis[0]
            if all(x < 0 for x in v):
                v = [-x for x in v]
            if all(x > 0 for x in v):
                z = [Fraction(0)] * ncols
                for j, x in zip(J, v):
                    z[j] = x
                out.append(z)
    return out


def reference_pairwise_faces(fan):
    """Every extreme ray of {(lam, mu) >= 0 : U lam = V mu} for two maximal
    cones must give a point of the cone over their common rays."""
    d = fan.ambient_dim
    for a, b in combinations(fan.maximal_cones(), 2):
        ra, rb = fan.cone_rays(a), fan.cone_rays(b)
        if not ra or not rb:
            continue
        A = [[r[i] for r in ra] + [-r[i] for r in rb] for i in range(d)]
        for z in extreme_rays_nonneg_kernel(A):
            point = tuple(sum(z[k] * ra[k][i] for k in range(len(ra)))
                          for i in range(d))
            if not reference_cone_contains(fan, a & b, point):
                return False
    return True


def fixture_fans():
    fans = [pc.bergman_fan(pc.Polymatroid(t)) for t in (P1, P2, P3, P4, U34)]
    fans.append(fan_of(U34, U34_MIN_BUILDING)[1])
    fans += [pc.bergman_fan(pc.Polymatroid(boolean_table(f))) for f in BOOLEAN_FIBERS]
    return fans


def face_closure(cones):
    return {frozenset(sub) for c in cones for k in range(len(c) + 1)
            for sub in combinations(sorted(c), k)}


def random_collection(rng, d):
    """A face-closed collection of two to four simplicial cones on a few
    random primitive rays in dimension d; the cones often overlap."""
    rays = set()
    while len(rays) < rng.randint(d + 1, d + 4):
        v = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(v):
            rays.add(primitive(v))
    rays = sorted(rays)
    cones = []
    while len(cones) < rng.randint(2, 4):
        cone = rng.sample(range(len(rays)), rng.randint(1, d))
        if linalg.rank([rays[i] for i in cone]) == len(cone):
            cones.append(cone)
    return pc.Fan(d, rays, face_closure(cones))


def random_collections():
    rng = Random(2024)
    return [random_collection(rng, d) for d in (2, 3, 3, 4) for _ in range(60)]


def test_pairwise_faces_matches_extreme_ray_reference():
    verdicts = []
    for fan in fixture_fans() + random_collections():
        new = pc.pairwise_intersections_are_faces(fan)
        assert new == reference_pairwise_faces(fan), fan.cones
        assert new == pairwise_faces_by_circuits(fan), fan.cones
        verdicts.append(new)
    assert verdicts.count(False) >= 40 and verdicts.count(True) >= 40


def test_overlapping_cones_fail_the_pairwise_check():
    # cone((1,0),(0,1)) and cone((1,1),(-1,0)) share no ray but both hold (1,2)
    disjoint_rays = pc.Fan(2, [(1, 0), (0, 1), (1, 1), (-1, 0)],
                           face_closure([{0, 1}, {2, 3}]))
    # cone((1,0),(1,1)) lies inside cone((1,0),(0,1)) but shares only (1,0)
    shared_ray = pc.Fan(2, [(1, 0), (0, 1), (1, 1)], face_closure([{0, 1}, {0, 2}]))
    for fan in (disjoint_rays, shared_ray):
        assert pc.is_face_closed(fan)
        assert not pc.pairwise_intersections_are_faces(fan)
        assert not reference_pairwise_faces(fan)


def probe_points(rng, fan, cone):
    """Interior, boundary, negative-coordinate and out-of-span points."""
    rays = fan.cone_rays(cone)
    d = fan.ambient_dim

    def combo(coeffs):
        return tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(d))

    yield combo([Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in rays])
    for k in range(len(rays)):
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in rays]
        coeffs[k] = 0
        yield combo(coeffs)
        coeffs[k] = -1
        yield combo(coeffs)
    yield tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d))
    yield tuple(rng.randint(-3, 3) for _ in range(d))
    yield (0,) * d


def test_cone_contains_matches_fraction_solve():
    rng = Random(7)
    outcomes = set()
    for fan in fixture_fans() + random_collections()[::4]:
        for cone in fan.cones:
            for w in probe_points(rng, fan, cone):
                coords = pc.cone_coordinates(fan, cone, w)
                assert coords == reference_cone_coordinates(fan, cone, w)
                for strict in (False, True):
                    got = pc.cone_contains(fan, cone, w, strict=strict)
                    assert got == reference_cone_contains(fan, cone, w, strict=strict)
                    outcomes.add((strict, got, coords is None))
    # both verdicts occur, strict and not, in span and out of it
    assert outcomes == {(s, g, n) for s in (False, True) for g in (False, True)
                        for n in (False, True) if not (g and n)}


def test_cone_with_dependent_rays_is_rejected():
    fan = pc.Fan(2, [(1, 0), (0, 1), (1, 1)], [{0, 1, 2}])
    with pytest.raises(ValueError):
        pc.cone_contains(fan, frozenset({0, 1, 2}), (1, 1))


# --- the complete-fan certificate ---------------------------------------------


def cycle_collection(rays):
    """The 2-d collection of cones on consecutive rays of a closed cycle:
    every wall (a ray) lies in exactly two maximal cones."""
    k = len(rays)
    return pc.Fan(2, rays, face_closure([{i, (i + 1) % k} for i in range(k)]))


SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def refused_complete_collections():
    """Complete collections of full-dimensional cones that are not fans,
    each violating one condition of the certificate."""
    # the four quadrants plus cone((1,0),(1,1)): the wall (1,0) lies in three
    three_cones = pc.Fan(2, SQUARE + [(1, 1)],
                         face_closure([{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}]))
    # (1,0) -> (0,1) -> (1,1) turns back: the two cones at the wall (0,1),
    # and those at (1,1), lie on the same side of it.  The first ray sum off
    # the walls, (1,-1), lies in one cone only, so only the side test refuses
    same_side = cycle_collection([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)])
    # five cones of 135-162 degrees winding twice around the origin
    pentagram = cycle_collection([(1, 0), (-1, 1), (1, -2), (1, 3), (-1, -1)])
    return {"three_cones": three_cones, "same_side": same_side, "pentagram": pentagram}


def test_certificate_refuses_complete_collections_that_are_not_fans():
    for name, fan in refused_complete_collections().items():
        assert pc.is_face_closed(fan), name
        assert all(len(c) == 2 for c in fan.maximal_cones()), name
        rng = Random(3)
        assert all(scan_in_support(fan, random_point(rng, 2)) for _ in range(50)), name
        assert not complete_fan_certificate(fan), name
        assert not pc.pairwise_intersections_are_faces(fan), name
        assert not pairwise_faces_by_circuits(fan), name
        assert not reference_pairwise_faces(fan), name


def test_certificate_holds_on_complete_fans():
    fans = [f for f in fixture_fans() if f.max_dim == f.ambient_dim]
    fans += [pc.boolean_bergman_fan(pc.ProjectionMap(f))
             for f in ((2, 2, 1), (1, 1, 1, 1), (2, 2, 2))]
    fans.append(cycle_collection(SQUARE))
    assert len(fans) == 12
    for fan in fans:
        assert complete_fan_certificate(fan), fan
    # the Bergman fans that are not complete are left to the search
    for table in (P2, P3, U34):
        assert not complete_fan_certificate(fan_of(table)[1])


def random_cycles(rng, count):
    """Closed cycles of three to seven random primitive rays in the plane,
    consecutive rays independent: fans when they wind once without turning
    back, otherwise not."""
    out = []
    while len(out) < count:
        rays = []
        for _ in range(rng.randint(3, 7)):
            v = primitive((rng.randint(-3, 3), rng.randint(-3, 3)))
            if any(v) and v not in rays:
                rays.append(v)
        if len(rays) >= 3 and all(
                a[0] * b[1] - a[1] * b[0] for a, b in zip(rays, rays[1:] + rays[:1])):
            out.append(cycle_collection(rays))
    return out


def test_certificate_agrees_with_the_search_on_random_cycles():
    """A certified cycle is a fan; a cycle the search accepts is complete
    and certified."""
    rng = Random(11)
    certified = 0
    for fan in random_cycles(rng, 150):
        cert = complete_fan_certificate(fan)
        assert cert == pairwise_faces_by_circuits(fan), fan.rays
        assert cert == pc.pairwise_intersections_are_faces(fan)
        certified += cert
    assert 10 <= certified <= 140


# --- locating cones from level sets -------------------------------------------


def scan_in_support(fan, w):
    return any(reference_cone_contains(fan, c, w) for c in fan.cones)


def scan_find_cone(fan, w):
    if all(x == 0 for x in w):
        return frozenset() if frozenset() in fan.cones else None
    return next((c for c in fan.cones
                 if c and reference_cone_contains(fan, c, w, strict=True)), None)


def scan_refines(fine, coarse):
    return all(any(all(reference_cone_contains(coarse, c, r) for r in fine.cone_rays(cone))
                   for c in coarse.cones)
               for cone in fine.cones)


def nested_set_fixture_fans():
    """Fans whose rays are subset vectors and whose cones are nested sets."""
    fans = [pc.bergman_fan(pc.Polymatroid(t)) for t in (P1, P2, P3, P4, U34)]
    fans.append(fan_of(U34, U34_MIN_BUILDING)[1])
    fans += [pc.maximal_bergman_fan_direct(pc.Polymatroid(t)) for t in (P2, P3, U34)]
    fans += [pc.boolean_bergman_fan(pc.ProjectionMap(f)) for f in ((1, 2), (2, 2), (1, 1, 2))]
    return fans


def scan_only_fans():
    """Fans and collections with a ray that is not a subset vector."""
    fans = [pc.Fan(2, [(1, 0), (1, 1), (-1, 2)], face_closure([{0, 1}, {1, 2}]))]
    return fans + random_collections()[::16]


def subset_vector_fans_missing_rays():
    """Fans on subset vectors that lack rays a nested-set fan would have,
    so some out-of-support points locate to a cone that does not hold them."""
    quadrant = pc.Fan(2, [(1, 0), (0, 1)], face_closure([{0, 1}]))
    octant = pc.Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], face_closure([{0, 1, 2}]))
    two_cones = pc.Fan(3, [(1, 0, 0), (1, 1, 0), (0, 0, -1), (-1, -1, -1)],
                       face_closure([{0, 1, 2}, {1, 3}]))
    return [quadrant, octant, two_cones]


def test_locate_matches_scans_on_fixture_fans():
    rng = Random(5)
    for fan in nested_set_fixture_fans():
        assert fan.subset_index is not None
        for cone in sorted(fan.cones, key=sorted):
            for w in probe_points(rng, fan, cone):
                found = scan_find_cone(fan, w)
                # on a nested-set fan the level sets give the cone exactly,
                # and no cone outside the support
                assert locate(fan, integral(w)[0]) == found
                assert pc.find_cone(fan, w) == found
                assert pc.in_support(fan, w) == scan_in_support(fan, w)


def test_unconfirmed_candidates_fall_back_to_the_scan():
    rng = Random(8)
    unconfirmed = 0
    for fan in subset_vector_fans_missing_rays():
        assert fan.subset_index is not None
        points = [w for cone in fan.cones for w in probe_points(rng, fan, cone)]
        points += [random_point(rng, fan.ambient_dim, spread=5) for _ in range(40)]
        for w in points:
            located = locate(fan, integral(w)[0])
            if located is not None and not reference_cone_contains(fan, located, w):
                unconfirmed += 1
            assert pc.find_cone(fan, w) == scan_find_cone(fan, w)
            assert pc.in_support(fan, w) == scan_in_support(fan, w)
    # a candidate that is a cone not holding the point must not decide
    assert unconfirmed >= 10


def test_scan_path_without_a_subset_index():
    rng = Random(6)
    fans = scan_only_fans()
    assert len(fans) >= 10
    verdicts = set()
    for fan in fans:
        assert fan.subset_index is None
        for cone in fan.cones:
            for w in probe_points(rng, fan, cone):
                assert locate(fan, integral(w)[0]) is None
                got = pc.in_support(fan, w)
                assert got == scan_in_support(fan, w)
                found = pc.find_cone(fan, w)
                assert (found is None) == (scan_find_cone(fan, w) is None)
                verdicts.add(got)
    assert verdicts == {False, True}


def test_refines_matches_scan():
    fans = nested_set_fixture_fans() + scan_only_fans() + subset_vector_fans_missing_rays()
    verdicts = []
    for fine in fans:
        for coarse in fans:
            if fine.ambient_dim == coarse.ambient_dim:
                got = pc.refines(fine, coarse)
                assert got == scan_refines(fine, coarse), (fine, coarse)
                verdicts.append(got)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


# --- integer sampling ----------------------------------------------------------


def test_random_integral_point_is_the_scaled_fraction_point():
    for seed in range(300):
        for dim in range(1, 7):
            for spread in (10_000, 3):
                ours, theirs = Random(seed), Random(seed)
                got = pc.fan.random_integral_point(ours, dim, spread)
                assert got == integral(random_point(theirs, dim, spread))[0]
                assert all(type(x) is int for x in got)
                assert ours.getstate() == theirs.getstate()


def reference_same_support(f1, f2, trials, seed, seen):
    """same_support with Fraction samples, as it was before it drew in
    integers; appends every point it tests to `seen`."""

    def member(fan, w):
        seen.append(w)
        return pc.in_support(fan, w)

    rng = Random(seed)
    if pc.refines(f1, f2):
        for cone in f2.maximal_cones():
            rays = f2.cone_rays(cone)
            for _ in range(max(1, trials // max(1, len(f2.cones)))):
                coeffs = [Fraction(rng.randint(1, 50), rng.randint(1, 7))
                          for _ in rays]
                w = tuple(sum(c * r[i] for c, r in zip(coeffs, rays))
                          for i in range(f2.ambient_dim))
                if not member(f1, w):
                    return False
        return True
    for _ in range(trials):
        w = random_point(rng, f1.ambient_dim)
        if member(f1, w) != member(f2, w):
            return False
    return True


def support_pairs():
    """Criterion 6's (fine, coarse) pairs, U(3,4) with its maximal and its
    minimal building set, and a pair whose first fan does not refine the
    second."""
    pairs = []
    for table, members in [(t, None) for t in (P1, P2, P3, P4, U34)] + [(U34, U34_MIN_BUILDING)]:
        P, coarse = fan_of(table, members)
        pairs.append((pc.maximal_bergman_fan_direct(pc.lift(P).as_polymatroid()), coarse))
    pairs.append((fan_of(U34)[1], fan_of(U34, U34_MIN_BUILDING)[1]))
    pairs.append((pc.boolean_bergman_fan(pc.ProjectionMap((2, 2))), fan_of(P3)[1]))
    return pairs


def without_a_maximal_cone(fans):
    """Each fan less one of its maximal cones (first, middle, last): it
    still refines the fan, but misses the interior of that cone."""
    out = []
    for fan in fans:
        maxes = sorted(fan.maximal_cones(), key=sorted)
        for cone in {maxes[0], maxes[len(maxes) // 2], maxes[-1]}:
            out.append((pc.Fan(fan.ambient_dim, fan.rays, fan.cones - {cone}), fan))
    return out


def assert_positive_multiples(points, references):
    assert len(points) == len(references)
    for w, ref in zip(points, references):
        assert all(type(x) is int for x in w)
        k = next((Fraction(x) / y for x, y in zip(w, ref) if y), 1)
        assert k > 0 and all(x == k * y for x, y in zip(w, ref))


def test_same_support_matches_the_fraction_sampler(monkeypatch):
    pairs = support_pairs()
    pairs += without_a_maximal_cone({coarse for _, coarse in pairs})
    recorded = []
    shipped = pc.fan.in_support

    def recording(fan, w):
        recorded.append(tuple(w))
        return shipped(fan, w)

    monkeypatch.setattr(pc.fan, "in_support", recording)
    verdicts = []
    for f1, f2 in pairs:
        recorded.clear()
        expected_points = []
        got = pc.same_support(f1, f2, trials=1000, seed=0)
        assert got == reference_same_support(f1, f2, trials=1000, seed=0,
                                             seen=expected_points)
        assert_positive_multiples(recorded, expected_points)
        verdicts.append((pc.refines(f1, f2), got))
    # both branches run, and the refining branch gives both verdicts
    assert set(verdicts) == {(True, True), (True, False), (False, False)}


def test_same_support_refining_branch_rejects_a_missing_cone():
    for f1, f2 in without_a_maximal_cone([fan_of(P3)[1], fan_of(U34, U34_MIN_BUILDING)[1]]):
        assert pc.refines(f1, f2)
        assert not pc.same_support(f1, f2)
        assert pc.same_support(f2, f2)
