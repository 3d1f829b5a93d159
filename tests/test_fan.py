from fractions import Fraction
from functools import cache
from itertools import combinations, product
from random import Random

import pytest

import polychow as pc
from polychow import linalg
from polychow.bitsets import elements
from polychow.fan import (_has_positive_circuit, complete_fan_certificate, locate,
                          pairwise_faces_by_circuits, stellar_certificate, subset_vector)
from conftest import (BOOLEAN_FIBERS, P1, P2, P3, P4, U34, U34_MIN_BUILDING,
                      all_partitions_m6, boolean_table, building_of)
from oracles import (as_polymatroid, chains, cone_coordinates, find_cone, fraction_solve,
                     in_relative_interior, integral, is_complete, maximal_bergman_fan_direct,
                     primitive, random_integral_point, reference_is_unimodular,
                     reference_refines, sampled_same_support)


def random_point(rng, dim, spread=10_000):
    """The rational sampler the fan checks drew from before they drew in
    integers."""
    return tuple(Fraction(rng.randint(-spread, spread), rng.randint(1, 97))
                 for _ in range(dim))


def fan_of(table, members=None):
    G = building_of(table, members)
    return G.base, pc.bergman_fan(G)


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
        assert pc.bergman_fan(pc.maximal_building_set(P)) == maximal_bergman_fan_direct(P)


def test_boolean_third_route():
    for fibers in ((1, 1), (2,), (1, 2), (1, 1, 1), (2, 2)):
        proj = pc.ProjectionMap(fibers)
        P = pc.boolean_polymatroid(proj)
        assert pc.bergman_fan(pc.maximal_building_set(P)) == pc.boolean_bergman_fan(proj)
        assert pc.boolean_bergman_fan(proj) == maximal_bergman_fan_direct(P)


def chain_boolean_bergman_fan(proj):
    """`boolean_bergman_fan` as it was: every chain of proper nonempty
    subsets of E times every fiber-free S, as frozensets of ray vectors."""
    n, m = proj.n, proj.m
    proper = range(1, (1 << n) - 1)
    fiber_free = [S for S in range(1 << m)
                  if not any(S & fm == fm for fm in proj.fiber_masks)]
    fiber_rays = {F: subset_vector(proj.preimages[F], m) for F in proper}
    element_rays = [subset_vector(1 << e, m) for e in range(m)]
    ray_sets = {frozenset({fiber_rays[F] for F in chain} | {element_rays[e] for e in elements(S)})
                for chain in chains(proper) for S in fiber_free}
    rays = sorted({r for s in ray_sets for r in s})
    index = {r: i for i, r in enumerate(rays)}
    return pc.Fan(m - 1, rays, [{index[r] for r in s} for s in ray_sets])


def test_boolean_fan_matches_the_chain_reference():
    shapes = all_partitions_m6()
    assert len(shapes) == 29 and (1,) in shapes
    for fibers in shapes + [f[::-1] for f in shapes if f != f[::-1]]:
        proj = pc.ProjectionMap(fibers)
        new, old = pc.boolean_bergman_fan(proj), chain_boolean_bergman_fan(proj)
        assert (new.ambient_dim, new.rays, new.cones) == (old.ambient_dim, old.rays, old.cones)
    assert pc.boolean_bergman_fan(pc.ProjectionMap((1,))).rays == ()


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


def test_unimodular_refuses_index_two_and_too_many_rays():
    # (1,0), (1,2) span a sublattice of index 2; three rays in R^2 cannot
    # extend to a lattice basis although their Smith diagonal is all ones
    index_two = pc.Fan(2, [(1, 0), (1, 2)], [set(), {0}, {1}, {0, 1}])
    three_rays = pc.Fan(2, [(1, 0), (0, 1), (1, 1)],
                        [set(), {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}])
    assert linalg.smith_normal_form([(1, 0), (0, 1), (1, 1)]) == [1, 1]
    assert not pc.is_unimodular(index_two)
    assert not pc.is_unimodular(three_rays)


def test_unimodular_matches_the_all_cones_reference():
    # the maximal cone (1,0),(1,2) has index 2 while each of its rays, and
    # the other maximal cone (1,2),(-1,-1), extends to a lattice basis
    index_two_beside_a_basis = pc.Fan(2, [(1, 0), (1, 2), (-1, -1)],
                                      face_closure([{0, 1}, {1, 2}]))
    assert all(pc.is_unimodular(pc.Fan(2, [r], [set(), {0}]))
               for r in index_two_beside_a_basis.rays)
    fans = [index_two_beside_a_basis] + fixture_fans() + nested_set_fixture_fans()
    fans += subset_vector_fans_missing_rays() + random_collections()
    fans += [f for pair in without_a_maximal_cone(fixture_fans()) for f in pair]
    verdicts = []
    for fan in fans:
        got = pc.is_unimodular(fan)
        assert got == reference_is_unimodular(fan), fan.cones
        verdicts.append(got)
    assert not verdicts[0]
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def test_find_cone_examples():
    P, fan = fan_of(P2)
    # e_0 + e_{1 in the 2-fiber} is not in the support of U_{2,3}
    assert find_cone(fan, (1, 1)) is None or not pc.cone_contains(
        fan, find_cone(fan, (1, 1)), (1, 1))
    assert pc.in_support(fan, (1, 0))
    assert not pc.in_support(fan, (1, 1))
    assert pc.in_support(fan, (0, 0))


def test_cone_coordinates_roundtrip():
    P, fan = fan_of(P3)
    for cone in fan.maximal_cones():
        rays = fan.cone_rays(cone)
        point = tuple(sum(2 * r[i] + 3 * rays[-1][i] for r in rays)
                      for i in range(fan.ambient_dim))
        coords = cone_coordinates(fan, cone, point)
        assert coords is not None and all(c >= 0 for c in coords)
        found = find_cone(fan, point)
        assert found is not None and set(found) <= set(cone)


def test_refinement_of_coarser_building_set():
    P = pc.Polymatroid(U34)
    fine = pc.bergman_fan(pc.maximal_building_set(P))
    coarse = pc.bergman_fan(pc.BuildingSet(P, U34_MIN_BUILDING))
    assert len(fine.rays) == 10   # 4 singleton flats + 6 pair flats
    assert len(coarse.rays) == 4  # the singleton flats; E gives no ray
    assert pc.refines(fine, coarse)
    assert pc.same_support(fine, coarse) is True


def test_lift_fan_refined_by_boolean_fan_support_differs():
    P = pc.Polymatroid(P3)
    lifted = pc.bergman_fan(pc.maximal_building_set(P))
    boolean = pc.boolean_bergman_fan(pc.ProjectionMap((2, 2)))
    # the boolean fan is complete; the lift fan is a proper subfan support
    assert pc.same_support(boolean, lifted) is False
    assert is_complete(boolean)
    assert not is_complete(lifted)


def test_sigma_p3_refines_u34_fan():
    # the fan of the lift of (0,2,2,3) with the lifted maximal building
    # set refines the fan of U_{3,4} with its minimal building set: both
    # have the same support (all of the tropical linear space)
    P3p = pc.Polymatroid(P3)
    fine = pc.bergman_fan(pc.maximal_building_set(P3p))
    U = pc.Polymatroid(U34)
    coarse = pc.bergman_fan(pc.BuildingSet(U, U34_MIN_BUILDING))
    assert len(fine.rays) == 6
    assert pc.same_support(fine, coarse) is True


def test_nested_set_fan_matches_bergman():
    P = pc.Polymatroid(P2)
    G = pc.maximal_building_set(P)
    assert pc.nested_set_fan(pc.lifted_building_set(G)) == pc.bergman_fan(G)


# --- references: Fraction solves and extreme-ray enumeration ------------------


def reference_cone_coordinates(fan, cone, w):
    """Coordinates of w in the cone's ray basis by one Fraction solve."""
    rays = fan.cone_rays(cone)
    if not rays:
        return [] if all(x == 0 for x in w) else None
    return fraction_solve([[r[i] for r in rays] for i in range(fan.ambient_dim)], w)


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
            basis = linalg.kernel_basis([[row[j] for j in J] for row in A], size)
            if len(basis) != 1:
                continue
            v = basis[0]
            if all(x < 0 for x in v):
                v = [-x for x in v]
            if all(x > 0 for x in v):
                z = [0] * ncols
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
    fans = [pc.bergman_fan(building_of(t)) for t in (P1, P2, P3, P4, U34)]
    fans.append(fan_of(U34, U34_MIN_BUILDING)[1])
    fans += [pc.bergman_fan(building_of(boolean_table(f))) for f in BOOLEAN_FIBERS]
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


def test_ambient_route_agrees_with_the_circuit_search(monkeypatch):
    # each fixture fan, and each less one maximal cone, against the
    # certified Boolean fan of its polymatroid's fibers, as verify-all
    # passes it; a maximal building set gives ambient cones, U(3,4)'s
    # coarser one does not
    fallbacks = []
    shipped = complete_fan_certificate
    monkeypatch.setattr(pc.fan, "complete_fan_certificate",
                        lambda fan: fallbacks.append(fan) or shipped(fan))
    instances = [(t, None) for t in (P1, P2, P3, P4, U34)] + [(U34, U34_MIN_BUILDING)]
    instances += [(boolean_table(f), None) for f in BOOLEAN_FIBERS]
    for table, members in instances:
        P, fan = fan_of(table, members)
        proj = pc.lift(P).proj
        ambient = pc.boolean_bergman_fan(proj)
        assert pc.normal_fan_equals(pc.Polypermutohedron(proj), ambient)
        for f in [fan] + [less for less, _ in without_a_maximal_cone([fan])]:
            fallbacks.clear()
            verdict = pc.pairwise_intersections_are_faces(f, ambient)
            assert verdict == pairwise_faces_by_circuits(f), (table, members)
            assert fallbacks == ([] if members is None else [f])
    # collections on random rays against the braid fan of their dimension
    braid = {d: pc.boolean_bergman_fan(pc.ProjectionMap((1,) * (d + 1))) for d in (2, 3, 4)}
    collections = random_collections()
    verdicts = [pc.pairwise_intersections_are_faces(f, braid[f.ambient_dim]) for f in collections]
    assert verdicts == [pairwise_faces_by_circuits(f) for f in collections]
    assert False in verdicts


def support_enumeration_has_positive_circuit(A, split):
    """True iff A z = 0 for some z >= 0, z != 0, where the columns before
    `split` are independent and so are those from `split` on.

    Such a z exists exactly when A has a circuit (a kernel vector of
    minimal support) with all entries of one sign.  Neither side alone
    holds a circuit, so each support tried takes columns from both.
    """
    ncols = len(A[0])
    rank = len(linalg.integer_rref(A)[1])
    if rank == ncols:
        return False
    left, right = range(split), range(split, ncols)
    for size in range(2, rank + 2):
        for i in range(1, size):
            for I, J in product(combinations(left, i), combinations(right, size - i)):
                kernel = linalg.kernel_basis([[row[j] for j in I + J] for row in A], size)
                if len(kernel) == 1 and (all(x > 0 for x in kernel[0])
                                         or all(x < 0 for x in kernel[0])):
                    return True
    return False


def independent_columns(rng, nrows, k):
    while True:
        cols = [[rng.randint(-2, 2) for _ in range(nrows)] for _ in range(k)]
        if linalg.rank(cols) == k:
            return cols


def random_split_matrix(rng):
    """(A, split): two sides of independent integer columns.  Rows are
    sometimes repeated, so that some row subsets of a kernel basis are
    dependent, and the columns are sometimes turned into one open
    half-space, where no z >= 0 other than 0 has A z = 0."""
    nrows = rng.randint(1, 4)
    left = independent_columns(rng, nrows, rng.randint(1, nrows))
    right = independent_columns(rng, nrows, rng.randint(1, nrows))
    cols = left + right
    if rng.random() < 0.4:
        y = [rng.randint(-2, 2) for _ in range(nrows)]
        signs = [sum(a * b for a, b in zip(y, c)) for c in cols]
        if all(signs):
            cols = [c if s > 0 else [-x for x in c] for c, s in zip(cols, signs)]
    A = [list(row) for row in zip(*cols)]
    if rng.random() < 0.3:
        A.append(list(A[rng.randrange(nrows)]))
    return A, len(left)


def test_kernel_extreme_rays_match_the_support_enumeration():
    rng = Random(15)
    seen = set()
    for _ in range(2500):
        A, split = random_split_matrix(rng)
        got = _has_positive_circuit(A)
        assert got == support_enumeration_has_positive_circuit(A, split), (A, split)
        t = len(A[0]) - linalg.rank(A)
        seen.add((min(t, 3), got))
    # kernel dimensions 0, 1, 2 and at least 3, each with both verdicts
    # except t = 0, where only z = 0 solves A z = 0
    assert seen == {(0, False)} | {(t, v) for t in (1, 2, 3) for v in (False, True)}


def test_maximal_cones_match_the_pairwise_scan():
    rng = Random(9)
    fans = fixture_fans() + random_collections()[::8]
    # collections that are not face-closed: each cone alone or with a few
    # of its faces, and the empty cone alone
    for fan in random_collections()[::8]:
        cones = [c for c in fan.cones if rng.random() < 0.5]
        fans.append(pc.Fan(fan.ambient_dim, fan.rays, cones))
    fans.append(pc.Fan(2, [(1, 0)], [set()]))
    for fan in fans:
        scan = [c for c in fan.cones if not any(c < d for d in fan.cones)]
        assert list(fan.maximal_cones()) == scan, fan.cones
        assert fan.maximal_cones() is fan.maximal_cones()


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
                coords = cone_coordinates(fan, cone, w)
                assert coords == reference_cone_coordinates(fan, cone, w)
                # cone_contains takes integers: a positive multiple of w
                # lies in the same cones
                for strict, test in ((False, pc.cone_contains), (True, in_relative_interior)):
                    got = test(fan, cone, integral(w)[0])
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


def test_balancing_refuses_unbalanced_walls():
    # the rays (1,0) and (0,1) in R^2 share one wall, the zero cone, and
    # their sum (1,1) is not 0
    two_rays = pc.Fan(2, [(1, 0), (0, 1)], [set(), {0}, {1}])
    assert not pc.balancing_check(two_rays)
    # the opposite rays at the wall (1,0) of three_cones sum to (1,1)
    assert not pc.balancing_check(refused_complete_collections()["three_cones"])


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
    fans = [pc.bergman_fan(building_of(t)) for t in (P1, P2, P3, P4, U34)]
    fans.append(fan_of(U34, U34_MIN_BUILDING)[1])
    fans += [maximal_bergman_fan_direct(pc.Polymatroid(t)) for t in (P2, P3, U34)]
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
        assert fan.subset_index() is not None
        for cone in sorted(fan.cones, key=sorted):
            for w in probe_points(rng, fan, cone):
                found = scan_find_cone(fan, w)
                # on a nested-set fan the level sets give the cone exactly,
                # and no cone outside the support
                assert locate(fan, integral(w)[0]) == found
                assert find_cone(fan, w) == found
                assert pc.in_support(fan, integral(w)[0]) == scan_in_support(fan, w)


def level_set_locate(fan, W):
    """The located cone as it was read before the superset lists: for each
    proper upper level set of W, the maximal ray subsets inside it."""
    masks = [pc.fan.subset_mask(r) for r in fan.rays]
    if None in masks:
        return None
    index = sorted(((S, i) for i, S in enumerate(masks)), key=lambda t: -bin(t[0]).count("1"))
    x = tuple(W) + (0,)
    order = sorted(range(len(x)), key=x.__getitem__, reverse=True)
    cone, S = set(), 0
    for j in range(len(x) - 1):
        S |= 1 << order[j]
        if x[order[j + 1]] == x[order[j]]:
            continue
        picked = []
        for T, i in index:
            if T & S == T and not any(T & U == T for U in picked):
                picked.append(T)
                cone.add(i)
    cone = frozenset(cone)
    return cone if cone in fan.cones else None


def test_locate_matches_the_level_set_reference():
    rng = Random(11)
    fans = nested_set_fixture_fans() + subset_vector_fans_missing_rays()
    fans += [pc.boolean_bergman_fan(pc.ProjectionMap(f)) for f in ((2, 2, 1), (1, 1, 1, 1))]
    checked = located = 0
    for fan in fans:
        d = fan.ambient_dim
        points = [integral(w)[0] for cone in fan.cones for w in probe_points(rng, fan, cone)]
        # tie-heavy points, and points tied with the appended coordinate 0
        points += [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(200)]
        points += [tuple(rng.choice((0, 0, 5, -5, 9)) for _ in range(d)) for _ in range(100)]
        points += [tuple(rng.randint(-50, 50) for _ in range(d)) for _ in range(100)]
        for W in points:
            expected = level_set_locate(fan, W)
            assert locate(fan, W) == expected, (fan, W)
            checked += 1
            located += expected is not None
    assert checked > 5000 and located > checked // 2


def set_locate(fan, W):
    """locate as it was before the ray bitmask: the cone gathered as a set
    of ray indices, level by level, and looked up in `fan.cones`."""
    index = fan.subset_index()
    if index is None:
        return None
    contain, supersets = index
    x = tuple(W) + (0,)
    order = sorted(range(len(x)), key=x.__getitem__)
    cone, outside, inside = set(), 0, 0
    for k, e in enumerate(order):
        outside |= contain[e]
        if k + 1 < len(x) and x[order[k + 1]] == x[e]:
            continue
        cone.update(j for j in elements(inside & outside) if not supersets[j] & inside)
        inside = ~outside
    cone = frozenset(cone)
    return cone if cone in fan.cones else None


def test_bitmask_locate_matches_the_set_reference():
    rng = Random(12)
    fans = fixture_fans() + nested_set_fixture_fans() + subset_vector_fans_missing_rays()
    fans += random_collections()
    indexed = checked = located = 0
    for fan in fans:
        indexed += fan.subset_index() is not None
        for cone in sorted(fan.cones, key=sorted):
            for w in probe_points(rng, fan, cone):
                W = integral(w)[0]
                expected = set_locate(fan, W)
                assert locate(fan, W) == expected, (fan, w)
                checked += 1
                located += expected is not None
    assert indexed >= 20 and located > 1000 and checked - located > 1000


def test_integral_returns_integer_points_unscaled():
    for w in ((0,), (3, -2, 7), tuple(range(-5, 6))):
        assert integral(w) == (w, 1)
        assert integral(list(w)) == (w, 1)
    # bools and Fractions take the lcm path; bools come back as ints
    W, q = integral((True, False, 2))
    assert (W, q) == ((1, 0, 2), 1) and all(type(x) is int for x in W)
    assert integral((Fraction(1, 2), 3)) == ((1, 6), 2)
    assert integral((Fraction(4, 2), -3)) == ((2, -3), 1)


def test_unconfirmed_candidates_fall_back_to_the_scan():
    rng = Random(8)
    unconfirmed = 0
    for fan in subset_vector_fans_missing_rays():
        assert fan.subset_index() is not None
        points = [w for cone in fan.cones for w in probe_points(rng, fan, cone)]
        points += [random_point(rng, fan.ambient_dim, spread=5) for _ in range(40)]
        for w in points:
            located = locate(fan, integral(w)[0])
            if located is not None and not reference_cone_contains(fan, located, w):
                unconfirmed += 1
            assert find_cone(fan, w) == scan_find_cone(fan, w)
            assert pc.in_support(fan, integral(w)[0]) == scan_in_support(fan, w)
    # a candidate that is a cone not holding the point must not decide
    assert unconfirmed >= 10


def test_scan_path_without_a_subset_index():
    rng = Random(6)
    fans = scan_only_fans()
    assert len(fans) >= 10
    verdicts = set()
    for fan in fans:
        assert fan.subset_index() is None
        for cone in fan.cones:
            for w in probe_points(rng, fan, cone):
                assert locate(fan, integral(w)[0]) is None
                got = pc.in_support(fan, integral(w)[0])
                assert got == scan_in_support(fan, w)
                found = find_cone(fan, w)
                assert (found is None) == (scan_find_cone(fan, w) is None)
                verdicts.add(got)
    assert verdicts == {False, True}


def test_refines_matches_scan():
    # also against the all-cones reference, on the support pairs and on
    # fans less a maximal cone, both ways round
    fans = fixture_fans() + nested_set_fixture_fans() + scan_only_fans()
    fans += subset_vector_fans_missing_rays()
    pairs = [(fine, coarse) for fine in fans for coarse in fans
             if fine.ambient_dim == coarse.ambient_dim]
    pairs += support_pairs()
    for fine, coarse in without_a_maximal_cone(fixture_fans()):
        pairs += [(fine, coarse), (coarse, fine)]
    verdicts = []
    for fine, coarse in pairs:
        got = pc.refines(fine, coarse)
        assert got == scan_refines(fine, coarse) == reference_refines(fine, coarse), (fine, coarse)
        verdicts.append(got)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


# --- integer sampling ----------------------------------------------------------


def test_indicator_vectors_are_primitive():
    # so the fans take subset_vector as the primitive ray; E~ gives zero
    for m in range(1, 8):
        for S in range(1, 1 << m):
            v = subset_vector(S, m)
            assert primitive(v) == v
            assert any(v) == (S != (1 << m) - 1), (S, m)


def test_random_integral_point_is_the_scaled_fraction_point():
    for seed in range(300):
        for dim in range(1, 7):
            for spread in (10_000, 3):
                ours, theirs = Random(seed), Random(seed)
                got = random_integral_point(ours, dim, spread)
                assert got == integral(random_point(theirs, dim, spread))[0]
                assert all(type(x) is int for x in got)
                assert ours.getstate() == theirs.getstate()


def support_pairs():
    """Criterion 6's (fine, coarse) pairs, U(3,4) with its maximal and its
    minimal building set, and a pair whose first fan does not refine the
    second."""
    pairs = []
    for table, members in [(t, None) for t in (P1, P2, P3, P4, U34)] + [(U34, U34_MIN_BUILDING)]:
        P, coarse = fan_of(table, members)
        pairs.append((maximal_bergman_fan_direct(as_polymatroid(pc.lift(P))), coarse))
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


def subdivided_at_a_non_indicator_ray():
    """The positive quadrant, and the same quadrant cut along (1, 2): the
    second refines the first with the same support, and its rays are no
    indicator vectors, so `stellar_certificate` cannot accept the pair."""
    quadrant = pc.Fan(2, [(1, 0), (0, 1)], face_closure([{0, 1}]))
    return pc.Fan(2, [(1, 0), (0, 1), (1, 2)], face_closure([{0, 2}, {1, 2}])), quadrant


def test_same_support_matches_the_fraction_sampler():
    # wherever same_support decides, the sampler of the oracles agrees; the
    # pairs it leaves undecided here are fans less a maximal cone, which the
    # sampler refutes, and the quadrant cut along (1, 2), which it accepts
    pairs = support_pairs()
    pairs += without_a_maximal_cone({coarse for _, coarse in pairs})
    verdicts = []
    for f1, f2 in pairs:
        got = pc.same_support(f1, f2)
        sampled = sampled_same_support(f1, f2)
        assert got is None or got == sampled, (f1, f2)
        verdicts.append((pc.refines(f1, f2), got, sampled))
    assert set(verdicts) == {(True, True, True), (False, False, False), (True, None, False)}
    fine, quadrant = subdivided_at_a_non_indicator_ray()
    assert pc.same_support(fine, quadrant) is None and sampled_same_support(fine, quadrant)


def test_same_support_rejects_a_pair_that_does_not_refine_without_sampling():
    # the Boolean (2,2) fan against P3's fan, whose support it strictly
    # contains, and the quadrant against its cut along (1, 2), with the same
    # support: a sampler that drew points anywhere in space accepted the
    # second, and `refines` rejects both
    pairs = [(f1, f2) for f1, f2 in support_pairs() if not pc.refines(f1, f2)]
    fine, quadrant = subdivided_at_a_non_indicator_ray()
    pairs.append((quadrant, fine))
    assert len(pairs) == 2 and not any(pc.refines(f1, f2) for f1, f2 in pairs)
    for f1, f2 in pairs:
        assert pc.same_support(f1, f2) is False


def test_same_support_of_equal_fans_samples_nothing():
    # every support-pair fan with itself, and the nested-set fan of the
    # maximal building set with the equal fan built from chains of flats:
    # equality decides each pair, both ways round
    pairs = [(f, f) for pair in support_pairs() for f in pair]
    for table in (P1, P2, P3, P4, U34):
        P = pc.Polymatroid(table)
        pairs.append((pc.bergman_fan(pc.maximal_building_set(P)),
                      maximal_bergman_fan_direct(P)))
    for f1, f2 in pairs:
        assert f1 == f2
        assert pc.same_support(f1, f2) is True
        assert pc.same_support(f2, f1) is True
    assert sum(f1 is not f2 for f1, f2 in pairs) == 5


def test_same_support_refining_branch_rejects_a_missing_cone():
    # a fan less a maximal cone refines the whole fan, and no certificate
    # accepts it, so it is left undecided, never accepted
    for f1, f2 in without_a_maximal_cone([fan_of(P3)[1], fan_of(U34, U34_MIN_BUILDING)[1]]):
        assert pc.refines(f1, f2)
        assert pc.same_support(f1, f2) is None
        assert pc.same_support(f2, f2) is True


# --- stellar-subdivision certificate ------------------------------------------


def refining_support_pairs():
    pairs = [(fine, coarse) for fine, coarse in support_pairs()
             if fine != coarse and pc.refines(fine, coarse)]
    assert len(pairs) == 4
    return pairs


def test_stellar_certificate_holds_on_the_refining_support_pairs():
    # the chain-of-flats fans of the lifts of P3 and P4 against the fans of
    # P3 and P4, and both maximal fans of U(3,4) against its minimal one
    for fine, coarse in refining_support_pairs():
        assert stellar_certificate(fine, coarse)
        assert not stellar_certificate(coarse, fine)


@cache
def fans_less_a_maximal_cone():
    """(fine fan less one maximal cone, coarse fan) for every refining
    support pair and every random coarser building set; built once."""
    pairs = [(less, coarse) for fine, coarse in refining_support_pairs()
             for less, _ in without_a_maximal_cone([fine])]
    pairs += [(less, coarse) for fine, coarse in random_coarser_pairs()
              for less, _ in without_a_maximal_cone([fine])]
    assert len(pairs) > 100
    return pairs


def test_stellar_certificate_rejects_a_fan_less_a_maximal_cone():
    for less, coarse in fans_less_a_maximal_cone():
        assert not stellar_certificate(less, coarse)


def test_same_support_never_accepts_a_fan_less_a_maximal_cone():
    # such a fan refines the whole one, and only the certificate could
    # accept it: the pair is undecided, and the sampler refutes it
    for less, coarse in fans_less_a_maximal_cone():
        assert pc.refines(less, coarse)
        assert pc.same_support(less, coarse) is None
        assert not sampled_same_support(less, coarse)


def test_stellar_certificate_rejects_overlapping_factors():
    # the factors {0,1} and {1,2} of X = {0,1,2} overlap, so r_X is not their
    # sum; the replay of the cones alone would match the fine fan, whose
    # ray r_X lies outside the coarse support
    r01, r12, r012 = (subset_vector(X, 4) for X in (0b011, 0b110, 0b111))
    coarse = pc.Fan(3, [r01, r12], face_closure([{0, 1}]))
    fine = pc.Fan(3, [r01, r12, r012], face_closure([{0, 2}, {1, 2}]))
    assert coarse.subset_index() is not None and fine.subset_index() is not None
    assert pc.in_support(fine, r012) and not pc.in_support(coarse, r012)
    assert not stellar_certificate(fine, coarse)


def test_stellar_certificate_needs_indicator_rays_shared_rays_and_face_closure():
    # the quadrant cut at e_{0,1} passes; the same cut at (1, 2), a coarse
    # fan given by its maximal cone alone, one with a ray e_2 the fine fan
    # lacks, and one without e_1, which has no factors to be cut from, do not
    fine, quadrant = subdivided_at_a_non_indicator_ray()
    assert not stellar_certificate(fine, quadrant)
    e0, e1, e2, e01 = (subset_vector(X, 3) for X in (0b001, 0b010, 0b100, 0b011))
    coarse = pc.Fan(2, [e0, e1], face_closure([{0, 1}]))
    fine = pc.Fan(2, [e0, e1, e01], face_closure([{0, 2}, {1, 2}]))
    assert stellar_certificate(fine, coarse)
    assert not stellar_certificate(fine, pc.Fan(2, [e0, e1], [{0, 1}]))
    assert not stellar_certificate(fine, pc.Fan(2, [e0, e1, e2], face_closure([{0, 1}, {2}])))
    assert not stellar_certificate(fine, pc.Fan(2, [e0, e01], face_closure([{0, 1}])))


def K(n, k, r):
    """The polymatroid on n elements with rank(S) = min(k|S|, r)."""
    return [min(k * bin(S).count("1"), r) for S in range(1 << n)]


# K(5, 1, r) is the uniform matroid U(r, 5)
RANDOM_COARSER = [boolean_table((1, 1, 2)), boolean_table((2, 2, 1)),
                  boolean_table((1, 1, 1, 1)), U34, K(5, 1, 3), K(5, 1, 4), K(4, 2, 5)]


def random_coarser_sets(per_table=5):
    """(P, G) for G = the singletons and E, the least building set of each
    table here, and for seeded random G between it and the maximal set: it
    plus each other flat with probability 1/2, kept when it is a building
    set."""
    rng = Random(27)
    sets = []
    for table in RANDOM_COARSER:
        P = pc.Polymatroid(table)
        flats = {f for f in P.flats() if f}
        least = {1 << i for i in range(P.n)} | {P.full_mask}
        assert pc.is_geometric_building_set(P, least)[0]
        seen = {frozenset(least)}
        for _ in range(20 * per_table):
            members = frozenset(least | {f for f in sorted(flats) if rng.random() < 0.5})
            if len(seen) < per_table and members != flats \
                    and pc.is_geometric_building_set(P, members)[0]:
                seen.add(members)
        assert len(seen) == per_table, table
        sets += [(P, pc.BuildingSet(P, G)) for G in sorted(seen, key=sorted)]
    return sets


def random_coarser_pairs(per_table=5):
    """(maximal fan, fan of G) for each G of `random_coarser_sets`."""
    return [(pc.bergman_fan(pc.maximal_building_set(P)), pc.bergman_fan(G))
            for P, G in random_coarser_sets(per_table)]


def test_stellar_certificate_holds_on_random_coarser_building_sets():
    for fine, coarse in random_coarser_pairs():
        assert pc.refines(fine, coarse) and fine != coarse
        assert stellar_certificate(fine, coarse)
        assert pc.same_support(fine, coarse) is True
        assert sampled_same_support(fine, coarse, trials=200)


# --- references for the fan builders and validators as they were -----------


def all_subsets_face_closed(fan):
    """`is_face_closed` as it was: every proper subset of every cone's rays
    is a cone."""
    cones = fan.cones
    return all(frozenset(sub) in cones for c in cones for k in range(len(c))
               for sub in combinations(sorted(c), k))


def test_face_closure_by_facets_matches_the_all_subsets_reference():
    fans = fixture_fans() + nested_set_fixture_fans() + random_collections()[::6]
    refused = {"two levels down": 0, "empty cone": 0}
    for fan in fans:
        assert pc.is_face_closed(fan) is all_subsets_face_closed(fan) is True
        maxes = fan.maximal_cones()
        # each cone removed alone: only a maximal one leaves the rest closed
        for c in fan.cones:
            less = pc.Fan(fan.ambient_dim, fan.rays, fan.cones - {c})
            verdict = pc.is_face_closed(less)
            assert verdict is all_subsets_face_closed(less) is (c in maxes), (fan, sorted(c))
            if not verdict:
                refused["two levels down"] += len(c) + 2 <= max(map(len, maxes))
                refused["empty cone"] += not c
    assert refused["two levels down"] > 100 and refused["empty cone"] == len(fans)


def ray_set_nested_set_fan(building, full_mask, m):
    """`nested_set_fan` as it was: each nested set as a set of ray vectors,
    then one ray table sorted by vector and the cones as index sets."""
    ray = {g: subset_vector(g, m) for g in building.members}
    ray_sets = [frozenset(ray[g] for g in N)
                for N in pc.nested_complex(building, exclude=full_mask)]
    rays = sorted({r for s in ray_sets for r in s})
    index = {r: i for i, r in enumerate(rays)}
    return pc.Fan(m - 1, rays, {frozenset(index[r] for r in s) for s in ray_sets})


def nested_set_fan_cases():
    """The lifted building sets of the fixture tables, B(1), U(3,4)'s least G
    and the coarse G of `random_coarser_sets`, and their lifted members over
    the Boolean base where those form a building set there, as the ambient
    Kahler fan takes them."""
    sets = [building_of(t) for t in (P1, P2, P3, P4, U34, boolean_table((1,)))]
    sets += [building_of(boolean_table(f)) for f in BOOLEAN_FIBERS]
    sets.append(building_of(U34, U34_MIN_BUILDING))
    sets += [G for _, G in random_coarser_sets(per_table=2)]
    cases = []
    for G in sets:
        lifted = pc.lifted_building_set(G)
        cases.append(lifted)
        base = pc.boolean_polymatroid(pc.ProjectionMap((1,) * lifted.base.n))
        if pc.is_geometric_building_set(base, lifted.members)[0]:
            cases.append(pc.BuildingSet(base, lifted.members))
    return cases


def test_nested_set_fan_matches_the_ray_set_reference():
    cases = nested_set_fan_cases()
    boolean_base = 0
    for building in cases:
        fan = pc.nested_set_fan(building)
        reference = ray_set_nested_set_fan(building, building.base.full_mask, building.base.n)
        assert (fan.ambient_dim, fan.rays, fan.cones) == \
            (reference.ambient_dim, reference.rays, reference.cones), building
        boolean_base += isinstance(building.base, pc.Polymatroid)
    assert boolean_base > 5 and any(building.base.n == 1 for building in cases)
