from random import Random
from types import SimpleNamespace

import pytest

import polychow as pc
from polychow import kahler as kahler_module, linalg
from polychow.chow import GradedRing, poly_mul, poly_pow, reduce_poly
from polychow.fan import subset_vector
from polychow.kahler import (_hodge_riemann_form, _lefschetz_power, ambient_complete_fan,
                             nestohedron_class, nestohedron_values)
from conftest import (BOOLEAN_FIBERS, P1, P2, P3, P4, U34, U34_MIN_BUILDING, boolean_table,
                      building_of)
from oracles import (beta_class, beta_class_corank_form, deg_fy, poly_add, poly_scale,
                     reference_is_strictly_convex, sigma_cone_class)
from test_fan import face_closure, refused_complete_collections
from test_polytope import nestohedron_support


def pair_of(table, members=None):
    return pc.ChowPair(building_of(table, members))


FIXTURES = ((P1, None), (P2, None), (P3, None), (P4, None),
            (U34, U34_MIN_BUILDING))


def test_nestohedron_values_p1():
    pair = pair_of(P1)
    values = nestohedron_values(pair)
    # lifted members: two singletons and the full pair; total = 3,
    # dropped coordinate is element 1
    assert values == {0b01: -1, 0b10: 3 - 1}


def test_nestohedron_values_shift_by_total():
    for table, members in FIXTURES:
        pair = pair_of(table, members)
        values = nestohedron_values(pair)
        total = len(pair.lifted.members)
        drop = pair.proj.m - 1
        for g, v in values.items():
            count = sum(1 for h in pair.lifted.members if h & g == h)
            assert v == (total if g >> drop & 1 else 0) - count


def test_nestohedron_values_are_the_support_function():
    # values[g] is the shift minus the support function of the lifted
    # members at the indicator vector of g
    for table, members in FIXTURES + ((boolean_table((2, 2, 2)), None),):
        pair = pair_of(table, members)
        lifted = pair.lifted.members
        m = pair.proj.m
        values = nestohedron_values(pair)
        assert values
        for g, v in values.items():
            shift = len(lifted) if g >> (m - 1) & 1 else 0
            indicator = tuple(g >> i & 1 for i in range(m))
            assert v == shift - nestohedron_support(lifted, indicator)


def test_nestohedron_class_is_strictly_convex():
    for table, members in FIXTURES:
        fan, values, _ = nestohedron_class(pair_of(table, members))
        assert len(values) == len(fan.rays)
        assert pc.is_strictly_convex(fan, values)


def test_zero_function_is_not_strictly_convex():
    pair = pair_of(P3)
    ambient = ambient_complete_fan(pair)
    assert not pc.is_strictly_convex(ambient, [0] * len(ambient.rays))


def test_negated_class_is_not_strictly_convex():
    pair = pair_of(P3)
    fan, values, _ = nestohedron_class(pair)
    assert not pc.is_strictly_convex(fan, [-v for v in values])


def test_strict_convexity_requires_complete_fan():
    pair = pair_of(P3)
    fan = pc.bergman_fan(pair.G)   # not complete
    with pytest.raises(ValueError):
        pc.is_strictly_convex(fan, [0] * len(fan.rays))


def test_strict_convexity_requires_one_value_per_ray():
    fan = nestohedron_class(pair_of(P3))[0]
    for values in ([0] * (len(fan.rays) - 1), [0] * (len(fan.rays) + 1)):
        with pytest.raises(ValueError, match="one value per ray required"):
            pc.is_strictly_convex(fan, values)


def test_strict_convexity_refuses_a_wall_in_three_cones():
    fan = refused_complete_collections()["three_cones"]
    # value 1 on every ray passes the walls that lie in two cones, so only
    # the wall (1,0), in three, and (1,1), in one, can refuse
    with pytest.raises(ValueError, match="wall not shared by two cones"):
        pc.is_strictly_convex(fan, [1] * len(fan.rays))


def test_strict_convexity_matches_the_wall_relation_reference():
    # one linear form per maximal cone decides as the wall relations do on
    # the unimodular ambient fans: the classes, their perturbations and the
    # zero and negated controls
    cases = []
    for table, members in FIXTURES + ((boolean_table((1, 1, 2)), None),
                                      (boolean_table((2, 2, 2)), None)):
        fan, values, _ = nestohedron_class(pair_of(table, members))
        cases += [(fan, values), (fan, [0] * len(values)), (fan, [-v for v in values])]
    cases += [(fan, values) for _, fan, values, _ in perturbed_classes()]
    verdicts = [pc.is_strictly_convex(fan, values) for fan, values in cases]
    assert verdicts == [reference_is_strictly_convex(fan, values) for fan, values in cases]
    assert set(verdicts) == {True, False}


def test_strict_convexity_needs_no_unimodular_fan():
    # rays (1,0), (1,2), (-1,-1) of R^2: the cone of the first two has
    # determinant 2, and (1,2) + (-1,-1) = (0,1) leaves the wall (1,0), so
    # the wall relations refuse; the value 1 on every ray is the gauge of
    # the triangle on the rays, which is convex, and its negation is not
    fan = pc.Fan(2, [(1, 0), (1, 2), (-1, -1)], face_closure([{0, 1}, {1, 2}, {2, 0}]))
    with pytest.raises(ValueError, match="not unimodular"):
        reference_is_strictly_convex(fan, [1, 1, 1])
    assert pc.is_strictly_convex(fan, [1, 1, 1])
    assert not pc.is_strictly_convex(fan, [-1, -1, -1])


def test_strict_convexity_refuses_a_maximal_cone_with_dependent_rays():
    # cone((1,0), (-1,0)) has two rays but is a line; every wall lies in
    # two cones, but no linear form takes the value 1 on both of its rays
    fan = pc.Fan(2, [(1, 0), (0, 1), (-1, 0)], face_closure([{0, 1}, {1, 2}, {2, 0}]))
    with pytest.raises(ValueError, match="dependent rays"):
        pc.is_strictly_convex(fan, [1, 1, 1])


def test_rank_one_has_no_walls_and_passes():
    # U(1,1): the ambient fan is the zero cone of R^0, which has no walls
    pair = pair_of([0, 1])
    fan, values, _ = nestohedron_class(pair)
    assert fan.ambient_dim == 0 and pc.is_strictly_convex(fan, values)
    report = pc.kahler_package_report(pair)
    assert report == {"poincare_k0": True, "hard_lefschetz_k0": True,
                      "hodge_riemann_k0": True}


def test_balancing_and_strict_convexity_share_one_wall_table():
    # maximal G on a Boolean P: the lift is free, so the memoized Bergman fan
    # is its own ambient fan, and both checks read the wall table built once
    G = pc.maximal_building_set(pc.boolean_polymatroid(pc.ProjectionMap((2, 1))))
    fan = pc.bergman_fan(G)
    assert "walls" not in fan._memo
    assert pc.balancing_check(fan)
    table = fan._memo["walls"]
    ambient, values, _ = nestohedron_class(pc.ChowPair(G))
    assert ambient is fan and pc.is_strictly_convex(fan, values)
    assert fan._memo["walls"] is table


def test_top_self_intersection_is_positive():
    for table, members in FIXTURES:
        pair = pair_of(table, members)
        ell = nestohedron_class(pair)[2]
        r = pair.P.r
        assert deg_fy(pair, poly_pow(ell, r - 1)) > 0


def test_hard_lefschetz_fixtures():
    for table, members in FIXTURES:
        pair = pair_of(table, members)
        ell = nestohedron_class(pair)[2]
        for k in range((pair.P.r + 1) // 2):
            assert pc.hard_lefschetz_check(pair, ell, k)


def test_hodge_riemann_fixtures():
    for table, members in FIXTURES:
        pair = pair_of(table, members)
        ell = nestohedron_class(pair)[2]
        for k in range((pair.P.r + 1) // 2):
            assert pc.hodge_riemann_check(pair, ell, k)


def test_k_out_of_range():
    pair = pair_of(P3)
    ell = nestohedron_class(pair)[2]
    with pytest.raises(ValueError):
        pc.hard_lefschetz_check(pair, ell, 2)
    with pytest.raises(ValueError):
        pc.hodge_riemann_check(pair, ell, -1)


def test_kahler_package_report():
    for table, members in ((P1, None), (P3, None), (U34, U34_MIN_BUILDING)):
        report = pc.kahler_package_report(pair_of(table, members))
        assert report and all(report.values()), report


def test_ambient_fan_raises_for_nonboolean_lifted_set():
    # the maximal building set of U_{3,4} lifts to a collection that is
    # not a building set of the Boolean lattice
    pair = pair_of(U34)
    with pytest.raises(pc.BuildingSetError):
        ambient_complete_fan(pair)


def boolean_base_ambient_fan(pair):
    """The ambient fan by the Boolean-base route: the lifted members as a
    validated building set of the Boolean lattice, and its nested-set fan."""
    base = pc.boolean_polymatroid(pc.ProjectionMap((1,) * pair.proj.m))
    return pc.nested_set_fan(pc.BuildingSet(base, pair.lifted.members))


@pytest.mark.parametrize("table", [boolean_table((2, 2)), P4, boolean_table((1, 1, 2)),
                                   boolean_table((2, 2, 2)), boolean_table((1, 1, 1, 1, 1))])
def test_free_lift_ambient_fan_is_the_bergman_fan(table):
    pair = pair_of(table)
    ambient = ambient_complete_fan(pair)
    assert ambient is pc.bergman_fan(pair.G)
    reference = boolean_base_ambient_fan(pair)
    assert (ambient.rays, ambient.cones) == (reference.rays, reference.cones)


@pytest.mark.parametrize("fibers", BOOLEAN_FIBERS + [(2, 2, 1), (2, 2, 2), (1, 1, 1, 1, 1)])
def test_free_lift_lifted_sets_are_boolean_building_sets(fibers):
    # the lemma that lets ambient_complete_fan return a free lift's Bergman
    # fan without validating the lifted members, for the maximal G, the
    # minimal G (singletons and E) and, for n >= 3, the minimal G with {0, 1}
    proj = pc.ProjectionMap(fibers)
    P = pc.boolean_polymatroid(proj)
    minimal = [1 << i for i in range(P.n)] + [P.full_mask]
    buildings = [pc.maximal_building_set(P), pc.BuildingSet(P, minimal)]
    if P.n >= 3:
        buildings.append(pc.BuildingSet(P, minimal + [0b11]))
    base = pc.boolean_polymatroid(pc.ProjectionMap((1,) * proj.m))
    for G in buildings:
        lifted = pc.lifted_building_set(G)
        M = lifted.base
        assert M.rank(M.full_mask) == M.n
        assert pc.is_geometric_building_set(base, lifted.members) == (True, None)


def test_ambient_fan_is_built_apart_when_the_lift_is_not_free():
    pair = pair_of(U34, U34_MIN_BUILDING)
    ambient = ambient_complete_fan(pair)
    assert ambient is not pc.bergman_fan(pair.G)
    assert ambient != pc.bergman_fan(pair.G)
    reference = boolean_base_ambient_fan(pair)
    assert (ambient.rays, ambient.cones) == (reference.rays, reference.cones)


def test_sigma_cone_class_p1():
    pair = pair_of(P1)
    dp_poly, fy_poly = sigma_cone_class(pair, 1)
    assert {pair.dp.codec.exponents(m): c for m, c in dp_poly.items()} == {(1,): -1}
    full_idx = pair.fy.var_index[pair.M.full_mask]
    key = tuple(1 if i == full_idx else 0 for i in range(pair.fy.nvars))
    assert {pair.fy.codec.exponents(m): c for m, c in fy_poly.items()} == {key: -1}


def test_sigma_cone_class_p2():
    pair = pair_of(P2)
    dp_poly, _ = sigma_cone_class(pair, 1)
    # members containing the flat {0}: {0} itself and E
    x0 = pair.dp.var(1)
    xE = pair.dp.var(3)
    assert dp_poly == poly_add(poly_scale(x0, -1), poly_scale(xE, -1))
    with pytest.raises(ValueError):
        sigma_cone_class(pair, 2)


def test_beta_identity_matroids():
    # for a matroid with the maximal building set, the class of flats
    # avoiding an element agrees with the corank form in the Chow ring
    for table in (U34, [0, 1, 1, 2], [0, 1, 1, 2, 1, 2, 2, 3]):
        pair = pair_of(table)
        fy = pair.fy
        corank = reduce_poly(fy, beta_class_corank_form(pair))
        for i in range(pair.M.proj.m):
            assert reduce_poly(fy, beta_class(pair, i)) == corank


def perturbed_classes():
    """Small positive rational perturbations of the nestohedron ray values
    on P3, scaled by 1000 to integers (a positive scaling keeps strict
    convexity, HL and HR): (pair, ambient fan, ray values, degree-1 class)."""
    rng = Random(5)
    pair = pair_of(P3)
    ambient = nestohedron_class(pair)[0]
    m = pair.proj.m
    for _ in range(5):
        values_by_member = {
            g: 1000 * v + rng.randrange(0, 10)
            for g, v in nestohedron_values(pair).items()}
        values = [None] * len(ambient.rays)
        for g, v in values_by_member.items():
            values[ambient.ray_index[subset_vector(g, m)]] = v
        ell = {}
        for g, v in values_by_member.items():
            for mono, c in pair.fy.var(g).items():
                ell[mono] = ell.get(mono, 0) + v * c
        yield pair, ambient, values, ell


def test_perturbed_classes_remain_kahler():
    # small positive rational perturbations of the ray values keep the
    # function strictly convex, and HL/HR continue to hold
    for pair, fan, values, ell in perturbed_classes():
        assert pc.is_strictly_convex(fan, values)
        for k in range((pair.P.r + 1) // 2):
            assert pc.hard_lefschetz_check(pair, ell, k)
            assert pc.hodge_riemann_check(pair, ell, k)


def reference_multiplication_matrix(pair, factor_nf, src_degree, dst_degree):
    """Matrix of multiplication by a fixed element between graded pieces."""
    fy = pair.fy
    cols = [fy.coords(poly_mul(factor_nf, {m: 1}), dst_degree)
            for m in fy.basis[src_degree]]
    rows = len(fy.basis[dst_degree])
    return [[cols[j][i] for j in range(len(cols))] for i in range(rows)]


def reference_lefschetz_matrix(pair, ell, k):
    """Multiplication by nf(ell^(r-2k-1)) from degree k to degree r-1-k."""
    fy = pair.fy
    power = fy.r - 2 * k - 1
    factor = reduce_poly(fy, poly_pow(ell, power)) if power else {0: 1}
    return reference_multiplication_matrix(pair, factor, k, fy.r - 1 - k)


def reference_hodge_riemann_form(pair, ell, k):
    """The form deg(ell^(r-2k-1) m_i m_j) reduced monomial pair by monomial
    pair, the kernel of multiplication by nf(ell^(r-2k)), and the Gram
    matrix as a double sum."""
    fy = pair.fy
    r = fy.r
    basis = fy.basis[k]
    dim = len(basis)
    power = r - 2 * k - 1
    factor = reduce_poly(fy, poly_pow(ell, power)) if power else {0: 1}
    sign = -1 if k % 2 else 1
    form = [[sign * deg_fy(pair, poly_mul(factor, poly_mul({m1: 1}, {m2: 1})))
             for m2 in basis] for m1 in basis]
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    if k == 0:
        kernel = identity    # the target degree r vanishes
    else:
        matrix = reference_multiplication_matrix(
            pair, reduce_poly(fy, poly_pow(ell, r - 2 * k)), k, r - k)
        kernel = linalg.kernel_basis(matrix, dim) if matrix else identity
    gram = [[sum(u[i] * form[i][j] * v[j] for i in range(dim) for j in range(dim))
             for v in kernel] for u in kernel]
    return form, kernel, gram


def test_lefschetz_matrices_match_power_reference():
    # the products of one-step Lefschetz matrices equal the matrices of the
    # reduced powers of ell, entry by entry, for every admissible k
    cases = []
    for table, members in FIXTURES + ((boolean_table((1, 1, 2)), None),
                                      (boolean_table((2, 2, 2)), None)):
        pair = pair_of(table, members)
        cases.append((pair, nestohedron_class(pair)[2]))
    cases += [(pair, ell) for pair, _, _, ell in perturbed_classes()]
    for pair, ell in cases:
        r = pair.fy.r
        for k in range((r + 1) // 2):
            assert _lefschetz_power(pair, ell, k, r - 2 * k - 1) \
                == reference_lefschetz_matrix(pair, ell, k)
            assert _hodge_riemann_form(pair, ell, k) \
                == reference_hodge_riemann_form(pair, ell, k)


def test_lefschetz_powers_read_the_class_modulo_the_ideal():
    # kahler_package_report multiplies by the class's FY normal form: the
    # matrices equal those of the raw class, as normal forms are linear
    for table, members in FIXTURES + ((boolean_table((1, 1, 2)), None),
                                      (boolean_table((2, 2, 2)), None)):
        pair = pair_of(table, members)
        raw = nestohedron_class(pair)[2]
        reduced = reduce_poly(pair.fy, raw)
        assert reduced != raw
        r = pair.fy.r
        for k in range(r):
            for p in range(r - k):
                assert _lefschetz_power(pair, raw, k, p) == _lefschetz_power(pair, reduced, k, p)


def test_hard_lefschetz_fails_for_zero_class():
    # a positive power of the zero class is the zero map; at the middle
    # degree of P3 the power is ell^0 = 1
    assert [pc.hard_lefschetz_check(pair_of(P3), {}, k) for k in (0, 1)] == [False, True]
    assert [pc.hard_lefschetz_check(pair_of(P4), {}, k) for k in (0, 1)] == [False, False]


def test_hodge_riemann_fails_for_negated_class():
    # with rank 2 the form at k = 0 is deg(-ell a b), which is negative
    pair = pair_of(P2)
    ell = nestohedron_class(pair)[2]
    neg = poly_scale(ell, -1)
    assert not pc.hodge_riemann_check(pair, neg, 0)


def test_report_matches_per_degree_checks():
    # the report's verdicts are the public per-k checks, each on a fresh pair
    for table, members in FIXTURES + ((boolean_table((1, 1, 2)), None),
                                      (boolean_table((2, 2, 2)), None)):
        report = pc.kahler_package_report(pair_of(table, members))
        pair = pair_of(table, members)
        ell = nestohedron_class(pair)[2]
        expected = {}
        for k in range((pair.fy.r + 1) // 2):
            matrix = pc.pairing_matrix(pair, k, ring="fy")
            expected["poincare_k%d" % k] = linalg.det(matrix) in (1, -1)
            expected["hard_lefschetz_k%d" % k] = pc.hard_lefschetz_check(pair, ell, k)
            expected["hodge_riemann_k%d" % k] = pc.hodge_riemann_check(pair, ell, k)
        assert report == expected


def test_lefschetz_steps_are_built_once_per_pair_and_class(monkeypatch):
    # the report on B(2,2,2) (r = 6) multiplies ell by each basis monomial of
    # degrees 0..r-2 once: one build of each one-step matrix, 47 products.
    # Its powers (k, p) are those of hard Lefschetz, p = r-2k-1, those of
    # the Hodge-Riemann kernels, p = r-2k for k >= 1, the shorter powers
    # they are built from, and the one-step matrices L_d = (d, 1)
    pair = pair_of(boolean_table((2, 2, 2)))
    products = []
    real_mul = kahler_module.poly_mul
    monkeypatch.setattr(kahler_module, "poly_mul",
                        lambda p, q: products.append(q) or real_mul(p, q))
    assert all(pc.kahler_package_report(pair).values())
    r = pair.fy.r
    assert len(products) == sum(len(pair.fy.basis[d]) for d in range(r - 1)) == 47
    powers = {key[2:] for key in pair.G._memo if key[0] == "lefschetz"}
    assert powers == ({(0, p) for p in range(1, 6)} | {(1, p) for p in range(1, 5)}
                      | {(2, 1), (2, 2), (3, 1), (4, 1)})


def test_each_lefschetz_power_is_built_once_per_report(monkeypatch):
    # a report multiplies matrices once for each power p > 1 it builds, and
    # three times per degree k for the Hodge-Riemann form and Gram matrix;
    # a second report on the same G, through a second pair, builds no power again
    results = []
    real_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul",
                        lambda A, B: results.append(real_mul(A, B)) or results[-1])
    for table in (P3, P4, boolean_table((1, 1, 2)), boolean_table((2, 2, 2))):
        pair = pair_of(table)
        results.clear()
        assert all(pc.kahler_package_report(pair).values())
        built = [power for key, power in pair.G._memo.items()
                 if key[0] == "lefschetz" and key[3] > 1]
        degrees = (pair.fy.r + 1) // 2
        assert len(results) == len(built) + 3 * degrees
        assert all(sum(x is power for x in results) == 1 for power in built)
        results.clear()
        assert all(pc.kahler_package_report(pc.ChowPair(pair.G)).values())
        assert len(results) == 3 * degrees


def test_pairs_of_one_g_share_the_lefschetz_powers():
    G = building_of(boolean_table((2, 2, 2)))
    first, second = pc.ChowPair(G), pc.ChowPair(G)
    ell = reduce_poly(first.fy, nestohedron_class(first)[2])
    for k in range(first.fy.r - 1):
        for p in range(first.fy.r - k):
            assert _lefschetz_power(first, ell, k, p) is _lefschetz_power(second, ell, k, p)


def test_second_check_reads_no_coordinates(monkeypatch):
    calls = []
    real_coords = GradedRing.coords
    monkeypatch.setattr(GradedRing, "coords",
                        lambda ring, poly, d: calls.append(d) or real_coords(ring, poly, d))
    for table, members in FIXTURES:
        pair = pair_of(table, members)
        ell = nestohedron_class(pair)[2]
        ks = range((pair.fy.r + 1) // 2)
        first = [(pc.hard_lefschetz_check(pair, ell, k), pc.hodge_riemann_check(pair, ell, k))
                 for k in ks]
        assert calls
        calls.clear()
        # an equal class in a new dict finds the same memoized steps
        second = [(pc.hard_lefschetz_check(pair, dict(ell), k),
                   pc.hodge_riemann_check(pair, dict(ell), k)) for k in ks]
        assert second == first and calls == []


def test_hard_lefschetz_reads_no_pairing_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hard Lefschetz read the pairing matrix")
    monkeypatch.setattr(kahler_module, "pairing_matrix", refuse)
    for table, members in FIXTURES:
        pair = pair_of(table, members)
        ell = nestohedron_class(pair)[2]
        assert all(pc.hard_lefschetz_check(pair, ell, k)
                   for k in range((pair.fy.r + 1) // 2))
    assert [pc.hard_lefschetz_check(pair_of(P3), {}, k) for k in (0, 1)] == [False, True]


def test_hard_lefschetz_refuses_unequal_degrees_without_a_product(monkeypatch):
    # degrees 0 and 2 of this stand-in ring differ in size, so the verdict
    # is False before any Lefschetz matrix or pairing is read
    def refuse(*args, **kwargs):
        raise AssertionError("built a Lefschetz product")
    monkeypatch.setattr(kahler_module, "_lefschetz_power", refuse)
    monkeypatch.setattr(kahler_module, "pairing_matrix", refuse)
    pair = SimpleNamespace(fy=SimpleNamespace(r=3, basis=[[0], [0, 1], [0, 1]]))
    assert pc.hard_lefschetz_check(pair, {}, 0) is False
