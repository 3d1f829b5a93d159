from bisect import insort
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest

import polychow as pc
from polychow import chow as chow_module, linalg
from polychow.bitsets import canonical_key
from polychow.chow import (Codec, DivisorIndex, GradedRing, _standard_monomials,
                           pairing_det, poly_mul, poly_pow, reduce_poly)
from conftest import (P1, P2, P3, P4, U34, U34_MIN_BUILDING, B111_MIN_BUILDING, boolean_table,
                      building_of, small_family)
from oracles import deg_dp, deg_fy, degree, pack, poly_add, poly_scale, zring_hilbert


# --- references over exponent tuples, the monomials before packing ----------


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(d, m):
    return all(x <= y for x, y in zip(d, m))


def mono_quotient(m, d):
    return tuple(y - x for x, y in zip(d, m))


def tuple_poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def tuple_first_divisor(m, leads):
    return next((i for i, lt in enumerate(leads) if mono_divides(lt, m)), None)


def tuple_reduce_poly(p, groebner):
    """The worklist normal form over exponent tuples (less the support-mask
    prefilter, which only skipped leading terms that cannot divide)."""
    leads = [lt for lt, _ in groebner]
    p = dict(p)
    work = sorted(p)
    while work:
        m = work.pop()
        c = p.get(m)
        if c is None:
            continue
        i = tuple_first_divisor(m, leads)
        if i is None:
            continue
        lt, g = groebner[i]
        shift = mono_quotient(m, lt)
        for gm, gc in g.items():
            key = mono_mul(gm, shift)
            old = p.get(key)
            v = (old or 0) - c * gc
            if v:
                p[key] = v
                if old is None:
                    insort(work, key)
            else:
                p.pop(key, None)
    return p


def tuple_standard_monomials(nvars, leading_terms, stop):
    """Standard monomials over exponent tuples, grown as an order ideal."""
    layers = []
    layer = [((0,) * nvars, 0)]
    for d in range(stop):
        layers.append(tuple(sorted((m for m, _ in layer), reverse=True)))
        if d + 1 == stop:
            break
        grown = []
        for m, first in layer:
            for i in range(first, nvars):
                n = m[:i] + (m[i] + 1,) + m[i + 1:]
                if tuple_first_divisor(n, leading_terms) is None:
                    grown.append((n, i))
        layer = grown
    return layers


def unpacked(ring, p):
    return {ring.codec.exponents(m): c for m, c in p.items()}


def unpacked_groebner(ring, groebner):
    return [(ring.codec.exponents(lt), unpacked(ring, g)) for lt, g in groebner]


def unpacked_basis(ring):
    return tuple(tuple(map(ring.codec.exponents, b)) for b in ring.basis)


def pair_of(table, members=None):
    return pc.ChowPair(building_of(table, members))


def test_hilbert_fixtures():
    assert pair_of(P1).dp.hilbert() == (1, 1)
    assert pair_of(P3).dp.hilbert() == (1, 3, 1)
    assert pair_of(U34).dp.hilbert() == (1, 7, 1)
    assert pair_of(U34, U34_MIN_BUILDING).dp.hilbert() == (1, 1, 1)


def test_chow_pair_reads_the_dp_ring_memoized_on_g():
    pair = pair_of(P3)
    assert pair.dp is pc.dp_ring(pair.G)
    assert pc.ChowPair(pair.G).dp is pair.dp


def test_hilbert_symmetry():
    for table in (P1, P2, P3, P4 := [0, 2, 2, 4], U34):
        pair = pair_of(table)
        h = pair.dp.hilbert()
        assert h == h[::-1]
        assert h == pair.fy.hilbert()


def test_dp_fy_same_hilbert_second_building_set():
    pair = pair_of(U34, U34_MIN_BUILDING)
    assert pair.dp.hilbert() == pair.fy.hilbert() == (1, 1, 1)


def test_generators_reduce_to_zero():
    for table in (P1, P2, P3):
        pair = pair_of(table)
        for ring in (pair.dp, pair.fy):
            for lt, g in ring.groebner:
                assert max(g) == lt
                assert reduce_poly(ring, g) == {}


def test_dp_reduction_examples():
    # P2 has flats {0} and E; the linear relation makes x_{{0}} a
    # multiple of x_E in degree one
    pair = pair_of(P2)
    dp = pair.dp
    x0 = dp.var(1)
    xE = dp.var(3)
    # both normal forms live in the one-dimensional degree-1 piece
    assert len(dp.basis[1]) == 1
    assert dp.coords(x0, 1) is not None
    # squarefree product with the full set vanishes
    assert reduce_poly(dp, poly_mul(x0, xE)) == {} or deg_dp(pair, poly_mul(x0, xE)) == 0


def test_dp_p3_square_is_standard():
    pair = pair_of(P3)
    dp = pair.dp
    xE = dp.var(3)
    sq = reduce_poly(dp, poly_mul(xE, xE))
    assert sq  # x_E^2 does not vanish; the top piece is 1-dimensional
    assert deg_dp(pair, poly_mul(xE, xE)) != 0


def test_nested_basis_matches_standard_monomials():
    for table, members in ((P1, None), (P2, None), (P3, None),
                           (U34, None), (U34, U34_MIN_BUILDING)):
        G = building_of(table, members)
        assert tuple(tuple(sorted(b, reverse=True)) for b in unpacked_basis(pc.dp_ring(G))) \
            == pc.nested_basis(G)


def test_zring_agrees_with_fy_on_maximal_building_set():
    for table in (P1, P2, P3):
        P = pc.Polymatroid(table)
        assert zring_hilbert(P) == pc.fy_ring(pc.maximal_building_set(P)).hilbert()


def test_degree_normalizer_signs():
    pair1 = pair_of(P1)
    assert pair1.degree_normalizer() == -1
    pair3 = pair_of(P3)
    assert pair3.degree_normalizer() == 1


def test_degree_values_p1():
    pair = pair_of(P1)
    fy = pair.fy
    atoms = [f for f in fy.var_flats if bin(f).count("1") == 1]
    full = pair.M.full_mask
    for a in atoms:
        assert deg_fy(pair, fy.var(a)) == 1
    assert deg_fy(pair, fy.var(full)) == -1


def test_degree_one_on_every_maximal_cone():
    for table in (P1, P2, P3, U34):
        pair = pair_of(table)
        fy = pair.fy
        for m in pair.maximal_nested_monomials():
            assert degree(fy.codec, m) == pair.P.r - 1
            assert deg_fy(pair, {m: 1}) == 1


def test_pairing_matrices_unimodular():
    for table, members in ((P1, None), (P2, None), (P3, None),
                           (U34, None), (U34, U34_MIN_BUILDING)):
        pair = pair_of(table, members)
        r = pair.P.r
        for k in range(r):
            for ring in ("dp", "fy"):
                matrix = pc.pairing_matrix(pair, k, ring=ring)
                if not matrix:
                    continue
                assert len(matrix) == len(matrix[0])
                assert linalg.det(matrix) in (1, -1)


PAIRING_FIXTURES = [(P1, None), (P2, None), (P3, None), (P4, None), (U34, None),
                    (U34, U34_MIN_BUILDING), (boolean_table((1, 1, 2)), None),
                    (boolean_table((2, 2, 1)), None)]


def reference_pairing_matrix(pair, k, ring):
    """deg(m1 m2) for every pair of basis monomials, from `deg_dp`/`deg_fy`."""
    R = pair.dp if ring == "dp" else pair.fy
    deg = deg_dp if ring == "dp" else deg_fy
    return tuple(tuple(deg(pair, {m1 + m2: 1}) for m2 in R.basis[R.top - k]) for m1 in R.basis[k])


@pytest.mark.parametrize("table,members", PAIRING_FIXTURES)
def test_pairing_matrices_match_degrees_and_mirror(table, members):
    pair = pair_of(table, members)
    top = pair.fy.top
    for ring in ("dp", "fy"):
        for k in range(top + 1):
            matrix = pc.pairing_matrix(pair, k, ring=ring)
            assert matrix == reference_pairing_matrix(pair, k, ring)
            assert all(type(x) is int for row in matrix for x in row)
            assert matrix == tuple(zip(*pc.pairing_matrix(pair, top - k, ring=ring)))
            square = len(matrix) == len(matrix[0])
            assert pairing_det(pair, k, ring) == (linalg.det(matrix) if square else 0)


def test_non_integral_pairing_value_raises(monkeypatch):
    monkeypatch.setattr(pc.ChowPair, "degree_normalizer", lambda self: 2)
    with pytest.raises(AssertionError, match="non-integral pairing value"):
        pc.pairing_matrix(pair_of(P2), 0)


def count_normalizer_builds(monkeypatch):
    calls = []
    build = pc.ChowPair.maximal_nested_monomials

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(pc.ChowPair, "maximal_nested_monomials", counted)
    return calls


def read_every_pairing(pair):
    for ring in ("dp", "fy"):
        for k in range(pair.P.r):
            pairing_det(pair, k, ring)
    pair.degree_normalizer()


def test_degree_normalizer_is_shared_by_the_pairs_of_one_g(monkeypatch):
    calls = count_normalizer_builds(monkeypatch)
    G = building_of(P3)
    first, second = pc.ChowPair(G), pc.ChowPair(G)
    read_every_pairing(first)
    read_every_pairing(second)
    assert calls == [first]


def test_both_rings_read_one_degree_table_per_g():
    # both rings' pairings read the degrees of FY monomials from one table
    # memoized on G: on these rings every FY product the FY pairings need
    # already occurs in the phi image of a DP product, so once one pair has
    # read the DP pairings a second pair of the same G adds no degree
    for table in (U34, boolean_table((2, 2)), boolean_table((2, 2, 2))):
        G = pc.maximal_building_set(pc.Polymatroid(table))
        first = pc.ChowPair(G)
        for k in range(first.P.r):
            pc.pairing_matrix(first, k, "dp")
        degrees = dict(G._memo["degree"])
        second = pc.ChowPair(G)
        for k in range(second.P.r):
            pc.pairing_matrix(second, k, "fy")
        assert G._memo["degree"] == degrees and degrees, table


def test_g_keyed_builders_read_p_and_the_lift_off_g():
    # everything built from (P, G) is read off G and memoized on it, so two
    # polymatroids with one rank table keep separate memos
    P, Q = pc.Polymatroid(P3), pc.Polymatroid(P3)
    assert P == Q and P is not Q
    G, H = pc.maximal_building_set(P), pc.maximal_building_set(Q)
    assert G.base is P and H.base is Q
    assert pc.lifted_building_set(G).base is pc.lift(P)
    assert pc.lifted_building_set(H).base is pc.lift(Q) is not pc.lift(P)
    pair = pc.ChowPair(G)
    assert pair.P is P and pair.M is pc.lift(P) and pair.lifted is pc.lifted_building_set(G)
    for build in (pc.bergman_fan, pc.dp_ring, pc.fy_ring, pc.lifted_building_set):
        assert build(G) is build(G) is not build(H)
    assert pc.ChowPair(H).fy is not pair.fy


def test_phi_iso_check_fixtures():
    for table, members in ((P1, None), (P2, None), (P3, None),
                           (U34, U34_MIN_BUILDING)):
        assert pc.phi_iso_check(pair_of(table, members))


def test_phi_iso_check_second_building_set_b111():
    P = pc.Polymatroid(boolean_table((1, 1, 1)))
    G = pc.BuildingSet(P, [1, 2, 4, 7])
    assert pc.phi_iso_check(pc.ChowPair(G))


def test_phi_preserves_degrees():
    pair = pair_of(P3)
    for d in range(pair.P.r):
        for m in pair.dp.basis[d]:
            image = pair.phi({m: 1})
            coords = pair.fy.coords(image, d)
            assert any(coords)


def s_polynomials(ring):
    """S-polynomials of generator pairs whose lcm lies below degree 2r-1."""
    gb = ring.groebner
    for i, (lt1, g1) in enumerate(gb):
        for lt2, g2 in gb[i + 1:]:
            lcm = tuple(map(max, ring.codec.exponents(lt1), ring.codec.exponents(lt2)))
            if sum(lcm) < 2 * ring.r - 1:
                lcm = pack(ring.codec, lcm)
                yield poly_add(
                    poly_mul({lcm - lt1: 1}, g1),
                    poly_scale(poly_mul({lcm - lt2: 1}, g2), -1))


def test_truncation_guard_trips_on_missing_relations():
    # feeding a ring an empty generator list leaves standard monomials in
    # high degrees and must raise
    with pytest.raises(AssertionError, match="degree 2"):
        GradedRing("dp", [1, 3], 2, [])


def test_truncation_guard_checks_nothing_in_rank_one():
    # for r = 1 no product of basis elements leaves degree 0
    assert GradedRing("dp", [1], 1, []).hilbert() == (1,)


def test_coords_requires_homogeneous_basis_element():
    pair = pair_of(P3)
    with pytest.raises(ValueError):
        pair.dp.coords({0: 1}, 1)


def test_coords_and_degree_read_reduce_poly(monkeypatch):
    # every normal-form read goes through the module's reduce_poly, the
    # function the per-layer trace times: coords, and degree through it
    calls = []

    def counted(ring, p):
        calls.append(p)
        return reduce_poly(ring, p)

    monkeypatch.setattr(chow_module, "reduce_poly", counted)
    pair = pair_of(U34)
    fy = pair.fy
    b = fy.basis[1][0]
    assert fy.coords({b: 1}, 1) == [1] + [0] * (len(fy.basis[1]) - 1)
    assert calls == [{b: 1}]
    pair.degree_normalizer()
    m = fy.basis[fy.top][0]
    del calls[:]
    pair.degree(m)
    assert calls == [{m: 1}]


KERNEL_FIXTURES = ((P1, None), (P2, None), (P3, None), (U34, None),
                   (U34, U34_MIN_BUILDING), (boolean_table((1, 1, 2)), None),
                   (boolean_table((2, 2, 2, 2)), [1, 2, 4, 8, 15]))


def rescan_reduce_poly(p, groebner):
    """Reference normal form: rescan p for its largest reducible term after
    every reduction step."""
    p = dict(p)
    while True:
        target = None
        for m in sorted(p, reverse=True):
            for lt, g in groebner:
                if mono_divides(lt, m):
                    target = (m, lt, g)
                    break
            if target:
                break
        if target is None:
            return p
        m, lt, g = target
        c = p[m]
        shift = mono_quotient(m, lt)
        for gm, gc in g.items():
            key = mono_mul(gm, shift)
            v = p.get(key, 0) - c * gc
            if v:
                p[key] = v
            else:
                p.pop(key, None)


def kernel_pairs():
    for table, members in KERNEL_FIXTURES:
        yield pair_of(table, members)


def kernel_rings():
    for pair in kernel_pairs():
        yield pair.dp
        yield pair.fy


def rescan_nf(ring, p):
    """`rescan_reduce_poly` against the ring's generators, packed back."""
    gb = unpacked_groebner(ring, ring.groebner)
    return {pack(ring.codec, m): c for m, c in rescan_reduce_poly(unpacked(ring, p), gb).items()}


def power_relation_probes(ring):
    """For each leading term x_N x_g^d with d >= 2, the monomial with one x_g
    fewer, alone and times each variable outside x_g: the leading term's
    support lies inside the monomial's, so a test of supports alone passes,
    but the exponent of x_g is below d, so the leading term does not divide
    it."""
    for lt, _ in ring.groebner:
        lt = ring.codec.exponents(lt)
        for g, d in enumerate(lt):
            if d < 2:
                continue
            m = lt[:g] + (d - 1,) + lt[g + 1:]
            grown = [m[:i] + (m[i] + 1,) + m[i + 1:] for i in range(ring.nvars) if i != g]
            for probe in [m] + grown:
                assert all(y for x, y in zip(lt, probe) if x)
                assert not mono_divides(lt, probe)
                yield {pack(ring.codec, probe): 1}


def basis_products(ring):
    return [poly_mul({m1: 1}, {m2: 1})
            for d1 in range(ring.r) for d2 in range(d1, ring.r - d1)
            for m1 in ring.basis[d1] for m2 in ring.basis[d2]]


def test_reduce_poly_matches_rescan_reference():
    # the table normal form equals the rescan reference over exponent
    # tuples as dicts, on products of basis elements, S-polynomials,
    # power-relation probes and, in FY, the images of the DP generators
    probes = images = 0
    for pair in kernel_pairs():
        for ring in (pair.dp, pair.fy):
            edge = list(power_relation_probes(ring))
            probes += len(edge)
            inputs = basis_products(ring) + list(s_polynomials(ring)) + edge
            if ring is pair.fy:
                phis = [pair.phi(g) for _, g in pair.dp.groebner]
                images += len(phis)
                inputs += phis
            for p in inputs:
                assert reduce_poly(ring, p) == rescan_nf(ring, p)
    assert probes == 658 and images > 0


def test_spair_confluence_spot_check():
    # pairs of Groebner generators of either presentation reduce their
    # S-polynomial to zero below degree 2r-1 (the Buchberger criterion in
    # the degrees the rings compute in)
    for ring in kernel_rings():
        for s in s_polynomials(ring):
            assert reduce_poly(ring, s) == {}


def nf_coords(ring, nf, degree):
    """Reference coordinates: a normal form read off the basis."""
    index = ring.basis_index[degree] if degree < ring.r else {}
    vec = [0] * len(index)
    for m, c in nf.items():
        vec[index[m]] = c
    return vec


def test_table_matches_reduce_poly():
    # table normal forms and coordinates against the rescan reference, on
    # products of basis elements, Lefschetz inputs ell * b (degrees 1..r)
    # and power-relation probes below degree r
    for ring in kernel_rings():
        ell = {ring.codec.units[i]: i + 1 for i in range(ring.nvars)}
        inputs = basis_products(ring)
        inputs += [poly_mul(ell, {b: 1}) for d in range(ring.r) for b in ring.basis[d]]
        inputs += [p for p in power_relation_probes(ring)
                   if degree(ring.codec, next(iter(p))) < ring.r]
        for p in inputs:
            d = degree(ring.codec, next(iter(p)))
            expected = rescan_nf(ring, p)
            assert reduce_poly(ring, p) == expected
            assert ring.coords(p, d) == nf_coords(ring, expected, d)
        # a non-homogeneous input whose normal form is homogeneous: terms of
        # degree 2 that cancel only after reduction, and a degree-r
        # monomial, which reduces to zero
        if ring.r >= 3:
            b = ring.basis[1][0]
            lb = poly_mul(ell, {b: 1})
            p = poly_add(poly_add({b: 1}, lb), poly_scale(rescan_nf(ring, lb), -1))
            p[pack(ring.codec, (ring.r,) + (0,) * (ring.nvars - 1))] = 5
            assert reduce_poly(ring, p) == {b: 1} == rescan_nf(ring, p)
            assert ring.coords(p, 1) == nf_coords(ring, {b: 1}, 1)


def nf_phi_iso_check(pair):
    """Reference isomorphism check: the product stage compares normal forms
    as dicts, phi of the DP product against the product of the images."""
    dp, fy = pair.dp, pair.fy
    for _, g in dp.groebner:
        if reduce_poly(fy, pair.phi(g)):
            return False
    for d in range(dp.r):
        if len(dp.basis[d]) != len(fy.basis[d]):
            return False
        cols = [nf_coords(fy, reduce_poly(fy, pair.phi({m: 1})), d) for m in dp.basis[d]]
        if cols and (len(cols[0]) != len(cols) or linalg.det(cols) == 0):
            return False
    for d1 in range(dp.r):
        for d2 in range(d1, dp.r - d1):
            for m1 in dp.basis[d1]:
                for m2 in dp.basis[d2]:
                    image = reduce_poly(fy, pair.phi(reduce_poly(dp, poly_mul({m1: 1}, {m2: 1}))))
                    direct = reduce_poly(fy, poly_mul(pair.phi({m1: 1}), pair.phi({m2: 1})))
                    if image != direct:
                        return False
    return True


def degree_scaled(pair, scale):
    """The pair with phi multiplied by scale(d) on degree-d monomials."""
    phi, codec = pair.phi, pair.fy.codec
    pair.phi = lambda poly: {m: scale(degree(codec, m)) * c for m, c in phi(poly).items()
                             if scale(degree(codec, m))}
    return pair


def last_variable_doubled(pair):
    """The pair with phi doubled on the DP monomial of the last variable
    alone, so that phi is linear and bijective in each degree but not
    multiplicative."""
    phi, x = pair.phi, pair.dp.codec.units[-1]
    pair.phi = lambda poly: poly_add(phi(poly), phi({x: poly[x]})) if x in poly else phi(poly)
    return pair


def variables_swapped(pair, i, j):
    """The pair with the images of DP variables i and j exchanged."""
    pair.image(0)                    # builds the translation
    units = pair.G._memo["translation"][1]
    units[i], units[j] = units[j], units[i]
    return pair


def basis_image_repeated(pair, d):
    """The pair whose `image` sends the first degree-d DP basis monomial to
    the image of the second and every other monomial as before, so that
    the images of the DP basis repeat a column."""
    first, second = pair.dp.basis[d][:2]
    image = pair.image
    pair.image = lambda m: image(second if m == first else m)
    return pair


def generator_dropped(pair, i):
    """The pair whose DP ring lacks the i-th generator, or None when the
    truncated generator set then leaves standard monomials in degree r."""
    dp = pair.dp
    try:
        pair.G._memo["dp"] = GradedRing("dp", dp.var_flats, dp.r,
                                        dp.groebner[:i] + dp.groebner[i + 1:])
    except AssertionError:
        return None
    return pair


K425 = [min(2 * bin(S).count("1"), 5) for S in range(16)]
# the pairs of acceptance criterion 8
CRITERION_8 = [(t, None) for t in (P1, P2, P3, boolean_table((1, 1)), boolean_table((1, 2)),
                                   boolean_table((1, 1, 1)), boolean_table((1, 1, 2)))] + [
    (boolean_table((1, 1, 1)), B111_MIN_BUILDING), (boolean_table((1, 1, 2)), [1, 2, 4, 7]),
    (U34, U34_MIN_BUILDING)]
ISO_CASES = KERNEL_FIXTURES + ((boolean_table((2, 2, 2)), None), (K425, None)) + tuple(CRITERION_8)


def multiplicative_on_basis(pair):
    """Whether phi of each product of two DP basis monomials is the product
    of their images."""
    dp = pair.dp
    return all(pair.phi({m1 + m2: 1}) == poly_mul(pair.phi({m1: 1}), pair.phi({m2: 1}))
               for d1 in range(dp.r) for d2 in range(d1, dp.r - d1)
               for m1 in dp.basis[d1] for m2 in dp.basis[d2])


def test_phi_iso_check_matches_nf_reference():
    for table, members in ISO_CASES:
        pair = pair_of(table, members)
        assert pc.phi_iso_check(pair) is nf_phi_iso_check(pair) is True
    rejected = [
        # images of two variables exchanged: a generator leaves the FY ideal
        variables_swapped(pair_of(P3), 0, 2),
        # two degree-one images equal: the DP basis no longer maps to a basis
        basis_image_repeated(pair_of(P3), 1),
    ]
    # P3's variables are terms of no DP generator, so the generators keep
    # their images and only the basis stage rejects that pair
    pair = rejected[-1]
    assert not any(reduce_poly(pair.fy, pair.phi(g)) for _, g in pair.dp.groebner)
    # a DP generator of degree < r missing: its leading term becomes
    # standard, so some degree has more DP basis monomials than FY ones
    for table in (P3, boolean_table((2, 2, 2))):
        dp = pair_of(table).dp
        dropped = [generator_dropped(pair_of(table), i) for i, (lt, _) in enumerate(dp.groebner)
                   if degree(dp.codec, lt) < dp.r]
        assert any(dropped)
        rejected += filter(None, dropped)
    for pair in rejected:
        assert pc.phi_iso_check(pair) is nf_phi_iso_check(pair) is False


def test_phi_is_multiplicative_on_basis_products():
    # phi_iso_check relies on phi being a ring homomorphism and checks no
    # products; these mutants are linear, bijective in each degree and send
    # the ideal into the ideal, but are not multiplicative, so only the
    # product stage of the reference check rejects them
    for table, members in ISO_CASES:
        assert multiplicative_on_basis(pair_of(table, members)), (table, members)
    mutants = [
        # the top degree doubled
        degree_scaled(pair_of(P3), lambda d: 2 if d == 2 else 1),
        degree_scaled(pair_of(boolean_table((2, 2, 2))), lambda d: 2 if d == 5 else 1),
        # a middle degree doubled, where the FY columns are dense
        degree_scaled(pair_of(boolean_table((2, 2, 2))), lambda d: 2 if d == 3 else 1),
        # x_E doubled in degree one only: the generators and the columns
        # agree, and only products with another monomial show it
        last_variable_doubled(pair_of(P3)),
        last_variable_doubled(pair_of(boolean_table((2, 2, 2)))),
    ]
    for pair in mutants:
        assert not multiplicative_on_basis(pair)
        assert nf_phi_iso_check(pair) is False


def test_pairing_matrices_match_the_phi_reference():
    # both presentations read deg(a_i + b_j) over FY monomials, the DP rows
    # and columns being images; the reference sends each DP product m1 + m2
    # through phi and reads its degree from its FY coordinates
    for table, members in ISO_CASES:
        pair = pair_of(table, members)
        for ring in ("dp", "fy"):
            for k in range(pair.P.r):
                assert pc.pairing_matrix(pair, k, ring) == reference_pairing_matrix(
                    pair, k, ring), (table, members, ring, k)


def test_image_is_additive_on_basis_monomials():
    for table, members in ISO_CASES:
        pair = pair_of(table, members)
        basis = [m for layer in pair.dp.basis for m in layer]
        for m1 in basis:
            for m2 in basis:
                assert pair.image(m1 + m2) == pair.image(m1) + pair.image(m2), (table, m1, m2)


def test_pairs_of_one_g_share_the_pairing_matrices():
    G = building_of(boolean_table((2, 2, 2)))
    first, second = pc.ChowPair(G), pc.ChowPair(G)
    assert not hasattr(first, "_memo")
    for ring in ("dp", "fy"):
        for k in range(G.base.r):
            assert pc.pairing_matrix(first, k, ring) is pc.pairing_matrix(second, k, ring)
            assert pairing_det(first, k, ring) == pairing_det(second, k, ring)


def scan_dp_groebner(P, G):
    """Reference DP generators: for every member g, every subset S of the
    members of size at most 2r-1 gives x_S x_g^b with b = max(0, rk(g) -
    rk(union of the members of S strictly below g)); keep one generator per
    minimal leading monomial, ordered by (degree, monomial)."""
    members = sorted(G.members, key=canonical_key)
    index = {f: i for i, f in enumerate(members)}
    limit = 2 * P.r - 1

    def mono_of(flats, extra=None, power=0):
        exps = [0] * len(members)
        for f in flats:
            exps[index[f]] += 1
        if extra is not None:
            exps[index[extra]] += power
        return tuple(exps)

    candidates = {}
    for g in members:
        for size in range(min(limit, len(members)) + 1):
            for S in combinations(members, size):
                union_below = 0
                for f in S:
                    if f & g == f and f != g:
                        union_below |= f
                b = max(0, P.rank(g) - P.rank(union_below))
                if 0 < size + b <= limit:
                    candidates.setdefault(mono_of(S, g, b), (S, g, b))
    keep = []
    for lt in sorted(candidates, key=lambda m: (sum(m), m)):
        if not any(mono_divides(k, lt) for k in keep):
            keep.append(lt)
    out = []
    for lt in keep:
        S, g, b = candidates[lt]
        poly = {mono_of(S): 1}
        upper_sum = {mono_of((h,)): 1 for h in members if h & g == g}
        for _ in range(b):
            poly = tuple_poly_mul(poly, upper_sum)
        out.append((lt, poly))
    return out


def geometric_building_sets(P):
    flats = [f for f in P.flats() if f and f != P.full_mask]
    for size in range(len(flats) + 1):
        for chosen in combinations(flats, size):
            members = list(chosen) + [P.full_mask]
            if pc.is_geometric_building_set(P, members)[0]:
                yield pc.BuildingSet(P, members, validate=False)


def as_lists(groebner):
    return [(lt, list(g.items())) for lt, g in groebner]


def packed_ring_lists(ring):
    return as_lists(unpacked_groebner(ring, ring.groebner))


def test_dp_generators_match_subset_scan_reference():
    cases = [(P, G) for P in small_family() for G in geometric_building_sets(P)]
    assert len(cases) == 145
    U35 = [min(bin(S).count("1"), 3) for S in range(32)]
    for table in (boolean_table((1, 1, 1, 1)), U35):
        P = pc.Polymatroid(table)
        cases.append((P, pc.maximal_building_set(P)))
    # rank 8 with singletons and E: the leading term x_1 x_2 x_4 x_E^2
    # needs a nested antichain of three members
    P = pc.Polymatroid(boolean_table((2, 2, 2, 2)))
    cases.append((P, pc.BuildingSet(P, [1, 2, 4, 8, 15])))
    for P, G in cases:
        assert packed_ring_lists(pc.dp_ring(G)) == as_lists(scan_dp_groebner(P, G))


def test_standard_monomials_match_brute_force_filter():
    for ring in kernel_rings():
        lts = [ring.codec.exponents(lt) for lt, _ in ring.groebner]
        for d in range(ring.r + 1):
            brute = []
            for combo in combinations_with_replacement(range(ring.nvars), d):
                m = [0] * ring.nvars
                for i in combo:
                    m[i] += 1
                if not any(mono_divides(lt, tuple(m)) for lt in lts):
                    brute.append(tuple(m))
            expected = tuple(sorted(brute, reverse=True))
            assert expected == (unpacked_basis(ring)[d] if d < ring.r else ())


def test_rank_six_b222_maximal_building_set():
    pair = pair_of(boolean_table((2, 2, 2)))
    assert pair.dp.hilbert() == pair.fy.hilbert() == (1, 7, 16, 16, 7, 1)
    assert unpacked_basis(pair.dp) == pc.nested_basis(pair.G)
    assert pc.phi_iso_check(pair)
    report = pc.kahler_package_report(pair)
    assert report and all(v is True for v in report.values())


def monomials_of_degree(nvars, d):
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def test_standard_monomials_match_sympy_groebner():
    """An independent Groebner oracle: sympy's reduced Groebner basis of the
    ideal our generators span, in the ring's order (lex with variable 0
    largest), leaves the same standard monomials in every degree 0..r.
    Generators above degree 2r-1 are omitted, which leaves the ideal
    unchanged in these degrees.  Its leading terms are also exactly ours,
    so our generators are a Groebner basis of the ideal they span."""
    sympy = pytest.importorskip("sympy")
    cases = [(P1, None), (P2, None), (P3, None), (U34, None), (U34, U34_MIN_BUILDING)]
    for table, members in cases:
        pair = pair_of(table, members)
        for ring in (pair.dp, pair.fy):
            xs = sympy.symbols("x0:%d" % ring.nvars)
            polys = [sum(c * sympy.prod(x ** e for x, e in zip(xs, m))
                         for m, c in g.items())
                     for _, g in unpacked_groebner(ring, ring.groebner)]
            reduced = sympy.groebner(polys, *xs, order="lex")
            leading = {sympy.Poly(g, *xs).monoms(order="lex")[0] for g in reduced.exprs}
            assert leading == {ring.codec.exponents(lt) for lt, _ in ring.groebner}
            for d in range(ring.r + 1):
                standard = {m for m in monomials_of_degree(ring.nvars, d)
                            if not any(mono_divides(lt, m) for lt in leading)}
                assert standard == set(unpacked_basis(ring)[d] if d < ring.r else ()), (
                    table, members, ring.kind, d)


# --- packed monomials against the tuple references ---------------------------


def reference_rings():
    yield from kernel_rings()
    for table in ([0, 2, 2, 4], boolean_table((2, 2, 2))):
        pair = pair_of(table)
        yield pair.dp
        yield pair.fy


def test_packed_kernels_match_tuple_references():
    # standard monomials, first divisors and normal forms (as dicts) of the
    # packed kernels unpack to those of the tuple references, on products of
    # basis elements, S-polynomials and power-relation probes
    probes = 0
    for ring in reference_rings():
        leads = [ring.codec.exponents(lt) for lt, _ in ring.groebner]
        layers = _standard_monomials(ring.codec, ring.divisors, ring.r + 1)
        assert [tuple(map(ring.codec.exponents, layer)) for layer in layers] \
            == tuple_standard_monomials(ring.nvars, leads, ring.r + 1)
        gb = unpacked_groebner(ring, ring.groebner)
        edge = list(power_relation_probes(ring))
        probes += len(edge)
        for p in edge:
            (m,) = p
            assert ring.divisors.first(m) == tuple_first_divisor(ring.codec.exponents(m), leads)
        for p in basis_products(ring) + list(s_polynomials(ring)) + edge:
            assert unpacked(ring, reduce_poly(ring, p)) == tuple_reduce_poly(unpacked(ring, p), gb)
    # 658 on the kernel fixtures, 430 on P4 and B(2,2,2)
    assert probes == 658 + 430


def first_divisor_scan(m, leads, guard):
    """Reference: index of the first of `leads` dividing m, by a scan of
    the list in order."""
    m |= guard
    for i, lt in enumerate(leads):
        if (m - lt) & guard == guard:
            return i
    return None


def test_divisor_index_matches_scan(monkeypatch):
    # every first-divisor query made while building the rings of the
    # kernel fixtures and B(1,1,1,1,1) (generator minimalization, standard
    # monomials) and while reducing in them (isomorphism check, pairings,
    # products of basis monomials) gets the position that a scan of the
    # leads listed so far returns
    listed, queries = {}, []
    add, first = DivisorIndex.add, DivisorIndex.first

    def recording_add(index, lt):
        listed.setdefault(id(index), (index, []))[1].append(lt)
        add(index, lt)

    def recording_first(index, m):
        i = first(index, m)
        queries.append((index, m, index.size, i))
        return i

    monkeypatch.setattr(DivisorIndex, "add", recording_add)
    monkeypatch.setattr(DivisorIndex, "first", recording_first)
    for table, members in KERNEL_FIXTURES + ((boolean_table((1, 1, 1, 1, 1)), None),):
        pair = pair_of(table, members)
        assert pc.phi_iso_check(pair)
        assert all(pairing_det(pair, k, ring) in (1, -1)
                   for k in range(pair.P.r) for ring in ("dp", "fy"))
        for ring in (pair.dp, pair.fy):
            for p in basis_products(ring):
                reduce_poly(ring, p)
    monkeypatch.undo()
    found = 0
    for index, m, size, i in queries:
        leads = listed.get(id(index), (index, []))[1][:size]
        assert i == first_divisor_scan(m, leads, index.guard)
        found += i is not None
    assert found >= 10000 and len(queries) - found >= 1000
    # a constant leading term divides every monomial, and bounds the answer
    codec = Codec(3, 2)
    x0, x1, x2 = codec.units
    index = DivisorIndex(codec, [x0 + x1, 0, x1, 0])
    assert [index.first(m) for m in (x0 + x1, x1, x2, 0)] == [0, 1, 1, 1]
    assert DivisorIndex(codec, [x1]).first(x0 + x2) is None
    assert DivisorIndex(codec).first(0) is None


CODEC_SHAPES = ((1, 1), (2, 1), (3, 2), (7, 6), (13, 6), (20, 9), (5, 33))


def random_exponents(rng, codec, n):
    """Exponent vectors with entries up to the field capacity, mostly small
    so that leading entries often tie."""
    out = []
    for _ in range(n):
        top = rng.choice((1, 2, codec.cap))
        out.append(tuple(rng.randint(0, top) for _ in range(codec.nvars)))
    return out


def test_codec_round_trips():
    rng = Random(1)
    for nvars, r in CODEC_SHAPES:
        codec = Codec(nvars, r)
        for exps in random_exponents(rng, codec, 300):
            m = pack(codec, exps)
            assert m & codec.guard == 0
            assert codec.exponents(m) == exps
            assert degree(codec, m) == sum(exps)
        for i, unit in enumerate(codec.units):
            assert codec.exponents(unit) == tuple(int(j == i) for j in range(nvars))


def test_codec_int_order_is_tuple_order():
    rng = Random(2)
    for nvars, r in CODEC_SHAPES:
        codec = Codec(nvars, r)
        vectors = random_exponents(rng, codec, 300)
        packed = sorted(pack(codec, v) for v in vectors)
        assert [codec.exponents(m) for m in packed] == sorted(vectors)
        for a, b in zip(vectors, vectors[1:]):
            assert (pack(codec, a) < pack(codec, b)) == (a < b)


def test_guard_divisibility_is_componentwise():
    rng = Random(3)
    for nvars, r in CODEC_SHAPES:
        codec = Codec(nvars, r)
        vectors = random_exponents(rng, codec, 200)
        # pairs that differ in one entry, one up or one down
        vectors += [v[:i] + (min(v[i] + s, codec.cap) if s > 0 else max(v[i] + s, 0),) + v[i + 1:]
                    for v in vectors[:50] for i in range(nvars) for s in (1, -1)]
        rng.shuffle(vectors)
        for a, b in zip(vectors, vectors[1:] + vectors[:1]):
            for d, m in ((a, b), (a, a), (min(a, b), max(a, b))):
                got = DivisorIndex(codec, [pack(codec, d)]).first(pack(codec, m)) == 0
                assert got == mono_divides(d, m), (d, m)


def test_codec_holds_every_exponent_up_to_2r():
    for r in range(1, 40):
        codec = Codec(3, r)
        x = codec.units[1]
        assert codec.exponents(codec.check(r * x + r * x)) == (0, 2 * r, 0)
        assert codec.exponents(pack(codec, (2 * r,) * 3)) == (2 * r,) * 3


def test_overflowing_product_raises():
    for nvars, r in CODEC_SHAPES:
        codec = Codec(nvars, r)
        for i, unit in enumerate(codec.units):
            full = pack(codec, tuple(codec.cap if j == i else 0 for j in range(nvars)))
            with pytest.raises(OverflowError):
                codec.check(full + unit)
            with pytest.raises(OverflowError):
                pack(codec, tuple(codec.cap + 1 if j == i else 0 for j in range(nvars)))
            assert codec.exponents(codec.check((full - unit) + unit))[i] == codec.cap
    # the rings raise on a monomial past the capacity instead of reading a
    # wrong one: reduce_poly, coords and exponents on a guard-bit input, and
    # a reduction step whose product overflows a field (x0 -> -x1 on
    # x0 x1^cap, in a ring of rank 1, whose standard monomials need no check)
    ring = pair_of(P3).dp
    x = ring.var(ring.var_flats[1])
    big = poly_mul(poly_pow(x, ring.codec.cap), x)
    for read in (lambda p: reduce_poly(ring, p), lambda p: ring.coords(p, 2),
                 lambda p: ring.codec.exponents(*p)):
        with pytest.raises(OverflowError):
            read(big)
    codec = Codec(2, 1)
    x0, x1 = codec.units
    ring = GradedRing("dp", [1, 2], 1, [(x0, {x0: 1, x1: 1})])
    with pytest.raises(OverflowError):
        reduce_poly(ring, {x0 + codec.cap * x1: 1})


def guard_bit_phi(pair, poly):
    """`ChowPair.phi` as it was: a monomial's image summed over its support,
    each field found by the bit length of its guard bit."""
    codec, units = pair.dp.codec, pair.fy.codec.units
    width = codec.field.bit_length()
    translate = [pair.fy.var_index[pair.proj.preimages[f]] for f in pair.dp.var_flats]
    fields = {s + width: (s, units[t]) for s, t in zip(codec.shifts, translate)}
    out = {}
    for m, c in poly.items():
        support, key = codec.support(codec.check(m)), 0
        while support:
            top = support.bit_length()
            support ^= 1 << (top - 1)
            shift, unit = fields[top]
            key += (m >> shift & codec.field) * unit
        out[key] = out.get(key, 0) + c
    return out


# the fixtures of tests/test_kahler.py
KAHLER_FIXTURES = ((P1, None), (P2, None), (P3, None), (P4, None), (U34, U34_MIN_BUILDING))


def test_phi_matches_the_guard_bit_reference():
    seen = powers = 0
    for table, members in PAIRING_FIXTURES + list(KERNEL_FIXTURES + KAHLER_FIXTURES):
        pair = pair_of(table, members)
        dp = pair.dp
        monomials = {m for layer in dp.basis for m in layer}
        monomials.update(m for _, g in dp.groebner for m in g)
        for m in sorted(monomials):
            assert pair.phi({m: 3}) == guard_bit_phi(pair, {m: 3}), (table, m)
        for _, g in dp.groebner:
            assert pair.phi(g) == guard_bit_phi(pair, g)
        seen += len(monomials)
        powers += sum(max(dp.codec.exponents(m)) > 1 for m in monomials)
        # a set guard bit raises on both routes
        overflowed = dp.codec.units[-1] * (dp.codec.cap + 1)
        for phi in (pair.phi, lambda poly: guard_bit_phi(pair, poly)):
            with pytest.raises(OverflowError):
                phi({overflowed: 1})
    assert seen > 300 and powers > 100
