from fractions import Fraction
from functools import reduce
from itertools import chain, permutations, product
from operator import and_
from random import Random

import pytest

import polychow as pc
from polychow import linalg, polytope
from polychow.bitsets import elements
from polychow.polytope import minimizing_vertices
import oracles
from conftest import BOOLEAN_FIBERS, all_partitions_m6
from oracles import (embed, integral, lowest_poset, lowest_ranks, minimizers_from_lowest,
                     sampled_normal_fan_equals)


def test_vertices_two_singleton_fibers():
    Q = pc.Polypermutohedron(pc.ProjectionMap((1, 1)), c=(1, 2))
    assert set(Q.vertices) == {(1, 2), (2, 1)}


def test_vertices_single_fiber_of_size_two():
    Q = pc.Polypermutohedron(pc.ProjectionMap((2,)), c=(1,))
    assert set(Q.vertices) == {(1, 0), (0, 1)}


def test_vertices_mixed_fibers():
    Q = pc.Polypermutohedron(pc.ProjectionMap((1, 2)), c=(1, 2))
    assert set(Q.vertices) == {(1, 2, 0), (1, 0, 2), (2, 1, 0), (2, 0, 1)}


def test_c_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        pc.Polypermutohedron(pc.ProjectionMap((1, 1)), c=(2, 1))
    with pytest.raises(ValueError):
        pc.Polypermutohedron(pc.ProjectionMap((1, 1)), c=(1, 1))
    with pytest.raises(ValueError):
        pc.Polypermutohedron(pc.ProjectionMap((1, 1)), c=(1,))


def test_lowest_poset_examples():
    proj = pc.ProjectionMap((2, 1))
    elements, relation = lowest_poset(proj, (0, 1, 5))
    assert elements == {0, 2}
    assert (0, 2) in relation and (2, 0) not in relation
    elements, relation = lowest_poset(proj, (3, 3, 3))
    assert elements == {0, 1, 2}
    assert (0, 1) in relation and (1, 0) in relation


def test_lowest_poset_all_ones_invariance():
    proj = pc.ProjectionMap((1, 2))
    rng = Random(7)
    for _ in range(50):
        w = tuple(rng.randrange(-5, 6) for _ in range(3))
        shifted = tuple(x + 4 for x in w)
        assert lowest_ranks(proj, w) == lowest_ranks(proj, shifted)


def vertices_of(Q, bits):
    """The vertices named by a bitset over positions in `Q.vertices`."""
    return {Q.vertices[k] for k in elements(bits)}


def test_minimizer_decreasing_orientation():
    # weights (0, 1, 2) with c = (1, 2, 3): the largest coefficient goes
    # to the lowest weight, so the unique minimizer is (3, 2, 1)
    Q = pc.Polypermutohedron(pc.ProjectionMap((1, 1, 1)), c=(1, 2, 3))
    w = (0, 1, 2)
    assert vertices_of(Q, minimizing_vertices(Q, w)) == {(3, 2, 1)}
    assert vertices_of(Q, minimizers_from_lowest(Q, lowest_ranks(Q.proj, w))) == {(3, 2, 1)}
    assert reference_minimizing_vertices(Q, w) == ({(3, 2, 1)}, {(3, 2, 1)})


def test_minimizer_predicate_matches_brute_force():
    rng = Random(11)
    for fibers in BOOLEAN_FIBERS:
        Q = pc.Polypermutohedron(pc.ProjectionMap(fibers))
        m = sum(fibers)
        for _ in range(100):
            w = tuple(Fraction(rng.randrange(-30, 31), rng.randrange(1, 5))
                      for _ in range(m))
            # minimizing_vertices takes integers: a positive multiple of w
            # has the same argmin
            bits = minimizing_vertices(Q, integral(w)[0])
            assert minimizers_from_lowest(Q, lowest_ranks(Q.proj, w)) == bits
            brute = vertices_of(Q, bits)
            assert reference_minimizing_vertices(Q, w) == (brute, brute)


def reference_minimizing_vertices(Q, w):
    """The brute-force argmin, one sum per vertex, and the transversal
    predicate, one scan per transversal: a transversal is selected when
    each of its elements attains its fiber's minimum weight and its weights
    weakly decrease.  Returns (brute_set, predicate_set) of vertices."""
    best = None
    brute = set()
    for v in Q.vertices:
        value = sum(a * b for a, b in zip(w, v))
        if best is None or value < best:
            best = value
            brute = {v}
        elif value == best:
            brute.add(v)
    fiber_of = oracles.fiber_of(Q.proj)
    start_mins = {}
    offset = 0
    for i, s in enumerate(Q.proj.fiber_sizes):
        start_mins[i] = min(w[e] for e in range(offset, offset + s))
        offset += s
    predicate = set()
    for seq, k in oracles.vertex_of(Q).items():
        if any(w[s] != start_mins[fiber_of[s]] for s in seq):
            continue
        if all(w[a] >= w[b] for a, b in zip(seq, seq[1:])):
            predicate.add(Q.vertices[k])
    return brute, predicate


def column_sum_minimizing_vertices(Q, w):
    """minimizing_vertices as it was before it packed lanes: <w, v> summed
    one vertex column at a time, returned as a set of vertices."""
    values = [0] * len(Q.vertices)
    for x, column in zip(w, Q.columns):
        if x:
            values = [s + x * a for s, a in zip(values, column)]
    best = min(values)
    return {v for v, value in zip(Q.vertices, values) if value == best}


def test_minimizing_vertices_matches_the_reference_scan():
    partitions = all_partitions_m6()
    assert len(partitions) == 29
    rng = Random(13)
    sizes = set()
    shared = 0
    for fibers in partitions + [()]:
        n, m = len(fibers), sum(fibers)
        # c starting at 0 makes transversals share vertices
        for c in (None, tuple(range(0, 3 * n, 3))):
            Q = pc.Polypermutohedron(pc.ProjectionMap(fibers), c=c)
            shared += len(Q.vertices) < len(oracles.vertex_of(Q))
            points = [tuple(Fraction(rng.randrange(-30, 31), rng.randrange(1, 5))
                            for _ in range(m)) for _ in range(10)]
            points += [tuple(rng.randrange(-1, 2) for _ in range(m)) for _ in range(10)]
            points += [(0,) * m, (2,) * m, (-7,) * m, (Fraction(1, 3),) * m]
            for w in points:
                bits = minimizing_vertices(Q, integral(w)[0])
                got = vertices_of(Q, bits)
                assert (got, got) == reference_minimizing_vertices(Q, w), (fibers, c, w)
                assert got == column_sum_minimizing_vertices(Q, w), (fibers, c, w)
                assert bits == minimizers_from_lowest(Q, lowest_ranks(Q.proj, w)), \
                    (fibers, c, w)
                sizes.add(len(got) > 1)
    # ties give several minimizers, generic points one
    assert sizes == {False, True}
    assert shared > 0


def enumerated_minimizers(Q, ranks):
    """minimizers_from_lowest as it was before the position masks: every
    minimizing transversal enumerated (per-fiber minima, fibers in weakly
    decreasing weight rank with all tie orders), its vertex read from
    `oracles.vertex_of(Q)`."""
    fiber_of, vertex_of = oracles.fiber_of(Q.proj), oracles.vertex_of(Q)
    levels = {}                      # rank -> fiber -> its minimizers
    for i, rank in ranks:
        levels.setdefault(rank, {}).setdefault(fiber_of[i], []).append(i)
    bits = 0
    for arrangement in product(*(permutations(levels[rank].values())
                                 for rank in sorted(levels, reverse=True))):
        for k in map(vertex_of.__getitem__, product(*chain.from_iterable(arrangement))):
            bits |= 1 << k
    return bits


def test_position_masks_match_the_enumeration():
    rng = Random(31)
    shared_blocks = several = 0
    for fibers in all_partitions_m6() + [()]:
        n, m = len(fibers), sum(fibers)
        # c starting at 0 gives vertices several transversals
        fiber_of = oracles.fiber_of(pc.ProjectionMap(fibers))
        for c in (None, tuple(range(0, 3 * n, 3))):
            Q = pc.Polypermutohedron(pc.ProjectionMap(fibers), c=c)
            # tie-heavy points first: ties within and across fibers
            points = [tuple(rng.randrange(-1, 2) for _ in range(m)) for _ in range(16)]
            points += [tuple(rng.randrange(-20, 21) for _ in range(m)) for _ in range(4)]
            points += [(0,) * m, tuple(Fraction(rng.randrange(-9, 10), 2) for _ in range(m))]
            for w in points:
                ranks = lowest_ranks(Q.proj, w)
                bits = minimizers_from_lowest(Q, ranks)
                assert bits == enumerated_minimizers(Q, ranks) \
                    == minimizing_vertices(Q, integral(w)[0]), (fibers, c, w)
                fiber_ranks = {(fiber_of[i], r) for i, r in ranks}
                shared_blocks += len(fiber_ranks) > len({r for _, r in fiber_ranks})
                several += bits.bit_count() > 1
    # n = 0 has its one empty vertex
    assert minimizers_from_lowest(pc.Polypermutohedron(pc.ProjectionMap(())), ()) == 1
    # rank blocks held by several fibers, and several minimizers, are common
    assert shared_blocks > 500 and several > 500


def test_packed_lanes_on_both_sides_of_the_lane_bound():
    """max(x) * sum(c) = 2^64 - 1 takes the packed lanes, 2^64 the
    per-vertex sums, where x is w shifted to minimum 0; both must give the
    column-sum argmin.  A c entry of at least 2^64 fits no lane."""
    rng = Random(23)
    cases = []
    # one fiber of size two: the vertex (0, 1) takes the value max(x) * 1
    Q = pc.Polypermutohedron(pc.ProjectionMap((2,)), c=(1,))
    cases += [(Q, (0, 2**64 - 1)), (Q, (0, 2**64)), (Q, (5, 2**64 + 4))]
    for fibers, c in (((1, 1, 2), (1, 4, 10)), ((2, 2, 1), (0, 2, 3)), ((1, 1, 1, 1), (1, 2, 3, 9))):
        Q = pc.Polypermutohedron(pc.ProjectionMap(fibers), c=c)
        total, m = sum(c), Q.proj.m
        for top in ((2**64 - 1) // total, 2**64 // total + 1, 2**64 - 1):
            for _ in range(20):
                x = [rng.randrange(top + 1) for _ in range(m)]
                x[rng.randrange(m)] = top
                x[rng.randrange(m)] = 0
                low = rng.randrange(-2**70, 2**70)
                cases.append((Q, tuple(a + low for a in x)))
    Q = pc.Polypermutohedron(pc.ProjectionMap((1, 2, 1)), c=(1, 2, 2**64))
    cases += [(Q, w) for w in ((0,) * 4, (1, 0, 0, 0), (0, 3, 1, 2), (2, 2, 1, 1))]
    for Q, w in cases:
        assert vertices_of(Q, minimizing_vertices(Q, w)) == \
            column_sum_minimizing_vertices(Q, w), (Q, w)
    # the exact bound itself: the single lane at 2^64 - 1, then one past it
    Q = pc.Polypermutohedron(pc.ProjectionMap((2,)), c=(1,))
    assert vertices_of(Q, minimizing_vertices(Q, (2**64 - 1, 0))) == {(0, 1)}
    assert vertices_of(Q, minimizing_vertices(Q, (0, 2**64))) == {(1, 0)}


def test_one_argmin_per_ray(monkeypatch):
    calls = []
    shipped = polytope.minimizing_vertices

    def counting(Q, w):
        calls.append(w)
        return shipped(Q, w)

    monkeypatch.setattr(polytope, "minimizing_vertices", counting)
    for fibers in ((1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 1, 1, 1)):
        Q = pc.Polypermutohedron(pc.ProjectionMap(fibers))
        fan = pc.boolean_bergman_fan(Q.proj)
        calls.clear()
        assert pc.normal_fan_equals(Q, fan)
        assert calls == [embed(r) for r in fan.rays], fibers


def other_weights(n, rng):
    """c = (0, 1, ..., n-1), whose transversals share vertices, and three
    random strictly increasing c, the first starting at 0."""
    out = [tuple(range(n))]
    for first in (0, None, None):
        c = sorted(rng.sample(range(1, 4 * n + 2), n))
        if first is not None:
            c[0] = first
        out.append(tuple(c))
    return out


def drop_one_maximal_cone(fan):
    maxes = sorted(fan.maximal_cones(), key=sorted)
    return pc.Fan(fan.ambient_dim, fan.rays, fan.cones - {maxes[len(maxes) // 2]})


def certificate_cases():
    """(Q, fan) pairs: every Boolean fan with m <= 6 at five c, doubled rays,
    a missing maximal cone, the fans of other fiber shapes, and d = 0."""
    partitions = all_partitions_m6()
    assert len(partitions) == 29
    rng = Random(41)
    cases = []
    for fibers in partitions:
        proj = pc.ProjectionMap(fibers)
        fan = pc.boolean_bergman_fan(proj)
        for c in [None] + other_weights(len(fibers), rng):
            cases.append((pc.Polypermutohedron(proj, c=c), fan))
    for fibers in ((1, 1), (1, 2), (2, 2), (1, 1, 2)):
        Q = pc.Polypermutohedron(pc.ProjectionMap(fibers))
        fan = pc.boolean_bergman_fan(Q.proj)
        # doubled rays are no indicator vectors: the oracle reads ray sums
        doubled = pc.Fan(fan.ambient_dim, [[2 * x for x in r] for r in fan.rays], fan.cones)
        cases += [(Q, doubled), (Q, drop_one_maximal_cone(fan))]
    # the fan of another fiber structure on the same ground set
    shapes = [(1, 2), (2, 1)] + [f for f in partitions if sum(f) <= 4]
    cases += [(pc.Polypermutohedron(pc.ProjectionMap(a)),
               pc.boolean_bergman_fan(pc.ProjectionMap(b)))
              for a in shapes for b in shapes if a != b and sum(a) == sum(b)]
    # B(1): d = 0, one vertex and the one empty cone
    point = pc.Polypermutohedron(pc.ProjectionMap((1,)))
    cases += [(point, pc.boolean_bergman_fan(point.proj)), (point, pc.Fan(0, [], []))]
    return cases


def test_certificate_matches_the_sampled_oracle():
    verdicts = []
    for Q, fan in certificate_cases():
        verdict = pc.normal_fan_equals(Q, fan)
        assert verdict == sampled_normal_fan_equals(Q, fan, trials=200, seed=3), (Q, fan)
        verdicts.append(verdict)
    assert verdicts[-2:] == [True, False]
    assert 0 < sum(verdicts) < len(verdicts)


def complete_fan_reference(Q, fan):
    """`normal_fan_equals` as it was with condition (a), the wall certificate
    `complete_fan_certificate`, in place of (0) and (i)."""
    if fan.ambient_dim != Q.proj.m - 1:
        raise ValueError("ambient dimension mismatch")
    if fan.ambient_dim == 0:
        return fan.cones == {frozenset()} and len(Q.vertices) == 1
    if not pc.fan.complete_fan_certificate(fan):
        return False
    face = [minimizing_vertices(Q, embed(r)) for r in fan.rays]
    vertex = {c: reduce(and_, map(face.__getitem__, c)) for c in fan.maximal_cones()}
    return all(v.bit_count() == 1 for v in vertex.values()) and not any(
        vertex[c] & face[u2] or vertex[c2] & face[u]
        for (c, u), (c2, u2) in fan.walls().values())


def dependent_maximal_cone(fan):
    """The fan with the third ray of its first maximal cone moved to the sum
    of the other two: that cone's d rays are dependent, and every wall still
    lies in exactly two maximal cones."""
    a, b, c = sorted(min(fan.maximal_cones(), key=sorted))
    rays = list(fan.rays)
    rays[c] = tuple(map(sum, zip(rays[a], rays[b])))
    return pc.Fan(fan.ambient_dim, rays, fan.cones)


def refused_collections():
    """(Q, collection) pairs that no normal fan matches: no cone at all, rays
    only, a line (two opposite rays, whose one wall, the zero cone, lies in
    both), d dependent rays in a maximal cone, and a wall in three maximal
    cones."""
    Q = pc.Polypermutohedron(pc.ProjectionMap((1, 1, 1)))
    hexagon = pc.boolean_bergman_fan(Q.proj)
    n = len(hexagon.rays)
    chord = next(frozenset({0, k}) for k in range(n)
                 if frozenset({0, k}) not in hexagon.cones
                 and linalg.det([hexagon.rays[0], hexagon.rays[k]]))
    Q4 = pc.Polypermutohedron(pc.ProjectionMap((1, 1, 1, 1)))
    return {"empty": (Q, pc.Fan(2, [], [])),
            "rays only": (Q, pc.Fan(2, hexagon.rays, [set()] + [{i} for i in range(n)])),
            "line": (Q, pc.Fan(2, [(1, 0), (-1, 0)], [set(), {0}, {1}])),
            "dependent": (Q4, dependent_maximal_cone(pc.boolean_bergman_fan(Q4.proj))),
            "three cones": (Q, pc.Fan(2, hexagon.rays, hexagon.cones | {chord}))}


def test_certificate_matches_the_complete_fan_reference():
    refused = refused_collections()
    three = refused["three cones"][1]
    assert any(len(sides) == 3 for sides in three.walls().values())
    for name, (Q, fan) in refused.items():
        assert not complete_fan_reference(Q, fan), name
        assert not pc.normal_fan_equals(Q, fan), name
    cases = certificate_cases()
    verdicts = [pc.normal_fan_equals(Q, fan) for Q, fan in cases]
    assert verdicts == [complete_fan_reference(Q, fan) for Q, fan in cases]
    assert 0 < sum(verdicts) < len(verdicts)


def det_certificate_reference(Q, fan):
    """`normal_fan_equals` as it was with the determinant test in (0): d rays
    of nonzero `det` in each maximal cone."""
    d = fan.ambient_dim
    if d != Q.proj.m - 1:
        raise ValueError("ambient dimension mismatch")
    if d == 0:
        return fan.cones == {frozenset()} and len(Q.vertices) == 1
    maxes = fan.maximal_cones()
    sides = fan.walls().values()
    if not maxes or any(len(pair) != 2 for pair in sides) or any(
            len(c) != d or not linalg.det(fan.cone_rays(c)) for c in maxes):
        return False
    face = [minimizing_vertices(Q, embed(r)) for r in fan.rays]
    vertex = {c: reduce(and_, map(face.__getitem__, c)) for c in maxes}
    return all(v.bit_count() == 1 for v in vertex.values()) and not any(
        vertex[c] & face[u2] or vertex[c2] & face[u] for (c, u), (c2, u2) in sides)


def test_certificate_matches_the_det_reference():
    for name, (Q, fan) in refused_collections().items():
        assert not det_certificate_reference(Q, fan), name
        assert not pc.normal_fan_equals(Q, fan), name
    cases = certificate_cases()
    verdicts = [pc.normal_fan_equals(Q, fan) for Q, fan in cases]
    assert verdicts == [det_certificate_reference(Q, fan) for Q, fan in cases]
    assert 0 < sum(verdicts) < len(verdicts)


def test_dependent_maximal_cone_is_refused_without_a_determinant(monkeypatch):
    # (i) holds on this collection and no determinant is taken: (b) or (c)
    # refuses it, as the independence step of the proof says
    Q, fan = refused_collections()["dependent"]
    assert all(len(sides) == 2 for sides in fan.walls().values())
    assert not linalg.det(fan.cone_rays(min(fan.maximal_cones(), key=sorted)))
    calls = []
    shipped = linalg.det
    monkeypatch.setattr(linalg, "det", lambda rows: calls.append(rows) or shipped(rows))
    assert not pc.normal_fan_equals(Q, fan)
    assert calls == []


def test_normal_fan_equality():
    for fibers in ((1, 1), (1, 2), (2, 2)):
        Q = pc.Polypermutohedron(pc.ProjectionMap(fibers))
        fan = pc.boolean_bergman_fan(Q.proj)
        assert pc.normal_fan_equals(Q, fan)
        # doubled rays: the same cones, with rays that are no indicator vectors
        doubled = pc.Fan(fan.ambient_dim, [[2 * x for x in r] for r in fan.rays], fan.cones)
        assert doubled.subset_index() is None
        assert pc.normal_fan_equals(Q, doubled)


def test_validators_and_the_normal_fan_check_build_no_subset_index():
    # only `locate` and `stellar_certificate` read ray subsets
    for fibers in ((1, 2), (1, 1, 1)):
        Q = pc.Polypermutohedron(pc.ProjectionMap(fibers))
        fan = pc.boolean_bergman_fan(Q.proj)
        assert all(pc.validate_fan(fan, expected_max_dim=fan.ambient_dim).values())
        assert pc.normal_fan_equals(Q, fan)
        assert "subset_index" not in fan._memo


def test_normal_fan_rejects_where_one_vertex_minimizes_both_sides_of_a_wall():
    # with c_1 = 0 some maximal cones have one vertex each, but a vertex
    # is shared across a wall: only the wall test rejects, as the sampled
    # oracle does
    Q = pc.Polypermutohedron(pc.ProjectionMap((1, 1, 2)), c=(0, 1, 2))
    fan = pc.boolean_bergman_fan(Q.proj)
    face = [minimizing_vertices(Q, embed(r)) for r in fan.rays]
    assert all(reduce(and_, map(face.__getitem__, c)).bit_count() == 1
               for c in fan.maximal_cones())
    assert pc.fan.complete_fan_certificate(fan)
    assert not pc.normal_fan_equals(Q, fan)
    assert not sampled_normal_fan_equals(Q, fan, trials=200, seed=3)


def increasing_weight_order(Q, ranks):
    """A wrong characterization: fibers in increasing weight order."""
    top = max(rank for _, rank in ranks)
    return minimizers_from_lowest(Q, tuple((i, top - rank) for i, rank in ranks))


def first_minimizer_per_fiber(Q, ranks):
    """A wrong characterization: only the first minimizer of each fiber."""
    firsts, fiber_of = {}, oracles.fiber_of(Q.proj)
    for i, rank in ranks:
        firsts.setdefault(fiber_of[i], (i, rank))
    return minimizers_from_lowest(Q, tuple(firsts.values()))


@pytest.mark.parametrize("wrong, fans", [
    (increasing_weight_order, [(2, 2), (1, 1, 2), (2, 2, 1), (1, 1, 1, 1)]),
    (first_minimizer_per_fiber, [(2,), (1, 2), (2, 2), (1, 1, 2), (2, 2, 1)]),
])
def test_normal_fan_rejects_a_wrong_characterization(monkeypatch, wrong, fans):
    # the sampled oracle must notice a wrong Lowest-poset characterization
    polytopes = [pc.Polypermutohedron(pc.ProjectionMap(fibers)) for fibers in fans]
    cases = [(Q, pc.boolean_bergman_fan(Q.proj)) for Q in polytopes]
    for Q, fan in cases:
        assert sampled_normal_fan_equals(Q, fan, trials=50, seed=3)
    monkeypatch.setattr(oracles, "minimizers_from_lowest", wrong)
    for Q, fan in cases:
        assert not sampled_normal_fan_equals(Q, fan, trials=50, seed=3), Q
        assert pc.normal_fan_equals(Q, fan), Q


def test_normal_fan_differs_across_projections():
    # the fan of one projection is not the normal fan of a polytope built
    # from a different fiber structure on the same ground set
    Q = pc.Polypermutohedron(pc.ProjectionMap((1, 2)))
    other = pc.boolean_bergman_fan(pc.ProjectionMap((2, 1)))
    assert not pc.normal_fan_equals(Q, other)


def test_normal_fan_dimension_mismatch():
    Q = pc.Polypermutohedron(pc.ProjectionMap((1, 1)))
    fan = pc.boolean_bergman_fan(pc.ProjectionMap((1, 1, 1)))
    with pytest.raises(ValueError):
        pc.normal_fan_equals(Q, fan)
    with pytest.raises(ValueError):
        sampled_normal_fan_equals(Q, fan)


def nestohedron_support(members, w):
    """Support function (min convention) of the Minkowski sum of the
    simplices of a collection of subsets: sum over members of the minimum
    weight inside the member.  The oracle for `kahler.nestohedron_values`."""
    total = Fraction(0)
    for mask in members:
        total += min(w[i] for i in elements(mask))
    return total


def test_nestohedron_support_examples():
    members = [0b001, 0b010, 0b011]
    # w = (1, 0): min over {0} is 1, over {1} is 0, over {0,1} is 0
    assert nestohedron_support(members, (1, 0)) == 1
    assert nestohedron_support(members, (0, 0)) == 0
    for k in range(-3, 4):
        assert nestohedron_support(members, (k, k)) == k * len(members)


def test_nestohedron_support_additive_in_members():
    w = (2, -1, 3)
    a = nestohedron_support([0b011], w)
    b = nestohedron_support([0b101], w)
    assert nestohedron_support([0b011, 0b101], w) == a + b


def test_embed():
    # the oracles' lift of a quotient point; `normal_fan_equals` appends the
    # same 0 to each ray itself
    assert embed((1, 2)) == (1, 2, 0)


def reference_lowest_poset(proj, w):
    """lowest_poset as it was before it stored dense weight ranks: the
    minimizers and the pairs (i, j) with w[i] <= w[j], as frozensets."""
    mins = []
    start = 0
    for s in proj.fiber_sizes:
        block = range(start, start + s)
        lo = min(w[i] for i in block)
        mins.extend(i for i in block if w[i] == lo)
        start += s
    return frozenset(mins), frozenset((i, j) for i in mins for j in mins if w[i] <= w[j])


def reference_minimizers_from_lowest(Q, w):
    """minimizers_from_lowest as it was before it read the vertex of each
    transversal from a table: each minimizing transversal's vertex is built
    from its coefficients."""
    proj = Q.proj
    offset = 0
    argmins, keys = [], []
    for s in proj.fiber_sizes:
        block = range(offset, offset + s)
        lo = min(w[i] for i in block)
        argmins.append([i for i in block if w[i] == lo])
        keys.append(lo)
        offset += s
    order = sorted(range(proj.n), key=lambda i: keys[i], reverse=True)
    groups = []
    for i in order:
        if groups and keys[groups[-1][0]] == keys[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    out = set()
    for arrangement in product(*(permutations(g) for g in groups)):
        fibers_in_order = [i for g in arrangement for i in g]
        for choice in product(*(argmins[i] for i in fibers_in_order)):
            v = [0] * proj.m
            for cj, s in zip(Q.c, choice):
                v[s] = cj
            out.add(tuple(v))
    return out


def test_rank_form_lowest_poset_and_vertex_table_match_the_references():
    rng = Random(19)
    equal_pairs = unequal_pairs = 0
    for fibers in BOOLEAN_FIBERS + [(1, 1, 1, 1, 1)]:
        Q = pc.Polypermutohedron(pc.ProjectionMap(fibers))
        m = Q.proj.m
        # few distinct values, so ties within and across fibers are common
        points = [tuple(rng.randrange(-2, 3) for _ in range(m)) for _ in range(40)]
        points += [tuple(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(m))
                   for _ in range(40)]
        points += [(0,) * m, (Fraction(1, 2),) * m]
        posets = [lowest_ranks(Q.proj, w) for w in points]
        references = [reference_lowest_poset(Q.proj, w) for w in points]
        for w, ranks, ref in zip(points, posets, references):
            assert lowest_poset(Q.proj, w) == ref, (fibers, w)
            assert vertices_of(Q, minimizers_from_lowest(Q, ranks)) == \
                reference_minimizers_from_lowest(Q, w)
        # the rank tuples are equal exactly when the posets are
        for i, (ranks1, ref1) in enumerate(zip(posets, references)):
            for ranks2, ref2 in zip(posets[:i], references):
                assert (ranks1 == ranks2) == (ref1 == ref2)
                equal_pairs += ref1 == ref2
                unequal_pairs += ref1 != ref2
    # distinct points with equal posets occur, so equality is not identity
    assert equal_pairs > 0 and unequal_pairs > 0
