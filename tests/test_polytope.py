from fractions import Fraction
from random import Random

import pytest

import polychow as pc
from polychow.polytope import embed, minimizing_vertices, _minimizers_from_lowest
from conftest import BOOLEAN_FIBERS, all_partitions_m6


def test_vertices_two_singleton_fibers():
    Q = pc.Polypermutohedron((1, 1), c=(1, 2))
    assert set(Q.vertices) == {(1, 2), (2, 1)}


def test_vertices_single_fiber_of_size_two():
    Q = pc.Polypermutohedron((2,), c=(1,))
    assert set(Q.vertices) == {(1, 0), (0, 1)}


def test_vertices_mixed_fibers():
    Q = pc.Polypermutohedron((1, 2), c=(1, 2))
    assert set(Q.vertices) == {(1, 2, 0), (1, 0, 2), (2, 1, 0), (2, 0, 1)}


def test_c_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        pc.Polypermutohedron((1, 1), c=(2, 1))
    with pytest.raises(ValueError):
        pc.Polypermutohedron((1, 1), c=(1, 1))
    with pytest.raises(ValueError):
        pc.Polypermutohedron((1, 1), c=(1,))


def test_lowest_poset_examples():
    proj = pc.ProjectionMap((2, 1))
    lo = pc.lowest_poset(proj, (0, 1, 5))
    assert lo.elements == {0, 2}
    assert (0, 2) in lo.relation and (2, 0) not in lo.relation
    tie = pc.lowest_poset(proj, (3, 3, 3))
    assert tie.elements == {0, 1, 2}
    assert (0, 1) in tie.relation and (1, 0) in tie.relation


def test_lowest_poset_all_ones_invariance():
    proj = pc.ProjectionMap((1, 2))
    rng = Random(7)
    for _ in range(50):
        w = tuple(rng.randrange(-5, 6) for _ in range(3))
        shifted = tuple(x + 4 for x in w)
        assert pc.lowest_poset(proj, w) == pc.lowest_poset(proj, shifted)


def test_minimizer_decreasing_orientation():
    # weights (0, 1, 2) with c = (1, 2, 3): the largest coefficient goes
    # to the lowest weight, so the unique minimizer is (3, 2, 1)
    Q = pc.Polypermutohedron((1, 1, 1), c=(1, 2, 3))
    brute, predicate = minimizing_vertices(Q, (0, 1, 2))
    assert brute == predicate == {(3, 2, 1)}


def test_minimizer_predicate_matches_brute_force():
    rng = Random(11)
    for fibers in BOOLEAN_FIBERS:
        Q = pc.Polypermutohedron(fibers)
        m = sum(fibers)
        for _ in range(100):
            w = tuple(Fraction(rng.randrange(-30, 31), rng.randrange(1, 5))
                      for _ in range(m))
            brute, predicate = minimizing_vertices(Q, w)
            assert brute == predicate
            assert _minimizers_from_lowest(Q, w) == brute


def reference_minimizing_vertices(Q, w):
    """minimizing_vertices as it was before it read the vertex columns and
    the transversal masks: one sum per vertex, one scan per transversal."""
    best = None
    brute = set()
    for v in Q.vertices:
        value = sum(a * b for a, b in zip(w, v))
        if best is None or value < best:
            best = value
            brute = {v}
        elif value == best:
            brute.add(v)
    fiber_of = Q.proj.fiber_of
    start_mins = {}
    offset = 0
    for i, s in enumerate(Q.proj.fiber_sizes):
        start_mins[i] = min(w[e] for e in range(offset, offset + s))
        offset += s
    predicate = set()
    for seq, v in Q.transversals:
        if any(w[s] != start_mins[fiber_of[s]] for s in seq):
            continue
        if all(w[a] >= w[b] for a, b in zip(seq, seq[1:])):
            predicate.add(v)
    return brute, predicate


def test_minimizing_vertices_matches_the_reference_scan():
    partitions = all_partitions_m6()
    assert len(partitions) == 29
    rng = Random(13)
    sizes = set()
    shared = 0
    for fibers in partitions:
        n, m = len(fibers), sum(fibers)
        # c starting at 0 makes transversals share vertices
        for c in (None, tuple(range(0, 3 * n, 3))):
            Q = pc.Polypermutohedron(fibers, c=c)
            shared += len(Q.vertices) < len(Q.transversals)
            points = [tuple(Fraction(rng.randrange(-30, 31), rng.randrange(1, 5))
                            for _ in range(m)) for _ in range(10)]
            points += [tuple(rng.randrange(-1, 2) for _ in range(m)) for _ in range(10)]
            points += [(0,) * m, (2,) * m]
            for w in points:
                got = minimizing_vertices(Q, w)
                assert got == reference_minimizing_vertices(Q, w), (fibers, c, w)
                sizes.add(len(got[0]) > 1)
    # ties give several minimizers, generic points one
    assert sizes == {False, True}
    assert shared > 0


def test_normal_fan_equality():
    for fibers in ((1, 1), (1, 2), (2, 2)):
        Q = pc.Polypermutohedron(fibers)
        fan = pc.boolean_bergman_fan(pc.ProjectionMap(fibers))
        assert pc.normal_fan_equals(Q, fan, trials=200, seed=3)


def test_normal_fan_differs_across_projections():
    # the fan of one projection is not the normal fan of a polytope built
    # from a different fiber structure on the same ground set
    Q = pc.Polypermutohedron((1, 2))
    other = pc.boolean_bergman_fan(pc.ProjectionMap((2, 1)))
    assert not pc.normal_fan_equals(Q, other, trials=200, seed=3)


def test_normal_fan_dimension_mismatch():
    Q = pc.Polypermutohedron((1, 1))
    fan = pc.boolean_bergman_fan(pc.ProjectionMap((1, 1, 1)))
    with pytest.raises(ValueError):
        pc.normal_fan_equals(Q, fan)


def test_nestohedron_support_examples():
    members = [0b001, 0b010, 0b011]
    # w = (1, 0): min over {0} is 1, over {1} is 0, over {0,1} is 0
    assert pc.nestohedron_support(members, (1, 0)) == 1
    assert pc.nestohedron_support(members, (0, 0)) == 0
    for k in range(-3, 4):
        assert pc.nestohedron_support(members, (k, k)) == k * len(members)


def test_nestohedron_support_additive_in_members():
    w = (2, -1, 3)
    a = pc.nestohedron_support([0b011], w)
    b = pc.nestohedron_support([0b101], w)
    assert pc.nestohedron_support([0b011, 0b101], w) == a + b


def test_embed():
    assert embed((1, 2)) == (1, 2, 0)
