from itertools import product
from random import Random

import pytest

import polychow as pc
from polychow.building import _max_members_below
from conftest import (P1, P2, P3, P4, U34, U34_MIN_BUILDING, B111_MIN_BUILDING,
                      boolean_table)


def test_maximal_building_set_is_geometric():
    for table in (P1, P2, P3, U34, boolean_table((1, 1, 2))):
        P = pc.Polymatroid(table)
        G = pc.maximal_building_set(P)
        ok, cert = pc.is_geometric_building_set(P, G.members)
        assert ok and cert is None


def test_full_set_alone_fails_for_p2():
    # at the flat {0} the only member below is nothing, rank sum 0 != 1
    P = pc.Polymatroid(P2)
    ok, cert = pc.is_geometric_building_set(P, {3})
    assert not ok and cert == 1


def test_full_set_alone_valid_for_p1():
    P = pc.Polymatroid(P1)
    ok, cert = pc.is_geometric_building_set(P, {1})
    assert ok
    pc.BuildingSet(P, [1])


def test_u34_minimal_building_set():
    P = pc.Polymatroid(U34)
    G = pc.BuildingSet(P, U34_MIN_BUILDING)
    assert len(G) == 5
    # dropping a singleton breaks the rank sum at that singleton flat
    ok, cert = pc.is_geometric_building_set(P, {2, 4, 8, 15})
    assert not ok and cert == 1


def test_b111_minimal_building_set():
    P = pc.Polymatroid(boolean_table((1, 1, 1)))
    pc.BuildingSet(P, B111_MIN_BUILDING)
    # {0,1} with the singletons is not geometric: at F = {0,1} the
    # maximal members are {0,1} alone but the interval is not a product
    ok, cert = pc.is_geometric_building_set(P, {1, 2, 4, 3, 7})
    assert ok  # adding a flat keeps it geometric here (product still works)


def test_building_set_requires_full_and_flats():
    P = pc.Polymatroid(P2)
    with pytest.raises(pc.BuildingSetError):
        pc.BuildingSet(P, [1])            # missing E
    with pytest.raises(pc.BuildingSetError):
        pc.BuildingSet(P, [2, 3])         # 2 is not a flat of P2
    with pytest.raises(pc.BuildingSetError):
        pc.BuildingSet(P, [0, 3])         # empty member


def test_lifted_building_set_p2():
    P = pc.Polymatroid(P2)
    M, Gt = pc.lifted_building_set(P)
    # preimages of {0} and E, plus the three singleton atoms
    assert Gt.members == {0b001, 0b111, 0b010, 0b100}
    ok, cert = pc.is_geometric_building_set(M, Gt.members)
    assert ok


def test_lifted_building_set_p1():
    P = pc.Polymatroid(P1)
    M, Gt = pc.lifted_building_set(P)
    assert Gt.members == {0b01, 0b10, 0b11}


def test_lifted_building_set_is_geometric():
    for table in (P1, P2, P3, boolean_table((2, 2))):
        P = pc.Polymatroid(table)
        M, Gt = pc.lifted_building_set(P)
        ok, cert = pc.is_geometric_building_set(M, Gt.members)
        assert ok, table


def test_is_nested_chains_and_pairs():
    P = pc.Polymatroid(U34)
    G = pc.maximal_building_set(P)
    assert pc.is_nested(G, [1, 3, 15])      # a chain
    assert not pc.is_nested(G, [1, 2])      # join {0,1} is a flat, so a member
    Gmin = pc.BuildingSet(P, U34_MIN_BUILDING)
    assert pc.is_nested(Gmin, [1, 2])       # same pair, smaller building set
    assert not pc.is_nested(Gmin, [1, 2, 4, 8])   # union closes to E
    with pytest.raises(pc.BuildingSetError):
        pc.is_nested(Gmin, [3])


def test_nested_complex_counts():
    P = pc.Polymatroid(P1)
    M, Gt = pc.lifted_building_set(P)
    complexes = pc.nested_complex(Gt)
    # empty set, three singletons, two nested pairs {atom, full}
    assert len(complexes) == 6
    assert frozenset() in complexes
    assert frozenset({0b01, 0b11}) in complexes
    assert frozenset({0b01, 0b10}) not in complexes


def test_nested_complex_is_a_simplicial_complex():
    P = pc.Polymatroid(P3)
    M, Gt = pc.lifted_building_set(P)
    complexes = set(pc.nested_complex(Gt))
    for N in complexes:
        for g in N:
            assert N - {g} in complexes


def test_nested_complex_exclude():
    P = pc.Polymatroid(P1)
    M, Gt = pc.lifted_building_set(P)
    complexes = pc.nested_complex(Gt, exclude=M.full_mask)
    assert all(M.full_mask not in N for N in complexes)
    assert len(complexes) == 3


def test_nested_complex_cap(monkeypatch):
    monkeypatch.setattr("polychow.building.DEFAULT_NESTED_CAP", 3)
    P = pc.Polymatroid(U34)
    G = pc.maximal_building_set(P)
    with pytest.raises(pc.BuildingSetError):
        pc.nested_complex(G)


def test_geometric_flats_of_unions_round_trip():
    # members of the lifted set restrict the geometric parts correctly:
    # every lifted member is either an atom or a full preimage
    for table in (P2, P3):
        P = pc.Polymatroid(table)
        M, Gt = pc.lifted_building_set(P)
        for g in Gt.members:
            assert bin(g).count("1") == 1 or M.proj.preimage(M.proj.image(g)) == g


def test_nested_sets_have_nested_subsets():
    P = pc.Polymatroid(P2)
    M, Gt = pc.lifted_building_set(P)
    for N in pc.nested_complex(Gt):
        assert pc.is_nested(Gt, N)


def pairwise_building_check(base, members):
    """Reference: the interval-product isomorphism checked literally, pair by
    pair of tuples, order preserved and reflected."""
    members = frozenset(members)
    full = base.full_mask
    if full not in members:
        return False, full
    flats = base.flats()
    for g in members:
        if g == 0 or g not in flats:
            return False, g
    for F in flats:
        if F == 0:
            continue
        maxima = _max_members_below(members, F)
        if sum(base.rank(g) for g in maxima) != base.rank(F):
            return False, F
        intervals = [[h for h in flats if h & g == h] for g in maxima]
        interval_F = [h for h in flats if h & F == h]
        tuples = list(product(*intervals))
        if len(tuples) != len(interval_F):
            return False, F
        joins = []
        for tup in tuples:
            union = 0
            for h in tup:
                union |= h
            joins.append(base.closure(union))
        if len(set(joins)) != len(joins) or set(joins) != set(interval_F):
            return False, F
        for a, ta in zip(joins, tuples):
            for b, tb in zip(joins, tuples):
                comp = all(x & y == x for x, y in zip(ta, tb))
                if comp != (a & b == a):
                    return False, F
    return True, None


def union_rule(n, members):
    """Boolean building sets: every singleton is a member, and so is G | H
    whenever G and H are members that meet."""
    return (all(1 << i in members for i in range(n))
            and all(g | h in members for g in members for h in members if g & h))


def test_counting_check_matches_pairwise_on_every_boolean_family():
    P = pc.Polymatroid(boolean_table((1, 1, 1, 1)))
    full = P.full_mask
    proper = range(1, full)
    accepted = 0
    for choice in range(1 << len(proper)):
        members = {full} | {g for i, g in enumerate(proper) if choice >> i & 1}
        got = pc.is_geometric_building_set(P, members)
        assert got == pairwise_building_check(P, members), sorted(members)
        assert got[0] is union_rule(4, members), sorted(members)
        accepted += got[0]
    assert accepted == 378


@pytest.mark.parametrize("table", [P1, P2, P3, P4, U34, boolean_table((1, 1, 2)),
                                   boolean_table((2, 2))])
def test_counting_check_matches_pairwise_on_random_families(table):
    rng = Random(11)
    P = pc.Polymatroid(table)
    for base in (P, pc.lift(P)):
        flats = [f for f in base.flats() if f != 0]
        atoms = [f for f in flats if not any(g != f and g & f == g for g in flats)]
        for trial in range(150):
            members = {f for f in flats if rng.random() < 0.5}
            if trial % 2:
                members.update(atoms)
            members.add(base.full_mask)
            assert pc.is_geometric_building_set(base, members) \
                == pairwise_building_check(base, members), (table, sorted(members))


class OrderOnlyGround:
    """A ground on five elements whose join map at F = {0,1,2,3} is a
    bijection from [0, {0,1,3}] x [0, {2}] onto [0, F] but no order
    isomorphism: {0} v {2} lies below {1} v {2}.  Its closure is monotone
    but no closure operator (a polymatroid's bijective join map is always
    an isomorphism, so only such a ground reaches the order stage).  F
    comes first among the flats, so it is the first flat checked."""

    full_mask = 31
    _closure = {0: 0, 1: 1, 2: 2, 4: 4, 5: 5, 6: 7, 11: 11, 15: 15}
    _rank = {4: 1, 11: 2, 15: 3}

    def flats(self):
        return [0, 15, 1, 2, 4, 5, 7, 11, 31]

    def closure(self, mask):
        return self._closure[mask]

    def rank(self, mask):
        return self._rank[mask]


def test_counting_check_rejects_where_only_the_order_fails():
    ground = OrderOnlyGround()
    members = {4, 11, 31}
    assert pc.is_geometric_building_set(ground, members) \
        == pairwise_building_check(ground, members) == (False, 15)
