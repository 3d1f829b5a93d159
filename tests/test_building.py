import gc
from functools import cache, reduce
from itertools import product
from operator import or_
from random import Random

import pytest

import polychow as pc
from polychow.bitsets import canonical_key
from polychow.building import _max_members_below, _nested_sets
from polychow.chow import Codec, _groebner, poly_mul, poly_pow
from polychow.fan import boolean_bergman_fan
from conftest import (P1, P2, P3, P4, U34, U34_MIN_BUILDING, B111_MIN_BUILDING,
                      boolean_table, building_of)
from oracles import chains, degree, flat_atoms, pack


# --- the subset-by-subset nested-set tests, kept as references --------------


def _is_antichain(masks):
    for a in masks:
        for b in masks:
            if a != b and a & b == a:
                return False
    return True


def is_nested(building, N):
    """True iff every incomparable subcollection of size >= 2 in N has
    closure of union outside the building set.  Chains are always nested."""
    N = list(N)
    base = building.base
    members = building.members
    for mask in N:
        if mask not in members:
            raise pc.BuildingSetError("nested-set candidate %d is not a member" % mask)
    k = len(N)
    for sub in range(1, 1 << k):
        if sub.bit_count() < 2:
            continue
        chosen = [N[i] for i in range(k) if sub >> i & 1]
        if not _is_antichain(chosen):
            continue
        union = 0
        for c in chosen:
            union |= c
        if base.closure(union) in members:
            return False
    return True


def extends_nested(building, N, g, closure):
    """Whether the nested set N stays nested when the member g joins it:
    every antichain of the members of N incomparable to g, joined by g."""
    incomparable = [h for h in N if h & g != h and h & g != g]
    for sub in range(1, 1 << len(incomparable)):
        chosen = [h for i, h in enumerate(incomparable) if sub >> i & 1]
        if _is_antichain(chosen) and closure(reduce(or_, chosen, g)) in building.members:
            return False
    return True


def reference_nested_sets(building, exclude=None):
    """The nested-set walk by `extends_nested`, in the kernel's order."""
    members = [m for m in building.sorted_members() if m != exclude]
    closure = cache(building.base.closure)
    out = []

    def extend(current, start):
        out.append(frozenset(current))
        for idx in range(start, len(members)):
            g = members[idx]
            if extends_nested(building, current, g, closure):
                current.append(g)
                extend(current, idx + 1)
                current.pop()

    extend([], 0)
    out.sort(key=lambda s: (len(s), sorted(s, key=canonical_key)))
    return tuple(out)


def reference_minimalize(candidates, codec):
    """The candidates whose leading monomial no earlier one divides, in
    (degree, monomial) order, with degrees and divisibility read from the
    unpacked exponents."""
    keep = []
    for m in sorted(candidates, key=lambda m: (degree(codec, m), m)):
        exps = codec.exponents(m)
        if not any(all(x <= y for x, y in zip(codec.exponents(k), exps)) for k in keep):
            keep.append(m)
    return [(m, candidates[m]) for m in keep]


def reference_groebner(ground, building, r):
    """`chow._groebner` with its candidates grown by `_is_antichain` and
    `extends_nested`, one subset at a time."""
    members = sorted(building.members, key=canonical_key)
    index = {f: i for i, f in enumerate(members)}
    nvars = len(members)
    limit = 2 * r - 1
    codec = Codec(nvars, r)

    def mono_of(flats, extra=None, power=0):
        exps = [0] * nvars
        for f in flats:
            exps[index[f]] += 1
        if extra is not None:
            exps[index[extra]] += power
        return pack(codec, exps)

    candidates = {}

    def extend(N, union, start):
        for g in members:
            if all(f & g == f and f != g for f in N):
                d = ground.rank(g) - ground.rank(union)
                if d >= 1 and len(N) + d <= limit:
                    candidates.setdefault(mono_of(N, g, d), (N, g, d))
        for i in range(start, nvars):
            h = members[i]
            A = N + (h,)
            if not _is_antichain(A):
                continue
            if N and ground.closure(union | h) in building.members:
                candidates.setdefault(mono_of(A), (A, None, 0))
            elif len(A) < limit and extends_nested(building, N, h, ground.closure):
                extend(A, union | h, i + 1)

    extend((), 0, 0)
    generators = []
    for lt, (flats, g, d) in reference_minimalize(candidates, codec):
        poly = {mono_of(flats): 1}
        if d:
            upper_sum = {mono_of((h,)): 1 for h in members if h & g == g}
            poly = poly_mul(poly, poly_pow(upper_sum, d))
        assert max(poly) == lt and poly[lt] == 1
        generators.append((lt, poly))
    return members, generators


def assert_kernel_matches_reference(ground, building, r):
    for exclude in (None, ground.full_mask):
        assert _nested_sets(building, exclude) == reference_nested_sets(building, exclude)
    assert _groebner(building) == reference_groebner(ground, building, r)


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
    Gt = pc.lifted_building_set(building_of(P2))
    M = Gt.base
    # preimages of {0} and E, plus the three singleton atoms
    assert Gt.members == {0b001, 0b111, 0b010, 0b100}
    ok, cert = pc.is_geometric_building_set(M, Gt.members)
    assert ok


def test_lifted_building_set_p1():
    Gt = pc.lifted_building_set(building_of(P1))
    assert Gt.members == {0b01, 0b10, 0b11}


def test_lifted_building_set_is_geometric():
    U12 = [0, 1, 1, 1]
    U36 = [min(bin(S).count("1"), 3) for S in range(64)]
    for table, members in KERNEL_FIXTURES + [(U12, None), (U36, None)]:
        (_, G, _), (M, Gt, _) = fixture_building_sets(table, members)
        # the atoms of the lift, closures of singletons, are its minimal nonempty flats
        assert Gt.members == {M.proj.preimages[g] for g in G.members} | flat_atoms(M)
        ok, cert = pc.is_geometric_building_set(M, Gt.members)
        assert ok, table


def test_is_nested_chains_and_pairs():
    P = pc.Polymatroid(U34)
    G = pc.maximal_building_set(P)
    assert is_nested(G, [1, 3, 15])      # a chain
    assert not is_nested(G, [1, 2])      # join {0,1} is a flat, so a member
    Gmin = pc.BuildingSet(P, U34_MIN_BUILDING)
    assert is_nested(Gmin, [1, 2])       # same pair, smaller building set
    assert not is_nested(Gmin, [1, 2, 4, 8])   # union closes to E
    with pytest.raises(pc.BuildingSetError):
        is_nested(Gmin, [3])


def test_nested_complex_counts():
    Gt = pc.lifted_building_set(building_of(P1))
    complexes = pc.nested_complex(Gt)
    # empty set, three singletons, two nested pairs {atom, full}
    assert len(complexes) == 6
    assert frozenset() in complexes
    assert frozenset({0b01, 0b11}) in complexes
    assert frozenset({0b01, 0b10}) not in complexes


def test_nested_complex_is_a_simplicial_complex():
    Gt = pc.lifted_building_set(building_of(P3))
    complexes = set(pc.nested_complex(Gt))
    for N in complexes:
        for g in N:
            assert N - {g} in complexes


def test_nested_complex_exclude():
    Gt = pc.lifted_building_set(building_of(P1))
    M = Gt.base
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
        Gt = pc.lifted_building_set(pc.maximal_building_set(P))
        M = Gt.base
        for g in Gt.members:
            assert bin(g).count("1") == 1 or M.proj.preimages[M.proj.image(g)] == g


def test_nested_sets_have_nested_subsets():
    Gt = pc.lifted_building_set(building_of(P2))
    for N in pc.nested_complex(Gt):
        assert is_nested(Gt, N)


KERNEL_FIXTURES = [(P1, None), (P2, None), (P3, None), (P4, None), (U34, None),
                   (U34, U34_MIN_BUILDING), (boolean_table((1, 1, 1)), B111_MIN_BUILDING),
                   (boolean_table((1, 1, 2)), None), (boolean_table((2, 2)), None),
                   (boolean_table((1, 1, 1, 1)), None)]


def fixture_building_sets(table, members):
    """(ground, building set, r) for G on P and for its lift on M."""
    P = pc.Polymatroid(table)
    G = pc.maximal_building_set(P) if members is None else pc.BuildingSet(P, members)
    lifted = pc.lifted_building_set(G)
    return [(P, G, P.r), (lifted.base, lifted, P.r)]


@pytest.mark.parametrize("table,members", KERNEL_FIXTURES)
def test_antichain_kernel_matches_reference_walk(table, members):
    for ground, building, r in fixture_building_sets(table, members):
        assert_kernel_matches_reference(ground, building, r)


def test_antichain_kernel_matches_reference_walk_on_u46():
    P = pc.Polymatroid([min(bin(S).count("1"), 4) for S in range(64)])
    for ground, building, r in fixture_building_sets(P.rank_table, None):
        assert_kernel_matches_reference(ground, building, r)


@pytest.mark.parametrize("table,members", KERNEL_FIXTURES[:8])
def test_nested_complex_is_complete(table, members):
    # every member subset the reference accepts is enumerated, and no other
    for _, building, _ in fixture_building_sets(table, members):
        ordered = building.sorted_members()
        accepted = {frozenset(g for i, g in enumerate(ordered) if sub >> i & 1)
                    for sub in range(1 << len(ordered))}
        accepted = {N for N in accepted if is_nested(building, N)}
        assert set(pc.nested_complex(building)) == accepted


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


RANDOM_FAMILY_TABLES = [P1, P2, P3, P4, U34, boolean_table((1, 1, 2)), boolean_table((2, 2))]


def random_families(table):
    """150 seeded random flat families on P and on its lift, each with E,
    every other one with the atoms: (P, base, members)."""
    rng = Random(11)
    P = pc.Polymatroid(table)
    for base in (P, pc.lift(P)):
        flats = [f for f in base.flats() if f != 0]
        atoms = flat_atoms(base)
        for trial in range(150):
            members = {f for f in flats if rng.random() < 0.5}
            if trial % 2:
                members.update(atoms)
            members.add(base.full_mask)
            yield P, base, members


@pytest.mark.parametrize("table", RANDOM_FAMILY_TABLES)
def test_counting_check_matches_pairwise_on_random_families(table):
    for _, base, members in random_families(table):
        assert pc.is_geometric_building_set(base, members) \
            == pairwise_building_check(base, members), (table, sorted(members))


@pytest.mark.parametrize("table", RANDOM_FAMILY_TABLES)
def test_antichain_kernel_matches_reference_walk_on_random_families(table):
    for P, base, members in random_families(table):
        assert_kernel_matches_reference(base, pc.BuildingSet(base, members, validate=False), P.r)


def canonical_key_order(complex_):
    """The order `nested_complex` had before it kept its search's order: by
    size, then by the members sorted by `canonical_key` in each set."""
    return tuple(sorted(complex_, key=lambda N: (len(N), sorted(N, key=canonical_key))))


def test_nested_complex_order_matches_the_canonical_key_reference():
    buildings = [building for table, members in KERNEL_FIXTURES
                 for _, building, _ in fixture_building_sets(table, members)]
    buildings += [pc.BuildingSet(base, members, validate=False)
                  for table in RANDOM_FAMILY_TABLES[-3:]
                  for _, base, members in list(random_families(table))[::10]]
    for building in buildings:
        for exclude in (None, building.base.full_mask):
            complex_ = pc.nested_complex(building, exclude)
            assert complex_ == canonical_key_order(complex_)
    # the order is not the order of a plain sort of the member masks
    assert any(sorted(map(sorted, pc.nested_complex(b))) != list(map(sorted, pc.nested_complex(b)))
               for b in buildings)


def test_recursive_searches_leave_no_cyclic_garbage():
    # each self-recursive search drops its closure before it returns, so one
    # call on B(2,2,2)'s lifted building set (its flats for the chains)
    # leaves nothing for the cycle collector
    P = pc.Polymatroid(boolean_table((2, 2, 2)))
    lifted = pc.lifted_building_set(pc.maximal_building_set(P))
    M = lifted.base
    searches = {"_nested_sets": lambda: _nested_sets(lifted, M.full_mask),
                "_groebner": lambda: _groebner(lifted),
                "boolean_bergman_fan": lambda: boolean_bergman_fan(M.proj),
                "chains": lambda: chains(M.flats())}
    left = {}
    gc.collect()
    gc.disable()
    try:
        for name, search in searches.items():
            search()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(searches, 0)
