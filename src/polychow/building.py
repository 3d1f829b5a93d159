"""Geometric building sets and nested-set complexes.

Everything here is generic over a `Ground`: a `Polymatroid` or its lift,
each exposing `full_mask`, `rank`, `closure` and `flats`.
"""

from functools import cache
from math import prod

from .bitsets import canonical_key
from .lift import lift
from .polymatroid import Immutable, memoized

DEFAULT_NESTED_CAP = 200_000


class BuildingSetError(ValueError):
    pass


class BuildingSet(Immutable):
    """A geometric building set: a set of nonempty flats containing E.
    `_memo` holds its nested complexes and, for a base P, its lifted
    building set, Bergman fan and both Chow-ring presentations."""

    __slots__ = ("base", "members", "_memo")

    def __init__(self, base, members, validate=True):
        members = frozenset(int(m) for m in members)
        self.base = base
        self.members = members
        self._memo = {}
        if base.full_mask not in members:
            raise BuildingSetError("building set must contain the full ground set")
        for m in members:
            if m == 0:
                raise BuildingSetError("building set members must be nonempty")
            if m < 0 or m & ~base.full_mask:
                raise BuildingSetError("member %d is not a subset of the ground set" % m)
            if base.closure(m) != m:
                raise BuildingSetError("member %d is not a flat" % m)
        if validate:
            ok, cert = is_geometric_building_set(base, members)
            if not ok:
                raise BuildingSetError("building set condition fails at flat %d" % cert)

    def sorted_members(self):
        return sorted(self.members, key=canonical_key)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return "BuildingSet(%d members)" % len(self.members)


def maximal_building_set(base):
    """All nonempty flats, built once and memoized on the base."""
    return memoized(base, "maximal", lambda: BuildingSet(
        base, [f for f in base.flats() if f != 0], validate=False))


def _max_members_below(members, flat):
    """The maximal members inside `flat`.  Taken largest first, a member is
    kept unless a kept one contains it: a member below another lies below
    a maximal one, and every containing member is larger."""
    maxima = []
    for g in sorted((g for g in members if g & flat == g), key=int.bit_count, reverse=True):
        if not any(g & h == g for h in maxima):
            maxima.append(g)
    return maxima


def is_geometric_building_set(base, members):
    """Decide the building-set condition, returning (ok, failing_flat).

    At every nonempty flat F the ranks of the maximal members g_i below F
    must sum to rk(F), and the join map from the product of the intervals
    [0, g_i] to [0, F] must be a bijection.  That bijection is an order
    isomorphism for every real closure (a `Polymatroid` or a lift), so no
    order test follows: the join (closure of the union) is monotone for
    every submodular rank, and join(s) <= join(t) gives join(s v t) =
    join(t) with s v t >= t, so an injective join map also reflects the
    order.
    """
    members = frozenset(members)
    full = base.full_mask
    if full not in members:
        return False, full
    flats = base.flats()
    flat_set = set(flats)
    for g in members:
        if g == 0 or g not in flat_set:
            return False, g

    @cache
    def interval(g):
        return [h for h in flats if h & g == h]

    closure = cache(base.closure)

    for F in flats:
        if F == 0:
            continue
        maxima = _max_members_below(members, F)
        if sum(base.rank(g) for g in maxima) != base.rank(F):
            return False, F
        intervals = [interval(g) for g in maxima]
        if prod(map(len, intervals)) != len(interval(F)):
            return False, F
        unions = {0}
        for below in intervals:
            unions = {u | h for u in unions for h in below}
        if {closure(u) for u in unions} != set(interval(F)):
            return False, F
    return True, None


def lifted_building_set(G):
    """The induced building set on the minimal lift of G.base, memoized
    on G; its base is the lift.

    Members are the preimages of the members of G together with the atoms
    of the lift, its rank-1 flats: the lift is loopless, so these are the
    closures of its singletons.
    """
    def build():
        M = lift(G.base)
        members = {M.proj.preimages[g] for g in G.members}
        members.update(M.closure(1 << e) for e in range(M.n))
        return BuildingSet(M, members, validate=False)

    return memoized(G, "lifted", build)


def nested_complex(building, exclude=None):
    """All nested sets, as a tuple of frozensets of member masks, in a
    deterministic order: by size, then by the tuple of members in
    `sorted_members` order, which the search of `_nested_sets` builds.

    `exclude` drops one member (used to omit the full ground set when
    building fans).  The tuple is memoized on the building set, one per
    `exclude`; more than DEFAULT_NESTED_CAP nested sets raise
    BuildingSetError.
    """
    return memoized(building, ("nested", exclude), lambda: _nested_sets(building, exclude))


def comparability_masks(members):
    """Per member, the bits of the members comparable to it (itself
    included) and the bits of those strictly above it."""
    return ([sum(1 << j for j, h in enumerate(members) if h & g in (g, h)) for g in members],
            [sum(1 << j for j, h in enumerate(members) if h != g and h & g == g) for g in members])


def _nested_sets(building, exclude):
    """N is nested when no antichain A of N with two or more members has
    closure(union A) in G.  The depth-first search in member order carries
    the (member bits, union) of each nonempty antichain of N.  Lemma: adding
    g to a nested N can break only the sets A + {g}, A an antichain of N
    incomparable to g.  So g joins iff no such carried A has
    closure(union A | g) in G; N + {g} has the old antichains, {g} and each tested A + {g}."""
    members = [m for m in building.sorted_members() if m != exclude]
    comparable = comparability_masks(members)[0]
    closure = cache(building.base.closure)
    inside = building.members
    out = []

    def extend(current, antichains, start):
        if len(out) > DEFAULT_NESTED_CAP:
            raise BuildingSetError("nested complex larger than cap %d" % DEFAULT_NESTED_CAP)
        out.append(tuple(current))
        for i in range(start, len(members)):
            g, comp = members[i], comparable[i]
            grown = [(1 << i, g)]
            for bits, union in antichains:
                if not bits & comp:
                    if closure(union | g) in inside:
                        break
                    grown.append((bits | 1 << i, union | g))
            else:
                current.append(g)
                extend(current, antichains + grown, i + 1)
                current.pop()

    extend([], [], 0)
    del extend                   # the closure refers to itself: break the cycle
    out.sort(key=lambda N: (len(N), N))
    return tuple(map(frozenset, out))
