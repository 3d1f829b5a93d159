"""Geometric building sets and nested-set complexes.

Everything here is generic over a `Ground`: a `Polymatroid` or its lift,
each exposing `full_mask`, `rank`, `closure` and `flats`.
"""

from functools import cache, reduce
from itertools import product
from math import prod
from operator import or_

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
            if base.closure(m) != m:
                raise BuildingSetError("member %d is not a flat" % m)
        if validate:
            ok, cert = is_geometric_building_set(base, members)
            if not ok:
                raise BuildingSetError("building set condition fails at flat %d" % cert)

    def sorted_members(self):
        return sorted(self.members, key=canonical_key)

    def __contains__(self, mask):
        return mask in self.members

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return "BuildingSet(%d members)" % len(self.members)


def maximal_building_set(base):
    """All nonempty flats, built once and memoized on the base."""
    return memoized(base, "maximal", lambda: BuildingSet(
        base, [f for f in base.flats() if f != 0], validate=False))


def _max_members_below(members, flat):
    below = [g for g in members if g & flat == g]
    return [g for g in below if not any(h != g and h & g == g for h in below)]


def is_geometric_building_set(base, members):
    """Decide the building-set condition, returning (ok, failing_flat).

    At every nonempty flat F the ranks of the maximal members g_i below F
    must sum to rk(F), and the join map from the product of the intervals
    [0, g_i] to [0, F] must be an order isomorphism: a bijection with as
    many comparable pairs h <= k on both sides.  That suffices because the
    join (closure of the union) is monotone for every submodular rank, and
    a monotone bijection between finite posets maps comparable pairs
    injectively into comparable pairs, so it is an order isomorphism iff
    both posets have the same number of them.
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

    @cache
    def comparable_pairs(g):
        return sum(len(interval(k)) for k in interval(g))

    for F in flats:
        if F == 0:
            continue
        maxima = _max_members_below(members, F)
        if sum(base.rank(g) for g in maxima) != base.rank(F):
            return False, F
        intervals = [interval(g) for g in maxima]
        if prod(map(len, intervals)) != len(interval(F)):
            return False, F
        joins = {base.closure(reduce(or_, tup, 0)) for tup in product(*intervals)}
        if joins != set(interval(F)):
            return False, F
        if prod(map(comparable_pairs, maxima)) != comparable_pairs(F):
            return False, F
    return True, None


def memoized_on(P, G, key, build):
    """build(G), with G None read as P's maximal building set, memoized on
    G under `key` when G's base is P and built afresh otherwise."""
    G = maximal_building_set(P) if G is None else G
    return memoized(G if G.base is P else None, key, lambda: build(G))


def lifted_building_set(P, G=None):
    """The induced building set on the minimal lift.

    Members are the preimages of the members of G together with the atoms
    of the lift's flat lattice.  Returns (lift, BuildingSet on the lift),
    memoized on G when G's base is P.
    """
    def build(G):
        M = lift(P)
        members = {M.proj.preimage(g) for g in G.members}
        members.update(M.flat_lattice().atoms())
        return M, BuildingSet(M, members, validate=False)

    return memoized_on(P, G, "lifted", build)


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
            raise BuildingSetError("nested-set candidate %d is not a member" % mask)
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
    """Whether the nested set N stays nested when the member g joins it.
    Only antichain subcollections involving g can newly fail, so only the
    antichains among the members of N incomparable to g are tried, each
    joined by g; `closure` is the base's closure or a memo of it."""
    incomparable = [h for h in N if h & g != h and h & g != g]
    for sub in range(1, 1 << len(incomparable)):
        chosen = [h for i, h in enumerate(incomparable) if sub >> i & 1]
        if _is_antichain(chosen) and closure(reduce(or_, chosen, g)) in building.members:
            return False
    return True


def nested_complex(building, exclude=None):
    """All nested sets, as a tuple of frozensets of member masks, in a
    deterministic order (by size, then by sorted members).

    `exclude` drops one member (used to omit the full ground set when
    building fans).  Enumeration extends nested sets one member at a time
    (`extends_nested`); the closure-of-union lookups are memoized.  The
    tuple is memoized on the building set, one per `exclude`; more than
    DEFAULT_NESTED_CAP nested sets raise BuildingSetError.
    """
    return memoized(building, ("nested", exclude), lambda: _nested_sets(building, exclude))


def _nested_sets(building, exclude):
    members = [m for m in building.sorted_members() if m != exclude]
    closure = cache(building.base.closure)
    cap = DEFAULT_NESTED_CAP
    out = []

    def extend(current, start):
        if len(out) > cap:
            raise BuildingSetError("nested complex larger than cap %d" % cap)
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
