"""Geometric building sets and nested-set complexes.

Everything here is generic over a "ground" object exposing `full_mask`,
`rank`, `closure` and `flats` (either a `Polymatroid` or a lift).
"""

from itertools import product

from .bitsets import canonical_key
from .lift import lift

DEFAULT_NESTED_CAP = 200_000


class BuildingSetError(ValueError):
    pass


class BuildingSet:
    """A geometric building set: a set of nonempty flats containing E."""

    __slots__ = ("base", "members")

    def __init__(self, base, members, validate=True):
        members = frozenset(int(m) for m in members)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "members", members)
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

    def __setattr__(self, name, value):
        raise AttributeError("BuildingSet is immutable")

    def sorted_members(self):
        return sorted(self.members, key=canonical_key)

    def __contains__(self, mask):
        return mask in self.members

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return "BuildingSet(%d members)" % len(self.members)


def maximal_building_set(base):
    """All nonempty flats."""
    return BuildingSet(base, [f for f in base.flats() if f != 0], validate=False)


def _max_members_below(members, flat):
    below = [g for g in members if g & flat == g]
    return [g for g in below if not any(h != g and h & g == g for h in below)]


def is_geometric_building_set(base, members):
    """Decide the building-set condition, returning (ok, failing_flat).

    At every nonempty flat F both the rank-sum identity and the
    interval-product isomorphism must hold for the maximal members below
    F.  The isomorphism is checked literally: tuples of flats below the
    maximal members map to their join, and the map must be a bijection
    onto the interval below F that preserves and reflects order.
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
    for F in flats:
        if F == 0:
            continue
        maxima = _max_members_below(members, F)
        if sum(base.rank(g) for g in maxima) != base.rank(F):
            return False, F
        intervals = [[h for h in flats if h & g == h] for g in maxima]
        interval_F = [h for h in flats if h & F == h]
        size = 1
        for iv in intervals:
            size *= len(iv)
        if size != len(interval_F):
            return False, F
        tuples = list(product(*intervals)) if intervals else [()]
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


def lifted_building_set(P, G=None):
    """The induced building set on the minimal lift.

    Members are the preimages of the members of G together with the atoms
    of the lift's flat lattice.  Returns (lift, BuildingSet on the lift).
    """
    M = lift(P)
    if G is None:
        G = maximal_building_set(P)
    members = {M.proj.preimage(g) for g in G.members}
    members.update(M.flat_lattice().atoms())
    return M, BuildingSet(M, members, validate=False)


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


def nested_complex(building, exclude=None, cap=None):
    """All nested sets, as frozensets of member masks, in a deterministic
    order (by size, then by sorted members).

    `exclude` drops one member (used to omit the full ground set when
    building fans).  Enumeration extends antichain-compatible members
    incrementally; the closure-of-union lookups are memoized.
    """
    base = building.base
    members = [m for m in building.sorted_members() if m != exclude]
    cap = cap or DEFAULT_NESTED_CAP
    closure_memo = {}

    def closure(mask):
        result = closure_memo.get(mask)
        if result is None:
            result = base.closure(mask)
            closure_memo[mask] = result
        return result

    out = []

    def extend(current, start):
        if len(out) > cap:
            raise BuildingSetError("nested complex larger than cap %d" % cap)
        out.append(frozenset(current))
        for idx in range(start, len(members)):
            g = members[idx]
            incomparable = [h for h in current if h & g != h and h & g != g]
            ok = True
            # Only antichain subcollections involving g can newly fail.
            for sub in range(1 << len(incomparable)):
                chosen = [incomparable[i] for i in range(len(incomparable))
                          if sub >> i & 1]
                if not chosen or not _is_antichain(chosen):
                    continue
                union = g
                for c in chosen:
                    union |= c
                if closure(union) in building.members:
                    ok = False
                    break
            if ok:
                current.append(g)
                extend(current, idx + 1)
                current.pop()

    extend([], 0)
    out.sort(key=lambda s: (len(s), sorted(s, key=canonical_key)))
    return out
