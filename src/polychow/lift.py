"""Minimal multisymmetric lifts of polymatroids.

The lift of P lives on the disjoint union of fibers E~_i of size rk(i).
Its rank is a minimum over subsets of the *base* ground set:

    rk(S) = min over A of  rk_P(A) + |S \\ preimage(A)|

which makes it cheap to evaluate even though the lifted ground set is
larger.  The product of fiber symmetric groups is never materialized:
orbits of subsets depend only on per-fiber counts.
"""

from .bitsets import canonical_key
from .polymatroid import MAX_GROUND, Ground, PolymatroidError, ProjectionMap, memoized


class MultisymMatroid(Ground):
    """The minimal multisymmetric lift of a polymatroid.

    A `Ground` like `Polymatroid`, so the building-set and fan machinery
    can treat both uniformly.  `_memo` maps each mask met so far to its
    rank, and string keys to derived structures (its flats and maximal
    building set).
    """

    __slots__ = ("base", "proj", "_memo")

    def __init__(self, base):
        self.base = base
        sizes = [base.rank(1 << i) for i in range(base.n)]
        self.proj = ProjectionMap(sizes)
        if self.proj.m > MAX_GROUND:
            raise PolymatroidError("size", None,
                                   "lift ground set larger than %d" % MAX_GROUND)
        self._memo = {}

    @property
    def n(self):
        return self.proj.m

    def rank(self, S_mask):
        memo = self._memo
        cached = memo.get(S_mask)
        if cached is not None:
            return cached
        base = self.base
        preimage = self.proj.preimage
        best = S_mask.bit_count()  # A = empty
        for A in range(1, 1 << base.n):
            value = base.rank_table[A] + (S_mask & ~preimage(A)).bit_count()
            if value < best:
                best = value
        memo[S_mask] = best
        return best

    def flats(self):
        """All flats of the lift, enumerated by closure BFS; memoized."""
        def bfs():
            bottom = self.closure(0)
            seen = {bottom}
            frontier = [bottom]
            while frontier:
                nxt = []
                for f in frontier:
                    for e in range(self.n):
                        bit = 1 << e
                        if not f & bit:
                            g = self.closure(f | bit)
                            if g not in seen:
                                seen.add(g)
                                nxt.append(g)
                frontier = nxt
            return tuple(sorted(seen, key=canonical_key))

        return memoized(self, "flats", bfs)

    def geometric_flats(self):
        """The flats that are unions of fibers."""
        fibers = self.proj.fiber_masks
        return tuple(f for f in self.flats() if all(f & fm in (0, fm) for fm in fibers))

    def __repr__(self):
        return "MultisymMatroid(base=%r, fibers=%r)" % (self.base, self.proj.fiber_sizes)


def lift(P):
    """The unique minimal multisymmetric lift of a loopless polymatroid,
    built once per P and memoized on it, so every caller shares its rank
    memo and flats."""
    return memoized(P, "lift", lambda: MultisymMatroid(P))


def geometric_flat_lattice(M):
    """Geometric flats of the lift together with the base-lattice bijection.

    Returns (flats_of_P, geometric_flats_of_M, mapping F -> preimage(F)).
    Raises if some preimage of a base flat fails to be a flat of M, which
    would indicate an implementation bug.
    """
    base_flats = M.base.flats()
    mapping = {}
    for F in base_flats:
        pre = M.proj.preimage(F)
        if not M.is_flat(pre):
            raise AssertionError(
                "preimage of base flat %d is not a flat of the lift" % F)
        mapping[F] = pre
    geo = M.geometric_flats()
    if sorted(mapping.values()) != sorted(geo):
        raise AssertionError("geometric flats do not match base flat preimages")
    return base_flats, geo, mapping
