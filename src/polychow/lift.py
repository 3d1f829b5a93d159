"""Minimal multisymmetric lifts of polymatroids.

The lift of P lives on the disjoint union of fibers E~_i of size rk(i).
Its rank is a minimum over subsets of the *base* ground set:

    rk(S) = min over A of  rk_P(A) + |S \\ preimage(A)|

taken over the subsets A of pi(S) alone, one of which attains it, and read
off the projection's preimage table, so it stays cheap.  The product of fiber
symmetric groups is never materialized: orbits of subsets depend only on
per-fiber counts.

Its geometric flats, the flats that are unions of fibers, are decided
from the covers of P's flats, never by enumerating the lift's lattice.
"""

from .bitsets import canonical_key, nonempty_subsets
from .polymatroid import MAX_GROUND, Ground, PolymatroidError, ProjectionMap, memoized


class MultisymMatroid(Ground):
    """The minimal multisymmetric lift of a polymatroid.

    A `Ground` like `Polymatroid`, so the building-set and fan machinery
    can treat both uniformly.  `_memo` maps each mask met so far to its
    rank; only a direct call of `flats()` on a lift fills its "flats" key.
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
        """The module's min formula over the subsets A of pi(S) only, memoized
        per mask.  For any A, A' = A & pi(S) has rk_P(A') <= rk_P(A) and
        S \\ pre(A') = S \\ pre(A), as pi(e) is in pi(S) for each e in S."""
        memo = self._memo
        cached = memo.get(S_mask)
        if cached is not None:
            return cached
        rank_table, preimages = self.base.rank_table, self.proj.preimages
        best = S_mask.bit_count()  # A = empty
        for A in nonempty_subsets(self.proj.image(S_mask)):
            value = rank_table[A] + (S_mask & ~preimages[A]).bit_count()
            if value < best:
                best = value
        memo[S_mask] = best
        return best

    def __repr__(self):
        return "MultisymMatroid(base=%r, fibers=%r)" % (self.base, self.proj.fiber_sizes)


def lift(P):
    """The unique minimal multisymmetric lift of a loopless polymatroid,
    built once per P and memoized on it, so every caller shares its rank
    memo."""
    return memoized(P, "lift", lambda: MultisymMatroid(P))


def geometric_flat_lattice(M):
    """(flats of P = M.base, geometric flats of the lift M sorted by
    `canonical_key`, the map F -> preimage(F), whether it is a lattice
    isomorphism onto them).

    It is one when cl_M(pre(A)) = pre(cl_P(A)) for every A; checking A
    empty and each cover F + i of a flat F (i not in F) suffices: by
    induction on A = B + i with F = cl_P(B), cl(cl(X) | Y) = cl(X | Y) on
    both sides turns cl_M(pre(A)) = pre(cl_P(A)) into the checked cover,
    or into pre(F) = pre(F) when i is in F.  Then every union of fibers is
    exactly one preimage pre(A), closed iff A is a flat, and joins are
    kept, so the geometric flats are the preimages of P's flats.
    """
    P, pre = M.base, M.proj.preimages
    flats = P.flats()
    mapping = {F: pre[F] for F in flats}
    isomorphic = M.closure(0) == pre[P.closure(0)] and all(
        M.closure(pre[F | 1 << i]) == pre[P.closure(F | 1 << i)]
        for F in flats for i in range(P.n) if not F >> i & 1)
    return flats, tuple(sorted(mapping.values(), key=canonical_key)), mapping, isomorphic
