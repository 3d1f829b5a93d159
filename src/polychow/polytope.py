"""Polypermutohedra and the check that a fan is their inner normal fan.

A polypermutohedron vertex is c_1*e_{s_1} + ... + c_n*e_{s_n} over an
ordered transversal (s_1, ..., s_n) of the projection: one element per
fiber, position j carrying weight c_j.

A word on orientation: with 0 <= c_1 < ... < c_n and *minimization*, the
brute-force argmin selects transversals whose weights are arranged in
weakly DECREASING order (largest c paired with smallest weight), as the
rearrangement inequality predicts.
"""

import sys
from functools import reduce
from itertools import permutations, product
from operator import and_, mul

from .bitsets import elements
from .polymatroid import Immutable, memoized


def weights(n, c=None):
    """c as a tuple of ints, (1, ..., n) by default; ValueError unless it is
    a strictly increasing nonnegative sequence of length n."""
    c = tuple(range(1, n + 1)) if c is None else tuple(int(x) for x in c)
    if len(c) != n or any(a >= b for a, b in zip(c, c[1:])) or (c and c[0] < 0):
        raise ValueError("c must be a strictly increasing nonnegative sequence of length n")
    return c


class Polypermutohedron(Immutable):
    """Vertex set of Q(pi; c_1, ..., c_n), distinct and sorted.

    Vertex sets are bitsets over positions in `vertices`.  `columns` holds
    the coordinates by column, packed once into 64-bit lanes in `_memo`.
    """

    __slots__ = ("proj", "c", "vertices", "columns", "_memo")

    def __init__(self, proj, c=None):
        self.proj = proj
        self.c = c = weights(proj.n, c)
        fibers = [tuple(elements(mask)) for mask in proj.fiber_masks]
        vertices = set()
        for choice in product(*fibers):
            for seq in permutations(choice):
                v = [0] * proj.m
                for cj, s in zip(c, seq):
                    v[s] = cj
                vertices.add(tuple(v))
        self.vertices = tuple(sorted(vertices))
        self.columns = tuple(zip(*self.vertices))
        self._memo = {}

    def __repr__(self):
        return "Polypermutohedron(fibers=%r, c=%r, %d vertices)" % (
            self.proj.fiber_sizes, self.c, len(self.vertices))


def minimizing_vertices(Q, w):
    """Brute-force argmin of <w, .> over the vertices for an integer point
    w, as a bitset over positions in `Q.vertices`: <w, v> is computed for
    every vertex v.

    Every vertex has coordinate sum s = c_1 + ... + c_n, so shifting w to
    x = w - min(w) keeps the argmin and puts every <x, v> in [0, max(x) s].
    Packing each column into one int with a 64-bit lane per vertex, no
    lane carries into the next while max(x) s < 2^64: sum(x_i * column_i)
    then holds every <x, v> exactly, read back as machine words.
    Otherwise <x, v> is summed vertex by vertex.
    """
    low = min(w, default=0)
    x = [a - low for a in w]
    if max([1, *x]) * sum(Q.c) < 2**64:    # the 1 keeps each c_j in a lane
        lanes = memoized(Q, "lanes", lambda: [
            int.from_bytes(b"".join(a.to_bytes(8, sys.byteorder) for a in column), sys.byteorder)
            for column in Q.columns])
        packed = sum(map(mul, x, lanes)).to_bytes(8 * len(Q.vertices), sys.byteorder)
        values = memoryview(packed).cast("Q").tolist()
    else:
        values = [sum(map(mul, x, v)) for v in Q.vertices]
    best, k = min(values), -1
    return sum(1 << (k := values.index(best, k + 1)) for _ in range(values.count(best)))


def normal_fan_equals(Q, fan):
    """Decide whether `fan` is the inner normal fan of Q (mod all-ones) by an
    exact certificate.  For d = `fan.ambient_dim` >= 1 it requires
      (0) a maximal cone, each with d rays;
      (i) every wall, a maximal cone less one ray, in exactly two of them;
      (b) for each maximal cone sigma, exactly one vertex v_sigma in the AND
          over its rays r of face[r], the argmin of r (`minimizing_vertices`,
          one call per ray);
      (c) at each wall with opposite rays u of sigma and u' of sigma',
          v_sigma & face[u'] == 0 and v_sigma' & face[u] == 0.
    Proof, with N(v) the normal cone of v and h = min <v, .> concave:
    1. For w = sum a_r r, all a_r >= 0, over the rays of sigma, <v_sigma, w>
       = sum a_r h(r) <= h(w), and if all a_r > 0 a minimizer of w minimizes
       every r; so by (b) sigma lies in N(v_sigma), and only v_sigma
       minimizes such a w.
    2. If a ray u of sigma lay in the span of the others, the ray sum w of
       the wall sigma - u, plus a small multiple of that relation, would put
       every ray of sigma at a positive coefficient, so only v_sigma would
       minimize w (1).  The other cone sigma' at that wall (i) holds w, so
       v_sigma' = v_sigma minimizes u, which (c) forbids; so its rays are
       independent.
    3. If sigma' lay on the same side of their wall, the interiors would
       overlap and v_sigma = v_sigma', which (c) forbids.
    4. If N(v_sigma) held more than sigma, a generic segment from inside
       sigma to a point of N(v_sigma) outside it would leave sigma through
       a facet into the interior of sigma' ((i), 3), where only v_sigma' !=
       v_sigma minimizes; so N(v_sigma) = sigma.
    5. Across each facet of a normal cone lies the adjacent vertex's cone,
       and the vertex-edge graph is connected, so every vertex is some
       v_sigma (Cox-Little-Schenck, "Toric varieties", 2011, ch. 6).
    A true normal fan is complete and simplicial, so (0) and (i) hold;
    v_sigma alone has sigma in its normal cone, so (b) holds; and a ray
    outside sigma is minimized by no v_sigma, so (c) holds.  At d = 0 (B(1))
    the fan must be the one cone {} and Q one vertex.
    """
    d = fan.ambient_dim
    if d != Q.proj.m - 1:
        raise ValueError("ambient dimension mismatch")
    if d == 0:
        return fan.cones == {frozenset()} and len(Q.vertices) == 1
    maxes = fan.maximal_cones()
    sides = fan.walls().values()
    if not maxes or any(len(c) != d for c in maxes) or any(len(pair) != 2 for pair in sides):
        return False
    face = [minimizing_vertices(Q, r + (0,)) for r in fan.rays]   # in R^m, last coordinate 0
    vertex = {c: reduce(and_, map(face.__getitem__, c)) for c in maxes}
    return all(v.bit_count() == 1 for v in vertex.values()) and not any(
        vertex[c] & face[u2] or vertex[c2] & face[u] for (c, u), (c2, u2) in sides)
