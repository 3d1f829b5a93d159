"""Polypermutohedra and the combinatorics of their inner normal fans.

A polypermutohedron vertex is c_1*e_{s_1} + ... + c_n*e_{s_n} over an
ordered transversal (s_1, ..., s_n) of the projection: one element per
fiber, position j carrying weight c_j.

A word on orientation: with 0 <= c_1 < ... < c_n and *minimization*, the
brute-force oracle selects transversals whose weights are arranged in
weakly DECREASING order (largest c paired with smallest weight), as the
rearrangement inequality predicts.  One characterization,
`_minimizers_from_lowest`, reads the minimizers off the Lowest poset:
the per-fiber minima, fibers in weakly decreasing weight order;
`normal_fan_equals` checks it against the oracle.
"""

import sys
from functools import reduce
from itertools import permutations, product
from operator import and_, mul, or_
from random import Random

from .bitsets import elements
from .fan import random_integral_point
from .linalg import integral
from .polymatroid import Immutable, ProjectionMap, memoized


class Polypermutohedron(Immutable):
    """Vertex set of Q(pi; c_1, ..., c_n) and the vertex of each transversal.

    Vertex sets are bitsets over positions in `vertices`; `vertex_of` maps
    each transversal seq to its vertex's position.  `columns` holds the
    coordinates by column, packed once into 64-bit lanes in `_memo`.
    """

    __slots__ = ("proj", "c", "vertices", "columns", "vertex_of", "_memo")

    def __init__(self, proj, c=None):
        if not isinstance(proj, ProjectionMap):
            proj = ProjectionMap(proj)
        if c is None:
            c = tuple(range(1, proj.n + 1))
        c = tuple(int(x) for x in c)
        if len(c) != proj.n or any(a >= b for a, b in zip(c, c[1:])) or (c and c[0] < 0):
            raise ValueError("c must be a strictly increasing nonnegative sequence of length n")
        self.proj = proj
        self.c = c
        fibers = [tuple(elements(mask)) for mask in proj.fiber_masks]
        vertex_of = {}
        for choice in product(*fibers):
            for seq in permutations(choice):
                v = [0] * proj.m
                for cj, s in zip(c, seq):
                    v[s] = cj
                vertex_of[seq] = tuple(v)
        vertices = []                # distinct and sorted; vertex_of then maps to positions
        for seq in sorted(vertex_of, key=vertex_of.__getitem__):
            if vertices[-1:] != [vertex_of[seq]]:
                vertices.append(vertex_of[seq])
            vertex_of[seq] = len(vertices) - 1
        self.vertices = tuple(vertices)
        self.vertex_of = vertex_of
        self.columns = tuple(zip(*self.vertices))
        self._memo = {}

    def __repr__(self):
        return "Polypermutohedron(fibers=%r, c=%r, %d vertices)" % (
            self.proj.fiber_sizes, self.c, len(self.vertices))


def _lowest_ranks(proj, w):
    """w's Lowest poset: its per-fiber weight minimizers, in increasing
    order, each paired with its dense weight rank, the number of distinct
    minimizer weights below its own.  The weight preorder on the minimizers
    is total, and a total preorder and its dense rank function determine
    each other, so this tuple is the poset.  It is invariant under adding
    multiples of the all-ones vector to the sequence w."""
    lows, start = [], 0
    for s in proj.fiber_sizes:
        lows.append(min(w[start:start + s]))
        start += s
    rank = {x: k for k, x in enumerate(sorted(set(lows)))}
    return tuple((i, rank[lows[f]]) for i, f in enumerate(proj.fiber_of) if w[i] == lows[f])


def embed(w_quotient):
    """Lift a quotient representative (m-1 coordinates) to R^m, last = 0."""
    return tuple(w_quotient) + (0,)


def minimizing_vertices(Q, w):
    """Brute-force argmin of <w, .> over the vertices, as a bitset over
    positions in `Q.vertices`: <w, v> is computed for every vertex v.

    Every vertex has coordinate sum s = c_1 + ... + c_n, so shifting
    W = `integral(w)` to x = W - min(W) keeps the argmin and puts every
    <x, v> in [0, max(x) s].  Packing each column into one int with a
    64-bit lane per vertex, no lane carries into the next while
    max(x) s < 2^64: sum(x_i * column_i) then holds every <x, v> exactly,
    read back as machine words.  Otherwise <x, v> is summed vertex by vertex.
    """
    W, _ = integral(w)
    low = min(W, default=0)
    x = [a - low for a in W]
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


def _position_masks(Q):
    """masks[i, a, b]: the vertices with a transversal that puts element i
    at a position in [a, b), as a bitset."""
    n = Q.proj.n
    at = [[0] * n for _ in range(Q.proj.m)]
    for seq, k in Q.vertex_of.items():
        for j, i in enumerate(seq):
            at[i][j] |= 1 << k
    return {(i, a, b): reduce(or_, row[a:b]) for i, row in enumerate(at)
            for a in range(n) for b in range(a + 1, n + 1)}


def _minimizers_from_lowest(Q, ranks):
    """Minimizing vertex set of every w whose Lowest poset is `ranks`
    (`_lowest_ranks`).

    A transversal minimizes iff each fiber f puts one of its minimizers in
    its rank block [a, b) of positions, where a fibers have higher rank than
    f and b - a have its rank.  So a vertex minimizes iff, for every f, it
    is in masks[i, a, b] (`_position_masks`, memoized on Q) for a minimizer
    i of f: at c_1 = 0 a vertex's transversals differ only in the element
    at position 1, which enters only its own fiber's condition.  The AND
    starts from every vertex, so n = 0 gives the one empty vertex.
    """
    masks = memoized(Q, "position_masks", lambda: _position_masks(Q))
    fiber_of = Q.proj.fiber_of
    fiber_rank = {fiber_of[i]: rank for i, rank in ranks}
    order = sorted(fiber_rank.values(), reverse=True)
    either = dict.fromkeys(fiber_rank, 0)   # fiber -> OR over its minimizers
    for i, rank in ranks:
        a = order.index(rank)
        either[fiber_of[i]] |= masks[i, a, a + order.count(rank)]
    return reduce(and_, either.values(), (1 << len(Q.vertices)) - 1)


def normal_fan_equals(Q, fan, trials=1000, seed=0):
    """Decide whether `fan` is the inner normal fan of Q (mod all-ones).

    Exhaustive part: each cone's interior representative is classified by
    its Lowest poset; representatives of distinct cones must disagree, and
    distinct cones must select distinct minimizing vertex sets, read off
    their Lowest posets by `_minimizers_from_lowest`.  With a
    `fan.subset_index`, a cone's representative counts, per element, the
    ray subsets holding it: its lifted ray sum plus a multiple of (1, ..., 1).
    Sampling part: random rational points must land in the classification
    (so the fan is complete), and each one's brute-force argmin must be the
    set stored for its Lowest poset, so points share a relative interior if
    and only if they minimize at the same vertex set.  That set is, by
    construction, the characterization at the sample, so every sample
    tests brute(w) == characterization(_lowest_ranks(w)) as bitsets, by one
    `minimizing_vertices` call.  Samples are drawn as integers by
    `random_integral_point`: positive multiples of rational points, with
    their Lowest posets and argmins, so the comparisons need no Fractions.
    """
    proj = Q.proj
    if fan.ambient_dim != proj.m - 1:
        raise ValueError("ambient dimension mismatch")
    contain = fan.subset_index and fan.subset_index[0]
    minimizers = {}                  # Lowest poset's ranks -> vertex set
    for bits, cone in fan.cone_masks().items():
        if contain:
            w = [(e & bits).bit_count() for e in contain]
        else:
            rays = fan.cone_rays(cone)
            w = embed(map(sum, zip(*rays)) if rays else (0,) * fan.ambient_dim)
        key = _lowest_ranks(proj, w)
        if key in minimizers:
            return False
        minimizers[key] = _minimizers_from_lowest(Q, key)
    if len(set(minimizers.values())) != len(minimizers):
        return False
    rng = Random(seed)
    for _ in range(trials):
        w = embed(random_integral_point(rng, fan.ambient_dim))
        mins = minimizers.get(_lowest_ranks(proj, w))
        if mins is None or minimizing_vertices(Q, w) != mins:
            return False
    return True
