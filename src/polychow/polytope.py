"""Polypermutohedra and the combinatorics of their inner normal fans.

A polypermutohedron vertex is c_1*e_{s_1} + ... + c_n*e_{s_n} over an
ordered transversal (s_1, ..., s_n) of the projection: one element per
fiber, position j carrying weight c_j.

A word on orientation: with 0 <= c_1 < ... < c_n and *minimization*, the
brute-force oracle selects transversals whose weights are arranged in
weakly DECREASING order (largest c paired with smallest weight), as the
rearrangement inequality predicts.  The characterization predicate below
follows the oracle.
"""

from itertools import groupby, permutations, product
from operator import itemgetter
from random import Random

from .fan import random_integral_point
from .polymatroid import Immutable, ProjectionMap


class Polypermutohedron(Immutable):
    """Vertex set of Q(pi; c_1, ..., c_n) together with its transversals.

    `columns` holds the vertex coordinates column by column, and
    `selectors` holds, per transversal (seq, v), the mask of seq, the mask
    of its consecutive pairs (bit a*m + b for each a, b adjacent in seq),
    and v; `minimizing_vertices` reads both.  `vertex_of` maps each
    transversal seq to its vertex v, for `_minimizers_from_lowest`.
    """

    __slots__ = ("proj", "c", "vertices", "transversals", "columns", "selectors",
                 "vertex_of")

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
        fibers = [tuple(range(sum(proj.fiber_sizes[:i]),
                              sum(proj.fiber_sizes[:i + 1])))
                  for i in range(proj.n)]
        transversals = []
        seen = {}
        for choice in product(*fibers):
            for order in permutations(range(proj.n)):
                seq = tuple(choice[i] for i in order)
                v = [0] * proj.m
                for cj, s in zip(c, seq):
                    v[s] = cj
                v = tuple(v)
                transversals.append((seq, v))
                seen[v] = None
        self.transversals = tuple(transversals)
        self.vertex_of = dict(transversals)
        self.vertices = tuple(sorted(seen))
        self.columns = tuple(zip(*self.vertices))
        self.selectors = tuple(
            (sum(1 << s for s in seq),
             sum(1 << (a * proj.m + b) for a, b in zip(seq, seq[1:])),
             v)
            for seq, v in transversals)

    def __repr__(self):
        return "Polypermutohedron(fibers=%r, c=%r, %d vertices)" % (
            self.proj.fiber_sizes, self.c, len(self.vertices))


class LowestPoset(Immutable):
    """Per-fiber weight minimizers of a vector, preordered by weight.

    `ranks` pairs each minimizer, in increasing order, with its dense
    weight rank: how many distinct weights of minimizers lie below its own.
    The weight preorder is total, and a total preorder on a finite set and
    its dense rank function determine each other: i <= j iff rank(i) <=
    rank(j), and rank(i) counts the classes strictly below that of i.  So
    equality and hashing compare `ranks`, and `elements` and `relation`
    (the pairs (i, j) with i <= j) are read from it.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks):
        self.ranks = tuple(ranks)

    @property
    def elements(self):
        return frozenset(i for i, _ in self.ranks)

    @property
    def relation(self):
        return frozenset((i, j) for i, a in self.ranks for j, b in self.ranks if a <= b)

    def __eq__(self, other):
        return isinstance(other, LowestPoset) and self.ranks == other.ranks

    def __hash__(self):
        return hash(self.ranks)

    def __repr__(self):
        return "LowestPoset(%r)" % (sorted(self.elements),)


def _fiber_argmins(sizes, w):
    """Per fiber, in order: its minimum weight and the positions attaining it."""
    out = []
    start = 0
    for s in sizes:
        block = w[start:start + s]
        lo = min(block)
        out.append((lo, [i for i, x in enumerate(block, start) if x == lo] if s > 1
                    else [start]))
        start += s
    return out


def lowest_poset(proj, w):
    """Invariant under adding multiples of the all-ones vector to w."""
    if not isinstance(proj, ProjectionMap):
        proj = ProjectionMap(proj)
    argmins = _fiber_argmins(proj.fiber_sizes, w)
    rank = {x: k for k, x in enumerate(sorted({lo for lo, _ in argmins}))}
    return LowestPoset([(i, rank[lo]) for lo, block in argmins for i in block])


def embed(w_quotient):
    """Lift a quotient representative (m-1 coordinates) to R^m, last = 0."""
    return tuple(w_quotient) + (0,)


def minimizing_vertices(Q, w):
    """Brute-force argmin of <w, .> over the vertices, plus the transversal
    predicate's selection.  Returns (brute_set, predicate_set) of vertices.

    The values <w, v> are summed one vertex column at a time.  A
    transversal is selected when its mask lies inside the positions that
    attain their fiber's minimum weight, and its weights weakly decrease:
    none of its consecutive pairs (a, b) is a rise, w[a] < w[b]; the rises
    are read off one sort of the positions by decreasing weight.
    """
    values = [0] * len(Q.vertices)
    for x, column in zip(w, Q.columns):
        if x:
            values = [s + x * a for s, a in zip(values, column)]
    best = min(values)
    brute = {v for v, value in zip(Q.vertices, values) if value == best}
    lows = start = 0
    for size in Q.proj.fiber_sizes:
        block = w[start:start + size]
        low = min(block)
        for i, x in enumerate(block, start):
            if x == low:
                lows |= 1 << i
        start += size
    m = Q.proj.m
    rises = above = level = 0        # positions of larger weight, and of this one
    last = None
    for a in sorted(range(m), key=w.__getitem__, reverse=True):
        if w[a] != last:
            above, level, last = above | level, 0, w[a]
        level |= 1 << a
        rises |= above << (a * m)
    predicate = {v for mask, pairs, v in Q.selectors
                 if mask & lows == mask and not pairs & rises}
    return brute, predicate


def _minimizers_from_lowest(Q, w):
    """Minimizing vertex set computed combinatorially (output-sensitive).

    Enumerates exactly the minimizing transversals: per-fiber minima,
    fibers arranged in weakly decreasing weight with all tie orders; their
    vertices are read from `Q.vertex_of`.
    """
    fibers = sorted(_fiber_argmins(Q.proj.fiber_sizes, w), key=itemgetter(0), reverse=True)
    out = set()
    for arrangement in product(*(permutations(g) for _, g in groupby(fibers, itemgetter(0)))):
        out.update(map(Q.vertex_of.__getitem__,
                       product(*(block for group in arrangement for _, block in group))))
    return out


def normal_fan_equals(Q, fan, trials=1000, seed=0):
    """Decide whether `fan` is the inner normal fan of Q (mod all-ones).

    Exhaustive part: each cone's interior representative is classified by
    its Lowest poset; representatives of distinct cones must disagree, and
    distinct cones must select distinct minimizing vertex sets.  Sampling
    part: random rational points must land in the classification (so the
    fan is complete), and points share a relative interior if and only if
    they minimize at the same vertex set; the transversal predicate is
    validated against the brute-force vertex oracle on every sample.  Each
    sample is drawn as integers by `random_integral_point`, a positive
    multiple of the rational point with the same Lowest poset and argmin,
    so the comparisons need no Fractions.
    """
    proj = Q.proj
    if fan.ambient_dim != proj.m - 1:
        raise ValueError("ambient dimension mismatch")
    by_lowest = {}
    minimizer_sets = {}
    for cone in fan.cones:
        rays = fan.cone_rays(cone)
        w = embed(map(sum, zip(*rays)) if rays else (0,) * fan.ambient_dim)
        lo = lowest_poset(proj, w)
        if lo in by_lowest:
            return False
        by_lowest[lo] = cone
        mins = frozenset(_minimizers_from_lowest(Q, w))
        minimizer_sets[cone] = mins
    if len(set(minimizer_sets.values())) != len(minimizer_sets):
        return False
    rng = Random(seed)
    for _ in range(trials):
        w = embed(random_integral_point(rng, fan.ambient_dim))
        lo = lowest_poset(proj, w)
        cone = by_lowest.get(lo)
        if cone is None:
            return False
        brute, predicate = minimizing_vertices(Q, w)
        if brute != predicate:
            return False
        if frozenset(brute) != minimizer_sets[cone]:
            return False
    return True

