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

from fractions import Fraction
from itertools import permutations, product
from random import Random

from .bitsets import elements
from .fan import random_point
from .linalg import integral
from .polymatroid import ProjectionMap


class Polypermutohedron:
    """Vertex set of Q(pi; c_1, ..., c_n) together with its transversals."""

    __slots__ = ("proj", "c", "vertices", "transversals")

    def __init__(self, proj, c=None):
        if not isinstance(proj, ProjectionMap):
            proj = ProjectionMap(proj)
        if c is None:
            c = tuple(range(1, proj.n + 1))
        c = tuple(int(x) for x in c)
        if len(c) != proj.n or any(a >= b for a, b in zip(c, c[1:])) or (c and c[0] < 0):
            raise ValueError("c must be a strictly increasing nonnegative sequence of length n")
        object.__setattr__(self, "proj", proj)
        object.__setattr__(self, "c", c)
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
        object.__setattr__(self, "transversals", tuple(transversals))
        object.__setattr__(self, "vertices", tuple(sorted(seen)))

    def __setattr__(self, name, value):
        raise AttributeError("Polypermutohedron is immutable")

    def __repr__(self):
        return "Polypermutohedron(fibers=%r, c=%r, %d vertices)" % (
            self.proj.fiber_sizes, self.c, len(self.vertices))


class LowestPoset:
    """Per-fiber weight minimizers of a vector, preordered by weight."""

    __slots__ = ("elements", "relation")

    def __init__(self, elements_, relation):
        object.__setattr__(self, "elements", frozenset(elements_))
        object.__setattr__(self, "relation", frozenset(relation))

    def __setattr__(self, name, value):
        raise AttributeError("LowestPoset is immutable")

    def __eq__(self, other):
        return (isinstance(other, LowestPoset)
                and self.elements == other.elements
                and self.relation == other.relation)

    def __hash__(self):
        return hash((self.elements, self.relation))

    def __repr__(self):
        return "LowestPoset(%r)" % (sorted(self.elements),)


def lowest_poset(proj, w):
    """Invariant under adding multiples of the all-ones vector to w."""
    if not isinstance(proj, ProjectionMap):
        proj = ProjectionMap(proj)
    mins = []
    start = 0
    for s in proj.fiber_sizes:
        block = range(start, start + s)
        lo = min(w[i] for i in block)
        mins.extend(i for i in block if w[i] == lo)
        start += s
    relation = frozenset((i, j) for i in mins for j in mins if w[i] <= w[j])
    return LowestPoset(mins, relation)


def embed(w_quotient):
    """Lift a quotient representative (m-1 coordinates) to R^m, last = 0."""
    return tuple(w_quotient) + (0,)


def minimizing_vertices(Q, w):
    """Brute-force argmin of <w, .> over the vertices, plus the transversal
    predicate's selection.  Returns (brute_set, predicate_set) of vertices."""
    best = None
    brute = set()
    for v in Q.vertices:
        value = sum(a * b for a, b in zip(w, v))
        if best is None or value < best:
            best = value
            brute = {v}
        elif value == best:
            brute.add(v)
    fiber_of = Q.proj.fiber_of
    start_mins = {}
    offset = 0
    for i, s in enumerate(Q.proj.fiber_sizes):
        block = range(offset, offset + s)
        start_mins[i] = min(w[e] for e in block)
        offset += s
    predicate = set()
    for seq, v in Q.transversals:
        if any(w[s] != start_mins[fiber_of[s]] for s in seq):
            continue
        if all(w[a] >= w[b] for a, b in zip(seq, seq[1:])):
            predicate.add(v)
    return brute, predicate


def _minimizers_from_lowest(Q, w):
    """Minimizing vertex set computed combinatorially (output-sensitive).

    Enumerates exactly the minimizing transversals: per-fiber minima,
    fibers arranged in weakly decreasing weight with all tie orders.
    """
    proj = Q.proj
    offset = 0
    argmins = []
    keys = []
    for s in proj.fiber_sizes:
        block = range(offset, offset + s)
        lo = min(w[i] for i in block)
        argmins.append([i for i in block if w[i] == lo])
        keys.append(lo)
        offset += s
    order = sorted(range(proj.n), key=lambda i: keys[i], reverse=True)
    groups = []
    for i in order:
        if groups and keys[groups[-1][0]] == keys[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    out = set()
    group_orders = [permutations(g) for g in groups]
    for arrangement in product(*group_orders):
        fibers_in_order = [i for g in arrangement for i in g]
        for choice in product(*(argmins[i] for i in fibers_in_order)):
            v = [0] * proj.m
            for cj, s in zip(Q.c, choice):
                v[s] = cj
            out.add(tuple(v))
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
    sample is scaled to integers once, which keeps its Lowest poset and
    its argmin, so the comparisons need no Fractions.
    """
    proj = Q.proj
    if fan.ambient_dim != proj.m - 1:
        raise ValueError("ambient dimension mismatch")
    by_lowest = {}
    minimizer_sets = {}
    for cone in fan.cones:
        rays = fan.cone_rays(cone)
        rep = tuple(sum(r[i] for r in rays) for i in range(fan.ambient_dim))
        w = embed(rep)
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
        w = embed(integral(random_point(rng, fan.ambient_dim))[0])
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


def nestohedron_support(members, w):
    """Support function (min convention) of the Minkowski sum of the
    simplices of a collection of subsets: sum over members of the minimum
    weight inside the member."""
    total = Fraction(0)
    for mask in members:
        total += min(w[i] for i in elements(mask))
    return total
