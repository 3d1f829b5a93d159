"""Bergman fans of polymatroids, with exact structural validators.

Lattice vectors live in Z^E~ / Z(1,...,1); the canonical representative
drops the last coordinate, so the indicator vector of a subset S is

    v_i = [i in S] - [m-1 in S]      (i = 0, ..., m-2).

Rays are stored primitive and deduplicated; a cone is the sorted set of
its ray indices (all cones here are simplicial).  Cone membership and the
pairwise-faces check use integer arithmetic only.
"""

from functools import reduce
from itertools import combinations
from operator import and_, mul

from . import linalg
from .bitsets import elements, nonempty_subsets
from .building import _max_members_below, lifted_building_set, nested_complex
from .polymatroid import Immutable, memoized


def subset_vector(S_mask, m):
    """Quotient representative of the indicator vector e_S."""
    drop = 1 if S_mask >> (m - 1) & 1 else 0
    return tuple((1 if S_mask >> i & 1 else 0) - drop for i in range(m - 1))


def subset_mask(ray):
    """The subset S with subset_vector(S, len(ray) + 1) == ray, or None when
    the ray is not an indicator vector in the quotient."""
    values = set(ray)
    if values <= {0, 1} and 1 in values:
        return sum(1 << i for i, x in enumerate(ray) if x)
    if values <= {0, -1} and -1 in values:
        return sum(1 << i for i, x in enumerate(ray) if not x) | 1 << len(ray)
    return None


class Fan(Immutable):
    """A simplicial fan given by a ray table and cones as ray-index sets.

    `_memo` maps each cone tested so far to its `_locator`, and string keys
    to what derives from the fan alone: `maximal_cones`, `cone_masks`,
    `subset_index` and `walls`.
    """

    __slots__ = ("ambient_dim", "rays", "ray_index", "cones", "_memo")

    def __init__(self, ambient_dim, rays, cones):
        self.ambient_dim = ambient_dim
        self.rays = tuple(tuple(r) for r in rays)
        self.ray_index = {r: i for i, r in enumerate(self.rays)}
        self.cones = frozenset(frozenset(c) for c in cones)
        self._memo = {}

    def cone_rays(self, cone):
        return [self.rays[i] for i in sorted(cone)]

    @property
    def max_dim(self):
        return max((len(c) for c in self.cones), default=0)

    def maximal_cones(self):
        """The cones in no other cone, in the order of `cones`; memoized.  Taken
        largest first, a cone is maximal iff no maximal cone found so far holds
        it, that is, iff the AND of its rays' bitsets of those cones is 0."""
        def build():
            holders, found = [0] * len(self.rays), []
            for c in sorted(self.cones, key=len, reverse=True):
                if not reduce(and_, map(holders.__getitem__, c), (1 << len(found)) - 1):
                    for i in c:
                        holders[i] |= 1 << len(found)
                    found.append(c)
            kept = set(found)
            return tuple(c for c in self.cones if c in kept)

        return memoized(self, "maximal_cones", build)

    def cone_masks(self):
        """Each cone keyed by its bitset of ray indices; memoized."""
        return memoized(self, "cone_masks", lambda: {
            sum(1 << i for i in c): c for c in self.cones})

    def subset_index(self):
        """None unless every ray is a `subset_vector`; then two tuples of
        bitsets over ray indices, for `locate`: per element of E~ the rays
        whose subsets contain it, and per ray the rays whose subsets strictly
        contain its subset.  Memoized."""
        def build():
            masks = [subset_mask(r) for r in self.rays]
            return None if None in masks else (
                tuple(sum(1 << j for j, T in enumerate(masks) if T >> e & 1)
                      for e in range(self.ambient_dim + 1)),
                tuple(sum(1 << j for j, U in enumerate(masks) if U != T and U & T == T)
                      for T in masks))

        return memoized(self, "subset_index", build)

    def walls(self):
        """Each wall, a maximal cone less one ray u, mapped to its (cone, u)
        pairs in the order of `maximal_cones`; memoized."""
        def build():
            table = {}
            for c in self.maximal_cones():
                for u in c:
                    table.setdefault(c - {u}, []).append((c, u))
            return table

        return memoized(self, "walls", build)

    def cones_as_ray_sets(self):
        """Canonical form for cross-construction comparison."""
        return {frozenset(self.rays[i] for i in c) for c in self.cones}

    def __eq__(self, other):
        return other is self or (isinstance(other, Fan)
                                 and self.ambient_dim == other.ambient_dim
                                 and self.cones_as_ray_sets() == other.cones_as_ray_sets())

    def __hash__(self):
        return hash((self.ambient_dim, frozenset(self.cones_as_ray_sets())))

    def __repr__(self):
        return "Fan(dim=%d, rays=%d, cones=%d)" % (
            self.ambient_dim, len(self.rays), len(self.cones))


def nested_set_fan(building):
    """Cones spanned by indicator vectors of nested sets not containing the
    full ground set E~ of `building.base`, as sets of indices into the rays
    of the members, sorted by vector.  Every other member is a nested set
    alone, and its indicator vector has entries all 0 and 1 or all 0 and
    -1, so it is primitive, nonzero and distinct from every other member's."""
    full, m = building.base.full_mask, building.base.n
    table = sorted((subset_vector(g, m), g) for g in building.members if g != full)
    index = {g: i for i, (_, g) in enumerate(table)}
    return Fan(m - 1, [r for r, _ in table],
               [{index[g] for g in N} for N in nested_complex(building, exclude=full)])


def bergman_fan(G):
    """The Bergman fan of (G.base, G) via nested sets of the lifted building
    set, memoized on G, so its callers share the cone locators and wall
    table memoized on it."""
    return memoized(G, "fan", lambda: nested_set_fan(lifted_building_set(G)))


def boolean_bergman_fan(proj):
    """The complete fan of a Boolean polymatroid: chains of proper nonempty
    subsets of E plus a subset S of E~ containing no fiber.  The rays, one
    table sorted by vector, are the preimages of proper nonempty subsets of
    E and the singletons of fibers of two or more elements.  A chain grows
    by the proper nonempty submasks of its top's complement, so each chain,
    and each S (a proper submask per fiber), is built once as ray indices."""
    n, m = proj.n, proj.m
    full = (1 << n) - 1
    subsets = list(proj.preimages[1:full])
    subsets += [1 << e for fm in proj.fiber_masks if fm & fm - 1 for e in elements(fm)]
    table = sorted((subset_vector(T, m), T) for T in subsets)
    index = {T: i for i, (_, T) in enumerate(table)}
    chains = []

    def extend(chain, top):
        chains.append(chain)
        rest = sub = full & ~top
        while sub:
            if sub != rest:          # top | rest is E itself
                extend(chain + (index[subsets[(top | sub) - 1]],), top | sub)
            sub = (sub - 1) & rest

    extend((), 0)
    del extend                   # the closure refers to itself: break the cycle
    free = [()]
    for fm in proj.fiber_masks:
        parts = [()] + [tuple(index[1 << e] for e in elements(S))
                        for S in nonempty_subsets(fm) if S != fm]
        free = [a + b for a in free for b in parts]
    return Fan(m - 1, [r for r, _ in table], [frozenset(c + S) for c in chains for S in free])


def _locator(fan, cone):
    """Integer data that locate points in a simplicial cone, memoized in the
    fan's `_memo` under the cone itself.

    Returns (rows, adj, det, rest).  The k x k submatrix B of the ray
    matrix (rays as columns) on the coordinates `rows` is invertible,
    det = |det B| > 0, and adj = det * B^-1 is an integer matrix (the sign
    of det B folded in).  `rest` pairs every other coordinate i with the
    i-th entries of the rays.  Raises ValueError if the rays are dependent.
    """
    loc = fan._memo.get(cone)
    if loc is not None:
        return loc
    rays = fan.cone_rays(cone)
    k, d = len(rays), fan.ambient_dim
    # Eliminating [R^T | I] leaves E in the identity block with
    # E B^T = det I, so E^T = det B^-1.
    aug = [list(r) + [int(s == t) for s in range(k)] for t, r in enumerate(rays)]
    M, rows, det = linalg.integer_rref(aug, width=d)
    if len(rows) < k:
        raise ValueError("the rays of cone %s are linearly dependent" % sorted(cone))
    sign = -1 if det < 0 else 1
    adj = tuple(tuple(sign * M[s][d + t] for s in range(k)) for t in range(k))
    rest = tuple((i, tuple(r[i] for r in rays)) for i in range(d) if i not in rows)
    loc = (tuple(rows), adj, sign * det, rest)
    fan._memo[cone] = loc
    return loc


def _numerators(loc, W):
    """det * (coordinates of W in the ray basis), if W is in the span."""
    rows, adj, _, _ = loc
    Wr = [W[i] for i in rows]
    return [sum(map(mul, row, Wr)) for row in adj]


def cone_contains(fan, cone, w):
    """Whether the integer point w lies in the cone: a sign test on adj * w
    followed by the exact span test, each left at the first coordinate
    that fails."""
    rows, adj, det, rest = _locator(fan, cone)
    Wr = [w[i] for i in rows]
    num = []
    for row in adj:
        num.append(sum(map(mul, row, Wr)))
        if num[-1] < 0:
            return False
    return all(sum(map(mul, num, col)) == det * w[i] for i, col in rest)


def locate(fan, W):
    """The cone read off the level sets of the point W, or None when
    the fan has no `subset_index` or the candidate is not one of its cones.
    Callers confirm it with `cone_contains` and scan when that fails.

    Lift W to R^E~ with last coordinate 0.  If W is in the relative interior
    of the cone of a nested set N, it is sum(c_G e_G) over G in N with all
    c_G > 0, up to the all-ones vector.  Each proper upper level set S is a
    union of members of N; its maximal members in N are the maximal ray
    subsets inside S, and each member of N is maximal in the level set cut
    at its smallest coordinate.  So the union of those ray subsets over the
    level sets is N (Feichtner-Sturmfels, "Matroid polytopes, nested sets
    and Bergman fans", 2005).

    A ray subset T lies in a proper level set exactly when its minimum t
    exceeds the global minimum, and is maximal in one exactly when it is
    maximal in the level set cut at t, that is, when no ray subset strictly
    containing T lies in that level set.  Taking the coordinates in
    increasing order, the rays that meet one first at a level are those
    whose minimum is that level's value.
    """
    index = fan.subset_index()
    if index is None:
        return None
    contain, supersets = index
    x = tuple(W) + (0,)
    order = sorted(range(len(x)), key=x.__getitem__)
    cone = outside = inside = 0      # bitsets of rays; inside: in the level set
    for k, e in enumerate(order):
        outside |= contain[e]
        if k + 1 < len(x) and x[order[k + 1]] == x[e]:
            continue                 # the level is not complete yet
        fresh = inside & outside
        while fresh:
            low = fresh & -fresh
            if not supersets[low.bit_length() - 1] & inside:
                cone |= low
            fresh ^= low
        inside = ~outside
    return fan.cone_masks().get(cone)


def in_support(fan, *points):
    """Whether one cone holds every integer point given (with one point, the
    support question).  The cone located at the points' sum is tried first,
    then every maximal cone, largest first: every cone is a ray subset, so
    a face, of a maximal cone, and lies inside it."""
    centre = tuple(map(sum, zip(*points))) if points else (0,) * fan.ambient_dim
    located = locate(fan, centre)
    if located is not None and all(cone_contains(fan, located, w) for w in points):
        return True
    return any(all(cone_contains(fan, c, w) for w in points)
               for c in sorted(fan.maximal_cones(), key=len, reverse=True))


def refines(fine, coarse):
    """True iff every cone of `fine` lies inside some cone of `coarse`, that
    is, iff the rays of each maximal cone of `fine` lie in one cone of
    `coarse`: every cone is a face of a maximal cone, and cones are convex."""
    if fine.ambient_dim != coarse.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return all(in_support(coarse, *fine.cone_rays(c)) for c in fine.maximal_cones())


def stellar_certificate(fine, coarse):
    """True when `fine` is certified to come from `coarse` by stellar
    subdivisions, so that both have the same support; False decides nothing.

    Every ray of `fine` must be a `subset_vector`, and among them every ray
    of `coarse`, whose cones must be face-closed.  K starts as the cones of
    `coarse`, V as its ray subsets.  Each other ray subset X of `fine`,
    largest first (ties by mask), has as factors F the maximal members of V
    inside X and needs r_X = sum of r_Y over Y in F (F partitions X) and F
    in K.  Then K <- {t in K : F not in t} + {t + X : t in K, F not in t,
    t + F in K} and X joins V.  At the end K must be the cones of `fine`.

    Why: r_X is in the relative interior of cone(F), so t + X lies in the
    old cone t + F; and a cone s of K containing F is the union of the new
    cones (s - f) + X: a point sum a_y r_y of s, with f minimizing a_f over
    F, is a_f r_X + sum over F of (a_y - a_f) r_y + the rest.  So each step
    keeps the union of the cones and face-closure (s - f stays in K), and
    the final equality gives support(fine) = support(coarse).  Feichtner and
    Mueller, "On the topology of nested set complexes" (2005), only explain
    why the replay succeeds for building sets G inside G'.
    """
    index = [fine.ray_index.get(r) for r in coarse.rays]
    at = {subset_mask(r): i for i, r in enumerate(fine.rays)}
    if None in index or None in at:
        return False
    K = {sum(1 << index[i] for i in c) for c in coarse.cones}
    if not all(t ^ 1 << i in K for t in K for i in elements(t)):
        return False
    present = {subset_mask(r) for r in coarse.rays}
    for X in sorted(at.keys() - present, key=lambda T: (-T.bit_count(), T)):
        factors = [at[Y] for Y in _max_members_below(present, X)]
        face = sum(1 << y for y in factors)
        if face not in K or fine.rays[at[X]] != tuple(
                map(sum, zip(*map(fine.rays.__getitem__, factors)))):
            return False
        kept = {t for t in K if t & face != face}
        K = kept | {t | 1 << at[X] for t in kept if t | face in K}
        present.add(X)
    return K == fine.cone_masks().keys()


def same_support(f1, f2):
    """Whether f1 refines f2 with the same support: False when
    `refines(f1, f2)` is False, True for equal fans (`Fan.__eq__`) and fans
    passing `stellar_certificate(f1, f2)`, and None (undecided) otherwise."""
    if not refines(f1, f2):
        return False
    if f1 == f2 or stellar_certificate(f1, f2):
        return True
    return None


# --- structural validators ---------------------------------------------------


def is_unimodular(fan):
    """Every cone's rays extend to a lattice basis: at most ambient_dim of
    them, with Smith normal form diagonal all ones (which gives full rank).

    Only maximal cones are checked.  Every cone is a ray subset of a
    maximal cone, and a subset of vectors that extend to a lattice basis
    extends to the same basis; a cone with more than ambient_dim rays lies
    in a maximal cone with more.  `smith_normal_form` returns all
    min(k, ambient_dim) invariants of k rays, zeros included, so a rank
    drop also fails."""
    for cone in fan.maximal_cones():
        rays = fan.cone_rays(cone)
        if rays and (len(rays) > fan.ambient_dim
                     or any(d != 1 for d in linalg.smith_normal_form(rays))):
            return False
    return True


def is_face_closed(fan):
    """Every face of every cone is a cone.  The faces of a simplicial cone
    are the subsets of its rays, the empty one included, and each is
    reached from the cone by dropping one ray at a time; so by induction on
    size it suffices that every cone less any one ray is a cone."""
    cones = fan.cones
    return all(c - {i} in cones for c in cones for i in c)


def _has_positive_circuit(A):
    """True iff A z = 0 for some z >= 0, z != 0.  With the t columns of
    K = kernel_basis(A) spanning the kernel, such a z is K lam, lam != 0,
    so it exists iff the cone {lam : K lam >= 0}, pointed since K has full
    column rank, has an extreme ray (Schrijver, "Theory of Linear and
    Integer Programming", 8.8).  Each extreme ray is spanned by the kernel
    L of some t - 1 rows K_S of rank t - 1, so K L >= 0 or K L <= 0.  At
    t = 1, S is empty and K L is the one kernel vector."""
    K = linalg.kernel_basis(A, len(A[0]))
    if not K:
        return False
    rows = list(zip(*K))
    for S in combinations(rows, len(K) - 1):
        line = linalg.kernel_basis(S, len(K))
        if len(line) == 1:
            z = [sum(map(mul, row, line[0])) for row in rows]
            if min(z) >= 0 or max(z) <= 0:
                return True
    return False


def complete_fan_certificate(fan):
    """True when the maximal cones are certified to form a complete fan, so
    that any two meet in the cone over their common rays; False decides
    nothing.

    Theorem (covering degree: De Loera-Rambau-Santos, "Triangulations",
    2010, ch. 4, carried to the sphere).  Let the maximal cones be
    full-dimensional simplicial cones in R^d such that (i) every wall, a
    maximal cone less one ray, lies in exactly two maximal cones, (ii)
    whose rays opposite the wall lie strictly on opposite sides of it, and
    (iii) one point off the walls lies in exactly one maximal cone.  The
    number of maximal cones holding a point off the walls is locally
    constant, and by (i) and (ii) a path avoiding the (d-2)-faces keeps it
    where it crosses a wall; so by (iii) it is 1 everywhere, and the cones
    cover R^d with disjoint interiors.  The same count in the link of a
    face F shows that the cones containing F cover a neighbourhood of its
    relative interior, so every maximal cone meeting that relative interior
    contains F, and any two maximal cones meet in a common face.

    (ii) is the sign of the other cone's opposite ray in one cone's
    locator, at that cone's opposite ray.  For (iii) the ray sum of each
    maximal cone is tried until one lies on no maximal cone's boundary.
    """
    d = fan.ambient_dim
    if d == 0 or fan.max_dim != d:
        return False
    maxes = sorted(fan.maximal_cones(), key=sorted)
    if any(len(c) != d for c in maxes):
        return False
    try:
        locators = [_locator(fan, c) for c in maxes]
    except ValueError:
        return False
    for sides in fan.walls().values():
        if len(sides) != 2:
            return False
        (c, u), (_, v) = sides
        if _numerators(_locator(fan, c), fan.rays[v])[sorted(c).index(u)] >= 0:
            return False
    for c in maxes:
        point = tuple(map(sum, zip(*fan.cone_rays(c))))
        inside = 0
        for loc in locators:
            lowest = min(_numerators(loc, point))
            if lowest == 0:
                break                # on this cone's boundary: next point
            inside += lowest > 0
        else:
            return inside == 1
    return False


def pairwise_faces_by_circuits(fan):
    """Exact check that any two maximal cones meet in the cone over their
    common rays, by a search over cone pairs.

    Write sigma = cone(C + U) and tau = cone(C + V) with C the shared rays,
    and let N be an integer basis of the annihilator of span(C) (the
    identity when C is empty); N and each image N r of a ray r are computed
    once per C.  Then sigma and tau meet in cone(C) exactly when N U lam =
    N V mu has no solution (lam, mu) >= 0 nonzero (`_has_positive_circuit`).
    """
    faces = {}                       # C -> N r for each ray r, by ray index
    for a, b in combinations(fan.maximal_cones(), 2):
        C = a & b
        if C not in faces:
            N = linalg.kernel_basis(fan.cone_rays(C), fan.ambient_dim)
            faces[C] = [[sum(map(mul, row, r)) for row in N] for r in fan.rays]
        U = [faces[C][i] for i in sorted(a - b)]
        V = [[-x for x in faces[C][i]] for i in sorted(b - a)]
        if _has_positive_circuit(list(zip(*U, *V))):
            return False
    return True


def pairwise_intersections_are_faces(fan, ambient=None):
    """Exact check that any two maximal cones meet in the cone over their
    common rays.  For a face-closed simplicial collection this implies the
    property for all pairs of cones.

    True when `ambient`, certified to be a simplicial fan (a normal fan
    that `polytope.normal_fan_equals` accepted), has each maximal cone, as
    a set of ray vectors, among its cones: faces of the cones of a fan meet
    in a common face.
    Otherwise a True verdict comes from `complete_fan_certificate` when it
    holds, else from the search of `pairwise_faces_by_circuits`, which also
    gives every False verdict.
    """
    if ambient is not None and all(
            frozenset(map(ambient.ray_index.get, fan.cone_rays(c))) in ambient.cones
            for c in fan.maximal_cones()):
        return True
    return complete_fan_certificate(fan) or pairwise_faces_by_circuits(fan)


def balancing_check(fan):
    """Weight-one balancing: at every wall (a cone of the fan) the sum of
    the opposite primitive generators lies in the span of the wall."""
    maxes = fan.maximal_cones()
    if not maxes:
        return True
    d = len(next(iter(maxes)))
    if any(len(c) != d for c in maxes):
        raise ValueError("fan is not pure")
    for tau, sides in fan.walls().items():
        if tau not in fan.cones:
            continue
        total = [sum(col) for col in zip(*(fan.rays[u] for _, u in sides))]
        span = fan.cone_rays(tau)
        if not span:
            if any(x != 0 for x in total):
                return False
        elif linalg.rank(span + [list(total)]) != linalg.rank(span):
            return False
    return True


def validate_fan(fan, expected_max_dim, ambient=None):
    """Run the structural validators; returns a dict of named booleans."""
    return {
        "unimodular": is_unimodular(fan),
        "face_closed": is_face_closed(fan),
        "pairwise_faces": pairwise_intersections_are_faces(fan, ambient),
        "balanced": balancing_check(fan),
        "max_dim": fan.max_dim == expected_max_dim,
    }
