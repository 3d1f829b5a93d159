"""Bergman fans of polymatroids, with exact structural validators.

Lattice vectors live in Z^E~ / Z(1,...,1); the canonical representative
drops the last coordinate, so the indicator vector of a subset S is

    v_i = [i in S] - [m-1 in S]      (i = 0, ..., m-2).

Rays are stored primitive and deduplicated; a cone is the sorted set of
its ray indices (all cones here are simplicial).  Cone membership and the
pairwise-faces check use integer arithmetic only.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from random import Random

from . import linalg
from .linalg import integral
from .bitsets import canonical_key, elements, nonempty_subsets, popcount
from .building import lifted_building_set, nested_complex
from .lift import lift
from .polymatroid import ProjectionMap


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


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


class Fan:
    """A simplicial fan given by a ray table and cones as ray-index sets.

    `locators` caches, per cone, the integer data `cone_contains` and
    `cone_coordinates` use; it is filled the first time a cone is tested.
    `subset_index` lists (subset mask, ray index) for every ray, largest
    subsets first, when every ray is a `subset_vector`, and is None
    otherwise; `locate` reads cones from it.
    """

    __slots__ = ("ambient_dim", "rays", "ray_index", "cones", "locators", "subset_index")

    def __init__(self, ambient_dim, rays, cones):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rays", tuple(tuple(r) for r in rays))
        object.__setattr__(self, "ray_index", {r: i for i, r in enumerate(self.rays)})
        object.__setattr__(self, "cones", frozenset(frozenset(c) for c in cones))
        object.__setattr__(self, "locators", {})
        masks = [subset_mask(r) for r in self.rays]
        index = None if None in masks else tuple(sorted(
            ((S, i) for i, S in enumerate(masks)), key=lambda t: -popcount(t[0])))
        object.__setattr__(self, "subset_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("Fan is immutable")

    def cone_rays(self, cone):
        return [self.rays[i] for i in sorted(cone)]

    @property
    def max_dim(self):
        return max((len(c) for c in self.cones), default=0)

    def maximal_cones(self):
        cones = self.cones
        return [c for c in cones if not any(c < d for d in cones)]

    def cones_as_ray_sets(self):
        """Canonical form for cross-construction comparison."""
        return {frozenset(self.rays[i] for i in c) for c in self.cones}

    def __eq__(self, other):
        return (isinstance(other, Fan)
                and self.ambient_dim == other.ambient_dim
                and self.cones_as_ray_sets() == other.cones_as_ray_sets())

    def __hash__(self):
        return hash((self.ambient_dim, frozenset(self.cones_as_ray_sets())))

    def __repr__(self):
        return "Fan(dim=%d, rays=%d, cones=%d)" % (
            self.ambient_dim, len(self.rays), len(self.cones))


def _fan_from_ray_sets(ambient_dim, ray_sets):
    rays = sorted({r for s in ray_sets for r in s})
    index = {r: i for i, r in enumerate(rays)}
    cones = {frozenset(index[r] for r in s) for s in ray_sets}
    return Fan(ambient_dim, rays, cones)


def nested_set_fan(building, full_mask, m):
    """Cones spanned by indicator vectors of nested sets not containing E~."""
    complexes = nested_complex(building, exclude=full_mask)
    ray_sets = []
    for N in complexes:
        ray_sets.append(frozenset(primitive(subset_vector(g, m)) for g in N))
    return _fan_from_ray_sets(m - 1, ray_sets)


def bergman_fan(P, G=None):
    """The Bergman fan of (P, G) via nested sets of the lifted building set."""
    M, lifted = lifted_building_set(P, G)
    return nested_set_fan(lifted, M.full_mask, M.m)


def _chains(items):
    """All chains (as tuples, increasing) in a poset of masks under inclusion."""
    out = [()]
    items = sorted(items, key=canonical_key)

    def extend(chain, start):
        for idx in range(start, len(items)):
            g = items[idx]
            if not chain or (chain[-1] & g == chain[-1] and chain[-1] != g):
                out.append(chain + (g,))
                extend(chain + (g,), idx + 1)

    extend((), 0)
    return out


def maximal_bergman_fan_direct(P):
    """The Bergman fan of P with the maximal building set, built directly
    from chains of flats plus a subset S subject to the rank inequality.

    The empty flat participates in the chain, so for every flat F in the
    chain (including the empty set) and every nonempty T contained in
    S minus preimage(F) the inequality rk(F + pi(T)) > rk(F) + |T| must
    hold.
    """
    M = lift(P)
    proj = M.proj
    m = proj.m
    full = P.full_mask
    proper_flats = [f for f in P.flats() if f != 0 and f != full]
    ray_sets = set()
    for chain in _chains(proper_flats):
        flats_with_empty = (0,) + chain
        for S in range(1 << m):
            ok = True
            for F in flats_with_empty:
                outside = S & ~proj.preimage(F)
                for T in nonempty_subsets(outside):
                    if P.rank(F | proj.image(T)) <= P.rank(F) + popcount(T):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            rays = {primitive(subset_vector(proj.preimage(F), m)) for F in chain}
            rays.update(primitive(subset_vector(1 << e, m)) for e in elements(S))
            ray_sets.add(frozenset(rays))
    return _fan_from_ray_sets(m - 1, ray_sets)


def boolean_bergman_fan(proj):
    """The complete fan of a Boolean polymatroid: chains of proper nonempty
    subsets of E plus a subset S of E~ containing no fiber."""
    if not isinstance(proj, ProjectionMap):
        proj = ProjectionMap(proj)
    n, m = proj.n, proj.m
    full = (1 << n) - 1
    proper = [a for a in range(1, full)]
    fiber_free = [S for S in range(1 << m)
                  if not any(S & fm == fm for fm in proj.fiber_masks)]
    ray_sets = set()
    for chain in _chains(proper):
        for S in fiber_free:
            rays = {primitive(subset_vector(proj.preimage(F), m)) for F in chain}
            rays.update(primitive(subset_vector(1 << e, m)) for e in elements(S))
            ray_sets.add(frozenset(rays))
    return _fan_from_ray_sets(m - 1, ray_sets)


def _locator(fan, cone):
    """Integer data that locate points in a simplicial cone, cached on the fan.

    Returns (rows, adj, det, rest).  The k x k submatrix B of the ray
    matrix (rays as columns) on the coordinates `rows` is invertible,
    det = |det B| > 0, and adj = det * B^-1 is an integer matrix (the sign
    of det B folded in).  `rest` pairs every other coordinate i with the
    i-th entries of the rays.  Raises ValueError if the rays are dependent.
    """
    loc = fan.locators.get(cone)
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
    fan.locators[cone] = loc
    return loc


def _numerators(loc, W):
    """det * (coordinates of W in the ray basis), if W is in the span."""
    rows, adj, _, _ = loc
    Wr = [W[i] for i in rows]
    return [sum(a * x for a, x in zip(row, Wr)) for row in adj]


def _in_span(loc, num, W):
    """Exact test that rays . num == det * W.  The coordinates in `rows`
    hold by construction, so only the others are compared."""
    _, _, det, rest = loc
    return all(sum(n * r for n, r in zip(num, col)) == det * W[i] for i, col in rest)


def cone_coordinates(fan, cone, w):
    """Exact coordinates (Fractions) of w in the ray basis of a simplicial
    cone, or None if w is outside the cone's span.  Uses the cone's cached
    integer locator; raises ValueError if the rays are dependent."""
    W, q = integral(w)
    loc = _locator(fan, cone)
    num = _numerators(loc, W)
    if not _in_span(loc, num, W):
        return None
    return [Fraction(x, loc[2] * q) for x in num]


def cone_contains(fan, cone, w, strict=False):
    """Whether w lies in the cone (its relative interior if `strict`): an
    integer sign test on adj * W followed by the exact span test."""
    W, _ = integral(w)
    loc = _locator(fan, cone)
    num = _numerators(loc, W)
    if strict:
        if any(x <= 0 for x in num):
            return False
    elif any(x < 0 for x in num):
        return False
    return _in_span(loc, num, W)


def locate(fan, W):
    """The cone read off the level sets of the integer point W, or None when
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
    """
    index = fan.subset_index
    if index is None:
        return None
    x = tuple(W) + (0,)
    order = sorted(range(len(x)), key=x.__getitem__, reverse=True)
    cone, S = set(), 0
    for j in range(len(x) - 1):
        S |= 1 << order[j]
        if x[order[j + 1]] == x[order[j]]:
            continue                 # S is not a whole level set yet
        picked = []
        for T, i in index:
            if T & S == T and not any(T & U == T for U in picked):
                picked.append(T)
                cone.add(i)
    cone = frozenset(cone)
    return cone if cone in fan.cones else None


def find_cone(fan, w):
    """The unique cone whose relative interior contains w, or None.  The
    located cone is tried first, then every cone."""
    if all(x == 0 for x in w):
        zero = frozenset()
        return zero if zero in fan.cones else None
    W, _ = integral(w)
    cone = locate(fan, W)
    if cone and cone_contains(fan, cone, W, strict=True):
        return cone
    for cone in fan.cones:
        if cone and cone_contains(fan, cone, W, strict=True):
            return cone
    return None


def refines(fine, coarse):
    """True iff every cone of `fine` lies inside some cone of `coarse`.  The
    coarse cone located at a fine cone's ray sum is tried first, then every
    coarse cone."""
    if fine.ambient_dim != coarse.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coarse_cones = sorted(coarse.cones, key=len, reverse=True)
    for cone in fine.cones:
        rays = fine.cone_rays(cone)
        centre = tuple(map(sum, zip(*rays))) if rays else (0,) * fine.ambient_dim
        located = locate(coarse, centre)
        if located is not None and all(cone_contains(coarse, located, r) for r in rays):
            continue
        if not any(all(cone_contains(coarse, c, r) for r in rays)
                   for c in coarse_cones):
            return False
    return True


def in_support(fan, w):
    """Whether w lies in some cone: the located cone is tried first, then
    every cone."""
    W, _ = integral(w)
    cone = locate(fan, W)
    if cone is not None and cone_contains(fan, cone, W):
        return True
    return any(cone_contains(fan, cone, W) for cone in fan.cones)


def random_integral_point(rng, dim, spread=10_000):
    """A random rational point, coordinate i being a_i / b_i with
    a_i = randint(-spread, spread) and b_i = randint(1, 97) drawn in that
    order, returned as `integral` returns it: scaled by the least common
    denominator of the reduced fractions."""
    numerators, denominators = [], []
    for _ in range(dim):
        a, b = rng.randint(-spread, spread), rng.randint(1, 97)
        g = gcd(a, b)
        numerators.append(a // g)
        denominators.append(b // g)
    q = lcm(*denominators)
    return tuple(a * (q // b) for a, b in zip(numerators, denominators))


def same_support(f1, f2, trials=400, seed=0):
    """Exact containment in the refining direction when available, plus
    randomized point-membership agreement, on integer points.

    A sample inside a cone of f2 is the sum of (a/b) r over its rays r,
    with a = randint(1, 50) and b = randint(1, 7).  It is drawn as 420
    times that point (420 = lcm(1, ..., 7)), a positive multiple that
    `in_support` cannot tell apart from it."""
    if f1.ambient_dim != f2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    rng = Random(seed)
    if refines(f1, f2):
        # support(f1) inside support(f2); test the reverse by sampling
        # inside the cones of f2.
        for cone in f2.maximal_cones():
            rays = f2.cone_rays(cone)
            for _ in range(max(1, trials // max(1, len(f2.cones)))):
                w = [0] * f2.ambient_dim
                for r in rays:
                    a, b = rng.randint(1, 50), rng.randint(1, 7)
                    w = [x + a * (420 // b) * y for x, y in zip(w, r)]
                if not in_support(f1, w):
                    return False
        return True
    for _ in range(trials):
        w = random_integral_point(rng, f1.ambient_dim)
        if in_support(f1, w) != in_support(f2, w):
            return False
    return True


# --- structural validators ---------------------------------------------------


def is_unimodular(fan):
    """Every cone's rays extend to a lattice basis (SNF all ones)."""
    for cone in fan.cones:
        rays = fan.cone_rays(cone)
        if not rays:
            continue
        diag = linalg.smith_normal_form(rays)
        if any(d != 1 for d in diag[:len(rays)]):
            return False
        if linalg.rank(rays) != len(rays):
            return False
    return True


def is_face_closed(fan):
    """Faces of a simplicial cone are the subsets of its rays."""
    cones = fan.cones
    return all(frozenset(sub) in cones
               for c in cones
               for k in range(len(c))
               for sub in combinations(sorted(c), k))


def _has_positive_circuit(A, split):
    """True iff A z = 0 for some z >= 0, z != 0, where the columns before
    `split` are independent and so are those from `split` on.

    Such a z exists exactly when A has a circuit (a kernel vector of
    minimal support) with all entries of one sign.  Neither side alone
    holds a circuit, so each support tried takes columns from both.
    """
    ncols = len(A[0])
    rank = len(linalg.integer_rref(A)[1])
    if rank == ncols:
        return False
    left, right = range(split), range(split, ncols)
    for size in range(2, rank + 2):
        for i in range(1, size):
            for I, J in product(combinations(left, i), combinations(right, size - i)):
                kernel = linalg.integer_kernel([[row[j] for j in I + J] for row in A], size)
                if len(kernel) == 1 and (all(x > 0 for x in kernel[0])
                                         or all(x < 0 for x in kernel[0])):
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
    walls = {}
    for loc, c in zip(locators, maxes):
        for position, u in enumerate(sorted(c)):
            walls.setdefault(c - {u}, []).append((loc, position, u))
    for sides in walls.values():
        if len(sides) != 2:
            return False
        (loc, position, _), (_, _, v) = sides
        if _numerators(loc, fan.rays[v])[position] >= 0:
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
    identity when C is empty).  Then sigma and tau meet in cone(C) exactly
    when [N U | -N V] has no circuit with all entries positive.
    """
    maxes = fan.maximal_cones()
    d = fan.ambient_dim
    for a, b in combinations(maxes, 2):
        U = fan.cone_rays(a - b)
        V = fan.cone_rays(b - a)
        N = linalg.integer_kernel(fan.cone_rays(a & b), d)
        A = [[sum(n * x for n, x in zip(row, r)) for r in U]
             + [-sum(n * x for n, x in zip(row, r)) for r in V] for row in N]
        if _has_positive_circuit(A, len(U)):
            return False
    return True


def pairwise_intersections_are_faces(fan):
    """Exact check that any two maximal cones meet in the cone over their
    common rays.  For a face-closed simplicial collection this implies the
    property for all pairs of cones.

    A True verdict comes from `complete_fan_certificate` when it holds,
    otherwise from the search of `pairwise_faces_by_circuits`, which also
    gives every False verdict.
    """
    return complete_fan_certificate(fan) or pairwise_faces_by_circuits(fan)


def balancing_check(fan):
    """Weight-one balancing: at every wall the sum of the opposite primitive
    generators lies in the span of the wall."""
    maxes = fan.maximal_cones()
    if not maxes:
        return True
    d = len(next(iter(maxes)))
    if any(len(c) != d for c in maxes):
        raise ValueError("fan is not pure")
    walls = {c for c in fan.cones if len(c) == d - 1}
    for tau in walls:
        adjacent = [c for c in maxes if tau < c]
        if not adjacent:
            continue
        total = [0] * fan.ambient_dim
        for sigma in adjacent:
            extra = next(iter(sigma - tau))
            ray = fan.rays[extra]
            total = [t + x for t, x in zip(total, ray)]
        span = fan.cone_rays(tau)
        if not span:
            if any(x != 0 for x in total):
                return False
        elif linalg.rank(span + [list(total)]) != linalg.rank(span):
            return False
    return True


def is_complete(fan, trials=200, seed=0):
    """Sampling check: every random rational point, drawn as integers by
    `random_integral_point`, lies in the relative interior of exactly one
    cone."""
    rng = Random(seed)
    for _ in range(trials):
        w = random_integral_point(rng, fan.ambient_dim)
        hits = sum(1 for cone in fan.cones
                   if (cone and cone_contains(fan, cone, w, strict=True))
                   or (not cone and all(x == 0 for x in w)))
        if hits != 1:
            return False
    return True


def validate_fan(fan, expected_max_dim=None):
    """Run the structural validators; returns a dict of named booleans."""
    report = {
        "unimodular": is_unimodular(fan),
        "face_closed": is_face_closed(fan),
        "pairwise_faces": pairwise_intersections_are_faces(fan),
        "balanced": balancing_check(fan),
    }
    if expected_max_dim is not None:
        report["max_dim"] = fan.max_dim == expected_max_dim
    return report
