"""Reference oracles that only the tests call.

Each one gives an independent route to something `polychow` computes:
polymatroid constructions, the lift's preimages and ranks by their
definitions, the minimal flats of a ground, the fiber of each lifted
element, the vertex of each transversal, Lowest posets and the
sampled normal-fan check built on them, a sampled completeness test,
primitive vectors, cone queries by a scan, relative interiors and rational
coordinates, refinement and unimodularity over all cones, strict
convexity from wall relations, equal supports by sampling, the Bergman fan from chains of flats,
exact rational degrees, the classes of the Kahler tests, the ray-variable
presentation of the Chow ring, and Bareiss elimination that updates every
row at every step.  `polychow` computes in integers only, so rational
points and matrices are scaled to integers here (`integral`,
`integral_rows`, `random_integral_point`) before they reach it, or
reduced over the rationals (`fraction_rref`, `fraction_solve`) as a
reference.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import and_, mul, or_
from random import Random

import polychow as pc
from polychow import linalg
from polychow.bitsets import canonical_key, elements, nonempty_subsets
from polychow.chow import Codec, DivisorIndex, _standard_monomials
from polychow.fan import _locator, _numerators, cone_contains, locate, subset_vector
from polychow.polymatroid import memoized
from polychow.polytope import minimizing_vertices

# --- rational input: scaled to integers, or reduced over Q -------------------


def integral(w):
    """(W, q) with q > 0 the least common denominator of the entries of w
    and W = q*w as a tuple of ints.  A positive scaling moves no point
    across a cone boundary and changes no argmin over w."""
    if all(type(x) is int for x in w):
        return tuple(w), 1
    q = lcm(*(x.denominator for x in w))
    return tuple(x.numerator * (q // x.denominator) for x in w), q


def integral_rows(rows):
    """(M, q): each row scaled to integers by `integral`, and q the product
    of the scales, so that det(rows) = det(M) / q.  An integer matrix is
    copied as it is."""
    if all(type(x) is int for row in rows for x in row):
        return [list(row) for row in rows], 1
    M, q = [], 1
    for row in rows:
        W, s = integral(row)
        M.append(list(W))
        q *= s
    return M, q


def random_integral_point(rng, dim, spread=10_000):
    """A random rational point, coordinate i being a_i / b_i with
    a_i = randint(-spread, spread) and b_i = randint(1, 97) drawn in that
    order, scaled to integers by the least common denominator of the
    a_i / b_i in lowest terms, which moves no point across a cone boundary."""
    pairs = [(rng.randint(-spread, spread), rng.randint(1, 97)) for _ in range(dim)]
    q = lcm(*(b // gcd(a, b) for a, b in pairs))
    return tuple(a * q // b for a, b in pairs)


def fraction_rref(rows):
    """Reference reduced row echelon form over the rationals, by textbook
    Gauss-Jordan elimination.  Returns (R, pivot_columns)."""
    A = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(A[0]) if A else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                A[i] = [a - A[i][c] * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


def fraction_solve(rows, b):
    """One rational solution of A x = b, zero at the free columns of
    `fraction_rref`, or None if the system is inconsistent."""
    R, pivots = fraction_rref([list(row) + [x] for row, x in zip(rows, b)])
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = R[r][ncols]
    return x


# --- polymatroids and their flats ---------------------------------------------


def restriction(P, flat_mask):
    """Restriction to a flat, with elements reindexed in increasing order."""
    if not P.is_flat(flat_mask):
        raise pc.PolymatroidError("restriction", (flat_mask,), "restriction requires a flat")
    elems = list(elements(flat_mask))
    return pc.Polymatroid([P.rank(sum(1 << elems[j] for j in elements(sub)))
                           for sub in range(1 << len(elems))], validate=False)


def direct_sum(P, Q):
    """P on the low elements, Q on the high ones."""
    low = (1 << P.n) - 1
    return pc.Polymatroid([P.rank(mask & low) + Q.rank(mask >> P.n)
                           for mask in range(1 << (P.n + Q.n))], validate=False)


def as_polymatroid(M):
    """A lift as an explicit rank table (small ground sets only)."""
    return pc.Polymatroid([M.rank(S) for S in range(1 << M.n)], validate=False)


def bitwise_preimage(proj, A):
    """pi^{-1}(A) as the union of the fiber masks of the elements of A,
    one bit of A at a time."""
    out = 0
    for i in range(proj.n):
        if A >> i & 1:
            out |= proj.fiber_masks[i]
    return out


def literal_lift_rank(M, S):
    """rk_M(S) by its definition: the minimum over all 2^n subsets A of the
    base ground set of rk_P(A) + |S minus pi^{-1}(A)|."""
    P = M.base
    return min(P.rank(A) + bin(S & ~bitwise_preimage(M.proj, A)).count("1")
               for A in range(1 << P.n))


def flat_atoms(ground):
    """The minimal nonempty flats of a `Polymatroid` or a lift."""
    flats = [f for f in ground.flats() if f]
    return {f for f in flats if not any(g != f and g & f == g for g in flats)}


def fiber_of(proj):
    """The fiber index of each element of E~, in order."""
    return tuple(i for i, s in enumerate(proj.fiber_sizes) for _ in range(s))


def lowest_ranks(proj, w):
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
    return tuple((i, rank[lows[f]]) for i, f in enumerate(fiber_of(proj)) if w[i] == lows[f])


def lowest_poset(proj, w):
    """w's Lowest poset as (elements, relation), read from the dense ranks
    of `lowest_ranks`: the per-fiber weight minimizers, and the pairs
    (i, j) of them with rank(i) <= rank(j), that is, w[i] <= w[j]."""
    ranks = lowest_ranks(proj, w)
    return (frozenset(i for i, _ in ranks),
            frozenset((i, j) for i, a in ranks for j, b in ranks if a <= b))


# --- polypermutohedra -----------------------------------------------------------


def vertex_of(Q):
    """Each of the n! * prod(s_i) transversals seq, one element per fiber in
    position order, mapped to the position in `Q.vertices` of its vertex
    c_1 e_{seq[0]} + ... + c_n e_{seq[n-1]}; memoized on Q."""
    def build():
        position = {v: k for k, v in enumerate(Q.vertices)}
        out = {}
        for choice in product(*(tuple(elements(f)) for f in Q.proj.fiber_masks)):
            for seq in permutations(choice):
                v = [0] * Q.proj.m
                for cj, s in zip(Q.c, seq):
                    v[s] = cj
                out[seq] = position[tuple(v)]
        return out
    return memoized(Q, "vertex_of", build)


def position_masks(Q):
    """masks[i, a, b]: the vertices with a transversal that puts element i
    at a position in [a, b), as a bitset."""
    n = Q.proj.n
    at = [[0] * n for _ in range(Q.proj.m)]
    for seq, k in vertex_of(Q).items():
        for j, i in enumerate(seq):
            at[i][j] |= 1 << k
    return {(i, a, b): reduce(or_, row[a:b]) for i, row in enumerate(at)
            for a in range(n) for b in range(a + 1, n + 1)}


def minimizers_from_lowest(Q, ranks):
    """Minimizing vertex set of every w whose Lowest poset is `ranks`
    (`lowest_ranks`).

    A transversal minimizes iff each fiber f puts one of its minimizers in
    its rank block [a, b) of positions, where a fibers have higher rank than
    f and b - a have its rank.  So a vertex minimizes iff, for every f, it
    is in masks[i, a, b] (`position_masks`, memoized on Q) for a minimizer
    i of f: at c_1 = 0 a vertex's transversals differ only in the element
    at position 1, which enters only its own fiber's condition.  The AND
    starts from every vertex, so n = 0 gives the one empty vertex.
    """
    masks = memoized(Q, "position_masks", lambda: position_masks(Q))
    fiber = fiber_of(Q.proj)
    fiber_rank = {fiber[i]: rank for i, rank in ranks}
    order = sorted(fiber_rank.values(), reverse=True)
    either = dict.fromkeys(fiber_rank, 0)   # fiber -> OR over its minimizers
    for i, rank in ranks:
        a = order.index(rank)
        either[fiber[i]] |= masks[i, a, a + order.count(rank)]
    return reduce(and_, either.values(), (1 << len(Q.vertices)) - 1)


def embed(w_quotient):
    """Lift a quotient representative (m-1 coordinates) to R^m, last = 0."""
    return tuple(w_quotient) + (0,)


def sampled_normal_fan_equals(Q, fan, trials=1000, seed=0):
    """`normal_fan_equals` by Lowest-poset classification plus sampling, as
    it was before the face-and-wall certificate.

    Exhaustive part: each cone's interior representative is classified by
    its Lowest poset; representatives of distinct cones must disagree, and
    distinct cones must select distinct minimizing vertex sets, read off
    their Lowest posets by `minimizers_from_lowest`.  With a
    `fan.subset_index()`, a cone's representative counts, per element, the
    ray subsets holding it: its lifted ray sum plus a multiple of (1, ..., 1).
    Sampling part: random rational points, drawn as integers by
    `random_integral_point`, must land in the classification (so the fan
    is complete), and each one's brute-force argmin must be the set stored
    for its Lowest poset.
    """
    proj = Q.proj
    if fan.ambient_dim != proj.m - 1:
        raise ValueError("ambient dimension mismatch")
    index = fan.subset_index()
    contain = index and index[0]
    minimizers = {}                  # Lowest poset's ranks -> vertex set
    for bits, cone in fan.cone_masks().items():
        if contain:
            w = [(e & bits).bit_count() for e in contain]
        else:
            rays = fan.cone_rays(cone)
            w = embed(map(sum, zip(*rays)) if rays else (0,) * fan.ambient_dim)
        key = lowest_ranks(proj, w)
        if key in minimizers:
            return False
        minimizers[key] = minimizers_from_lowest(Q, key)
    if len(set(minimizers.values())) != len(minimizers):
        return False
    rng = Random(seed)
    for _ in range(trials):
        w = embed(random_integral_point(rng, fan.ambient_dim))
        mins = minimizers.get(lowest_ranks(proj, w))
        if mins is None or minimizing_vertices(Q, w) != mins:
            return False
    return True


# --- fans ---------------------------------------------------------------------


def primitive(v):
    """v divided by the gcd of its entries (v itself when that is 0 or 1)."""
    g = reduce(gcd, v, 0)
    return tuple(v) if g <= 1 else tuple(x // g for x in v)


def in_relative_interior(fan, cone, w):
    """Whether w lies in the relative interior of the cone: in the cone
    (`cone_contains`), with every coordinate in its ray basis positive."""
    W, _ = integral(w)
    return cone_contains(fan, cone, W) and min(_numerators(_locator(fan, cone), W), default=1) > 0


def cone_coordinates(fan, cone, w):
    """Exact coordinates (Fractions) of w in the ray basis of a simplicial
    cone, or None if w is outside the cone's span.  Uses the cone's cached
    integer locator; raises ValueError if the rays are dependent."""
    W, q = integral(w)
    loc = _locator(fan, cone)
    _, _, det, rest = loc
    num = _numerators(loc, W)
    if any(sum(map(mul, num, col)) != det * W[i] for i, col in rest):
        return None                  # the coordinates in rows hold by construction
    return [Fraction(x, det * q) for x in num]


def find_cone(fan, w):
    """The unique cone whose relative interior contains w, or None.  The
    located cone is tried first, then every cone."""
    if all(x == 0 for x in w):
        zero = frozenset()
        return zero if zero in fan.cones else None
    W, _ = integral(w)
    cone = locate(fan, W)
    if cone and in_relative_interior(fan, cone, W):
        return cone
    for cone in fan.cones:
        if cone and in_relative_interior(fan, cone, W):
            return cone
    return None


def is_complete(fan, trials=200, seed=0):
    """Sampling check: every random rational point, drawn as integers by
    `random_integral_point`, lies in the relative interior of exactly one
    cone."""
    rng = Random(seed)
    for _ in range(trials):
        w = random_integral_point(rng, fan.ambient_dim)
        hits = sum(1 for cone in fan.cones
                   if (cone and in_relative_interior(fan, cone, w))
                   or (not cone and all(x == 0 for x in w)))
        if hits != 1:
            return False
    return True


def reference_refines(fine, coarse):
    """`refines` over all cones, as it was before it walked maximal cones
    only: every cone of `fine` is tried, the located coarse cone first, then
    every coarse cone, largest first."""
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


def sampled_same_support(f1, f2, trials=1000, seed=0):
    """`same_support` by sampling, as `polychow` decided the pairs that
    neither equality nor its certificate settled: False unless
    `refines(f1, f2)`; then max(1, trials // k) points in each of the k
    maximal cones of f2 must lie in the support of f1.  A point of a cone is
    the sum of (a/b) r over its rays r, with a = randint(1, 50) and
    b = randint(1, 7) drawn ray by ray, scaled to integers by 420 =
    lcm(1, ..., 7)."""
    if not pc.refines(f1, f2):
        return False
    rng = Random(seed)
    maxes = f2.maximal_cones()
    for cone in maxes:
        columns = list(zip(*f2.cone_rays(cone))) or [()] * f2.ambient_dim
        for _ in range(max(1, trials // len(maxes))):
            coefficients = [rng.randint(1, 50) * (420 // rng.randint(1, 7)) for _ in cone]
            if not pc.in_support(f1, [sum(map(mul, coefficients, col)) for col in columns]):
                return False
    return True


def chains(items):
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
    del extend                   # the closure refers to itself: break the cycle
    return out


def maximal_bergman_fan_direct(P):
    """The Bergman fan of P with the maximal building set, built directly
    from chains of flats plus a subset S subject to the rank inequality: a
    third construction beside `bergman_fan` and `boolean_bergman_fan`.

    The empty flat participates in the chain, so for every flat F in the
    chain (including the empty set) and every nonempty T contained in
    S minus preimage(F) the inequality rk(F + pi(T)) > rk(F) + |T| must
    hold.
    """
    proj = pc.lift(P).proj
    m = proj.m
    full = P.full_mask
    proper_flats = [f for f in P.flats() if f != 0 and f != full]
    ray_sets = set()
    for chain in chains(proper_flats):
        flats_with_empty = (0,) + chain
        for S in range(1 << m):
            if any(P.rank(F | proj.image(T)) <= P.rank(F) + T.bit_count()
                   for F in flats_with_empty for T in nonempty_subsets(S & ~proj.preimages[F])):
                continue
            cone = {subset_vector(proj.preimages[F], m) for F in chain}
            cone.update(subset_vector(1 << e, m) for e in elements(S))
            ray_sets.add(frozenset(cone))
    rays = sorted({r for s in ray_sets for r in s})
    index = {r: i for i, r in enumerate(rays)}
    return pc.Fan(m - 1, rays, [{index[r] for r in s} for s in ray_sets])


def reference_is_unimodular(fan):
    """`is_unimodular` over all cones, as it was before it checked maximal
    cones only."""
    for cone in fan.cones:
        rays = fan.cone_rays(cone)
        if not rays:
            continue
        if len(rays) > fan.ambient_dim:
            return False
        if any(d != 1 for d in linalg.smith_normal_form(rays)):
            return False
    return True


def reference_is_strictly_convex(fan, values):
    """`is_strictly_convex` as it was before it read one linear form per
    maximal cone: on a complete simplicial unimodular fan, at a wall tau
    between maximal cones with opposite rays u, u' the relation u + u' =
    sum(a_v * v) over rays v of tau must satisfy values[u] + values[u'] >
    sum(a_v * values[v]), compared as q * (values[u] + values[u']) >
    sum(x_v * values[v]) for the fraction-free solution (x, q) of the
    relation; ValueError where the relation is not supported on the wall."""
    if len(values) != len(fan.rays):
        raise ValueError("one value per ray required")
    d = fan.ambient_dim
    if any(len(c) != d for c in fan.maximal_cones()):
        raise ValueError("fan is not complete (a maximal cone is not full-dimensional)")
    for tau, sides in fan.walls().items():
        if len(sides) != 2:
            raise ValueError("fan is not complete (wall not shared by two cones)")
        (_, u), (_, u2) = sides
        tau = sorted(tau)
        target = [a + b for a, b in zip(fan.rays[u], fan.rays[u2])]
        solution = linalg.solve([[fan.rays[v][i] for v in tau] for i in range(d)], target)
        if solution is None:
            raise ValueError("wall relation is not supported on the wall; fan is not unimodular")
        x, q = solution
        if q * (values[u] + values[u2]) <= sum(a * values[v] for a, v in zip(x, tau)):
            return False
    return True


# --- Chow rings ---------------------------------------------------------------


def pack(codec, exps):
    """The packed monomial of an exponent vector; OverflowError unless it
    has one entry per variable, each in [0, codec.cap]."""
    if len(exps) != codec.nvars or exps and not 0 <= min(exps) <= max(exps) <= codec.cap:
        raise OverflowError("exponents %r do not fit %d fields of at most %d"
                            % (tuple(exps), codec.nvars, codec.cap))
    return sum(e << s for e, s in zip(exps, codec.shifts))


def degree(codec, m):
    """Total degree of the packed monomial m."""
    return sum(codec.exponents(m))


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        c2 = out.get(m, 0) + c
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def poly_scale(p, c):
    if not c:
        return {}
    return {m: c * v for m, v in p.items()}


def deg_fy(pair, poly):
    """Degree of a top-degree FY element, exact rational."""
    return Fraction(pair.fy.coords(poly, pair.fy.top)[0], pair.degree_normalizer())


def deg_dp(pair, poly):
    return deg_fy(pair, pair.phi(poly))


def sigma_cone_class(pair, F):
    """The sigma-cone generator -sum(x_G for G containing F) as a DP
    element, returned with its image in the FY presentation."""
    if F not in pair.G.members:
        raise ValueError("flat is not a building set member")
    dp = pair.dp
    poly = {m: -1 for g in dp.var_flats if g & F == F for m in dp.var(g)}
    return poly, pair.phi(poly)


def beta_class(pair, i):
    """For a matroid with its maximal building set: the class
    sum(y_F for proper flats F not containing i)."""
    fy, full = pair.fy, pair.M.full_mask
    return {m: 1 for g in fy.var_flats if g != full and not g >> i & 1 for m in fy.var(g)}


def beta_class_corank_form(pair):
    """The same class written as -sum((|G| - 1) y_G over members with at
    least two elements), including the full ground set."""
    fy = pair.fy
    return {m: 1 - g.bit_count() for g in fy.var_flats if g.bit_count() > 1 for m in fy.var(g)}


def zring_hilbert(P):
    """Hilbert function of the ray presentation of A(Sigma_P) for the
    maximal building set: variables z_F for proper nonempty flats and z_i
    for lifted elements, with incomparability, rank-inequality, and linear
    relations (z_empty read as 1).

    No Groebner basis is supplied for this presentation, so dimensions are
    computed degree by degree with exact linear algebra.
    """
    proj = pc.lift(P).proj
    full = P.full_mask
    proper = [f for f in P.flats() if f != 0 and f != full]
    m = proj.m
    nvars = len(proper) + m
    r = P.r
    codec = Codec(nvars, r)
    units = codec.units

    gens = []
    for a, b in combinations(range(len(proper)), 2):
        f1, f2 = proper[a], proper[b]
        if f1 & f2 != f1 and f1 & f2 != f2:
            gens.append({units[a] + units[b]: 1})
    flats_with_empty = [0] + proper
    for F in flats_with_empty:
        pre = proj.preimages[F]
        outside = [i for i in range(m) if not pre >> i & 1]
        for size in range(1, min(len(outside), 2 * r) + 1):
            for T in combinations(outside, size):
                T_mask = 0
                for i in T:
                    T_mask |= 1 << i
                if P.rank(F | proj.image(T_mask)) <= P.rank(F) + size:
                    exps = [0] * nvars
                    if F:
                        exps[proper.index(F)] += 1
                    for i in T:
                        exps[len(proper) + i] += 1
                    gens.append({pack(codec, exps): 1})
    lin = []
    for i in range(m):
        e = [0] * nvars
        for idx, F in enumerate(proper):
            if proj.preimages[F] >> i & 1:
                e[idx] += 1
        e[len(proper) + i] += 1
        lin.append(e)
    for j in range(1, m):
        gens.append({units[i]: lin[0][i] - lin[j][i]
                     for i in range(nvars) if lin[0][i] != lin[j][i]})

    layers = _standard_monomials(codec, DivisorIndex(codec), r)
    hilbert = []
    for d in range(r):
        monos = layers[d]
        index = {mn: i for i, mn in enumerate(monos)}
        rows = []
        for g in gens:
            gdeg = degree(codec, next(iter(g)))
            if gdeg > d:
                continue
            for shift in layers[d - gdeg]:
                row = [0] * len(monos)
                for gm, gc in g.items():
                    row[index[codec.check(gm + shift)]] = gc
                rows.append(row)
        hilbert.append(len(monos) - (linalg.rank(rows) if rows else 0))
    return tuple(hilbert)


# --- Bareiss elimination without zero-skipping ------------------------------


def reference_integer_rref(rows, width=None):
    """`linalg.integer_rref` as it was before rows with a zero in the pivot
    column were skipped: every other row takes the full update."""
    M = [list(row) for row in rows]
    nrows = len(M)
    width = (len(M[0]) if M else 0) if width is None else width
    pivots = []
    prev = 1
    for c in range(width):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        pivot_row = M[r]
        a = pivot_row[c]
        for i in range(nrows):
            if i != r:
                b = M[i][c]
                M[i] = [(a * x - b * y) // prev for x, y in zip(M[i], pivot_row)]
        pivots.append(c)
        prev = a
    return M, pivots, prev


def reference_det(rows):
    """Determinant of a square matrix by entry-by-entry Bareiss elimination
    with row swaps."""
    n = len(rows)
    if n == 0:
        return 1
    A, scale = integral_rows(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot is None:
                return 0
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    result = Fraction(sign * A[n - 1][n - 1], scale)
    return int(result) if result.denominator == 1 else result


def reference_is_positive_definite(G):
    """Sylvester's criterion from one full Bareiss pass without pivoting,
    for a square symmetric matrix."""
    n = len(G)
    A, prev = integral_rows(G)[0], 1
    for k in range(n):
        a = A[k][k]
        if a <= 0:
            return False
        for i in range(k + 1, n):
            b = A[i][k]
            A[i] = [(a * x - b * y) // prev for x, y in zip(A[i], A[k])]
        prev = a
    return True
