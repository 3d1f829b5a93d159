"""Strictly convex piecewise linear classes and the Kaehler package.

The canonical ample class is the support function of the nestohedron of
the lifted building set: its value on the ray of a member G counts the
members contained in G.  Strict convexity of these ray values is certified
on the complete ambient fan (the nested-set fan of the lifted building set
over the Boolean ground), and inherited by the Bergman fan, a subfan.

Hard Lefschetz and Hodge-Riemann are then verified by exact linear algebra
over the standard-monomial bases of the FY presentation, from the matrices
of multiplication by powers ell^p from degree k to k + p, each built once
per G, class, k and p and shared by both checks.  The power p = 1 is the
one-step matrix L_k (columns nf(ell * b) for the degree-k basis monomials b;
integral when ell is, as every Groebner generator is monic), and the power
p > 1 is L_{k+p-1} times the power p - 1: normal forms are linear, as the
generator set is a Groebner basis (the tests reduce every S-pair).
"""

from operator import mul

from . import linalg
from .building import BuildingSet
from .chow import pairing_det, pairing_matrix, poly_mul, reduce_poly
from .fan import bergman_fan, nested_set_fan, subset_vector
from .polymatroid import ProjectionMap, boolean_polymatroid, memoized


def ambient_complete_fan(pair):
    """The nested-set fan of the lifted building set over the Boolean
    ground set, which is complete and contains the Bergman fan as a
    subfan.  Requires the lifted members to form a building set of the
    Boolean lattice (in particular the lift must be a simple matroid).
    A free lift's closure is the identity, so its Bergman fan is complete
    and is its own ambient fan, shared with `bergman_fan`'s memo; its
    lifted members need no validation.  Lemma: a free lift has rank
    m = sum rk(i), so P is Boolean by submodularity and G, a building set
    of the Boolean lattice on E, holds every singleton and the union of
    any two intersecting members; preimages keep both, and a singleton of
    E~ meeting a preimage lies inside it, so the preimages plus the
    singletons of E~ form a building set of the Boolean lattice on E~."""
    m = pair.proj.m
    if pair.M.rank(pair.M.full_mask) == m:
        return bergman_fan(pair.G)
    base = boolean_polymatroid(ProjectionMap((1,) * m))
    return nested_set_fan(BuildingSet(base, pair.lifted.members, validate=True))


def nestohedron_values(pair):
    """Ray values of the negated nestohedron support function.

    The support function of the nestohedron (min convention) evaluated on
    the indicator vector of G counts the members contained in G.  On the
    canonical quotient representatives, which subtract the all-ones vector
    whenever G contains the dropped coordinate, the count shifts by the
    total number of members; negating then yields a function that is
    strictly convex in the wall-inequality orientation used here and whose
    top power has positive degree.
    """
    members = pair.lifted.members
    full = pair.M.full_mask
    total = len(members)
    drop = pair.proj.m - 1
    return {g: (total if g >> drop & 1 else 0) - sum(1 for h in members if h & g == h)
            for g in members if g != full}


def nestohedron_class(pair):
    """Returns (ambient fan, ray values indexed like its rays, degree-1
    element of the Chow ring).  The values are certified strictly convex;
    failure raises, since it would indicate a bug."""
    ambient = ambient_complete_fan(pair)
    values_by_member = nestohedron_values(pair)
    m = pair.proj.m
    values = [None] * len(ambient.rays)
    for g, v in values_by_member.items():
        values[ambient.ray_index[subset_vector(g, m)]] = v
    if any(v is None for v in values):
        raise AssertionError("ambient fan has a ray outside the building set")
    if not is_strictly_convex(ambient, values):
        raise AssertionError("nestohedron class failed strict convexity")
    return ambient, values, {m: v for g, v in values_by_member.items() for m in pair.fy.var(g)}


def is_strictly_convex(fan, values):
    """Wall-by-wall strict convexity of ray values (indexed like fan.rays)
    on a complete simplicial fan (Cox-Little-Schenck, "Toric varieties",
    ch. 6).  On each maximal cone sigma the values are those of the linear
    form x / q, for the fraction-free solution (x, q), q > 0, of <x, v> =
    q * values[v] over sigma's rays v; at a wall of sigma, with u' the
    other cone's opposite ray, it requires q * values[u'] > <x, u'>.  When
    u + u' = sum(a_v * v) over the wall's rays v (u opposite in sigma),
    this reads values[u] + values[u'] > sum(a_v * values[v]), from either
    side.  A maximal cone that no linear form fits raises ValueError.
    """
    if len(values) != len(fan.rays):
        raise ValueError("one value per ray required")
    maxes = fan.maximal_cones()
    if any(len(c) != fan.ambient_dim for c in maxes):
        raise ValueError("fan is not complete (a maximal cone is not full-dimensional)")
    walls = fan.walls().values()
    if any(len(sides) != 2 for sides in walls):
        raise ValueError("fan is not complete (wall not shared by two cones)")
    forms = {c: linalg.solve(fan.cone_rays(c), [values[v] for v in sorted(c)]) for c in maxes}
    if None in forms.values():
        raise ValueError("a maximal cone has dependent rays; fan is not simplicial")
    for (c, _), (_, u2) in walls:
        x, q = forms[c]
        if q * values[u2] <= sum(map(mul, x, fan.rays[u2])):
            return False
    return True


def _lefschetz_power(pair, ell, k, p):
    """Matrix of multiplication by ell^p from degree k to degree k + p, as a
    list of rows, memoized on G: the identity for p = 0; for p = 1,
    column j holds the coordinates of nf(ell * b_j) for the j-th degree-k
    standard monomial b_j; for p > 1, L_{k+p-1} times the power p - 1."""
    def build():
        if p > 1:
            return linalg.mat_mul(_lefschetz_power(pair, ell, k + p - 1, 1),
                                  _lefschetz_power(pair, ell, k, p - 1))
        fy = pair.fy
        if p == 0:
            return linalg.identity(len(fy.basis[k]))
        cols = [fy.coords(poly_mul(ell, {b: 1}), k + 1) for b in fy.basis[k]]
        return [list(row) for row in zip(*cols)]
    return memoized(pair.G, ("lefschetz", tuple(sorted(ell.items())), k, p), build)


def hard_lefschetz_check(pair, ell, k):
    """Multiplication by ell^(r-2k-1) from degree k to degree r-1-k (see
    `_lefschetz_power`) must be a square invertible matrix."""
    fy = pair.fy
    r = fy.r
    if not 0 <= 2 * k < r:
        raise ValueError("k out of range")
    if len(fy.basis[k]) != len(fy.basis[r - 1 - k]):
        return False
    matrix = _lefschetz_power(pair, ell, k, r - 2 * k - 1)
    return not matrix or linalg.det(matrix) != 0


def _hodge_riemann_form(pair, ell, k):
    """The degree-k Hodge-Riemann form, a basis of the primitive classes
    (one vector per row) and the form's Gram matrix on them.

    With P the matrix of ell^(r-2k-1) from degree k and Q the degree-k
    Poincare pairing matrix, the form is (-1)^k (Q P)^T, and the primitive
    classes are the kernel of the matrix of ell^(r-2k) from degree k, the
    next power (see `_lefschetz_power`); for k = 0 the target degree r
    vanishes and every class is primitive.
    """
    fy = pair.fy
    r = fy.r
    power = _lefschetz_power(pair, ell, k, r - 2 * k - 1)
    sign = -1 if k % 2 else 1
    form = [[sign * x for x in col]
            for col in zip(*linalg.mat_mul(pairing_matrix(pair, k, ring="fy"), power))]
    matrix = _lefschetz_power(pair, ell, k, r - 2 * k) if k else []
    kernel = linalg.kernel_basis(matrix, len(fy.basis[k]))
    columns = [list(col) for col in zip(*kernel)]
    return form, kernel, linalg.mat_mul(kernel, linalg.mat_mul(form, columns))


def hodge_riemann_check(pair, ell, k):
    """(-1)^k deg(ell^(r-2k-1) a b) must be positive definite on the
    kernel of multiplication by ell^(r-2k); see `_hodge_riemann_form`."""
    if not 0 <= 2 * k < pair.fy.r:
        raise ValueError("k out of range")
    return linalg.is_positive_definite(_hodge_riemann_form(pair, ell, k)[2])


def kahler_package_report(pair):
    """Poincare pairing, Hard Lefschetz, and Hodge-Riemann for the
    nestohedron class and every admissible k, as a dict of named verdicts."""
    ell = reduce_poly(pair.fy, nestohedron_class(pair)[2])  # exact: nf is linear
    r = pair.fy.r
    report = {}
    for k in range((r + 1) // 2):
        report["poincare_k%d" % k] = pairing_det(pair, k, ring="fy") in (1, -1)
        report["hard_lefschetz_k%d" % k] = hard_lefschetz_check(pair, ell, k)
        report["hodge_riemann_k%d" % k] = hodge_riemann_check(pair, ell, k)
    return report
