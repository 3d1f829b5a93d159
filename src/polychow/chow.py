"""Chow rings of polymatroids in two presentations, with Groebner reduction.

The generator sets below are known Groebner bases, so no completion is
performed: the engine only reduces against them and verifies structural
consequences (standard-monomial bases, Hilbert functions, the variable
substitution between the two presentations, Poincare duality).

The standard monomials are grown degree by degree as an order ideal (the
monomials no leading term divides are closed under division), and a normal
form is computed in one pass over a sorted worklist of the polynomial's
terms, largest first.

Monomial order: lexicographic.  Variables are indexed by flats sorted by
(size, numeric value), so smaller flats come first and are *larger* in the
order; whenever F1 strictly contains F2 the variable of F1 is smaller.
With this order the leading monomial of sum(x_H for H containing G) is
x_G, and every Groebner generator has leading coefficient 1, which keeps
all reductions integral.
"""

from bisect import insort
from fractions import Fraction
from itertools import combinations, product

from . import linalg
from .bitsets import canonical_key
from .building import is_nested, lifted_building_set, maximal_building_set, nested_complex

# --- polynomial helpers (exponent tuples -> coefficients) --------------------


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(d, m):
    return all(x <= y for x, y in zip(d, m))


def mono_quotient(m, d):
    return tuple(y - x for x, y in zip(d, m))


def mono_degree(m):
    return sum(m)


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


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def poly_pow(p, e):
    out = None
    for _ in range(e):
        out = dict(p) if out is None else poly_mul(out, p)
    return out if out is not None else None


def leading_monomial(p):
    return max(p)


def reduce_poly(p, groebner):
    """Normal form against a list of (leading_monomial, polynomial) pairs.

    All leading coefficients are 1, so integer inputs stay integral.  The
    terms of p are sorted once into a worklist and taken largest first; each
    is reduced by the first generator whose leading monomial divides it.
    Reducing a term adds only smaller terms, which are inserted in order, so
    a term found irreducible is final and the reductions happen in the same
    order as rescanning p for its largest reducible term after every step.
    """
    p = dict(p)
    work = sorted(p)
    while work:
        m = work.pop()
        c = p.get(m)
        if c is None:            # cancelled after it was queued
            continue
        for lt, g in groebner:
            if mono_divides(lt, m):
                break
        else:
            continue
        shift = mono_quotient(m, lt)
        for gm, gc in g.items():
            key = mono_mul(gm, shift)
            old = p.get(key)
            v = (old or 0) - c * gc
            if v:
                p[key] = v
                if old is None:
                    insort(work, key)
            else:
                p.pop(key, None)
    return p


def _minimalize(candidates):
    """Keep one generator per minimal leading monomial.

    Dropping a Groebner-basis element whose leading monomial is divisible
    by another's preserves the Groebner property.
    """
    chosen = {}
    for lt, make in candidates.items():
        chosen[lt] = make
    lts = sorted(chosen, key=lambda m: (mono_degree(m), m))
    keep = []
    for m in lts:
        if not any(mono_divides(other, m) for other in keep):
            keep.append(m)
    return [(m, chosen[m]) for m in keep]


def _standard_monomials(nvars, leading_terms, stop):
    """Monomials of degree < stop that no leading term divides, as one tuple
    per degree, each sorted largest first.

    They form an order ideal (closed under division), so degree d+1 is grown
    from degree d: each monomial times every variable from its last nonzero
    exponent on, which reaches every monomial of degree d+1 exactly once.
    """
    layers = []
    layer = [((0,) * nvars, 0)]      # (monomial, first variable to multiply)
    for d in range(stop):
        layers.append(tuple(sorted((m for m, _ in layer), reverse=True)))
        if d + 1 == stop:
            break
        grown = []
        for m, first in layer:
            for i in range(first, nvars):
                n = m[:i] + (m[i] + 1,) + m[i + 1:]
                if not any(mono_divides(lt, n) for lt in leading_terms):
                    grown.append((n, i))
        layer = grown
    return layers


class GradedRing:
    """A graded quotient presented by a known Groebner basis.

    `basis[d]` lists the degree-d standard monomials, largest first, grown
    as an order ideal up to degree r, which must be empty.  `nf` is the
    single-pass normal form of the module-level `reduce_poly`.
    """

    def __init__(self, kind, var_flats, r, groebner, context=None):
        self.kind = kind
        self.var_flats = tuple(var_flats)
        self.var_index = {f: i for i, f in enumerate(self.var_flats)}
        self.nvars = len(self.var_flats)
        self.r = r
        self.top = r - 1
        self.groebner = groebner
        self.context = context or {}
        # Everything in degrees r..2r-2 must vanish for the truncated
        # generator set to be safe in the degrees we compute in.  Standard
        # monomials are closed under division, so that holds iff degree r
        # has none; for r = 1 the range is empty and nothing is checked.
        layers = _standard_monomials(
            self.nvars, [lt for lt, _ in groebner], r + 1 if r > 1 else r)
        self.basis = tuple(layers[:r])
        if len(layers) > r and layers[r]:
            raise AssertionError(
                "truncated Groebner basis leaves standard monomials in degree %d" % r)

    def one(self):
        return {(0,) * self.nvars: 1}

    def var(self, flat):
        exps = [0] * self.nvars
        exps[self.var_index[flat]] = 1
        return {tuple(exps): 1}

    def nf(self, poly):
        return reduce_poly(poly, self.groebner)

    def mul(self, *polys):
        out = self.one()
        for p in polys:
            out = poly_mul(out, p)
        return out

    def coords(self, poly, degree):
        """Coefficient vector of a normal form over the degree basis."""
        nf = self.nf(poly)
        basis = self.basis[degree] if 0 <= degree < self.r else ()
        index = {m: i for i, m in enumerate(basis)}
        vec = [Fraction(0)] * len(basis)
        for m, c in nf.items():
            if mono_degree(m) != degree or m not in index:
                raise ValueError("element is not homogeneous of degree %d" % degree)
            vec[index[m]] = Fraction(c)
        return vec

    def hilbert(self):
        return tuple(len(b) for b in self.basis)

    def __repr__(self):
        return "GradedRing(%s, %d vars, hilbert=%r)" % (
            self.kind, self.nvars, self.hilbert())


# --- the DP presentation -----------------------------------------------------


def dp_ring(P, G=None):
    """DP(P, G): variables x_F for F in G, relations

        x_{G_1} ... x_{G_k} (sum over H >= G of x_H)^b

    with the minimal admissible exponent b = max(0, rk(G) - rk(union of
    members of S strictly below G)).  Generators whose total degree would
    exceed 2r-1 are omitted; the constructor asserts nothing survives in
    degrees >= r.
    """
    if G is None:
        G = maximal_building_set(P)
    members = sorted(G.members, key=canonical_key)
    index = {f: i for i, f in enumerate(members)}
    nvars = len(members)
    r = P.r
    limit = 2 * r - 1

    def mono_of(flats, extra=None, power=0):
        exps = [0] * nvars
        for f in flats:
            exps[index[f]] += 1
        if extra is not None:
            exps[index[extra]] += power
        return tuple(exps)

    upper = {g: [h for h in members if h & g == g] for g in members}
    candidates = {}
    for g in members:
        rk_g = P.rank(g)
        for size in range(0, limit + 1):
            if size > nvars:
                break
            for S in combinations(members, size):
                union_below = 0
                for f in S:
                    if f & g == f and f != g:
                        union_below |= f
                b = max(0, rk_g - P.rank(union_below))
                if size + b > limit or size + b == 0:
                    continue
                lt = mono_of(S, g, b)
                if lt not in candidates:
                    candidates[lt] = (S, g, b)
    generators = []
    for lt, (S, g, b) in _minimalize(candidates):
        poly = {mono_of(S): 1}
        if b:
            upper_sum = {mono_of((h,)): 1 for h in upper[g]}
            poly = poly_mul(poly, poly_pow(upper_sum, b))
        assert leading_monomial(poly) == lt and poly[lt] == 1
        generators.append((lt, poly))
    return GradedRing("dp", members, r,
                      generators, context={"P": P, "G": G})


def nested_basis(P, G=None):
    """The monomial basis enumerated independently from nested sets of G:
    exponents 1 <= a_i < rk(G_i) - rk(union of the smaller members)."""
    if G is None:
        G = maximal_building_set(P)
    members = sorted(G.members, key=canonical_key)
    index = {f: i for i, f in enumerate(members)}
    r = P.r
    per_degree = [set() for _ in range(r)]
    for N in nested_complex(G):
        flats = sorted(N, key=canonical_key)
        ranges = []
        for g in flats:
            union_below = 0
            for f in flats:
                if f & g == f and f != g:
                    union_below |= f
            hi = P.rank(g) - P.rank(union_below)  # exclusive bound
            if hi <= 1:
                ranges = None
                break
            ranges.append(range(1, hi))
        if ranges is None:
            continue
        for choice in product(*ranges):
            exps = [0] * len(members)
            for g, a in zip(flats, choice):
                exps[index[g]] = a
            degree = sum(choice)
            if degree < r:
                per_degree[degree].add(tuple(exps))
    return tuple(tuple(sorted(s, reverse=True)) for s in per_degree)


# --- the FY presentation -----------------------------------------------------


def fy_ring(P, G=None):
    """A(Sigma_{P,G}) in the presentation with variables y_G for G in the
    lifted building set.  The Groebner basis consists of the square-free
    monomials of non-nested antichains together with

        prod(y_F for F in N) * (sum over H >= G of y_H)^d

    for nested antichains N strictly below G with d = rk(G) - rk(union N).
    The linear relations are the d = 1 instances at the atoms, so normal
    forms automatically eliminate atom variables.
    """
    if G is None:
        G = maximal_building_set(P)
    M, lifted = lifted_building_set(P, G)
    members = sorted(lifted.members, key=canonical_key)
    index = {f: i for i, f in enumerate(members)}
    nvars = len(members)
    r = P.r
    limit = 2 * r - 1

    def mono_of(flats, extra=None, power=0):
        exps = [0] * nvars
        for f in flats:
            exps[index[f]] += 1
        if extra is not None:
            exps[index[extra]] += power
        return tuple(exps)

    candidates = {}
    # Non-nested antichains: closure of the union is again a member.
    for size in range(2, min(limit, nvars) + 1):
        for A in combinations(members, size):
            if any(a != b and a & b == a for a in A for b in A):
                continue
            union = 0
            for a in A:
                union |= a
            if M.closure(union) in lifted.members:
                lt = mono_of(A)
                candidates.setdefault(lt, ("mono", A, None, 0))
    # Power relations over nested antichains strictly below a member.
    for g in members:
        below = [f for f in members if f & g == f and f != g]
        rk_g = M.rank(g)
        for size in range(0, min(limit - 1, len(below)) + 1):
            for N in combinations(below, size):
                if any(a != b and a & b == a for a in N for b in N):
                    continue
                union = 0
                for f in N:
                    union |= f
                d = rk_g - M.rank(union)
                if d < 1 or size + d > limit:
                    continue
                if size >= 2 and not is_nested(lifted, N):
                    continue
                lt = mono_of(N, g, d)
                candidates.setdefault(lt, ("power", N, g, d))
    upper = {g: [h for h in members if h & g == g] for g in members}
    generators = []
    for lt, (tag, flats, g, d) in _minimalize(candidates):
        poly = {mono_of(flats): 1}
        if tag == "power":
            upper_sum = {mono_of((h,)): 1 for h in upper[g]}
            poly = poly_mul(poly, poly_pow(upper_sum, d))
        assert leading_monomial(poly) == lt and poly[lt] == 1
        generators.append((lt, poly))
    return GradedRing("fy", members, r, generators,
                      context={"P": P, "G": G, "M": M, "lifted": lifted})


# --- the isomorphism and degree data -----------------------------------------


class ChowPair:
    """DP and FY presentations of the same Chow ring, with the variable
    substitution x_F -> y_{preimage(F)} and the degree normalization."""

    def __init__(self, P, G=None):
        self.P = P
        self.G = G if G is not None else maximal_building_set(P)
        self.dp = dp_ring(P, self.G)
        self.fy = fy_ring(P, self.G)
        self.M = self.fy.context["M"]
        self.lifted = self.fy.context["lifted"]
        self.proj = self.M.proj
        self._deg_norm = None

    def phi(self, poly):
        """Transport a DP polynomial to the FY variables."""
        translate = [self.fy.var_index[self.proj.preimage(f)]
                     for f in self.dp.var_flats]
        out = {}
        for m, c in poly.items():
            exps = [0] * self.fy.nvars
            for i, e in enumerate(m):
                exps[translate[i]] += e
            key = tuple(exps)
            out[key] = out.get(key, 0) + c
        return out

    def maximal_nested_monomials(self):
        """Square-free FY monomials of the maximal cones of the fan."""
        full = self.M.full_mask
        out = []
        for N in nested_complex(self.lifted, exclude=full):
            if len(N) == self.P.r - 1:
                out.append(sorted(N, key=canonical_key))
        return out

    def degree_normalizer(self):
        """The common coefficient c with NF(max-cone monomial) = c * mu.

        deg is fixed by giving every maximal cone's monomial degree one;
        inconsistency across cones raises.
        """
        if self._deg_norm is None:
            fy = self.fy
            if len(fy.basis[fy.top]) != 1:
                raise AssertionError("top graded piece does not have rank 1")
            values = []
            for N in self.maximal_nested_monomials():
                poly = fy.one()
                for f in N:
                    poly = poly_mul(poly, fy.var(f))
                values.append(fy.coords(poly, fy.top)[0])
            if not values:
                raise AssertionError("no maximal nested sets")
            if any(v != values[0] for v in values):
                raise AssertionError("degree functional inconsistent across maximal cones")
            if values[0] == 0:
                raise AssertionError("maximal cone monomial vanishes")
            self._deg_norm = values[0]
        return self._deg_norm

    def deg_fy(self, poly):
        """Degree of a top-degree FY element, exact rational."""
        c = self.degree_normalizer()
        return self.fy.coords(poly, self.fy.top)[0] / c

    def deg_dp(self, poly):
        return self.deg_fy(self.phi(poly))


def phi_iso_check(pair):
    """Verify that x_F -> y_{preimage(F)} is a graded ring isomorphism.

    Checks: every DP Groebner generator maps into the FY ideal; the DP
    basis maps to a basis degree by degree; products of basis elements
    have matching structure constants on both sides.
    """
    dp, fy = pair.dp, pair.fy
    for _, g in dp.groebner:
        if fy.nf(pair.phi(g)):
            return False
    matrices = {}
    for d in range(dp.r):
        if len(dp.basis[d]) != len(fy.basis[d]):
            return False
        cols = [fy.coords(pair.phi({m: 1}), d) for m in dp.basis[d]]
        if cols:
            matrix = [[cols[j][i] for j in range(len(cols))]
                      for i in range(len(cols[0]))] if cols[0] else []
            if len(cols[0]) != len(cols) or linalg.det(matrix) == 0:
                return False
            matrices[d] = matrix
    for d1 in range(dp.r):
        for d2 in range(d1, dp.r - d1):
            for m1 in dp.basis[d1]:
                for m2 in dp.basis[d2]:
                    prod_dp = dp.nf(poly_mul({m1: 1}, {m2: 1}))
                    image = fy.nf(pair.phi(prod_dp))
                    direct = fy.nf(poly_mul(pair.phi({m1: 1}), pair.phi({m2: 1})))
                    if image != direct:
                        return False
    return True


def pairing_matrix(pair, k, ring="dp"):
    """Integer matrix of (a, b) -> deg(ab) between degrees k and r-1-k."""
    R = pair.dp if ring == "dp" else pair.fy
    deg = pair.deg_dp if ring == "dp" else pair.deg_fy
    top = R.top
    rows = R.basis[k]
    cols = R.basis[top - k]
    out = []
    for m1 in rows:
        row = []
        for m2 in cols:
            value = deg(poly_mul({m1: 1}, {m2: 1}))
            if value.denominator != 1:
                raise AssertionError("non-integral pairing value")
            row.append(int(value))
        out.append(row)
    return out


# --- the z-presentation of the introduction ----------------------------------


def zring_hilbert(P):
    """Hilbert function of the ray presentation of A(Sigma_P) for the
    maximal building set: variables z_F for proper nonempty flats and z_i
    for lifted elements, with incomparability, rank-inequality, and linear
    relations (z_empty read as 1).

    No Groebner basis is supplied for this presentation, so dimensions are
    computed degree by degree with exact linear algebra.
    """
    from .lift import lift as make_lift

    M = make_lift(P)
    proj = M.proj
    full = P.full_mask
    proper = [f for f in P.flats() if f != 0 and f != full]
    m = proj.m
    nvars = len(proper) + m
    r = P.r

    def var_exps(i):
        e = [0] * nvars
        e[i] = 1
        return tuple(e)

    gens = []
    for a, b in combinations(range(len(proper)), 2):
        f1, f2 = proper[a], proper[b]
        if f1 & f2 != f1 and f1 & f2 != f2:
            gens.append({mono_mul(var_exps(a), var_exps(b)): 1})
    flats_with_empty = [0] + proper
    for F in flats_with_empty:
        pre = proj.preimage(F)
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
                    gens.append({tuple(exps): 1})
    lin = []
    for i in range(m):
        e = [0] * nvars
        for idx, F in enumerate(proper):
            if proj.preimage(F) >> i & 1:
                e[idx] += 1
        e[len(proper) + i] += 1
        lin.append(e)
    for j in range(1, m):
        gens.append({var_exps(i): lin[0][i] - lin[j][i]
                     for i in range(nvars) if lin[0][i] != lin[j][i]})

    layers = _standard_monomials(nvars, (), r)
    hilbert = []
    for d in range(r):
        monos = layers[d]
        index = {mn: i for i, mn in enumerate(monos)}
        rows = []
        for g in gens:
            gdeg = mono_degree(next(iter(g)))
            if gdeg > d:
                continue
            for shift in layers[d - gdeg]:
                row = [0] * len(monos)
                for gm, gc in g.items():
                    row[index[mono_mul(gm, shift)]] = gc
                rows.append(row)
        hilbert.append(len(monos) - (linalg.rank(rows) if rows else 0))
    return tuple(hilbert)
