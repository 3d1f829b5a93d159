"""Chow rings of polymatroids in two presentations, with Groebner reduction.

One generator, `_groebner`, builds the Feichtner-Yuzvinsky Groebner basis
for both presentations: on G for DP and on the lifted building set, whose
base is the lift M, for FY.  No completion is performed; the tests reduce
every S-pair below degree 2r-1 to zero on both presentations, and the
engine verifies structural consequences (standard-monomial bases, Hilbert
functions, the variable substitution between the two presentations,
Poincare duality).

The standard monomials are grown degree by degree as an order ideal (the
monomials no leading term divides are closed under division).  Each ring
keeps one table of monomial normal forms, each reduced once; a normal form
(`reduce_poly`) is summed from its entries, and basis coordinates (`coords`)
are read from that normal form.

Monomial order: lexicographic.  Variables are indexed by flats sorted by
(size, numeric value), so smaller flats come first and are *larger* in the
order; whenever F1 strictly contains F2 the variable of F1 is smaller.
With this order the leading monomial of sum(x_H for H containing G) is
x_G, and every Groebner generator has leading coefficient 1, which keeps
all reductions integral.

Monomials are packed ints (`Codec`): variable i's exponent fills a field
of w bits, variable 0 the most significant one, and each field's top bit
is a guard bit, 0 in every monomial; the w - 1 value bits hold any
exponent up to 2r (generators stop at degree 2r-1).  So the int order is
the lexicographic order of the exponent tuples, a product is a sum, and
d divides m exactly when (m | guard) - d keeps every guard bit.  A sum
of two monomials cannot carry out of a field: an overflow sets a guard
bit, and the rings raise OverflowError on any monomial with one set.
`Codec.exponents` unpacks a monomial into its exponent tuple, and
a `DivisorIndex` finds the first leading term dividing a monomial.
"""

from functools import cache, reduce
from itertools import product
from operator import or_
from sys import maxsize

from . import linalg
from .bitsets import elements
from .building import comparability_masks, lifted_building_set, nested_complex
from .polymatroid import memoized

# --- packed monomials and polynomials (monomial -> coefficient) -------------


class Codec:
    """Exponent vectors of `nvars` variables as packed ints, with fields
    wide enough for every exponent up to 2r (see the module docstring).
    A monomial's support is the guard bits of its nonzero fields; the guard
    bit of the field at shift s has bit length s + width."""

    def __init__(self, nvars, r):
        width = (2 * r).bit_length() + 1
        self.nvars = nvars
        self.cap = (1 << (width - 1)) - 1          # the largest exponent
        self.shifts = tuple(width * (nvars - 1 - i) for i in range(nvars))
        self.units = tuple(1 << s for s in self.shifts)
        self.ones = sum(self.units)
        self.guard = self.ones << (width - 1)
        self.field = (1 << width) - 1

    def exponents(self, m):
        self.check(m)
        field = self.field
        return tuple([m >> s & field for s in self.shifts])

    def check(self, m):
        if m & self.guard:
            raise OverflowError("a monomial exponent exceeds %d" % self.cap)
        return m

    def support(self, m):
        return ((m | self.guard) - self.ones) & self.guard


def poly_mul(p, q):
    """Product over packed monomials: keys add, and a ring raises on an
    overflowed key when it reads it (`reduce_poly`, `exponents`)."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
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
    return out


class DivisorIndex:
    """A list of monomials of one `Codec`, indexed for the query "the first
    of them dividing m" (a divisor index, as in Roune-Stillman, "Practical
    Groebner basis computation").

    A monomial divides m only if its first (most significant) variable is in
    m's support, so the monomials are bucketed by that variable's guard bit,
    each bucket in list order.  `first(m)` visits the buckets of m's support
    and stops each at its first divisor or past the best index found so far,
    so it returns the index that a scan of the whole list returns.  The
    constant monomial divides everything, so the first one listed bounds
    every answer.
    """

    def __init__(self, codec, leads=()):
        self.codec = codec
        self.guard, self.ones = codec.guard, codec.ones
        self.buckets = [[] for _ in range(self.guard.bit_length() + 1)]
        self.size = 0
        self.start = maxsize         # index of the first constant monomial
        for lt in leads:
            self.add(lt)

    def add(self, lt):
        """Append lt to the list."""
        top = self.codec.support(lt).bit_length()
        if top:
            self.buckets[top].append((self.size, lt))
        elif self.start == maxsize:
            self.start = self.size
        self.size += 1

    def first(self, m):
        """Index of the first listed term dividing m, or None."""
        guard, buckets = self.guard, self.buckets
        support = ((m | guard) - self.ones) & guard      # inlined codec.support
        m |= guard
        best = self.start
        while support:
            top = support.bit_length()
            support ^= 1 << (top - 1)
            for i, lt in buckets[top]:
                if i > best:
                    break
                if (m - lt) & guard == guard:
                    best = i
                    break
        return None if best == maxsize else best


def _minimalize(candidates, codec):
    """Keep one generator per minimal leading monomial, in (degree, monomial)
    order; each candidate (flats, g, d) has degree len(flats) + d.

    Dropping a Groebner-basis element whose leading monomial is divisible
    by another's preserves the Groebner property.
    """
    def order(item):
        m, (flats, _, d) = item
        return len(flats) + d, m

    keep = DivisorIndex(codec)
    out = []
    for m, candidate in sorted(candidates.items(), key=order):
        if keep.first(m) is None:
            keep.add(m)
            out.append((m, candidate))
    return out


def _standard_monomials(codec, divisors, stop):
    """Monomials of degree < stop that no leading term divides (none that
    the `DivisorIndex` divisors holds), as one tuple per degree, each
    sorted largest first.

    They form an order ideal (closed under division), so degree d+1 is grown
    from degree d: each monomial times every variable from its last nonzero
    exponent on, which reaches every monomial of degree d+1 exactly once.
    Every exponent stays below stop, at most r + 1, so no field overflows.
    """
    units, first_divisor = codec.units, divisors.first
    layers = []
    layer = [(0, 0)]                 # (monomial, first variable to multiply)
    for d in range(stop):
        layers.append(tuple(sorted((m for m, _ in layer), reverse=True)))
        if d + 1 == stop:
            break
        grown = []
        for m, first in layer:
            for i in range(first, codec.nvars):
                n = m + units[i]
                if first_divisor(n) is None:
                    grown.append((n, i))
        layer = grown
    return layers


class GradedRing:
    """A graded quotient presented by a Groebner basis.

    `basis[d]` lists the degree-d standard monomials, largest first, grown
    as an order ideal up to degree r, which must be empty; `basis_index[d]`
    maps each to its position.  Monomials are packed by `codec` (a `Codec`
    for nvars variables and rank r), whose `exponents` unpacks one.  `divisors`
    is the `DivisorIndex` of the leading terms.  `reduce_poly`, which
    `coords` reads, takes each monomial's normal form from a table private
    to the ring, filled on first use and kept for the ring's lifetime.
    """

    def __init__(self, kind, var_flats, r, groebner):
        self.kind = kind
        self.var_flats = tuple(var_flats)
        self.var_index = {f: i for i, f in enumerate(self.var_flats)}
        self.nvars = len(self.var_flats)
        self.r = r
        self.top = r - 1
        self.groebner = groebner
        self.codec = Codec(self.nvars, r)
        self.divisors = DivisorIndex(self.codec, [lt for lt, _ in groebner])
        self._table = {}
        # Everything in degrees r..2r-2 must vanish for the truncated
        # generator set to be safe in the degrees we compute in.  Standard
        # monomials are closed under division, so that holds iff degree r
        # has none; for r = 1 the range is empty and nothing is checked.
        layers = _standard_monomials(self.codec, self.divisors, r + 1 if r > 1 else r)
        self.basis = tuple(layers[:r])
        self.basis_index = tuple({m: i for i, m in enumerate(b)} for b in self.basis)
        if len(layers) > r and layers[r]:
            raise AssertionError(
                "truncated Groebner basis leaves standard monomials in degree %d" % r)

    def var(self, flat):
        return {self.codec.units[self.var_index[flat]]: 1}

    def _monomial_nf(self, m):
        """Table entry of m: {m: 1} if m is standard, else -sum(c * entry(t * m / lt))
        over the terms c * t != lt of the first generator whose leading term lt
        divides m.  Reduction by a fixed generator per monomial is linear, so a
        normal form is the sum of its terms' entries.  A monomial with a guard
        bit set, given or reached by a reduction step, raises OverflowError."""
        table = self._table
        entry = table.get(m)
        if entry is None:
            i = self.divisors.first(self.codec.check(m))
            if i is None:
                entry = {m: 1}
            else:
                lt, g = self.groebner[i]
                shift = m - lt
                entry = {}
                for gm, gc in g.items():
                    if gm != lt:
                        t = gm + shift
                        sub = table.get(t)
                        for k, v in (self._monomial_nf(t) if sub is None else sub).items():
                            entry[k] = entry.get(k, 0) - gc * v
                entry = {k: v for k, v in entry.items() if v}
            table[m] = entry
        return entry

    def coords(self, poly, degree):
        """Coefficient vector of `reduce_poly(self, poly)` over the degree
        basis, with the normal form's own coefficients (integers for
        integral input); ValueError if a term lies outside that basis."""
        index = self.basis_index[degree] if 0 <= degree < self.r else {}
        vec = [0] * len(index)
        for k, v in reduce_poly(self, poly).items():
            i = index.get(k)
            if i is None:
                raise ValueError("element is not homogeneous of degree %d" % degree)
            vec[i] = v
        return vec

    def hilbert(self):
        return tuple(len(b) for b in self.basis)

    def __repr__(self):
        return "GradedRing(%s, %d vars, hilbert=%r)" % (
            self.kind, self.nvars, self.hilbert())


def reduce_poly(ring, p):
    """Normal form of p in `ring`: the sum of c * entry(m) over the terms
    c * m of p, read from the ring's monomial table, without zero terms."""
    out = {}
    for m, c in p.items():
        for k, v in ring._monomial_nf(m).items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


# --- the Groebner generator of both presentations ----------------------------


def _groebner(building):
    """Sorted members of a building set on its `base` (P or its lift M) and
    the minimalized Groebner generators of its Chow ring, after
    Feichtner-Yuzvinsky, "Chow rings of toric varieties defined by atomic
    lattices": the square-free monomials of non-nested antichains (the
    closure of the union is again a member) together with

        prod(x_F for F in N) * (sum over H >= G of x_H)^d

    for nested antichains N strictly below a member G, with
    d = rk(G) - rk(union N) >= 1.  Generators whose total degree would
    exceed 2r-1 are omitted, r being the rank of the base (the lift has the
    rank of P, by submodularity); `GradedRing` asserts nothing survives in
    degrees >= r, and the tests reduce every S-pair in that range to 0.

    Candidates are grown from the nested antichains only, one member at a
    time, so the work follows the nested complex rather than all subsets
    of members; only generators with a minimal leading monomial are kept.

    A monomial is the sum of its variables' `Codec.units`, and no field can
    overflow: each member of an antichain appears once, and g lies strictly
    above N, so every exponent is at most max(1, d) <= 2r - 1 <= cap.
    """
    ground = building.base
    members = building.sorted_members()
    nvars = len(members)
    r = ground.r
    limit = 2 * r - 1
    codec = Codec(nvars, r)
    unit = dict(zip(members, codec.units))

    def mono_of(flats, extra=None, power=0):
        m = sum(unit[f] for f in flats)
        return m if extra is None else m + power * unit[extra]

    comparable, above = comparability_masks(members)
    closure = cache(ground.closure)
    inside = building.members
    candidates = {}

    def extend(N, bits, upper, union, unions, start):
        """Add the candidates of the nested antichain N, then extend it; `bits`,
        `upper` and `unions` hold N's members, those above all of N, and its subset unions."""
        # Power relations over N strictly below a member g.
        for j in elements(upper):
            g = members[j]
            d = ground.rank(g) - ground.rank(union)
            if d >= 1 and len(N) + d <= limit:
                candidates.setdefault(mono_of(N, g, d), (N, g, d))
        # A minimal non-nested antichain less its last member is nested,
        # so non-nested antichains are only sought one member past N.
        for i in range(start, nvars):
            if bits & comparable[i]:
                continue
            h = members[i]
            A = N + (h,)
            if N and closure(union | h) in inside:
                candidates.setdefault(mono_of(A), (A, None, 0))
            elif len(A) < limit and not any(closure(u | h) in inside for u in unions):
                extend(A, bits | 1 << i, upper & above[i], union | h,
                       unions + [h] + [u | h for u in unions], i + 1)

    extend((), 0, (1 << nvars) - 1, 0, [], 0)
    del extend                   # the closure refers to itself: break the cycle
    generators = []
    for lt, (flats, g, d) in _minimalize(candidates, codec):
        poly = {mono_of(flats): 1}
        if d:
            upper_sum = {mono_of((h,)): 1 for h in members if h & g == g}
            poly = poly_mul(poly, poly_pow(upper_sum, d))
        assert max(poly) == lt and poly[lt] == 1
        generators.append((lt, poly))
    return members, generators


# --- the two presentations ---------------------------------------------------


def dp_ring(G):
    """DP(P, G) for P = G.base: variables x_F for F in G.  The one Groebner
    generator `_groebner`, which also serves `fy_ring`, runs on G itself;
    its power relations read

        x_{G_1} ... x_{G_k} (sum over H >= G of x_H)^b

    for nested antichains {G_i} strictly below G, with b = rk(G) -
    rk(union of the G_i) >= 1.  The tests reduce its S-pairs to zero.
    The ring, with its normal-form table, is memoized on G.
    """
    def build():
        members, generators = _groebner(G)
        return GradedRing("dp", members, G.base.r, generators)

    return memoized(G, "dp", build)


def fy_ring(G):
    """A(Sigma_{P,G}) in the presentation with variables y_G for G in the
    lifted building set, with the Groebner basis of the same `_groebner`
    as `dp_ring`, run on the lifted building set; the tests reduce its
    S-pairs to zero.  The linear relations are the d = 1 power relations
    at the atoms, so normal forms automatically eliminate atom variables.
    Like `dp_ring`, it is memoized on G.
    """
    def build():
        members, generators = _groebner(lifted_building_set(G))
        return GradedRing("fy", members, G.base.r, generators)

    return memoized(G, "fy", build)


def nested_basis(G):
    """The monomial basis enumerated independently from nested sets of G:
    exponents 1 <= a_i < rk(G_i) - rk(union of the smaller members)."""
    P = G.base
    members = G.sorted_members()
    index = {f: i for i, f in enumerate(members)}
    r = P.r
    per_degree = [set() for _ in range(r)]
    for N in nested_complex(G):
        ranges = []                  # one per member, in N's iteration order
        for g in N:
            union_below = reduce(or_, (f for f in N if f & g == f and f != g), 0)
            hi = P.rank(g) - P.rank(union_below)  # exclusive bound
            if hi <= 1:
                ranges = None
                break
            ranges.append(range(1, hi))
        if ranges is None:
            continue
        for choice in product(*ranges):
            exps = [0] * len(members)
            for g, a in zip(N, choice):
                exps[index[g]] = a
            degree = sum(choice)
            if degree < r:
                per_degree[degree].add(tuple(exps))
    return tuple(tuple(sorted(s, reverse=True)) for s in per_degree)


# --- the isomorphism and degree data -----------------------------------------


class ChowPair:
    """DP and FY presentations of the Chow ring of (G.base, G), with the
    variable substitution x_F -> y_{preimage(F)} and the degree normalization.
    A view of G: its translation, degree and pairing tables and the
    Lefschetz matrices of `polychow.kahler` are memoized on G, like both
    rings, so every pair of one G shares them."""

    def __init__(self, G):
        self.G = G
        self.P = G.base
        self.fy = fy_ring(G)
        self.lifted = lifted_building_set(G)
        self.M = self.lifted.base
        self.proj = self.M.proj

    @property
    def dp(self):
        return dp_ring(self.G)

    def image(self, m):
        """The FY monomial of the packed DP monomial m: each DP exponent
        times the FY unit of its variable's image, from one table on G.
        image(m1 + m2) = image(m1) + image(m2) when every exponent of
        m1 + m2 is at most 2r - 1, as in pairing products and generators:
        both codecs have rank r, so no field carries below their cap of
        at least 2r, and the substitution is injective on variables, so
        each DP field moves to an FY field of its own."""
        def build():
            dp, fy = self.dp, self.fy
            return dp.codec.exponents, [
                fy.codec.units[fy.var_index[self.proj.preimages[f]]] for f in dp.var_flats]
        exponents, units = memoized(self.G, "translation", build)
        return sum(e * unit for e, unit in zip(exponents(m), units) if e)

    def phi(self, poly):
        """The linear extension of `image` to a DP polynomial: distinct DP
        variables go to distinct FY variables, so `image` is injective on
        monomials and no two terms merge."""
        return {self.image(m): c for m, c in poly.items()}

    def maximal_nested_monomials(self):
        """Square-free FY monomials of the maximal cones of the fan, packed."""
        units, index = self.fy.codec.units, self.fy.var_index
        return [sum(units[index[f]] for f in N) for N in nested_complex(
            self.lifted, exclude=self.M.full_mask) if len(N) == self.P.r - 1]

    def degree_normalizer(self):
        """The common coefficient c with NF(max-cone monomial) = c * mu.

        deg is fixed by giving every maximal cone's monomial degree one;
        inconsistency across cones raises.  Memoized on G, so the pairs of
        one invocation share it.
        """
        def build():
            fy = self.fy
            if len(fy.basis[fy.top]) != 1:
                raise AssertionError("top graded piece does not have rank 1")
            values = [fy.coords({m: 1}, fy.top)[0] for m in self.maximal_nested_monomials()]
            if not values:
                raise AssertionError("no maximal nested sets")
            if any(v != values[0] for v in values):
                raise AssertionError("degree functional inconsistent across maximal cones")
            if values[0] == 0:
                raise AssertionError("maximal cone monomial vanishes")
            return values[0]
        return memoized(self.G, "degree_normalizer", build)

    def degree(self, m):
        """deg of the top-degree FY monomial m, its normal-form coefficient
        over `degree_normalizer()`, in one table memoized on G."""
        table = memoized(self.G, "degree", dict)
        if m not in table:
            value, rest = divmod(self.fy.coords({m: 1}, self.fy.top)[0], self.degree_normalizer())
            if rest:
                raise AssertionError("non-integral pairing value")
            table[m] = value
        return table[m]


def phi_iso_check(pair):
    """Decide whether x_F -> y_{preimage(F)} is a graded ring isomorphism.

    True exactly when both hold: (a) the image of every DP generator
    reduces to 0 in FY; (b) in each degree d < r, the FY coordinates of
    the images of the DP standard monomials form a square matrix of
    nonzero determinant (over Q).  They suffice:

    phi adds exponent vectors, so it is a ring homomorphism of the
    polynomial rings.  A reduction to 0 certifies ideal membership whether
    or not the generators form a Groebner basis, so (a) gives phi(I_DP) in
    I_FY and a graded homomorphism from DP to FY.  DP's standard monomials
    span DP_d, and FY's form a basis of FY_d, of dimension h_d, because
    its generators form a Groebner basis (as `coords`, the Hilbert
    functions and the pairings assume).  So (b) makes the map onto FY_d
    from a space of dimension at most h_d: it is bijective in every
    degree, and a bijective ring homomorphism preserves the structure
    constants, which therefore need no check of their own.
    """
    dp, fy = pair.dp, pair.fy
    if any(reduce_poly(fy, pair.phi(g)) for _, g in dp.groebner):
        return False
    for d in range(dp.r):
        if len(dp.basis[d]) != len(fy.basis[d]):
            return False
        cols = [fy.coords({pair.image(m): 1}, d) for m in dp.basis[d]]
        if cols and linalg.det(cols) == 0:
            return False
    return True


def pairing_matrix(pair, k, ring="dp"):
    """Integer matrix of (a, b) -> deg(ab) between degrees k and r-1-k,
    memoized on G as a tuple of tuples, so no caller can change it.  Its
    rows and columns are FY monomials: the FY basis, or the images of the
    DP basis, as the image of a DP product is the sum of the images
    (`ChowPair.image`); so entry (i, j) is `pair.degree(a_i + b_j)`."""
    R = pair.dp if ring == "dp" else pair.fy

    def build():
        a, b = (R.basis[d] if ring == "fy" else [pair.image(m) for m in R.basis[d]]
                for d in (k, R.top - k))
        return tuple(tuple(pair.degree(x + y) for y in b) for x in a)
    return memoized(pair.G, ("pairing", k, ring), build)


def pairing_det(pair, k, ring="dp"):
    """Determinant of `pairing_matrix(pair, k', ring)` with k' = min(k, r-1-k),
    or 0 when that matrix is not square (1 with no rows), memoized on G.
    deg(m1 m2) depends only on m1 + m2, so the matrix for r-1-k is the
    transpose of the one for k: both are square or neither, with one
    determinant, and only the matrix for k' is read."""
    k = min(k, pair.fy.top - k)
    matrix = pairing_matrix(pair, k, ring)
    if not matrix:
        return 1
    if len(matrix) != len(matrix[0]):
        return 0
    return memoized(pair.G, ("pairing det", k, ring), lambda: linalg.det(matrix))
