"""Polymatroids given by explicit rank tables on subset bitmasks.

A polymatroid on E = {0, ..., n-1} is a normalized, monotone, submodular
integer function on subsets.  We additionally require looplessness (every
singleton has positive rank) throughout.
"""

from .bitsets import canonical_key

MAX_GROUND = 16  # bounds the base ground set here, the lifted one in lift and cli


class PolymatroidError(ValueError):
    """Axiom violation, carrying the name of the axiom and a witness."""

    def __init__(self, axiom, witness, message):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


def memoized(owner, key, build):
    """owner._memo[key], set to build() on first use.  Memos hang off the
    P and G one CLI invocation builds; P's memo holds its lift and maximal
    building set, whose `base` is P, so the cycle collector frees them."""
    memo = owner._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


class Immutable:
    """Slotted value: each slot is set once, by plain assignment in
    `__init__`, and any later assignment raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError("%s is immutable" % type(self).__name__)
        object.__setattr__(self, name, value)


class Ground(Immutable):
    """The rank, closure and flats surface shared by a polymatroid and its
    lift, one enumeration of flats for both: a subclass supplies `n`,
    `rank(mask)` and a `_memo` dict, and redefines none of these methods."""

    __slots__ = ()

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    @property
    def r(self):
        """Rank of the whole ground set."""
        return self.rank(self.full_mask)

    def closure(self, mask):
        """Smallest flat containing `mask`.

        For a submodular rank function one sweep suffices: every element
        that does not raise the rank belongs to the closure.
        """
        rank = self.rank
        rk = rank(mask)
        out = mask
        for i in range(self.n):
            bit = 1 << i
            if not mask & bit and rank(mask | bit) == rk:
                out |= bit
        return out

    def is_flat(self, mask):
        return self.closure(mask) == mask

    def flats(self):
        """All flats, sorted by (size, numeric value): a test of each of
        the 2^n subsets, memoized."""
        return memoized(self, "flats", lambda: tuple(sorted(
            (m for m in range(1 << self.n) if self.is_flat(m)), key=canonical_key)))


class Polymatroid(Ground):
    """Immutable rank table on the subsets of {0, ..., n-1}.  `_memo` holds
    what derives from P alone: its flats, lift and maximal building set."""

    __slots__ = ("n", "rank_table", "_memo")

    def __init__(self, rank_table, validate=True):
        rank_table = tuple(int(x) for x in rank_table)
        size = len(rank_table)
        if size == 0 or size & (size - 1):
            raise PolymatroidError("table", None,
                                   "rank table length %d is not a power of two" % size)
        self.n = size.bit_length() - 1
        self.rank_table = rank_table
        self._memo = {}
        if self.n > MAX_GROUND:
            raise PolymatroidError("size", None, "ground set size %d exceeds the limit %d"
                                   % (self.n, MAX_GROUND))
        if validate:
            self._validate()

    def _validate(self):
        tab = self.rank_table
        n = self.n
        if tab[0] != 0:
            raise PolymatroidError("normalization", (0,),
                                   "rank of the empty set is %d, expected 0" % tab[0])
        for a in range(1 << n):
            if tab[a] < 0:
                raise PolymatroidError("nonnegativity", (a,), "rank[%d] < 0" % a)
            for i in range(n):
                b = a | (1 << i)
                if b != a and tab[a] > tab[b]:
                    raise PolymatroidError(
                        "monotonicity", (a, b),
                        "monotonicity fails at A=%d, B=%d" % (a, b))
        for i in range(n):
            if tab[1 << i] < 1:
                raise PolymatroidError("looplessness", (1 << i,),
                                       "element %d is a loop" % i)
        # r(A+i) + r(A+j) >= r(A+i+j) + r(A) for i != j outside A is equivalent
        # to submodularity and costs O(2^n n^2); the first failure in loop
        # order is the witness (A+i, A+j).
        bits = [1 << i for i in range(n)]
        for a in range(1 << n):
            free = [i for i in bits if not a & i]
            for k, i in enumerate(free):
                gain = tab[a | i] - tab[a]
                for j in free[k + 1:]:
                    if tab[a | i | j] - tab[a | j] > gain:
                        raise PolymatroidError(
                            "submodularity", (a | i, a | j),
                            "submodularity fails at A=%d, B=%d" % (a | i, a | j))

    def rank(self, mask):
        return self.rank_table[mask]

    def __eq__(self, other):
        return isinstance(other, Polymatroid) and self.rank_table == other.rank_table

    def __hash__(self):
        return hash(self.rank_table)

    def __repr__(self):
        if self.n <= 4:
            return "Polymatroid(%r)" % (self.rank_table,)
        return "Polymatroid(n=%d, r=%d)" % (self.n, self.r)


class ProjectionMap(Immutable):
    """A surjection pi: E~ -> E with fibers of prescribed sizes.

    Elements of E~ = {0, ..., m-1} are grouped so that fiber i occupies a
    contiguous block of `fiber_sizes[i]` indices.  `preimages[A]` is the
    mask of pi^{-1}(A) for every mask A of E, built once, fiber by fiber.
    """

    __slots__ = ("fiber_sizes", "n", "m", "fiber_masks", "preimages")

    def __init__(self, fiber_sizes):
        sizes = tuple(int(s) for s in fiber_sizes)
        if any(s < 1 for s in sizes):
            raise ValueError("fiber sizes must be positive")
        self.fiber_sizes = sizes
        self.n = len(sizes)
        self.m = sum(sizes)
        table, start = [0], 0
        for s in sizes:
            fm = ((1 << s) - 1) << start
            table += [t | fm for t in table]
            start += s
        self.preimages = tuple(table)
        self.fiber_masks = tuple(table[1 << i] for i in range(self.n))

    def image(self, S_mask):
        """Mask in E of pi(S)."""
        out = 0
        for i, fm in enumerate(self.fiber_masks):
            if S_mask & fm:
                out |= 1 << i
        return out

    def __repr__(self):
        return "ProjectionMap(%r)" % (self.fiber_sizes,)


def boolean_polymatroid(proj):
    """The Boolean polymatroid B(pi): rank of A is the size of its preimage."""
    table = [pre.bit_count() for pre in proj.preimages]
    return Polymatroid(table, validate=False)
