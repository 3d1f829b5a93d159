"""Exact linear algebra over the integers and rationals.

Everything here works on plain lists of lists whose entries are ints or
`fractions.Fraction`.  No floating point is used anywhere; intermediate
growth is controlled with fraction-free (Bareiss-style) elimination where
the input is integral.
"""

from fractions import Fraction
from math import gcd


def _as_fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    A = _as_fraction_rows(rows)
    nrows = len(A)
    ncols = len(A[0]) if A else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = A[r][c]
        A[r] = [x / inv for x in A[r]]
        for i in range(nrows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return A, pivots


def rank(rows):
    if not rows or not rows[0]:
        return 0
    return len(rref(rows)[1])


def kernel_basis(rows):
    """Basis of the right kernel {v : A v = 0}, exact rationals."""
    if not rows:
        return []
    ncols = len(rows[0])
    R, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(v)
    return basis


def integer_rref(rows, width=None):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Pivots are sought in the first `width` columns (all of them by
    default); later columns are carried along, so an identity block
    appended to the rows records the row operations.  Every entry stays a
    minor of the input, so each division is exact (Bareiss).

    Returns (M, pivots, d).  M is row-equivalent to `rows` over Q; row s of
    M has the same nonzero d in column pivots[s] and zeros in the other
    pivot columns, and rows past len(pivots) are zero in the first `width`
    columns.  With no pivot, d is 1.
    """
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


def integer_kernel(rows, ncols):
    """Integer basis of the right kernel {v : A v = 0} of an integer matrix
    with `ncols` columns; the identity when A has no rows."""
    M, pivots, d = integer_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = d
        for s, p in enumerate(pivots):
            v[p] = -M[s][f]
        basis.append(v)
    return basis


def solve(rows, b):
    """One exact solution of A x = b, or None if inconsistent.

    When the columns of A are linearly independent the solution is unique.
    """
    if not rows:
        return [] if all(x == 0 for x in b) else None
    ncols = len(rows[0])
    aug = [list(row) + [bb] for row, bb in zip(rows, b)]
    R, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = R[r][ncols]
    return x


def det(rows):
    """Determinant of a square matrix, exact.

    Integer input goes through fraction-free Bareiss elimination; rational
    input is scaled to integers first.
    """
    n = len(rows)
    if n == 0:
        return 1
    scale = Fraction(1)
    A = []
    for row in rows:
        row = [Fraction(x) for x in row]
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        scale /= denom
        A.append([int(x * denom) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot is None:
                return Fraction(0) if scale != 1 else 0
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    result = sign * A[n - 1][n - 1] * scale
    return int(result) if result.denominator == 1 else result


def smith_normal_form(rows):
    """Smith normal form of an integer matrix.

    Returns (diag, U, V, D) with A = U @ D @ V, U and V unimodular, D the
    full diagonalized matrix and diag its diagonal with d_1 | d_2 | ...
    nonnegative.
    """
    D = [list(map(int, row)) for row in rows]
    n = len(D)
    m = len(D[0]) if D else 0
    U = identity(n)
    V = identity(m)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        for r in U:  # U <- U * swap(i,j)
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        V[i], V[j] = V[j], V[i]

    def add_row(src, dst, k):
        # D[dst] += k * D[src]; compensate in U.
        for c in range(m):
            D[dst][c] += k * D[src][c]
        for r in U:
            r[src] -= k * r[dst]

    def add_col(src, dst, k):
        for row in D:
            row[dst] += k * row[src]
        V[src] = [a - k * b for a, b in zip(V[src], V[dst])]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        for r in U:
            r[i] = -r[i]

    t = 0
    while t < min(n, m):
        # Bring a nonzero entry of minimal magnitude to (t, t).
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        dirty = False
        for i in range(t + 1, n):
            if D[i][t] != 0:
                add_row(t, i, -(D[i][t] // D[t][t]))
                dirty = dirty or D[i][t] != 0
        for j in range(t + 1, m):
            if D[t][j] != 0:
                add_col(t, j, -(D[t][j] // D[t][t]))
                dirty = dirty or D[t][j] != 0
        if dirty:
            continue
        # Enforce divisibility of the remaining block by D[t][t].
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if D[i][j] % D[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if D[t][t] < 0:
            negate_row(t)
        t += 1
    diag = [D[i][i] for i in range(min(n, m))]
    return diag, U, V, D


def is_positive_definite(G):
    """Sylvester's criterion with exact arithmetic.

    Raises ValueError on a non-symmetric input.
    """
    n = len(G)
    for i in range(n):
        for j in range(i + 1, n):
            if G[i][j] != G[j][i]:
                raise ValueError("matrix is not symmetric")
    for k in range(1, n + 1):
        minor = det([row[:k] for row in G[:k]])
        if minor <= 0:
            return False
    return True
