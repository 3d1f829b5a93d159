"""Exact linear algebra over the integers.

Everything here works on plain lists of lists of ints; no floating point
or rational is used anywhere.  Elimination is fraction-free (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968): every entry it produces is a minor of the input, so
every division is exact.  The entries must be ints, as the `//` of a
Bareiss step would floor a rational silently.  `rank`, `kernel_basis` and
`solve` run the Gauss-Jordan elimination `integer_rref`; `det` and
`is_positive_definite` each run their own forward Bareiss pass, `det` with
row swaps and `is_positive_definite` without pivoting.

Every Bareiss step goes through `_bareiss_row`, which skips the work that
zeros make trivial: a row whose entry b in the pivot column is 0 has
(a*x - b*y) / prev = a*x / prev, so it is only rescaled, and left as it is
when the pivot a equals the previous pivot prev.  The entries are the same
minors either way, so every output is unchanged; on the sparse 0/+-1
matrices of the Chow layer most rows take one of the two short cuts.
"""

from operator import mul


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _bareiss_row(row, pivot_row, c, a, prev):
    """`row` after one Bareiss step on the pivot a = pivot_row[c] (see the
    module docstring)."""
    b = row[c]
    if b:
        return [(a * x - b * y) // prev for x, y in zip(row, pivot_row)]
    if a == prev:
        return row
    return [a * x // prev for x in row]


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
        for p in range(r, nrows):
            if M[p][c]:
                break
        else:
            continue
        M[r], M[p] = M[p], M[r]
        pivot_row = M[r]
        a = pivot_row[c]
        for i in range(nrows):
            if i != r:
                M[i] = _bareiss_row(M[i], pivot_row, c, a, prev)
        pivots.append(c)
        prev = a
    return M, pivots, prev


def rank(rows):
    return len(integer_rref(rows)[1])


def kernel_basis(rows, ncols):
    """Integer basis of the right kernel {v : A v = 0} of an integer matrix
    with `ncols` columns, the identity when A has no rows: one vector per
    free column f, with d at f, zero at the other free columns and the
    pivot entries that make it a kernel vector."""
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
    """The fraction-free solution (x, d) of A x = b: d > 0 and A x = d b,
    with x zero at the free columns; None if the system is inconsistent.

    When the columns of A are linearly independent, x / d is the unique
    solution.
    """
    if not rows:
        return ([], 1) if all(x == 0 for x in b) else None
    ncols = len(rows[0])
    M, pivots, d = integer_rref([list(row) + [bb] for row, bb in zip(rows, b)])
    if ncols in pivots:
        return None
    sign = -1 if d < 0 else 1
    x = [0] * ncols
    for s, p in enumerate(pivots):
        x[p] = sign * M[s][ncols]
    return x, sign * d


def _require_square(rows):
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    return n


def det(rows):
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination with row swaps; ValueError if it is not square."""
    n = _require_square(rows)
    if n == 0:
        return 1
    A = list(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot is None:
                return 0
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        pivot_row = A[k]
        a = pivot_row[k]
        for i in range(k + 1, n):
            A[i] = _bareiss_row(A[i], pivot_row, k, a, prev)
        prev = a
    return sign * A[n - 1][n - 1]


def smith_normal_form(rows):
    """Diagonal d_1 | d_2 | ... (nonnegative) of the Smith normal form of an
    integer matrix, found by unimodular row and column operations."""
    D = [list(row) for row in rows]
    n = len(D)
    m = len(D[0]) if D else 0
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
        D[t], D[i] = D[i], D[t]
        for row in D:
            row[t], row[j] = row[j], row[t]
        dirty = False
        for i in range(t + 1, n):
            if D[i][t]:
                k = D[i][t] // D[t][t]
                D[i] = [a - k * b for a, b in zip(D[i], D[t])]
                dirty = dirty or D[i][t] != 0
        for j in range(t + 1, m):
            if D[t][j]:
                k = D[t][j] // D[t][t]
                for row in D:
                    row[j] -= k * row[t]
                dirty = dirty or D[t][j] != 0
        if dirty:
            continue
        # Enforce divisibility of the remaining block by D[t][t].
        offender = next((i for i in range(t + 1, n)
                         if any(D[i][j] % D[t][t] for j in range(t + 1, m))), None)
        if offender is not None:
            D[t] = [a + b for a, b in zip(D[t], D[offender])]
            continue
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
        t += 1
    return [D[i][i] for i in range(min(n, m))]


def is_positive_definite(G):
    """Sylvester's criterion, read off one Bareiss pass without pivoting:
    the pivot at step k is the (k+1)-th leading principal minor, and the
    pass stops at the first that is not positive.  Raises ValueError on a
    non-square or non-symmetric input."""
    n = _require_square(G)
    for i in range(n):
        for j in range(i + 1, n):
            if G[i][j] != G[j][i]:
                raise ValueError("matrix is not symmetric")
    A, prev = list(G), 1
    for k in range(n):
        a = A[k][k]
        if a <= 0:
            return False
        for i in range(k + 1, n):
            A[i] = _bareiss_row(A[i], A[k], k, a, prev)
        prev = a
    return True
