from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from random import Random

import pytest

import polychow as pc
from polychow import linalg
from conftest import boolean_table, building_of
from oracles import (fraction_rref, fraction_solve, integral_rows, reference_det,
                     reference_integer_rref, reference_is_positive_definite)
from test_kahler import FIXTURES as KAHLER_FIXTURES


def reference_kernel(rows):
    """One rational kernel vector per free column f of `fraction_rref`, with 1
    at f."""
    R, pivots = fraction_rref(rows)
    ncols = len(rows[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(ncols)]
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(v)
    return basis


def random_low_rank(rng, entry):
    """An n x m product L R of random factors with inner size k <= min(n, m),
    so that kernels and inconsistent systems are common."""
    n, m = rng.randint(1, 4), rng.randint(1, 6)
    k = rng.randint(0, min(n, m))
    L = [[entry() for _ in range(k)] for _ in range(n)]
    R = [[entry() for _ in range(m)] for _ in range(k)]
    return [[sum((L[i][t] * R[t][j] for t in range(k)), 0) for j in range(m)]
            for i in range(n)]


def test_rank():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0, 0], [0, 1, 0]]) == 2
    assert linalg.rank([]) == 0


def test_kernel_zero_matrix():
    basis = linalg.kernel_basis([[0, 0, 0]], 3)
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert v[i] == 1


def test_kernel_one_relation():
    basis = linalg.kernel_basis([[1, 1]], 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v[0] != 0


def test_kernel_vectors_annihilate():
    A = [[1, 2, 3], [4, 5, 6]]
    for v in linalg.kernel_basis(A, 3):
        for row in A:
            assert sum(a * x for a, x in zip(row, v)) == 0


def test_solve():
    # the fraction-free pair (x, d): d > 0 and A x = d b
    x, d = linalg.solve([[2, 0], [0, 3]], [4, 9])
    assert d > 0 and x == [2 * d, 3 * d]
    assert linalg.solve([[-2]], [1]) == ([-1], 2)
    assert linalg.solve([[1, 0], [1, 0]], [1, 2]) is None
    # underdetermined but consistent
    x, d = linalg.solve([[1, 1]], [2])
    assert d > 0 and x[0] + x[1] == 2 * d
    assert linalg.solve([], []) == ([], 1)


def test_det():
    assert linalg.det([[2, 0], [0, 3]]) == 6
    assert linalg.det([[1, 2], [2, 4]]) == 0
    assert linalg.det([[0, 1], [1, 0]]) == -1
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            linalg.det(rows)


def test_smith_normal_form_identity():
    assert linalg.smith_normal_form([[1, 0], [0, 1]]) == [1, 1]


def test_smith_normal_form_divisibility():
    assert linalg.smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_smith_normal_form_matches_minor_gcds():
    # d_1 ... d_i is the gcd of the i x i minors (the determinantal divisors)
    rng = Random(8)
    cases = [[[4, 6, 2], [2, 8, 10]]]
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        cases.append([[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)])
    for A in cases:
        diag = linalg.smith_normal_form(A)
        n, m = len(A), len(A[0])
        assert len(diag) == min(n, m) and all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        product = 1
        for i in range(1, min(n, m) + 1):
            product *= diag[i - 1]
            assert product == gcd(*(linalg.det([[A[r][c] for c in cols] for r in rows])
                                    for rows in combinations(range(n), i)
                                    for cols in combinations(range(m), i)))


def test_positive_definite():
    assert linalg.is_positive_definite([[2, 1], [1, 2]])
    assert not linalg.is_positive_definite([[1, 2], [2, 1]])
    assert not linalg.is_positive_definite([[0]])
    assert linalg.is_positive_definite([])
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError):
            linalg.is_positive_definite(rows)


def test_positive_definite_matches_a_determinant_per_minor():
    rng = Random(12)
    verdicts = []
    for _ in range(300):
        n = rng.randint(1, 6)
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # B^T B is positive semidefinite; a random diagonal shift moves it
        # across the boundary.  Fraction entries are scaled to integers by a
        # common denominator, which keeps the sign of every minor
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) + (rng.randint(-4, 2) if i == j else 0)
              for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            q = [[rng.randint(1, 7) for _ in range(n)] for _ in range(n)]
            G = [[Fraction(G[i][j], q[min(i, j)][max(i, j)]) for j in range(n)]
                 for i in range(n)]
            scale = lcm(*(x.denominator for row in G for x in row))
            G = [[int(x * scale) for x in row] for row in G]
        expected = all(linalg.det([row[:k] for row in G[:k]]) > 0 for k in range(1, n + 1))
        assert linalg.is_positive_definite(G) == expected, G
        verdicts.append(expected)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_positive_definite_requires_symmetry():
    with pytest.raises(ValueError):
        linalg.is_positive_definite([[1, 2], [0, 1]])


def test_integer_rref_and_kernel_match_fraction_rref():
    rng = Random(5)
    for _ in range(400):
        A = random_low_rank(rng, lambda: rng.randint(-2, 2))
        m = len(A[0])
        M, pivots, d = linalg.integer_rref(A)
        ref, ref_pivots = fraction_rref(A)
        assert pivots == ref_pivots
        assert [[Fraction(x, d) for x in row] for row in M[:len(pivots)]] \
            == ref[:len(pivots)]
        assert all(x == 0 for row in M[len(pivots):] for x in row)
        kernel = linalg.kernel_basis(A, m)
        assert len(kernel) == m - len(pivots)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A for v in kernel)
        if kernel:
            assert linalg.rank(kernel) == len(kernel)
    assert linalg.kernel_basis([], 2) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("entry", ["int", "fraction"])
def test_rank_kernel_solve_match_fraction_reference(entry):
    rng = Random(13)
    if entry == "int":
        def draw():
            return rng.randint(-3, 3)
    else:
        def draw():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    inconsistent = underdetermined = 0
    for _ in range(300):
        A = random_low_rank(rng, draw)
        n, m = len(A), len(A[0])
        _, pivots = fraction_rref(A)
        # rational rows are scaled to integers, which keeps the rank, the
        # kernel and the solution set
        M = integral_rows(A)[0]
        assert linalg.rank(M) == len(pivots)
        # each kernel vector is a nonzero multiple of the reference vector
        kernel = linalg.kernel_basis(M, m)
        reference = reference_kernel(A)
        assert len(kernel) == len(reference)
        for v, u in zip(kernel, reference):
            f = u.index(1)
            assert v[f] != 0 and all(isinstance(x, int) for x in v)
            assert v == [v[f] * x for x in u]
        # a consistent right-hand side, and an arbitrary one
        x0 = [draw() for _ in range(m)]
        for b in ([sum((a * x for a, x in zip(row, x0)), 0) for row in A],
                  [draw() for _ in range(n)]):
            aug = integral_rows([list(row) + [bb] for row, bb in zip(A, b)])[0]
            solution = linalg.solve([row[:m] for row in aug], [row[m] for row in aug])
            reference = fraction_solve(A, b)
            if solution is None:
                assert reference is None
                inconsistent += 1
            else:
                x, d = solution
                assert d > 0 and all(isinstance(c, int) for c in x)
                assert [Fraction(c, d) for c in x] == reference
                assert [sum(a * c for a, c in zip(row, x)) for row in A] == [d * bb for bb in b]
                underdetermined += len(pivots) < m
    assert inconsistent and underdetermined


def sparse_matrix(rng, n, m):
    """Mostly 0 and +-1 entries, with a repeated or zero row at times, so
    that singular matrices and zero pivots are common."""
    A = [[rng.choice((0, 0, 0, 0, 1, -1, 1, -1, 2, -3)) for _ in range(m)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        A[rng.randrange(n)] = list(A[rng.randrange(n)])
    if rng.random() < 0.1:
        A[rng.randrange(n)] = [0] * m
    return A


def test_bareiss_kernels_match_references_on_sparse_matrices():
    # the zero-skipping eliminations give the same (M, pivots, d), the same
    # determinants and the same verdicts as the full Bareiss updates
    rng = Random(23)
    singular = zero_pivot = definite = indefinite = 0
    for _ in range(800):
        n = rng.randint(1, 7)
        m = n if rng.random() < 0.5 else rng.randint(1, 8)
        A = sparse_matrix(rng, n, m)
        width = rng.randint(0, m)
        assert linalg.integer_rref(A) == reference_integer_rref(A)
        assert linalg.integer_rref(A, width) == reference_integer_rref(A, width)
        if n == m:
            d = linalg.det(A)
            assert d == reference_det(A)
            singular += d == 0
            zero_pivot += d != 0 and A[0][0] == 0
        # a symmetric matrix: the Gram matrix of A's columns, shifted on the
        # diagonal across the boundary of positive definiteness
        G = [[sum(row[i] * row[j] for row in A) + (rng.randint(-2, 1) if i == j else 0)
              for j in range(m)] for i in range(m)]
        verdict = linalg.is_positive_definite(G)
        assert verdict == reference_is_positive_definite(G)
        definite += verdict
        indefinite += not verdict
    assert min(singular, zero_pivot, definite, indefinite) >= 50


def test_bareiss_kernels_match_references_on_chow_matrices(monkeypatch):
    # every matrix that the isomorphism check, the pairings and the Kahler
    # checks eliminate (pairing, iso-column, Lefschetz and Gram matrices)
    seen = []

    def recording(name, fn):
        def record(rows, *args):
            seen.append((name, [list(row) for row in rows], args))
            return fn(rows, *args)
        return record

    for name in ("integer_rref", "det", "is_positive_definite"):
        monkeypatch.setattr(linalg, name, recording(name, getattr(linalg, name)))
    for table, members in KAHLER_FIXTURES + ((boolean_table((1, 1, 2)), None),
                                             (boolean_table((2, 2, 2)), None)):
        pair = pc.ChowPair(building_of(table, members))
        assert pc.phi_iso_check(pair)
        assert all(pc.chow.pairing_det(pair, k) in (1, -1) for k in range(pair.P.r))
        assert all(pc.kahler_package_report(pair).values())
    monkeypatch.undo()
    references = {"integer_rref": reference_integer_rref, "det": reference_det,
                  "is_positive_definite": reference_is_positive_definite}
    for name, rows, args in seen:
        assert getattr(linalg, name)(rows, *args) == references[name](rows, *args)
    names = [name for name, _, _ in seen]
    assert min(names.count(name) for name in references) >= 10
