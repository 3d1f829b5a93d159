from fractions import Fraction
from random import Random

import pytest

from polychow import linalg


def F(x):
    return Fraction(x)


def test_rref_identity():
    R, pivots = linalg.rref([[1, 0], [0, 1]])
    assert R == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rank():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0, 0], [0, 1, 0]]) == 2
    assert linalg.rank([]) == 0


def test_kernel_zero_matrix():
    basis = linalg.kernel_basis([[0, 0, 0]])
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert v[i] == 1


def test_kernel_one_relation():
    basis = linalg.kernel_basis([[1, 1]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v[0] != 0


def test_kernel_vectors_annihilate():
    A = [[1, 2, 3], [4, 5, 6]]
    for v in linalg.kernel_basis(A):
        for row in A:
            assert sum(a * x for a, x in zip(row, v)) == 0


def test_solve():
    assert linalg.solve([[2, 0], [0, 3]], [4, 9]) == [F(2), F(3)]
    assert linalg.solve([[1, 0], [1, 0]], [1, 2]) is None
    # underdetermined but consistent
    sol = linalg.solve([[1, 1]], [2])
    assert sol is not None and sol[0] + sol[1] == 2


def test_det():
    assert linalg.det([[2, 0], [0, 3]]) == 6
    assert linalg.det([[1, 2], [2, 4]]) == 0
    assert linalg.det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)
    assert linalg.det([[0, 1], [1, 0]]) == -1


def test_smith_normal_form_identity():
    diag, U, V, D = linalg.smith_normal_form([[1, 0], [0, 1]])
    assert diag == [1, 1]


def test_smith_normal_form_divisibility():
    diag, U, V, D = linalg.smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_smith_normal_form_factorization():
    A = [[4, 6, 2], [2, 8, 10]]
    diag, U, V, D = linalg.smith_normal_form(A)
    assert linalg.mat_mul(linalg.mat_mul(U, D), V) == [[F(x) for x in row] for row in A]
    assert linalg.det(U) in (1, -1)
    assert linalg.det(V) in (1, -1)
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a == 0 or b % a == 0


def test_positive_definite():
    assert linalg.is_positive_definite([[2, 1], [1, 2]])
    assert not linalg.is_positive_definite([[1, 2], [2, 1]])
    assert not linalg.is_positive_definite([[0]])
    assert linalg.is_positive_definite([])


def test_positive_definite_requires_symmetry():
    with pytest.raises(ValueError):
        linalg.is_positive_definite([[1, 2], [0, 1]])


def test_integer_rref_and_kernel_match_fraction_rref():
    rng = Random(5)
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        k = rng.randint(0, min(n, m))
        L = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        R = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)]
        A = [[sum(L[i][t] * R[t][j] for t in range(k)) for j in range(m)]
             for i in range(n)]
        M, pivots, d = linalg.integer_rref(A)
        ref, ref_pivots = linalg.rref(A)
        assert pivots == ref_pivots
        assert [[Fraction(x, d) for x in row] for row in M[:len(pivots)]] \
            == ref[:len(pivots)]
        assert all(x == 0 for row in M[len(pivots):] for x in row)
        kernel = linalg.integer_kernel(A, m)
        assert len(kernel) == m - len(pivots)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A for v in kernel)
        if kernel:
            assert linalg.rank(kernel) == len(kernel)
    assert linalg.integer_kernel([], 2) == [[1, 0], [0, 1]]
