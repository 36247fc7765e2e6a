"""Exact linear algebra: echelon forms, kernels, and the integer fast paths."""
import random
from fractions import Fraction as F

from treebundles.fields import RationalField
from treebundles.linalg import (bareiss_rank, identity_matrix, invert_matrix,
                                kernel_basis, mat_mul, mat_vec, matrix_rank,
                                modular_rank, rref, solve_columns)

QQ = RationalField()
Z, I = QQ.zero, QQ.one


def frac(rows):
    return [[F(x) for x in r] for r in rows]


def test_identity_and_products():
    eye = identity_matrix(3, Z, I)
    m = frac([[1, 2, 0], [0, 1, 1], [5, 0, 1]])
    assert mat_mul(eye, m, Z) == m
    assert mat_mul(m, eye, Z) == m
    assert mat_vec(m, [F(1), F(1), F(1)], Z) == [F(3), F(2), F(6)]


def test_rref_golden():
    red, pivots = rref(frac([[1, 2, 3], [2, 4, 7]]), 3)
    assert pivots == [0, 2]
    assert red == frac([[1, 2, 0], [0, 0, 1]])


def test_rref_zero_matrix():
    red, pivots = rref(frac([[0, 0], [0, 0]]), 2)
    assert red == [] and pivots == []


def test_matrix_rank():
    assert matrix_rank(frac([[1, 2], [2, 4]]), 2) == 1
    assert matrix_rank(frac([[1, 0], [0, 1]]), 2) == 2
    assert matrix_rank([], 5) == 0


def test_kernel_basis_golden():
    # x + 2y + 3z = 0 has kernel spanned by (-2,1,0) and (-3,0,1)
    basis = kernel_basis(frac([[1, 2, 3]]), 3, Z, I)
    assert basis == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    for v in basis:
        assert mat_vec(frac([[1, 2, 3]]), v, Z) == [F(0)]


def test_kernel_of_invertible_is_trivial():
    assert kernel_basis(frac([[1, 1], [0, 2]]), 2, Z, I) == []


def test_invert_matrix():
    m = frac([[2, 1], [1, 1]])
    inv = invert_matrix([r[:] for r in m], Z, I)
    assert mat_mul(m, inv, Z) == identity_matrix(2, Z, I)
    assert invert_matrix(frac([[1, 2], [2, 4]]), Z, I) is None


def test_solve_columns():
    a = frac([[1, 0], [1, 1], [0, 2]])
    x = frac([[3, 1], [-1, 2]])
    b = mat_mul(a, x, Z)
    assert solve_columns(a, b, Z) == x
    # inconsistent right-hand side
    bad = [row[:] for row in b]
    bad[2][0] += F(1)
    assert solve_columns(a, bad, Z) is None
    # rank-deficient coefficient matrix
    assert solve_columns(frac([[1, 1], [2, 2], [0, 0]]), b, Z) is None


def test_bareiss_matches_fraction_rank():
    rng = random.Random(11)
    for _ in range(150):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(n)]
        want = matrix_rank(frac(m), k)
        assert bareiss_rank(m, k) == want


def test_modular_matches_fraction_rank():
    rng = random.Random(12)
    # Hadamard bound for 5x5 entries in [-6,6] is about 4.3e5, below p,
    # so ranks over Q and over GF(p) agree exactly
    p = 1000003
    for _ in range(150):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(n)]
        assert modular_rank([row[:] for row in m], k, p) == matrix_rank(frac(m), k)
