"""Exact linear algebra: echelon forms, kernels, and the integer fast paths."""
import random
from fractions import Fraction as F

import pytest

from treebundles.fields import PrimeField, RationalField
from treebundles.linalg import (bareiss_rank, cleared, element,
                                identity_matrix, integer_kernel, integer_rref,
                                invert_matrix, invertible, mat_mul,
                                modular_rank, power_row, rank)

from reference_linalg import invert_matrix as _reference_inverse
from reference_linalg import mat_vec, matrix_rank, rref, solve_columns

QQ = RationalField()
Z, I = QQ.zero, QQ.one


def frac(rows):
    return [[F(x) for x in r] for r in rows]


def kernel_basis(rows, ncols, zero, one):
    """Basis of the right kernel of a matrix of field elements, one vector
    per free column, echelon order: the integer route on its cleared rows."""
    p = getattr(zero, "p", 0)
    vecs, den = integer_kernel(cleared(rows, p)[0], ncols, p)
    return [[element(x, den, p) for x in v] for v in vecs]


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
    # integer rows over their den in, the inverse in lowest terms out
    m = frac([[2, 1], [1, 1]])
    ints, den = invert_matrix([[4, 2], [2, 2]], 2, 0)
    assert (ints, den) == ([[1, -1], [-1, 2]], 1)
    inv = [[element(x, den, 0) for x in row] for row in ints]
    assert mat_mul(m, inv, Z) == identity_matrix(2, Z, I)
    assert invert_matrix([[1, 2], [2, 4]], 3, 0) is None


def test_solve_columns():
    a = frac([[1, 0], [1, 1], [0, 2]])
    x = frac([[3, 1], [-1, 2]])
    b = mat_mul(a, x, Z)
    assert solve_columns(a, b) == x
    # inconsistent right-hand side
    bad = [row[:] for row in b]
    bad[2][0] += F(1)
    assert solve_columns(a, bad) is None
    # rank-deficient coefficient matrix
    assert solve_columns(frac([[1, 1], [2, 2], [0, 0]]), b) is None


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


# -- the integer Gauss-Jordan against the Fraction reference --------------------

def _reference_kernel(rows, ncols, zero, one):
    red, pivots = rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [zero] * ncols
        v[free] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free]
        basis.append(v)
    return basis


def _random_matrix(rng, fld, n, k):
    """Entries often zero, rationals with denominators up to 4, a copied
    multiple of a row and an all-zero row now and then."""
    def entry():
        if rng.random() < 0.35:
            return fld.zero
        if fld.char:
            return fld.of(rng.randint(-9, 9))
        return F(rng.randint(-9, 9), rng.randint(1, 4))

    m = [[entry() for _ in range(k)] for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        m[rng.randrange(1, n)] = [x * 3 for x in m[0]]
    if n and rng.random() < 0.2:
        m[rng.randrange(n)] = [fld.zero] * k
    return m


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_integer_elimination_matches_the_fraction_reference(fld):
    rng = random.Random(fld.char + 8)
    zero, one = fld.zero, fld.one
    singular = deficient = 0
    for _ in range(300):
        n, k = rng.randint(0, 5), rng.randint(1, 6)
        m = _random_matrix(rng, fld, n, k)
        got = kernel_basis(m, k, zero, one)
        assert got == _reference_kernel(m, k, zero, one)
        deficient += len(got) > max(0, k - n)
        red, pivots, den = integer_rref(cleared(m, fld.char)[0], k, fld.char)
        want_red, want_pivots = rref(m, k)
        assert pivots == want_pivots
        assert [[fld.of(x) / fld.of(den) for x in row] for row in red] == want_red

        sq = _random_matrix(rng, fld, n, n)
        want = _reference_inverse(sq, zero, one)
        assert invert_matrix(*cleared(sq, fld.char), fld.char) == (
            None if want is None else cleared(want, fld.char))
        assert invertible(cleared(sq, fld.char)[0], fld.char) == (
            want is not None)
        singular += want is None
    assert singular > 20 and deficient > 20


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_the_integer_boundary_round_trips(fld):
    # field elements to integers over one denominator and back, node
    # powers, and the rank route the field picks
    rng = random.Random(fld.char + 19)
    p = fld.char
    for _ in range(200):
        n, k = rng.randint(0, 4), rng.randint(1, 4)
        m = _random_matrix(rng, fld, n, k)
        ints, den = cleared(m, p)
        assert den > 0 and all(isinstance(x, int) for row in ints for x in row)
        assert [[element(x, den, p) for x in row] for row in ints] == m
        if p:
            assert den == 1 and all(0 <= x < p for row in ints for x in row)
        assert rank(ints, k, p) == matrix_rank(m, k)
        x = m[0][0] if m else fld.one
        num, d = x.as_integer_ratio()
        assert element(num, d, p) == x and d > 0
        # sum_j x^j = sum_j n^j d^(K-j) / d^K, the first power being d^K
        top = rng.randint(0, 4)
        powers = power_row(x, top, p)
        assert len(powers) == top + 1
        want, power = fld.zero, fld.one
        for _ in range(top + 1):
            want, power = want + power, power * x
        assert element(sum(powers), powers[0], p) == want
    assert power_row(fld.one, -1, p) == []


SHAPES = ["tall", "wide", "square-singular", "zero-rows", "zero-columns",
          "repeated-rows", "one-row", "one-column", "no-rows"]


def _shaped_matrix(rng, fld, shape):
    """A matrix of the named shape, entries as in `_random_matrix`."""
    n, k = rng.randint(2, 5), rng.randint(2, 5)
    if shape == "tall":
        n, k = rng.randint(5, 8), rng.randint(1, 4)
    elif shape == "wide":
        n, k = rng.randint(1, 3), rng.randint(5, 8)
    elif shape == "square-singular":
        k = n
    elif shape == "one-row":
        n = 1
    elif shape == "one-column":
        k = 1
    elif shape == "no-rows":
        n = 0
    m = _random_matrix(rng, fld, n, k)
    if shape == "square-singular":
        a, b = (fld.of(rng.randint(-3, 3)) for _ in range(2))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[-2])]
    elif shape == "zero-rows":
        for i in rng.sample(range(n), rng.randint(1, n)):
            m[i] = [fld.zero] * k
    elif shape == "zero-columns":
        for j in rng.sample(range(k), rng.randint(1, k)):
            for row in m:
                row[j] = fld.zero
    elif shape == "repeated-rows":
        m += [list(m[rng.randrange(n)]) for _ in range(rng.randint(1, 3))]
        rng.shuffle(m)
    return m


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_one_elimination_on_every_shape(fld):
    # the rank routes and the reduced form share one pivot walk; each shape
    # reaches a different exit from it
    rng = random.Random(fld.char + 23)
    p = fld.char
    for shape in SHAPES:
        for _ in range(40):
            m = _shaped_matrix(rng, fld, shape)
            k = len(m[0]) if m else rng.randint(1, 4)
            ints, _ = cleared(m, p)
            want_red, want_pivots = rref(m, k)
            got = modular_rank(ints, k, p) if p else bareiss_rank(ints, k)
            assert got == rank(ints, k, p) == len(want_pivots)
            assert matrix_rank(m, k) == len(want_pivots)
            if shape == "square-singular":
                assert len(want_pivots) < k
            red, pivots, den = integer_rref(ints, k, p)
            assert pivots == want_pivots
            assert [[element(x, den, p) for x in row] for row in red] == want_red


def test_integer_elimination_on_no_rows():
    assert integer_rref([], 3, 0) == ([], [], 1)
    assert integer_rref([], 3, 7) == ([], [], 1)
    assert kernel_basis([], 2, Z, I) == [[I, Z], [Z, I]]
    assert invert_matrix([], 1, 0) == ([], 1)


def _determinant_case(rng, n, p):
    """A seeded square integer matrix, entries up to 10^60 in absolute
    value on a third of the draws, with a singular row forced on half: a
    combination of two rows, a multiple of one, a zero row, or over GF(p) a
    combination plus p times a random row, singular mod p only."""
    top = rng.choice((2, 9, 10 ** 60))
    m = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(8)
    k, i, j = (rng.randrange(n) for _ in range(3))
    a, b = rng.randint(-5, 5), rng.randint(-5, 5)
    if kind == 0:
        m[k] = [0] * n
    elif kind == 1 and i != k:
        m[k] = [a * x for x in m[i]]
    elif kind in (2, 3) and k not in (i, j):
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    elif kind == 4 and p and k not in (i, j):
        m[k] = [a * x + b * y + p * rng.randint(-top, top)
                for x, y in zip(m[i], m[j])]
    return m


@pytest.mark.parametrize("p", [0, 7, 1000003], ids=["q", "p:7", "p:1000003"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_determinant_agrees_with_elimination(n, p):
    # invertible takes the determinant up to 4x4 and eliminates above; the
    # rank route is the reference on every size
    rng = random.Random(1000 * n + p)
    seen = set()
    for _ in range(2000):
        m = _determinant_case(rng, n, p)
        want = rank(m, n, p) == n
        assert invertible(m, p) == want, m
        seen.add(want)
    assert seen == {False, True}


@pytest.mark.parametrize("p", [0, 7, 1000003], ids=["q", "p:7", "p:1000003"])
def test_the_determinant_on_forced_singular_matrices(p):
    big = 10 ** 60
    dependent = [[1, 2, 3, 4], [big, 5, -7, 1], [2 + 3 * big, 19, -15, 11],
                 [0, 1, 1, 2]]
    zero_row = [[1, 2, 3], [0, 0, 0], [big, -big, 1]]
    assert not invertible(dependent, p) and rank(dependent, 4, p) == 3
    assert not invertible(zero_row, p) and rank(zero_row, 3, p) == 2
    # determinant 7: invertible over Q and GF(1000003), singular over GF(7)
    for m in ([[7, 0], [0, 1]],
              [[7, 2, 3], [0, 1, 4], [0, 0, 1]],
              [[7, 2, 3, 1], [14, 5, 10, 4], [7, 5, 16, 12], [28, 9, 18, 17]]):
        assert invertible(m, p) == (p != 7) == (rank(m, len(m), p) == len(m))
    # 10^60 + 2 and 10^60 + 3 are prime to 7 and to 1000003
    m = [[big + 2, 7 * 1000003 * big], [0, big + 3]]
    assert invertible(m, p) and rank(m, 2, p) == 2
