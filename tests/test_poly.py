"""Coefficient-list polynomial arithmetic, rational and prime-field: the
library's field-element and integer routines, and the field-element
references in `reference_linalg`."""
import math
import random
from fractions import Fraction as F

import pytest

from treebundles import poly
from treebundles.fields import PrimeField, RationalField
from treebundles.linalg import cleared

from reference_linalg import add, divmod_exact, evaluate, gcd_monic, mul, scale

Z = F(0)


def test_trim_strips_trailing_zeros():
    assert poly.trim([F(1), F(0), F(0)]) == [F(1)]
    assert poly.trim([F(0)]) == []
    assert poly.trim([]) == []


def test_degree_conventions():
    assert poly.degree([]) == -1
    assert poly.degree([F(3)]) == 0
    assert poly.degree([F(0), F(0), F(5)]) == 2


def test_add_and_cancel():
    p = [F(1), F(2)]
    q = [F(3), F(-2)]
    assert add(p, q, Z) == [F(4)]
    assert add(p, scale(p, F(-1)), Z) == []


def test_scale():
    assert scale([F(1), F(2)], F(3)) == [F(3), F(6)]
    assert scale([F(1), F(2)], F(0)) == []


def test_mul():
    # (1 + x)(1 - x) = 1 - x^2
    assert mul([F(1), F(1)], [F(1), F(-1)], Z) == [F(1), F(0), F(-1)]
    assert mul([], [F(1), F(1)], Z) == []


def test_divmod_exact_roundtrip():
    p = [F(2), F(0), F(-3), F(1)]
    q = [F(-1), F(1)]
    quo, rem = divmod_exact(p, q, Z)
    back = add(mul(quo, q, Z), rem, Z)
    assert back == p
    assert poly.degree(rem) < poly.degree(q)


def test_divmod_exact_divides_cleanly():
    prod = mul([F(1), F(1)], [F(2), F(0), F(1)], Z)
    quo, rem = divmod_exact(prod, [F(1), F(1)], Z)
    assert rem == []
    assert quo == [F(2), F(0), F(1)]


def test_gcd_monic():
    # gcd((x-1)(x+2), (x-1)) = x - 1, made monic
    a = mul([F(-1), F(1)], [F(2), F(1)], Z)
    b = scale([F(-1), F(1)], F(7))
    assert gcd_monic(a, b, Z) == [F(-1), F(1)]
    assert gcd_monic([], [], Z) == []
    assert gcd_monic(a, [], Z)[-1] == F(1)


def test_evaluate():
    p = [F(1), F(0), F(2)]  # 1 + 2x^2
    assert evaluate(p, F(3), Z) == F(19)
    assert evaluate([], F(3), Z) == F(0)


def test_prime_field_arithmetic():
    fld = PrimeField(7)
    one = fld.one
    p = [one, one]          # 1 + x
    sq = mul(p, p, fld.zero)
    assert sq == [one, fld.of(2), one]
    quo, rem = divmod_exact(sq, p, fld.zero)
    assert (quo, rem) == (p, [])
    assert evaluate(sq, fld.of(6), fld.zero) == fld.zero


def test_integer_gcd_golden():
    # (x - 1)(2x + 3) and 6(x - 1)(x + 5) over Z: primitive gcd x - 1
    a = [-3, 1, 2]
    b = [-30, 24, 6]
    assert poly.gcd([a, b], 0) == [-1, 1]
    assert poly.gcd([[-4, 6], []], 0) == [-2, 3]
    assert poly.gcd([[], []], 0) == []
    # over GF(7): 2x + 3 and 4x + 6 = 2(2x + 3), monic 3/2 + x = 5 + x
    assert poly.gcd([[3, 2], [6, 4]], 7) == [5, 1]
    assert poly.div_exact([-30, 24, 6], [-1, 1], 0) == [30, 6]
    assert poly.div_exact([3, 5, 2], [5, 1], 7) == [2, 2]


@pytest.mark.parametrize("fld", [RationalField(), PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_integer_gcd_matches_the_field_reference(fld):
    # products with a shared random factor, with denominators over Q
    rng = random.Random(fld.char + 15)
    zero = fld.zero

    def rand_poly(deg):
        return poly.trim([fld.of(rng.randint(-4, 4)) / fld.of(rng.choice((1, 2, 3)))
                          for _ in range(deg + 1)])

    common = 0
    for _ in range(200):
        shared = rand_poly(rng.randint(0, 2))
        if not shared:
            continue
        polys = [mul(rand_poly(rng.randint(0, 3)), shared, zero)
                 for _ in range(rng.randint(1, 3))]
        ints, den = cleared(polys, fld.char)
        want = []
        for q in polys:
            if q:
                want = gcd_monic(want, q, zero)
        got = poly.gcd(ints, fld.char)
        assert len(got) == len(want)
        if not got:
            continue
        common += len(got) > 1
        if not fld.char:
            assert got[-1] > 0 and math.gcd(*got) == 1
        lead = fld.of(got[-1])
        assert [fld.of(c) / lead for c in got] == want
        for q, iq in zip(polys, ints):
            if q:
                quo = [fld.of(c) * lead / fld.of(den) for c in poly.div_exact(iq, got, fld.char)]
                assert quo == divmod_exact(q, want, zero)[0]
    assert common > 50
