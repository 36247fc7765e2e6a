"""Coefficient-list polynomial arithmetic, rational and prime-field."""
from fractions import Fraction as F

from treebundles import poly
from treebundles.fields import PrimeField

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
    assert poly.add(p, q, Z) == [F(4)]
    assert poly.add(p, poly.scale(p, F(-1)), Z) == []


def test_scale():
    assert poly.scale([F(1), F(2)], F(3)) == [F(3), F(6)]
    assert poly.scale([F(1), F(2)], F(0)) == []


def test_mul():
    # (1 + x)(1 - x) = 1 - x^2
    assert poly.mul([F(1), F(1)], [F(1), F(-1)], Z) == [F(1), F(0), F(-1)]
    assert poly.mul([], [F(1), F(1)], Z) == []


def test_divmod_exact_roundtrip():
    p = [F(2), F(0), F(-3), F(1)]
    q = [F(-1), F(1)]
    quo, rem = poly.divmod_exact(p, q, Z)
    back = poly.add(poly.mul(quo, q, Z), rem, Z)
    assert back == p
    assert poly.degree(rem) < poly.degree(q)


def test_divmod_exact_divides_cleanly():
    prod = poly.mul([F(1), F(1)], [F(2), F(0), F(1)], Z)
    quo, rem = poly.divmod_exact(prod, [F(1), F(1)], Z)
    assert rem == []
    assert quo == [F(2), F(0), F(1)]


def test_gcd_monic():
    # gcd((x-1)(x+2), (x-1)) = x - 1, made monic
    a = poly.mul([F(-1), F(1)], [F(2), F(1)], Z)
    b = poly.scale([F(-1), F(1)], F(7))
    assert poly.gcd_monic(a, b, Z) == [F(-1), F(1)]
    assert poly.gcd_monic([], [], Z) == []
    assert poly.gcd_monic(a, [], Z)[-1] == F(1)


def test_evaluate():
    p = [F(1), F(0), F(2)]  # 1 + 2x^2
    assert poly.evaluate(p, F(3), Z) == F(19)
    assert poly.evaluate([], F(3), Z) == F(0)


def test_prime_field_arithmetic():
    fld = PrimeField(7)
    one = fld.one
    p = [one, one]          # 1 + x
    sq = poly.mul(p, p, fld.zero)
    assert sq == [one, fld.of(2), one]
    quo, rem = poly.divmod_exact(sq, p, fld.zero)
    assert (quo, rem) == (p, [])
    assert poly.evaluate(sq, fld.of(6), fld.zero) == fld.zero
