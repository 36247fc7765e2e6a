"""Coefficient fields and the --field selector."""
from fractions import Fraction as F

import pytest

from treebundles.fields import (FpElement, PrimeField, RationalField,
                                field_from_name)


def test_rational_field_basics():
    fld = RationalField()
    assert fld.char == 0 and fld.name == "q"
    assert fld.zero == F(0) and fld.one == F(1)
    assert fld.of(-3) == F(-3)
    assert fld.parse(" 2/3 ") == F(2, 3)
    assert fld.to_str(F(-1, 4)) == "-1/4"
    with pytest.raises(ValueError, match="rational"):
        fld.parse("x")
    with pytest.raises(ValueError):
        fld.parse("1/0")


def test_prime_field_construction():
    fld = PrimeField(101)
    assert fld.char == 101 and fld.name == "p:101"
    with pytest.raises(ValueError, match="prime"):
        PrimeField(91)  # 7 * 13


def test_fp_arithmetic():
    fld = PrimeField(7)
    a, b = fld.of(3), fld.of(5)
    assert (a + b).val == 1
    assert (a - b).val == 5
    assert (a * b).val == 1
    assert (a / b) * b == a
    assert -a == fld.of(4)
    assert bool(fld.zero) is False and bool(a) is True
    with pytest.raises(ZeroDivisionError):
        a / fld.zero


def test_fp_int_lifting():
    a = FpElement(3, 7)
    assert a + 4 == FpElement(0, 7)
    assert 4 + a == FpElement(0, 7)
    assert 1 - a == FpElement(5, 7)
    assert 2 * a == FpElement(6, 7)
    assert 1 / a == FpElement(5, 7)  # 3 * 5 = 15 = 1 mod 7


def test_fp_mixed_moduli_rejected():
    with pytest.raises(ValueError, match="mixed moduli"):
        FpElement(1, 7) + FpElement(1, 11)


def test_fp_parse_and_print():
    fld = PrimeField(13)
    assert fld.parse("-1") == fld.of(12)
    assert fld.parse("1/2") == fld.of(7)
    assert fld.to_str(fld.of(20)) == "7"
    for bad in ("1/0", "1/13", "x", "1_000", " 3 / 5", "+7/ 2", "3/-4"):
        with pytest.raises(ValueError, match="not an element"):
            fld.parse(bad)


def test_field_from_name():
    assert field_from_name("q") == RationalField()
    assert field_from_name("p:101") == PrimeField(101)
    for bad in ("gf8", "p:x", "p:"):
        with pytest.raises(ValueError, match="unknown field"):
            field_from_name(bad)
    for bad in ("p:2", "p:9"):
        with pytest.raises(ValueError, match="not an odd prime"):
            field_from_name(bad)


def test_field_from_name_builds_each_field_once(monkeypatch):
    # a prime's Miller-Rabin test runs on the first call with its name
    # only; a name that raises is not kept and raises again every time
    from treebundles import fields
    field_from_name.cache_clear()
    tested = []
    is_prime = fields._is_prime
    monkeypatch.setattr(fields, "_is_prime",
                        lambda n: tested.append(n) or is_prime(n))
    first = field_from_name("p:1000003")
    assert field_from_name("p:1000003") is first and first.p == 1000003
    assert field_from_name("q") is field_from_name("q")
    assert tested == [1000003]
    for _ in range(2):
        with pytest.raises(ValueError, match="^1000001 is not an odd prime$"):
            field_from_name("p:1000001")  # 101 * 9901
        with pytest.raises(ValueError, match="unknown field 'p:x'"):
            field_from_name("p:x")
    assert tested == [1000003, 1000001, 1000001]
    field_from_name.cache_clear()


def test_field_equality_and_hash():
    assert RationalField() == RationalField()
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert hash(PrimeField(7)) == hash(PrimeField(7))


@pytest.mark.parametrize("text, value", [
    (" 7 ", F(7)), ("+3/4", F(3, 4)), ("-6/4", F(-3, 2)), ("3/2", F(3, 2)),
    ("1000", F(1000)), ("٣", F(3)), ("-0", F(0)),
])
def test_rational_parse_spellings(text, value):
    x = RationalField().parse(text)
    assert type(x) is F and x == value


@pytest.mark.parametrize("text", ["1.5", "1e3", "1_000", "1e999999999",
                                  "3/ 4", "3/-4", "1/0", "", "+-3", "x/2",
                                  pytest.param("1" * 4301, id="4301-digits")])
def test_rational_parse_rejects(text):
    # only a signed decimal integer or ratio is a number; an exponent, a
    # decimal point or an underscore is refused like any other text
    with pytest.raises(ValueError) as info:
        RationalField().parse(text)
    assert str(info.value) == "not a rational number: %r" % (text,)


@pytest.mark.parametrize("text", [" 7 ", "+3/4", "3/ 4", "3/-4", "1_000",
                                  "1.5", "1e3", "٣", "1/0", "", "-0", "+-3",
                                  "x/2"])
def test_rational_parse_agrees_with_fraction(text):
    # whatever parse accepts has Fraction(str)'s value; whatever it refuses
    # (Fraction also reads exponents, decimal points and underscores) gets
    # the one error text
    try:
        got = RationalField().parse(text)
    except ValueError as exc:
        assert str(exc) == "not a rational number: %r" % (text,)
    else:
        want = F(text.strip())
        assert type(got) is F and (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)


def test_one_field_class_and_one_element_protocol():
    # every field method is written once, on Field; the two named fields
    # only check p, name the field and print themselves
    import pathlib
    import re

    from treebundles import curve, fields, sampling
    for cls in (RationalField, PrimeField):
        assert cls.__bases__ == (fields.Field,)
        own = {k for k, v in vars(cls).items()
               if not k.startswith("__") or callable(v)
               or isinstance(v, property)}
        assert own == {"__init__", "__repr__"}
    # an FpElement reads back as a Fraction does
    assert str(FpElement(10, 7)) == "3"
    assert FpElement(10, 7).as_integer_ratio() == (3, 1)
    # no reader outside fields asks which field an element came from
    for mod in (curve, sampling):
        assert not {"RationalField", "PrimeField", "FpElement"} & set(vars(mod))
    src = pathlib.Path(fields.__file__).parent
    for path in src.glob("*.py"):
        if path.name != "fields.py":
            text = path.read_text()
            assert not re.search(r"isinstance\([^)]*(Field|FpElement)", text), \
                path.name


def test_prime_field_refuses_the_least_strong_pseudoprimes():
    # psi_12 passes Miller-Rabin on the twelve prime bases 2..37 and is
    # 399165290221 * 798330580441; psi_13 passes all thirteen bases 2..41,
    # so the test is exact below it only, and p >= psi_13 is refused
    psi12 = 318665857834031151167461
    psi13 = 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="^%d is not an odd prime$" % psi12):
        PrimeField(psi12)
    for p in (psi13, psi13 + 2):
        with pytest.raises(ValueError, match="^%d is not below %d" % (p, psi13)):
            PrimeField(p)
    # the greatest prime below the bound is read
    assert PrimeField(psi13 - 168).char == psi13 - 168


def test_a_field_holds_its_own_elements_only():
    q, f7, f11 = RationalField(), PrimeField(7), PrimeField(11)
    assert q.holds(F(1, 2)) and not q.holds(1) and not q.holds(FpElement(1, 7))
    assert f7.holds(FpElement(3, 7)) and not f7.holds(FpElement(3, 11))
    assert not f11.holds(F(3)) and not f7.holds(3)
