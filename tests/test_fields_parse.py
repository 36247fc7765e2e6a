"""RationalField.parse and PrimeField.parse against an independent reading
of their documented spellings: a signed decimal integer or ratio,
surrounding whitespace allowed; and each field's (num, den) reader,
`ratio`, against its `parse`."""
import re
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from treebundles.fields import FpElement, PrimeField, RationalField  # noqa: E402
from treebundles.linalg import ratio  # noqa: E402

DOCUMENTED = re.compile(r"^[+-]?\d+(/\d+)?$")
P = 1000003


def reference_parse(s):
    """Fraction(str) on the strings the documented pattern matches, which
    carry no exponent, decimal point or underscore; an error otherwise."""
    t = s.strip()
    try:
        if DOCUMENTED.match(t):
            return Fraction(t)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError("not a rational number: %r" % (s,))


def reference_parse_prime(s):
    """The residue num * den^-1 mod P of a string the documented pattern
    matches, read digit group by digit group; an error otherwise, and on a
    denominator divisible by P."""
    t = s.strip()
    if DOCUMENTED.match(t):
        num, _, den = t.partition("/")
        den = int(den) if den else 1
        if den % P:
            return FpElement(int(num) * pow(den, -1, P), P)
    raise ValueError("not an element of GF(%d): %r" % (P, s))


def outcome(parse, s):
    try:
        x = parse(s)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(x, FpElement):
        return ("value", type(x), x.val, x.p)
    return ("value", type(x), x.numerator, x.denominator)


def _spelled(pad, sign, num, den):
    body = sign + str(num) + ("" if den is None else "/" + str(den))
    return pad + body + pad


spelled = st.builds(_spelled, st.sampled_from(["", " ", "\t", "\n "]),
                    st.sampled_from(["", "+", "-"]),
                    st.integers(0, 10 ** 30),
                    st.none() | st.integers(0, 10 ** 30))
tokens = st.text(alphabet="0123456789+-/ _.eE٣٤３²\t", max_size=12)


def documented_spellings(test):
    """Runs `test` on generated spellings, plain and mangled, and on the
    strings that once slipped through: an exponent of -59,345,456 in
    mixed-script digits, which Fraction(str) would expand exactly, and the
    spellings outside the pattern."""
    for s in ("1E-59٣３4_5٤6", "1e3", "1.5", "1_000", "1/0"):
        test = example(s)(test)
    strings = st.one_of(spelled, tokens, st.text(max_size=8))
    return settings(max_examples=600, deadline=None)(given(strings)(test))


@documented_spellings
def test_parse_accepts_exactly_the_documented_spellings(s):
    assert outcome(RationalField().parse, s) == outcome(reference_parse, s)


@documented_spellings
@example("1000003")
@example("3/1000003")
@example("-2000006/4")
def test_prime_parse_accepts_exactly_the_documented_spellings(s):
    assert outcome(PrimeField(P).parse, s) == outcome(reference_parse_prime, s)


FIELDS = [RationalField(), PrimeField(7), PrimeField(P)]


def ratio_outcome(fld, s):
    try:
        num, den = fld.ratio(s)
    except ValueError as exc:
        return ("error", str(exc))
    assert type(num) is int and type(den) is int
    return ("value", num, den)


def parsed_ratio(fld, s):
    """parse, then the element as numerator and denominator: lowest terms
    with den > 0 over Q, the residue over 1 over GF(p)."""
    try:
        x = fld.parse(s)
    except ValueError as exc:
        return ("error", str(exc))
    return ("value",) + ratio(x, fld.char)


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.name)
@documented_spellings
@example(" 7 ")
@example("+7")
@example("-0")
@example("2/4")
@example("-6/4")
@example("3/-4")
@example("1_000")
@example("٣")
@example("1/7")
@example("14/7")
@example("0/0")
def test_ratio_agrees_with_parse_on_value_and_error(fld, s):
    assert ratio_outcome(fld, s) == parsed_ratio(fld, s)
