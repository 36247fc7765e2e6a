"""RationalField.parse against an independent reading of its documented
spellings: a signed decimal integer or ratio, surrounding whitespace
allowed."""
import re
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from treebundles.fields import RationalField  # noqa: E402

DOCUMENTED = re.compile(r"^[+-]?\d+(/\d+)?$")


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


def outcome(parse, s):
    try:
        x = parse(s)
    except ValueError as exc:
        return ("error", str(exc))
    return ("value", type(x), x.numerator, x.denominator)


def _spelled(pad, sign, num, den):
    body = sign + str(num) + ("" if den is None else "/" + str(den))
    return pad + body + pad


spelled = st.builds(_spelled, st.sampled_from(["", " ", "\t", "\n "]),
                    st.sampled_from(["", "+", "-"]),
                    st.integers(0, 10 ** 30),
                    st.none() | st.integers(0, 10 ** 30))
tokens = st.text(alphabet="0123456789+-/ _.eE٣٤３²\t", max_size=12)


@settings(max_examples=600, deadline=None)
@given(st.one_of(spelled, tokens, st.text(max_size=8)))
# an exponent of -59,345,456 in mixed-script digits, which Fraction(str)
# would expand exactly
@example("1E-59٣３4_5٤6")
@example("1e3")
@example("1.5")
@example("1_000")
@example("1/0")
def test_parse_accepts_exactly_the_documented_spellings(s):
    assert outcome(RationalField().parse, s) == outcome(reference_parse, s)
