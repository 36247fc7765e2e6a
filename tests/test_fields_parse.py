"""RationalField.parse against the plain Fraction(str) reading it speeds up."""
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treebundles.fields import RationalField  # noqa: E402


def reference_parse(s):
    """The parse every string took before the integer fast path."""
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("not a rational number: %r" % (s,)) from exc


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
def test_parse_accepts_exactly_what_fraction_accepts(s):
    assert outcome(RationalField().parse, s) == outcome(reference_parse, s)
