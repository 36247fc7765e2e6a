"""RationalField.parse and PrimeField.parse against an independent reading
of their documented spellings: a signed decimal integer or ratio,
surrounding whitespace allowed; each field's (num, den) reader, `ratio`,
against its `parse`; its row reader, `read_row`, against the same
independent reading entry by entry; and every method of the one field
class against elements built directly as Fractions and FpElements."""
import re
from fractions import Fraction
from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from treebundles.fields import (FpElement, PrimeField, RationalField,  # noqa: E402
                                field_from_name)
from treebundles.linalg import cleared  # noqa: E402
from treebundles.serialize import _rows_from_json  # noqa: E402

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
    return ("value",) + x.as_integer_ratio()


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


def reference_ratio(p, s):
    """One entry read by the documented pattern, as (num, den): lowest
    terms over Q (p = 0), the residue over 1 over GF(p); TypeError on a
    non-string, the field's ValueError on anything else it refuses."""
    if not isinstance(s, str):
        raise TypeError("field element %r is not a string" % (s,))
    t = s.strip()
    try:
        if DOCUMENTED.match(t):
            num, _, den = t.partition("/")
            num, den = int(num), int(den) if den else 1
            if p and den % p:
                return num * pow(den, -1, p) % p, 1
            if not p and den:
                return Fraction(num, den).as_integer_ratio()
    except ValueError:
        # more digits than int() reads
        pass
    raise ValueError(("not an element of GF(%d): %%r" % p if p
                      else "not a rational number: %r") % (s,))


def reference_rows(p, rows):
    """The rows read entry by entry in row-major order, over the lcm of
    every denominator."""
    pairs = [[reference_ratio(p, s) for s in row] for row in rows]
    den = lcm(*(d for row in pairs for _, d in row))
    return [[n * (den // d) for n, d in row] for row in pairs], den


def rows_outcome(read, rows):
    try:
        ints, den = read(rows)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    except TypeError as exc:
        return ("error", "TypeError", str(exc))
    assert all(type(x) is int for row in ints for x in row)
    assert type(den) is int and den > 0
    return ("value", ints, den)


def serialized(outcome):
    """The outcome as the JSON reader reports it: a non-string entry as
    its SerializeError."""
    if outcome[:2] == ("error", "TypeError"):
        return ("error", "SerializeError", "w: " + outcome[2])
    return outcome


LONG = "1" * 4301
entries = st.one_of(
    spelled, tokens, st.text(max_size=8),
    st.sampled_from(["-0", "+7", " 7 ", "007", "٣", "1_000", "1/0",
                     "7/7", "14/21", LONG]),
    st.integers(-9, 9), st.none(), st.booleans(), st.floats(0, 9),
    st.lists(st.just("1"), max_size=1))


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.name)
@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(entries, max_size=4), max_size=4))
@example([["1", "2"], ["3", "4"], ["1/2", "x"]])
@example([["1", "2"], ["-6/4", "7"]])
@example([["1", "x", 5]])
@example([["1", "٣"], ["1_000", None]])
@example([["-0", "1_000"]])
@example([["1/0", "+7"]])
@example([[" 7 ", "007", "-0"], ["7/7", LONG]])
@example([[LONG, "1/2"]])
@example([[], ["2/4"]])
@example([["1/2", " 7 ", "-0", "٣", "+5"]])
@example([["1/2", "3", "x", 4]])
@example([["1/2", "1_000", "3"], ["5/3", 4]])
@example([["-3/2", LONG, "1/0"]])
def test_read_row_agrees_with_the_entries_read_one_by_one(fld, rows):
    # the same rows and den, or the same first error in row-major order,
    # by type and text; and the JSON reader's gluing the same way
    p = fld.char

    def row_by_row(m):
        # each row over its own den, then every row over their lcm
        read = [fld.read_row(r) for r in m]
        den = lcm(*(d for _, d in read))
        return [[x * (den // d) for x in ints] for ints, d in read], den

    want = rows_outcome(lambda m: reference_rows(p, m), rows)
    assert rows_outcome(row_by_row, rows) == want
    assert rows_outcome(lambda m: _rows_from_json(fld, m, "w", "shape"),
                        rows) == serialized(want)


BUILT = {"q": (RationalField(), "RationalField()"),
         "p:7": (PrimeField(7), "PrimeField(7)"),
         "p:%d" % P: (PrimeField(P), "PrimeField(%d)" % P)}


@pytest.mark.parametrize("name", sorted(BUILT))
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-10 ** 12, 10 ** 12),
                          st.integers(1, 10 ** 8)), max_size=4))
@example([(3, 1), (-6, 4), (7, 7), (0, 5)])
@example([(10, 1), (P + 3, 1), (1, 2)])
def test_each_field_agrees_with_elements_built_directly(name, pairs):
    # every field method is written once, keyed by the characteristic: its
    # results are the Fractions and FpElements spelled, built by hand
    fld, spelled_repr = BUILT[name]
    p = fld.char
    pairs = [(n, d) for n, d in pairs if not p or d % p]
    if p:
        want = [FpElement(n, p) / FpElement(d, p) for n, d in pairs]
        want_ratio = [(x.val, 1) for x in want]
        want_str = [str(x.val) for x in want]
        of, zero, one = FpElement(-5, p), FpElement(0, p), FpElement(1, p)
    else:
        want = [Fraction(n, d) for n, d in pairs]
        want_ratio = [(x.numerator, x.denominator) for x in want]
        want_str = [str(x) for x in want]
        of, zero, one = Fraction(-5), Fraction(0), Fraction(1)
    texts = ["%d/%d" % nd if nd[1] != 1 else str(nd[0]) for nd in pairs]
    got = [fld.parse(s) for s in texts]
    assert [type(x) for x in got] == [type(x) for x in want] and got == want
    assert [fld.ratio(s) for s in texts] == want_ratio
    assert [x.as_integer_ratio() for x in want] == want_ratio
    # over GF(p) every den is 1: the residues over 1
    ints, den = fld.read_row(texts)
    assert den == lcm(*(d for _, d in want_ratio))
    assert ints == [n * (den // d) for n, d in want_ratio]
    assert cleared([want], p) == ([ints], den)
    assert [fld.to_str(x) for x in want] == want_str
    for built, direct in ((fld.of(-5), of), (fld.zero, zero), (fld.one, one)):
        assert type(built) is type(direct) and built == direct
        assert built.as_integer_ratio() == direct.as_integer_ratio()
    assert repr(fld) == spelled_repr
    for other, (twin, _) in BUILT.items():
        assert (fld == twin) is (other == name)
        assert (fld == field_from_name(other)) is (other == name)
    assert hash(fld) == hash(field_from_name(name)) and fld != name
