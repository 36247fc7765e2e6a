"""Exact coefficient fields: rationals (default) and odd prime fields.

Everything downstream is written against plain operator arithmetic, so an
element is either a fractions.Fraction or an FpElement; both support
+, -, *, /, ==, bool() (nonzero test) and never lose exactness, and both
read back alike: str() spells the element, as_integer_ratio() gives
(num, den), lowest terms with den > 0 over Q, the residue over 1 over
GF(p). So no reader asks which field an element came from.

The field is one class, `Field`, keyed by its characteristic `char`, 0
for Q; `RationalField` and `PrimeField` only check p and name it. One
builder, `element(num, den, p)`, makes every element. Each field reads
strings in one place, `read_row`: a list of strings -> (integers, den),
the row being the integers over den (`_read_row`): one int() per entry
on a row with no '/' or '_', else each entry by one function,
`_read_entry`, which tries int() first on an entry with neither.
`ratio(s)` is the row of one string, and `parse` builds the element from
that pair, so a reader that needs only integers (a bundle's gluings)
builds no element at all. `field_from_name` builds each field once per
name.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class FpElement:
    """Residue modulo a prime, with Fraction-like operator arithmetic."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else FpElement(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("division by zero mod %d" % self.p)
        return FpElement(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o.__truediv__(self)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self.val == o.val

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "FpElement(%d, p=%d)" % (self.val, self.p)

    def __str__(self):
        return str(self.val)

    def as_integer_ratio(self):
        return self.val, 1


def element(num, den, p):
    """The field element num / den (den nonzero, and prime to p over
    GF(p)): a Fraction over Q (p = 0), an FpElement over GF(p)."""
    return FpElement(num * pow(den, -1, p), p) if p else Fraction(num, den)


# Miller-Rabin on the 13 prime bases 2..41 is exact below psi_13, which
# passes it and is composite (Sorenson & Webster, Math. Comp. 86, 2017);
# on 12 bases, psi_12 = 399,165,290,221 * 798,330,580,441 passes
PRIME_LIMIT = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Whether n < PRIME_LIMIT is prime: deterministic Miller-Rabin."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _read_row(row, p, bad):
    """A list of strings read as (integers, den), the row being the
    integers over den: over Q (p = 0) den is the lcm of the entries'
    denominators in lowest terms, so 1 on an integral row; over GF(p) the
    residues over 1.

    This is the one place that knows the spelling: a decimal integer or
    ratio, a sign on the numerator only, surrounding whitespace allowed,
    and no exponent, point, underscore or inner whitespace, so int()'s
    digit limit bounds every accepted string. The first entry in order
    that is not a string raises TypeError; the first that is spelled
    otherwise, or has a zero denominator, or over GF(p) one divisible by
    p, raises ValueError(bad % (entry,)).

    A string with no '/' or '_' is read by one int(): of such strings,
    int() reads exactly the integers spelled so. A row of them all takes
    one int() per entry; any other row is read entry by entry, in order,
    by `_read_entry`, so the first bad entry raises.
    """
    try:
        text = "".join(row)
        if "/" not in text and "_" not in text:
            return [int(s) % p for s in row] if p else [int(s) for s in row], 1
    except (TypeError, ValueError):
        # a non-string, or an entry int() does not read: found below, in
        # order
        pass
    pairs = [_read_entry(s, p, bad) for s in row]
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _read_entry(s, p, bad):
    """One entry of `_read_row` as (num, den): lowest terms with den > 0
    over Q (p = 0), the residue over 1 over GF(p). A string with no '/' or
    '_' is tried by one int() first."""
    if not isinstance(s, str):
        raise TypeError("field element %r is not a string" % (s,))
    if "/" not in s and "_" not in s:
        try:
            return (int(s) % p if p else int(s)), 1
        except ValueError:
            # spelled otherwise, or more digits than int() reads
            pass
    num, slash, den = s.strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    try:
        if digits.isdecimal() and (not slash or den.isdecimal()):
            n, d = int(num), int(den) if slash else 1
            if p and d % p:
                return n * pow(d, -1, p) % p, 1
            if not p and d:
                g = gcd(n, d)
                return n // g, d // g
    except ValueError:
        # more digits than int() reads
        pass
    raise ValueError(bad % (s,))


class Field:
    """Q (char 0) or GF(char), every method keyed by `char` alone; `bad` is
    the error text, with one %r, for a string that spells no element."""

    def __init__(self, char: int, name: str, bad: str):
        self.char = char
        self.name = name
        self._bad = bad
        self.zero = element(0, 1, char)
        self.one = element(1, 1, char)

    def of(self, n: int):
        return element(n, 1, self.char)

    def read_row(self, row):
        """A list of strings as (integers, den) (`_read_row`)."""
        return _read_row(row, self.char, self._bad)

    def ratio(self, s: str):
        """(num, den) of the element s, as its as_integer_ratio() gives it."""
        (num,), den = self.read_row((s,))
        return num, den

    def parse(self, s: str):
        return element(*self.ratio(s), self.char)

    def to_str(self, x) -> str:
        return str(x)

    def holds(self, x) -> bool:
        """Whether x is an element of this field."""
        return (isinstance(x, FpElement) and x.p == self.char if self.char
                else isinstance(x, Fraction))

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(("field", self.char))


class RationalField(Field):
    """Exact rational numbers via fractions.Fraction."""

    def __init__(self):
        super().__init__(0, "q", "not a rational number: %r")

    def __repr__(self):
        return "RationalField()"


class PrimeField(Field):
    """GF(p) for an odd prime p below `PRIME_LIMIT`; p above 10**6 keeps
    random sampling honest."""

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise ValueError("%d is not below %d, the prime test's bound"
                             % (p, PRIME_LIMIT))
        if p == 2 or not _is_prime(p):
            raise ValueError("%d is not an odd prime" % p)
        self.p = p
        super().__init__(p, "p:%d" % p, "not an element of GF(%d): %%r" % p)

    def __repr__(self):
        return "PrimeField(%d)" % self.p


@lru_cache(maxsize=8)
def field_from_name(name: str):
    """Parse a --field style selector: "q" or "p:<prime>". Each name is
    read once: a prime's primality test runs on its first call only, and a
    name that raises is not kept, so it raises again on every call."""
    name = name.strip()
    if name == "q":
        return RationalField()
    if name.startswith("p:") and name[2:].isdigit():
        return PrimeField(int(name[2:]))
    raise ValueError("unknown field %r (expected 'q' or 'p:<prime>')" % (name,))
