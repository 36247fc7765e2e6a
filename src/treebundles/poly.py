"""Dense univariate polynomials as coefficient lists (ascending powers).

The zero polynomial is the empty list. `trim` and `degree` take
coefficients from one of the exact fields or integers; `gcd` and
`div_exact` work on a field's polynomials cleared to integers: in Z[x] for
Q (p = 0), on residues for GF(p).
"""
from __future__ import annotations

import math


def trim(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def degree(p):
    # -1 for the zero polynomial
    return len(p) - 1


def gcd(polys, p):
    """gcd of integer polynomials: over Q (p = 0) primitive with a positive
    leading coefficient, over GF(p) monic, as residues; the zero polynomial
    if every one is zero. Over Q each remainder is a primitive
    pseudo-remainder, which keeps the coefficients small."""
    g = []
    for b in polys:
        b = trim(b)
        while b:
            g, b = b, _remainder(g, b, p)
    if not g:
        return g
    if p:
        inv = pow(g[-1], -1, p)
        return [x * inv % p for x in g]
    return _primitive(g)


def _primitive(a):
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _remainder(a, b, p):
    # over GF(p) the remainder of a by b; over Q the primitive part of the
    # pseudo-remainder, which is the remainder up to a nonzero scalar
    a, n, lead = list(a), len(b), b[-1]
    inv = pow(lead, -1, p) if p else None
    while len(a) >= n:
        k = len(a) - n
        if p:
            c = a[-1] * inv
            for i in range(n - 1):
                a[k + i] = (a[k + i] - c * b[i]) % p
        else:
            c = a[-1]
            for i in range(k):
                a[i] *= lead
            for i in range(n - 1):
                a[k + i] = lead * a[k + i] - c * b[i]
        a = trim(a[:-1])
    return _primitive(a) if a and not p else a


def div_exact(a, b, p):
    """Quotient of integer polynomial a by a nonzero b that divides it: in
    Z[x] over Q (p = 0), which holds whenever b is primitive and divides a
    over Q (Gauss's lemma); on residues over GF(p)."""
    a, n, lead = list(a), len(b), b[-1]
    inv = pow(lead, -1, p) if p else None
    quot = [0] * max(0, len(a) - n + 1)
    for k in range(len(quot) - 1, -1, -1):
        top = a[k + n - 1]
        if p:
            c = top * inv % p
        else:
            c, rem = divmod(top, lead)
            assert not rem, "divisor does not divide in Z[x]"
        quot[k] = c
        if c:
            for i in range(n):
                a[k + i] -= c * b[i]
    assert not any(x % p if p else x for x in a[:n - 1]), \
        "divisor leaves a remainder"
    return quot
