"""Dense univariate polynomials as coefficient lists (ascending powers).

The zero polynomial is the empty list. Coefficients come from one of the
exact fields, so division and gcd are exact.
"""
from __future__ import annotations


def trim(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def degree(p):
    # -1 for the zero polynomial
    return len(p) - 1


def add(p, q, zero):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else zero
        b = q[i] if i < len(q) else zero
        out.append(a + b)
    return trim(out)


def scale(p, c):
    return trim([c * a for a in p])


def mul(p, q, zero):
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return trim(out)


def divmod_exact(p, q, zero):
    """Quotient and remainder of p by q (q nonzero)."""
    p, q = list(trim(p)), trim(q)
    assert q, "division by the zero polynomial"
    lead = q[-1]
    quot = [zero] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        c = p[-1] / lead
        k = len(p) - len(q)
        quot[k] = c
        for i in range(len(q)):
            p[k + i] = p[k + i] - c * q[i]
        p = trim(p)
        if not p:
            break
    return trim(quot), trim(p)


def gcd_monic(p, q, zero):
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    p, q = trim(p), trim(q)
    while q:
        _, r = divmod_exact(p, q, zero)
        p, q = q, r
    if p:
        p = [a / p[-1] for a in p]
    return p


def evaluate(p, x, zero):
    acc = zero
    for c in reversed(p):
        acc = acc * x + c
    return acc
