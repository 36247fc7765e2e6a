"""Dense exact linear algebra on lists of lists.

Every exact solve (kernels, inverses, quotient gluings) runs one integer
Gauss-Jordan, `integer_rref`: fraction-free with exact division over Q
(Bareiss 1968; Nakos, Turner & Williams 1997), the same loop on residues
over GF(p). Field-element rows enter through `integer_rows`, and field
elements are built only for the outputs. Ranks have their own forward-only
routes, `bareiss_rank` and `modular_rank`. Pivoting is purely positional
(first nonzero entry, columns left to right), so echelon forms and kernel
bases are deterministic for a given input.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import FpElement


def identity_matrix(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, zero):
    n, k = len(a), len(b)
    cols = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            acc = zero
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def bareiss_rank(rows, ncols):
    """Rank of an integer matrix, fraction-free elimination.

    Every intermediate entry is a minor of the input, so the interior
    division is exact and entries stay determinant-sized.
    """
    m = [list(r) for r in rows]
    rank = 0
    prev = 1
    for c in range(ncols):
        sel = None
        for i in range(rank, len(m)):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        piv = m[rank][c]
        lead = m[rank]
        for i in range(rank + 1, len(m)):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (piv * row[j] - f * lead[j]) // prev
            row[c] = 0
        prev = piv
        rank += 1
        if rank == len(m):
            break
    return rank


def modular_rank(rows, ncols, p):
    """Rank of an integer matrix over GF(p)."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        sel = None
        for i in range(rank, len(m)):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = pow(m[rank][c], -1, p)
        lead = [(x * inv) % p for x in m[rank]]
        m[rank] = lead
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(m[i][j] - f * lead[j]) % p for j in range(ncols)]
        rank += 1
        if rank == len(m):
            break
    return rank


def integer_rows(rows, p):
    """Field-element rows as integer rows: residues over GF(p); over Q
    (p = 0) each row times the lcm of its denominators. A nonzero row scale
    keeps the rank, the kernel and the reduced echelon form."""
    if p:
        return [[x.val for x in row] for row in rows]
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row]
                   if den != 1 else [x.numerator for x in row])
    return out


def integer_rref(rows, ncols, p):
    """Reduced row echelon form of an integer matrix over Q (p = 0) or
    GF(p). Returns (rows, pivot_columns, den): the reduced form is the
    returned integer rows divided by den.

    Over Q this is fraction-free Gauss-Jordan: each step replaces every
    other row by (pivot * row - row[c] * pivot row) / previous pivot. Every
    entry stays a minor of the input, so the division is exact, and every
    pivot row ends with the last pivot at its pivot column; that pivot is
    den. Over GF(p) the pivot row is scaled to a leading 1, so den is 1.
    """
    m = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(m)):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        lead = m[r]
        piv = lead[c]
        if p:
            if piv != 1:
                inv = pow(piv, -1, p)
                lead = m[r] = [x * inv % p for x in lead]
            for i, row in enumerate(m):
                f = row[c]
                if f and i != r:
                    m[i] = [(x - f * y) % p for x, y in zip(row, lead)]
        else:
            for i, row in enumerate(m):
                if i == r:
                    continue
                f = row[c]
                if f:
                    m[i] = [(piv * x - f * y) // prev for x, y in zip(row, lead)]
                elif piv != prev:
                    m[i] = [piv * x // prev for x in row]
            prev = piv
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots, 1 if p else prev


def _char(zero):
    """The characteristic of the field `zero` belongs to."""
    return getattr(zero, "p", 0)


def field_elements(den, p):
    """Maps an integer numerator over den to a field element."""
    if p:
        return lambda n: FpElement(n, p)
    return lambda n: Fraction(n, den)


def is_invertible(m, p):
    """Whether a square matrix over Q (p = 0) or GF(p) is invertible: a
    full-rank test on its integer rows, no inverse built."""
    rows = integer_rows(m, p)
    n = len(rows)
    return (modular_rank(rows, n, p) if p else bareiss_rank(rows, n)) == n


def integer_kernel(rows, ncols, p):
    """Right kernel of an integer matrix over Q (p = 0) or GF(p): (vectors,
    den), one integer vector per free column in echelon order; the basis
    vectors are these divided by den."""
    red, pivots, den = integer_rref(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = den
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free]
        basis.append(v)
    return basis, den


def integer_kernel_basis(rows, ncols, p):
    """Basis of the right kernel of an integer matrix over Q (p = 0) or
    GF(p), as field elements: one vector per free column, echelon order."""
    vecs, den = integer_kernel(rows, ncols, p)
    of = field_elements(den, p)
    zero = of(0)
    return [[of(x) if x else zero for x in v] for v in vecs]


def kernel_basis(rows, ncols, zero, one):
    """Basis of the right kernel, one vector per free column, echelon order."""
    p = _char(zero)
    return integer_kernel_basis(integer_rows(rows, p), ncols, p)


def invert_matrix(m, zero, one):
    """Inverse of a square matrix, or None if singular."""
    n = len(m)
    p = _char(zero)
    aug = [list(m[i]) + [one if j == i else zero for j in range(n)]
           for i in range(n)]
    red, pivots, den = integer_rref(integer_rows(aug, p), 2 * n, p)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    of = field_elements(den, p)
    return [[of(x) for x in row[n:]] for row in red[:n]]
