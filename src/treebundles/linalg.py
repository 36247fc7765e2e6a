"""Dense exact linear algebra on lists of lists, and the one boundary
between field elements and integers.

Every exact count and solve in the package runs on integers over Q
(p = 0) or GF(p), and this module alone crosses between the two:
`cleared` turns rows of field elements into integer rows over one common
denominator (residues over 1 in GF(p)), `lowest` takes integer rows over
any nonzero den to that same form, `element` (written in `fields`,
beside the field that builds its elements with it, and imported here)
builds a field element back from an integer over a denominator, and
`power_row` gives the homogeneous powers n^k d^(K-k) at which integer
polynomials are evaluated at a point n/d. Both read an element by its
own as_integer_ratio(), so neither asks which field it came from; a
caller that needs one element's (num, den) asks the element the same
way. Strings are read to integers by each field's `read_row`.
`invertible` tests a square integer matrix by its determinant up to 4x4,
so no gluing of rank at most 4 is eliminated, and by rank above, and
`invert_matrix` inverts one over its den.

Every elimination is one pivot walk, `_eliminate`: fraction-free with
exact division over Q (Bareiss 1968; Nakos, Turner & Williams 1997), the
same walk on residues over GF(p). It has three routes. `integer_rref`
clears above and below each pivot (Gauss-Jordan) for every exact solve:
kernels, inverses and quotient gluings. `bareiss_rank` over Q and
`modular_rank` over GF(p) clear below only and count the pivots; `rank`
picks one by the field. Pivoting is purely positional (first nonzero
entry, columns left to right), so echelon forms and kernel bases are
deterministic for a given input.
"""
from __future__ import annotations

from math import gcd, lcm

from .fields import element


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    cols = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            acc = 0
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def _eliminate(rows, ncols, p, above):
    """Row-reduce an integer matrix over Q (p = 0) or GF(p), pivots taken
    positionally (first nonzero entry, columns left to right). Returns
    (rows, pivot_columns, den): one row per pivot, an echelon form of the
    input; when `above`, these rows over den are its reduced echelon form.

    Each pivot clears the rows below it and, when `above`, the rows above
    it too. Over Q the step is fraction-free: a row becomes (pivot * row -
    row[c] * pivot row) / previous pivot, every entry stays a minor of the
    input, so the division is exact, and den is the last pivot. A row below
    is zero left of the pivot, so only its columns right of the pivot
    change (Bareiss's update, in place). Over GF(p) the pivot row is
    scaled to a leading 1, so den is 1.
    """
    m = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        for sel in range(r, len(m)):
            if m[sel][c]:
                break
        else:
            continue
        m[r], m[sel] = m[sel], m[r]
        lead = m[r]
        piv = lead[c]
        if p:
            if piv != 1:
                inv = pow(piv, -1, p)
                lead = m[r] = [x * inv % p for x in lead]
            for i in range(0 if above else r + 1, len(m)):
                f = m[i][c]
                if f and i != r:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], lead)]
        else:
            for row in m[r + 1:]:
                f = row[c]
                if f or piv != prev:
                    for j in range(c + 1, ncols):
                        row[j] = (piv * row[j] - f * lead[j]) // prev
                    row[c] = 0
            for i in range(r if above else 0):
                f = m[i][c]
                if f:
                    m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], lead)]
                elif piv != prev:
                    m[i] = [piv * x // prev for x in m[i]]
            prev = piv
        pivots.append(c)
        if r + 1 == len(m):
            break
    return m[:len(pivots)], pivots, 1 if p else prev


def bareiss_rank(rows, ncols):
    """Rank of an integer matrix over Q: fraction-free, below the pivots."""
    return len(_eliminate(rows, ncols, 0, False)[1])


def modular_rank(rows, ncols, p):
    """Rank of an integer matrix over GF(p), below the pivots."""
    return len(_eliminate(rows, ncols, p, False)[1])


def rank(rows, ncols, p):
    """Rank of an integer matrix over Q (p = 0) or GF(p)."""
    return modular_rank(rows, ncols, p) if p else bareiss_rank(rows, ncols)


# -- field elements and integers --------------------------------------------

def cleared(rows, p):
    """Rows of field elements as (integer rows, den), the rows being the
    integer ones divided by den: the rows times the lcm of every
    denominator, so over GF(p), where each element is its residue over 1,
    the residues over 1. One nonzero scale keeps the rank, the kernel and
    the reduced echelon form. The den is prime to the entries (an entry
    whose denominator holds a prime to the power the lcm does is prime to
    it), the one such pair for given rows."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = lcm(*(d for row in ratios for _, d in row))
    if den == 1:
        return [[n for n, _ in row] for row in ratios], 1
    return [[n * (den // d) for n, d in row] for row in ratios], den


def lowest(rows, den, p):
    """Integer rows over a nonzero den (prime to p over GF(p)) in the form
    `cleared` gives the field elements they spell: over Q divided by the
    gcd of den and every entry, signed so that den > 0; over GF(p) the
    residues of the rows over den, over 1."""
    if p:
        inv = pow(den, -1, p)
        return [[x * inv % p for x in row] for row in rows], 1
    g = gcd(den, *(x for row in rows for x in row)) * (1 if den > 0 else -1)
    return [[x // g for x in row] for row in rows], den // g


def power_row(x, top, p):
    """The homogeneous powers n^k d^(top-k), k = 0..top, of x = n/d: an
    integer polynomial of degree at most top has value at x the sum of its
    coefficients times these, over d^top (the first power). Residues over
    GF(p), where d is 1; empty for top < 0."""
    n, d = x.as_integer_ratio()
    return [pow(n, k, p or None) * d ** (top - k) for k in range(top + 1)]


def integer_rref(rows, ncols, p):
    """Reduced row echelon form of an integer matrix over Q (p = 0) or
    GF(p). Returns (rows, pivot_columns, den): the reduced form is the
    returned integer rows divided by den. Over Q this is fraction-free
    Gauss-Jordan, and every pivot row ends with den, the last pivot, at its
    pivot column; over GF(p) den is 1.
    """
    return _eliminate(rows, ncols, p, True)


def invertible(rows, p):
    """Whether a square integer matrix is invertible over Q (p = 0) or
    GF(p): its determinant (mod p) up to 4x4, 3x3 by cofactors along the
    first row, 4x4 the same way with each 3x3 minor expanded over the 2x2
    minors of the last two rows; a full-rank test by elimination above
    that."""
    n = len(rows)
    if n == 1:
        det = rows[0][0]
    elif n == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
    elif n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
        det = (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
               + a2 * (b0 * c1 - b1 * c0))
    elif n == 4:
        ((a0, a1, a2, a3), (b0, b1, b2, b3),
         (c0, c1, c2, c3), (d0, d1, d2, d3)) = rows
        # mij: the minor of the last two rows on columns i and j
        m01, m02, m03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
        m12, m13, m23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
        det = (a0 * (b1 * m23 - b2 * m13 + b3 * m12)
               - a1 * (b0 * m23 - b2 * m03 + b3 * m02)
               + a2 * (b0 * m13 - b1 * m03 + b3 * m01)
               - a3 * (b0 * m12 - b1 * m02 + b2 * m01))
    else:
        return rank(rows, n, p) == n
    return bool(det % p if p else det)


def integer_kernel(rows, ncols, p):
    """Right kernel of an integer matrix over Q (p = 0) or GF(p): (vectors,
    den), one integer vector per free column in echelon order (residues in
    [0, p) over GF(p)); the basis vectors are these divided by den."""
    red, pivots, den = integer_rref(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = den
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free] % p if p else -red[i][free]
        basis.append(v)
    return basis, den


def invert_matrix(rows, den, p):
    """The inverse of the square matrix rows / den over Q (p = 0) or GF(p),
    in `lowest` form, or None if it is singular: the right half of the
    reduced [rows | I] is rows^-1 over the reduction's den, so the inverse
    is den times it."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    red, pivots, rden = integer_rref(aug, 2 * n, p)
    if pivots[:n] != list(range(n)):
        return None
    return lowest([[den * x for x in row[n:]] for row in red], rden, p)
