"""Dense exact linear algebra on lists of lists.

Entries live in one of the fields from fields.py. Pivoting is purely
positional (first nonzero entry, columns left to right), so echelon forms
and kernel bases are deterministic for a given input.
"""
from __future__ import annotations


def identity_matrix(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_vec(m, v, zero):
    return [sum((row[j] * v[j] for j in range(len(v))), zero) for row in m]


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


def rref(rows, ncols):
    """Reduced row echelon form. Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [m[i][j] - f * m[r][j] for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def matrix_rank(rows, ncols):
    if not rows:
        return 0
    return len(rref(rows, ncols)[1])


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


def kernel_basis(rows, ncols, zero, one):
    """Basis of the right kernel, one vector per free column, echelon order."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free]
        basis.append(v)
    return basis


def invert_matrix(m, zero, one):
    """Inverse of a square matrix, or None if singular."""
    n = len(m)
    aug = [list(m[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    red, pivots = rref(aug, 2 * n)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def solve_columns(a, b, zero):
    """Solve a @ x = b for full-column-rank a (b a matrix). None if inconsistent."""
    n, k = len(a), len(a[0])
    cols = len(b[0])
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    red, pivots = rref(aug, k + cols)
    if any(p >= k for p in pivots):
        return None  # inconsistent right-hand side
    if len(pivots) < k:
        return None  # rank deficient, solution not unique
    x = [[zero] * cols for _ in range(k)]
    for i, p in enumerate(pivots):
        for j in range(cols):
            x[p][j] = red[i][k + j]
    return x
