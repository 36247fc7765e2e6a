"""Field-element Gauss-Jordan: the reference the integer eliminations in
`treebundles.linalg` are compared against.

It works on Fraction or FpElement entries directly, dividing each pivot
row by its pivot, so it shares no code with the fraction-free routes.
"""


def rref(rows, ncols):
    """Reduced row echelon form over field elements. Returns (new_rows,
    pivot_columns). The reference for `integer_rref`."""
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


