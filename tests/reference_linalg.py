"""Field-element references the integer routes of `treebundles` are
compared against: Gauss-Jordan for the eliminations and the inverse in
`treebundles.linalg`, and polynomial evaluation, gcd, exact division,
matrix products and column solves for the node checks, saturation and
quotient gluings in `treebundles.subbundles`, and a subbundle as the
line bundle it is (`as_line_bundle`). Polynomial sums, scalings and
products build the tests' inputs.

They work on Fraction or FpElement entries directly, dividing each pivot
row by its pivot, so they share no code with the fraction-free routes.
Two integer references are the exceptions. `dmax_by_levels` is the
level-by-level climb that `treebundles.bundle.dmax` replaced, each level
walked by a fresh `SectionSystem.first_failure` given no `below`, so that
no walk skips a twist by what another level found. `_column_layout` and
`_matching_rows` write the integer matching system, one row per edge and
b-end summand on every block whole, apart from the one row builder
(`bundle._node_rows`) that both `SectionSystem` and `section_basis` use;
they share only `bundle._edge_rows`.

`curve_in_steps` is the reference for the JSON curve reader: each edge
read key by key, each coordinate parsed to its element (`fld.parse`), and
the curve checked by `validate_tree`, neither of which
`serialize.curve_from_json` uses.
"""
from treebundles.bundle import (GluedBundle, SectionSystem, _edge_rows,
                                vanishing_floor)
from treebundles.curve import Edge, TreeCurve
from treebundles.serialize import _need, _need_names


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




def invert_matrix(m, zero, one):
    """Inverse of a square matrix of field elements, or None if singular:
    the reference for `treebundles.linalg.invert_matrix`, which inverts
    integer rows over their den."""
    n = len(m)
    red, pivots = rref([list(row) + [one if i == j else zero for j in range(n)]
                        for i, row in enumerate(m)], 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def solve_columns(a, b):
    """Solve a @ x = b for full-column-rank a (b a matrix); None if the
    system is inconsistent or a is rank deficient."""
    k = len(a[0])
    red, pivots = rref([list(ra) + list(rb) for ra, rb in zip(a, b)],
                       k + len(b[0]))
    if any(c >= k for c in pivots) or len(pivots) < k:
        return None
    return [row[k:] for row in red]


def mat_vec(m, v, zero):
    return [sum((row[j] * v[j] for j in range(len(v))), zero) for row in m]


def mat_mul(a, b, zero):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


# -- polynomials (ascending coefficient lists of field elements) ------------

def trim(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


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


def evaluate(p, x, zero):
    acc = zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


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


# -- line subbundles on field elements ----------------------------------------

def node_fibres(bundle, edge_index, embeddings):
    """The a-side fiber vector of a line at an edge's node carried through
    the gluing, and the b-side one."""
    e = bundle.curve.edges[edge_index]
    zero = bundle.field.zero
    va = [evaluate(p, e.pa, zero) for p in embeddings[e.a]]
    vb = [evaluate(p, e.pb, zero) for p in embeddings[e.b]]
    return mat_vec(bundle.gluings[edge_index], va, zero), vb


def direction_scalar(lhs, vb):
    """lam with lhs == lam * vb, or None if the vectors are not parallel."""
    lam = None
    for k in range(len(vb)):
        if vb[k]:
            lam = lhs[k] / vb[k]
            break
    if lam is None:
        return None
    if any(lhs[k] != lam * vb[k] for k in range(len(vb))):
        return None
    return lam


def subbundle_problems(sub):
    """The problem list `LineSubbundle.validate` reports, on field
    elements."""
    problems = []
    host = sub.host
    zero = host.field.zero
    misshapen = set()
    for v in host.curve.components:
        a = sub.degrees[v]
        polys = [trim(p) for p in sub.embeddings[v]]
        if len(polys) != host.rank:
            problems.append("component %r: expected %d coordinates" % (v, host.rank))
            misshapen.add(v)
            continue
        nonzero = [p for p in polys if p]
        if not nonzero:
            problems.append("component %r: embedding is identically zero" % v)
            continue
        full = False
        for i, p in enumerate(polys):
            bound = host.splittings[v][i] - a
            if p and len(p) - 1 > bound:
                problems.append("component %r coordinate %d exceeds degree bound %d"
                                % (v, i, bound))
            if p and len(p) - 1 == bound:
                full = True
        if not full:
            problems.append("component %r: embedding vanishes at infinity" % v)
        g = []
        for p in nonzero:
            g = gcd_monic(g, p, zero)
        if len(g) > 1:
            problems.append("component %r: embedding has a common zero (gcd %s)"
                            % (v, g))
    for i, e in enumerate(host.curve.edges):
        if e.a in misshapen or e.b in misshapen:
            continue
        lam = sub.scalars.get(i)
        if lam is None or not lam:
            problems.append("edge %d: missing or zero scalar" % i)
            continue
        lhs, vb = node_fibres(host, i, sub.embeddings)
        if any(lhs[k] != lam * vb[k] for k in range(host.rank)):
            problems.append("edge %d: sides do not match through the gluing" % i)
    for i in sorted(sub.scalars):
        if not 0 <= i < len(host.curve.edges):
            problems.append("edge %d: the host has no such edge" % i)
    return problems


def as_line_bundle(sub):
    """Forget the embedding: the subbundle as a rank-1 glued bundle."""
    spl = {v: (sub.degrees[v],) for v in sub.host.curve.components}
    glue = {i: [[sub.scalars[i]]] for i in range(len(sub.host.curve.edges))}
    return GluedBundle(sub.host.curve, 1, spl, glue)


def saturate(bundle, section):
    """(degrees, embeddings, scalars) of the line subbundle a section spans,
    or a SubbundleError with the text `subbundles.saturate` raises."""
    from treebundles.subbundles import LineSubbundle, SubbundleError
    zero = bundle.field.zero
    degrees, embeddings = {}, {}
    for v in bundle.curve.components:
        polys = [trim(p) for p in section[v]]
        nonzero = [(i, p) for i, p in enumerate(polys) if p]
        if not nonzero:
            raise SubbundleError("section vanishes identically on %r" % v)
        g = []
        for _, p in nonzero:
            g = gcd_monic(g, p, zero)
        tau = min(bundle.splittings[v][i] - (len(p) - 1) for i, p in nonzero)
        degrees[v] = len(g) - 1 + tau
        phis = []
        for p in polys:
            q, rem = divmod_exact(p, g, zero) if p else ([], [])
            assert not rem
            phis.append(q)
        embeddings[v] = phis
    scalars = {}
    for i in range(len(bundle.curve.edges)):
        lam = direction_scalar(*node_fibres(bundle, i, embeddings))
        if lam is None or not lam:
            raise SubbundleError("saturated directions disagree across edge %d" % i)
        scalars[i] = lam
    problems = subbundle_problems(LineSubbundle(bundle, degrees, embeddings, scalars))
    if problems:
        raise SubbundleError("; ".join(problems))
    return degrees, embeddings, scalars


def kernel_generators(field, ms, a, phis, want):
    """The quotient generator search on field elements: per degree t, the
    kernel vectors of the multiplication matrix (reduced echelon form, one
    per free column) are kept, in order, while they are independent of the
    shifted earlier generators and of the vectors kept before them.
    Returns a list of (gen_degree, coordinate polys)."""
    zero, one = field.zero, field.one
    found = []
    t = min(ms)
    while len(found) < want:
        sizes = [max(0, t - m + 1) for m in ms]
        starts = [sum(sizes[:i]) for i in range(len(ms))]
        ncols = sum(sizes)
        rows = [[zero] * ncols for _ in range(max(0, t - a + 1))]
        for start, size, phi in zip(starts, sizes, phis):
            for k in range(size):
                for d, c in enumerate(phi):
                    rows[k + d][start + k] = c
        red, pivots = rref(rows, ncols)
        span = []
        for b, gens in found:
            for s in range(t - b + 1):
                vec = [zero] * ncols
                for start, g in zip(starts, gens):
                    vec[start + s:start + s + len(g)] = g
                span.append(vec)
        for free in [c for c in range(ncols) if c not in pivots]:
            if len(found) == want:
                break
            vec = [zero] * ncols
            vec[free] = one
            for i, pc in enumerate(pivots):
                vec[pc] = -red[i][free]
            if matrix_rank(span + [vec], ncols) > len(span):
                span.append(vec)
                found.append((t, [trim(vec[start:start + size])
                                  for start, size in zip(starts, sizes)]))
        t += 1
    return found


def quotient_gluings(bundle, projections):
    """The quotient gluing of every edge from the generator rows: N with
    N gx = gy G, gx and gy the rows evaluated at the node."""
    zero = bundle.field.zero
    r = bundle.rank
    glue = {}
    for i, e in enumerate(bundle.curve.edges):
        gx = [[evaluate(p, e.pa, zero) for p in gens] for gens in projections[e.a]]
        gy = [[evaluate(p, e.pb, zero) for p in gens] for gens in projections[e.b]]
        rhs = mat_mul(gy, bundle.gluings[i], zero)
        nt = solve_columns([list(col) for col in zip(*gx)],
                           [list(col) for col in zip(*rhs)])
        assert nt is not None, "quotient gluing system is inconsistent"
        glue[i] = [[nt[j][k] for j in range(r - 1)] for k in range(r - 1)]
    return glue


# -- dmax, one level at a time --------------------------------------------------

def dmax_by_levels(bundle):
    """(dmax, witness) climbed from the all-floors twist one level at a
    time, each level's first sectionless twist from a fresh system's
    `first_failure` with need 1, until a level has none."""
    lo = vanishing_floor(bundle)
    e = sum(lo.values())
    witness = dict(lo)
    while True:
        e += 1
        found = SectionSystem(bundle).first_failure(e, 1)
        if found is None:
            return -e, witness
        witness = found[0]


# -- the integer matching system ------------------------------------------------

def _column_layout(splittings):
    """{(component, summand): (block degree, first column)} and the width,
    for per-component summand degrees; negative degrees get no block."""
    blocks = {}
    ncols = 0
    for v, ds in splittings.items():
        for i, m in enumerate(ds):
            if m >= 0:
                blocks[(v, i)] = (m, ncols)
                ncols += m + 1
    return blocks, ncols


def _matching_rows(bundle: GluedBundle, ncols, blocks):
    """Integer rows, one per (edge, summand): gluing * a-side values equals
    b-side values, from `_edge_rows` at each side's largest block degree.
    Edges whose rows would be all zero contribute none."""
    top = {}
    for (v, _), (m, _) in blocks.items():
        if m > top.get(v, -1):
            top[v] = m
    rows = []
    for ei, e in enumerate(bundle.curve.edges):
        ka, kb = top.get(e.a, -1), top.get(e.b, -1)
        if ka < 0 and kb < 0:
            continue
        glue, ua, ub = _edge_rows(bundle, ei, ka, kb)
        a_blocks = [blocks.get((e.a, j)) for j in range(bundle.rank)]
        for out, grow in enumerate(glue):
            row = [0] * ncols
            for c, blk in zip(grow, a_blocks):
                if blk and c:
                    deg, start = blk
                    row[start:start + deg + 1] = [c * u for u in ua[:deg + 1]]
            blk = blocks.get((e.b, out))
            if blk:
                deg, start = blk
                row[start:start + deg + 1] = ub[:deg + 1]
            rows.append(row)
    return rows


def curve_in_steps(obj, fld):
    """A curve's JSON read entry by entry, in edge order, and checked by
    `validate_tree`, so the first fault raises with its text. The
    reference for `serialize.curve_from_json`."""
    comps = _need_names(obj, "components", "curve")
    edges = []
    for k, e in enumerate(_need(obj, "edges", list, "curve")):
        where = "curve edge %d" % k
        edges.append(Edge(_need(e, "a", str, where),
                          fld.parse(_need(e, "pa", str, where)),
                          _need(e, "b", str, where),
                          fld.parse(_need(e, "pb", str, where))))
    return TreeCurve(tuple(comps), tuple(edges), fld).validate()
