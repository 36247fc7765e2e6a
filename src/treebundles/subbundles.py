"""Line subbundles of glued bundles: saturation and quotients.

A line subbundle is recorded per component as a degree a_v plus the r
coordinate polynomials of the embedding into the summands (degrees bounded
by summand degree minus a_v), together with one nonzero scalar per node
tying the two sides' fiber directions through the gluing.
"""
from __future__ import annotations

from . import poly
from .bundle import BundleError, GluedBundle
from .linalg import (field_elements, integer_kernel, integer_rows,
                     integer_rref, is_invertible, mat_mul, mat_vec,
                     solve_columns)


class SubbundleError(ValueError):
    pass


class LineSubbundle:

    def __init__(self, host: GluedBundle, degrees, embeddings, scalars):
        self.host = host
        self.degrees = {v: int(degrees[v]) for v in host.curve.components}
        self.embeddings = {v: [list(p) for p in embeddings[v]]
                           for v in host.curve.components}
        self.scalars = dict(scalars)

    def degree(self):
        return sum(self.degrees.values())

    def multidegree(self):
        return dict(self.degrees)

    def value_at(self, v, at):
        zero = self.host.field.zero
        return [poly.evaluate(p, at, zero) for p in self.embeddings[v]]

    def validate(self):
        problems = []
        host = self.host
        zero = host.field.zero
        misshapen = set()
        for v in host.curve.components:
            a = self.degrees[v]
            polys = [poly.trim(p) for p in self.embeddings[v]]
            if len(polys) != host.rank:
                problems.append("component %r: expected %d coordinates" % (v, host.rank))
                misshapen.add(v)
                continue
            nonzero = [(i, p) for i, p in enumerate(polys) if p]
            if not nonzero:
                problems.append("component %r: embedding is identically zero" % v)
                continue
            full = False
            for i, p in enumerate(polys):
                bound = host.splittings[v][i] - a
                if p and poly.degree(p) > bound:
                    problems.append(
                        "component %r coordinate %d exceeds degree bound %d"
                        % (v, i, bound))
                if p and poly.degree(p) == bound:
                    full = True
            if not full:
                # common zero at infinity: every homogenized coordinate
                # would pick up a factor of the far coordinate
                problems.append("component %r: embedding vanishes at infinity" % v)
            g = []
            for _, p in nonzero:
                g = poly.gcd_monic(g, p, zero)
            if poly.degree(g) > 0:
                problems.append("component %r: embedding has a common zero (gcd %s)"
                                % (v, g))
        for i, e in enumerate(host.curve.edges):
            if e.a in misshapen or e.b in misshapen:
                # no fiber direction to compare; the component is reported
                continue
            lam = self.scalars.get(i)
            if lam is None or not lam:
                problems.append("edge %d: missing or zero scalar" % i)
                continue
            lhs, vb = _node_fibres(host, i, self.embeddings)
            if any(lhs[k] != lam * vb[k] for k in range(host.rank)):
                problems.append("edge %d: sides do not match through the gluing" % i)
        if problems:
            raise SubbundleError("; ".join(problems))
        return self

    def as_line_bundle(self) -> GluedBundle:
        """Forget the embedding: the subbundle as a rank-1 glued bundle."""
        spl = {v: (self.degrees[v],) for v in self.host.curve.components}
        glue = {i: [[self.scalars[i]]] for i in range(len(self.host.curve.edges))}
        return GluedBundle(self.host.curve, 1, spl, glue)

    def __eq__(self, other):
        if not isinstance(other, LineSubbundle):
            return NotImplemented
        return (self.host == other.host and self.degrees == other.degrees
                and {v: [poly.trim(p) for p in ps] for v, ps in self.embeddings.items()}
                == {v: [poly.trim(p) for p in ps] for v, ps in other.embeddings.items()}
                and self.scalars == other.scalars)

    def __repr__(self):
        return "LineSubbundle(degrees=%s)" % (self.degrees,)


def _node_fibres(bundle: GluedBundle, edge_index, embeddings):
    """The two fiber vectors of a line at an edge's node: the a-side one
    carried through the gluing, and the b-side one. `embeddings` maps each
    component to its r coordinate polynomials."""
    e = bundle.curve.edges[edge_index]
    zero = bundle.field.zero
    va = [poly.evaluate(p, e.pa, zero) for p in embeddings[e.a]]
    vb = [poly.evaluate(p, e.pb, zero) for p in embeddings[e.b]]
    return mat_vec(bundle.gluings[edge_index], va, zero), vb


def _direction_scalar(lhs, vb):
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


def saturate(bundle: GluedBundle, section) -> LineSubbundle:
    """Line subbundle spanned by a global section.

    Per component the coordinates are divided by their gcd, counted with
    the common vanishing order at infinity (homogenization slack); the
    subbundle degree is the total vanishing order. The section must be
    nonzero on every component, and the resulting fiber directions must
    still match across every node.
    """
    zero = bundle.field.zero
    degrees, embeddings = {}, {}
    for v in bundle.curve.components:
        polys = [poly.trim(p) for p in section[v]]
        nonzero = [(i, p) for i, p in enumerate(polys) if p]
        if not nonzero:
            raise SubbundleError("section vanishes identically on %r" % v)
        g = []
        for _, p in nonzero:
            g = poly.gcd_monic(g, p, zero)
        tau = min(bundle.splittings[v][i] - poly.degree(p) for i, p in nonzero)
        degrees[v] = poly.degree(g) + tau
        phis = []
        for p in polys:
            if not p:
                phis.append([])
                continue
            q, rem = poly.divmod_exact(p, g, zero)
            assert not rem, "gcd does not divide a coordinate"
            phis.append(q)
        embeddings[v] = phis
    scalars = {}
    for i in range(len(bundle.curve.edges)):
        lam = _direction_scalar(*_node_fibres(bundle, i, embeddings))
        if lam is None or not lam:
            raise SubbundleError(
                "saturated directions disagree across edge %d" % i)
        scalars[i] = lam
    return LineSubbundle(bundle, degrees, embeddings, scalars).validate()


def _kernel_generators(field, ms, a, phis, want):
    """Minimal generators of ker((psi_i) -> sum psi_i phi_i) over the
    homogeneous coordinate ring, dehomogenized.

    ms are the summand degrees, the phi_i have degree <= ms[i] - a, and the
    kernel is a free module of rank `want`; generators are found degree by
    degree, lowest first. Returns a list of (gen_degree, coordinate polys).
    The search runs on integers: one common scale clears the phi_i (the
    kernel does not change), and field elements are built only for the
    chosen generators.
    """
    p = field.char
    flat = integer_rows([[c for phi in phis for c in phi]], p)[0]
    iphis, at = [], 0
    for phi in phis:
        iphis.append(flat[at:at + len(phi)])
        at += len(phi)
    total = sum(ms) - a
    found = []  # (degree, integer coefficient blocks, their denominator)

    def layout(t):
        blocks, n = [], 0
        for m in ms:
            size = max(0, t - m + 1)
            blocks.append((n, size))
            n += size
        return blocks, n

    t = min(ms)
    guard = total - (want - 1) * min(ms) + len(ms) + 2
    while len(found) < want:
        assert t <= guard, "kernel generator search ran past its degree bound"
        blocks, ncols = layout(t)
        if ncols == 0:
            t += 1
            continue
        rows = [[0] * ncols for _ in range(max(0, t - a + 1))]
        for (start, size), phi in zip(blocks, iphis):
            for k in range(size):
                # coefficient rows of x^k * phi_i
                for d, c in enumerate(phi):
                    rows[k + d][start + k] = c
        kern, den = integer_kernel(rows, ncols, p)
        # earlier generators shifted into degree t, then the kernel vectors,
        # as the columns of one matrix: its pivot columns are the greedy
        # choices of vectors independent of everything before them
        cols = []
        for b, gens, _ in found:
            for s in range(t - b + 1):
                vec = [0] * ncols
                for (start, _), g in zip(blocks, gens):
                    vec[start + s:start + s + len(g)] = g
                cols.append(vec)
        old = len(cols)
        cols += kern
        _, pivots, _ = integer_rref(list(zip(*cols)), len(cols), p)
        assert pivots[:old] == list(range(old)), \
            "old generators degenerated; kernel not free?"
        for j in pivots[old:old + want - len(found)]:
            found.append((t, [cols[j][start:start + size]
                              for start, size in blocks], den))
        t += 1
    assert sum(b for b, _, _ in found) == total, \
        "quotient degree bookkeeping broke"
    out = []
    for b, gens, den in found:
        of = field_elements(den, p)
        zero = of(0)
        out.append((b, [poly.trim([of(x) if x else zero for x in g])
                        for g in gens]))
    return out


def quotient_with_projections(bundle: GluedBundle, sub: LineSubbundle):
    """Quotient bundle plus, per component, the generator rows projecting
    host fibers onto quotient fibers.

    `sub` must already be valid (`LineSubbundle.validate`, which `saturate`
    and `specialize.find_line_subbundle` run); `quotient_bundle` validates
    it first.
    """
    if sub.host != bundle:
        raise BundleError("subbundle does not live in this bundle")
    r = bundle.rank
    if r < 2:
        raise BundleError("quotient by a line subbundle needs rank at least 2")
    zero = bundle.field.zero
    qsplit, projections = {}, {}
    for v in bundle.curve.components:
        found = _kernel_generators(bundle.field, list(bundle.splittings[v]),
                                   sub.degrees[v], sub.embeddings[v], r - 1)
        qsplit[v] = tuple(b for b, _ in found)
        projections[v] = [gens for _, gens in found]
    qglue = {}
    for i, e in enumerate(bundle.curve.edges):
        gx = [[poly.evaluate(p, e.pa, zero) for p in gens]
              for gens in projections[e.a]]
        gy = [[poly.evaluate(p, e.pb, zero) for p in gens]
              for gens in projections[e.b]]
        rhs = mat_mul(gy, bundle.gluings[i], zero)
        gxt = [[gx[j][i2] for j in range(r - 1)] for i2 in range(r)]
        rhst = [[rhs[j][i2] for j in range(r - 1)] for i2 in range(r)]
        nt = solve_columns(gxt, rhst, zero)
        assert nt is not None, "quotient gluing system is inconsistent"
        n = [[nt[j][i2] for j in range(r - 1)] for i2 in range(r - 1)]
        assert is_invertible(n, bundle.field.char)
        qglue[i] = n
    quot = GluedBundle(bundle.curve, r - 1, qsplit, qglue)
    return quot, projections


def quotient_bundle(bundle: GluedBundle, sub: LineSubbundle) -> GluedBundle:
    """The quotient bundle by a line subbundle, validated first."""
    return quotient_with_projections(bundle, sub.validate())[0]
