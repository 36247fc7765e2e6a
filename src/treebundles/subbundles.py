"""Line subbundles of glued bundles: saturation, search and quotients.

A line subbundle is recorded per component as a degree a_v plus the r
coordinate polynomials of the embedding into the summands (degrees bounded
by summand degree minus a_v), together with one nonzero scalar per node
tying the two sides' fiber directions through the gluing.

The quotient by a line subbundle L of a rank-2 bundle E is the line
bundle det E (x) L^-1, built in closed form from the embedding's leading
coefficients, the subbundle scalars and the gluing determinants; in higher
rank the quotient's summands come from minimal generators of the
embedding's syzygies, read off its support per component: a unit per zero
coordinate, and a degree-by-degree search on the nonzero ones. They are
merged in the order of the search over all summands, by degree, then by
the summand that holds each generator's free column (`_kernel_generators`).

Node checks, saturation and quotient gluings run on integers, crossing
from field elements and back only through `linalg`. A subbundle holds its
embedding only as integer polynomials over one denominator per component
(`LineSubbundle.integer_embeddings`, residues over GF(p)), in the form
`linalg.cleared` gives the trimmed field elements (`_lowest`). It has one
constructor, which holds the pairs that saturation, the search and the
JSON reader make; `saturate` is the entry point for a section of field
elements, cleared once. Its `embeddings` are field elements built on each
read, an output view. The integers are evaluated at a node homogeneously
(`linalg.power_row`), gluings are read as the bundle carries them
(`integer_gluings`), quotient gluings are made as integer pairs in the
same lowest terms (`linalg.lowest`), and field elements are built
(`linalg.element`) only for the outputs.

find_line_subbundle realizes a line subbundle of degree dmax after
inserting bridges: `_search` assembles a `_Plan` in that integer form
from saturations (`_saturation_plan`, the one route from a section to a
plan) and junctions (`_join`), and the subbundle is made once, by the
`LineSubbundle` constructor.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from . import poly
from .bundle import (BundleError, GluedBundle, SectionSystem, dmax,
                     level_tuples, pullback, restrict_bundle, section_basis,
                     twist)
from .curve import compose_enlargements, identity_enlargement, insert_bridge
from .linalg import (cleared, element, integer_kernel, integer_rref,
                     invertible, lowest, power_row)


class SubbundleError(ValueError):
    pass


@dataclass(repr=False)
class LineSubbundle:
    """A line subbundle of `host`, holding what it is given: `degrees`
    (put in the host's component order), `integer_embeddings`, one
    `_lowest` pair per component, and `scalars`; no field element is
    built. The embedding is held only in that canonical form (see the
    module docstring), so equal subbundles hold equal pairs and the
    generated `__eq__` compares them."""

    host: GluedBundle
    degrees: dict
    integer_embeddings: dict
    scalars: dict

    def __post_init__(self):
        self.degrees = {v: self.degrees[v] for v in self.host.curve.components}

    @property
    def embeddings(self):
        """Per component, the coordinate polynomials of field elements,
        built from `integer_embeddings` on each read."""
        p = self.host.field.char
        return {v: [[element(c, den, p) for c in q] for q in ints]
                for v, (ints, den) in self.integer_embeddings.items()}

    def degree(self):
        return sum(self.degrees.values())

    def multidegree(self):
        return dict(self.degrees)

    def validate(self):
        problems = []
        host = self.host
        p = host.field.char
        coords = {}
        for v in host.curve.components:
            a = self.degrees[v]
            ints = self.integer_embeddings[v][0]
            if len(ints) != host.rank:
                problems.append("component %r: expected %d coordinates" % (v, host.rank))
                continue
            coords[v] = self.integer_embeddings[v]
            if not any(ints):
                problems.append("component %r: embedding is identically zero" % v)
                continue
            full = False
            for i, q in enumerate(ints):
                bound = host.splittings[v][i] - a
                if q and poly.degree(q) > bound:
                    problems.append(
                        "component %r coordinate %d exceeds degree bound %d"
                        % (v, i, bound))
                if q and poly.degree(q) == bound:
                    full = True
            if not full:
                # common zero at infinity: every homogenized coordinate
                # would pick up a factor of the far coordinate
                problems.append("component %r: embedding vanishes at infinity" % v)
            g = poly.gcd(ints, p)
            if poly.degree(g) > 0:
                problems.append("component %r: embedding has a common zero (gcd %s)"
                                % (v, [element(c, g[-1], p) for c in g]))
        for i, e in enumerate(host.curve.edges):
            if e.a not in coords or e.b not in coords:
                # no fiber direction to compare; the component is reported
                continue
            lam = self.scalars.get(i)
            if lam is None or not lam:
                problems.append("edge %d: missing or zero scalar" % i)
                continue
            lhs, sa, vb, sb = _node_fibres(host, i, coords)
            # lhs / sa == lam * vb / sb, cross-multiplied
            n, d = lam.as_integer_ratio()
            if any(_nonzero(x * sb * d - n * y * sa, p) for x, y in zip(lhs, vb)):
                problems.append("edge %d: sides do not match through the gluing" % i)
        for i in sorted(set(self.scalars) - set(range(len(host.curve.edges)))):
            problems.append("edge %r: the host has no such edge" % (i,))
        if problems:
            raise SubbundleError("; ".join(problems))
        return self

    def __repr__(self):
        return "LineSubbundle(degrees=%s)" % (self.degrees,)


# -- integer node values ---------------------------------------------------------

def _values_at(ints, den, x, p):
    """Integer polynomials over den at the point x = n/d: (values, scale),
    the polynomials' values at x being values / scale. Evaluation is
    homogeneous, values[i] = sum_k c_ik n^k d^(K-k) with K the largest
    length minus one, so scale = den * d^K. Over GF(p) the values are
    residues and den and d are 1."""
    # the powers the section system's matching rows use; the first is d^K
    powers = power_row(x, max(0, max(map(len, ints)) - 1), p)
    values = [sum(c * u for c, u in zip(q, powers)) for q in ints]
    return [v % p for v in values] if p else values, den * powers[0]


def _node_fibres(bundle: GluedBundle, edge_index, coords):
    """The two fiber vectors of a line at an edge's node, as (lhs, sa, vb,
    sb): lhs / sa is the a-side vector carried through the gluing and
    vb / sb the b-side one, with integer vectors and nonzero integer
    scales (residues and 1 over GF(p)). `coords` maps each end component to
    its coordinate polynomials as `linalg.cleared` gives them."""
    e = bundle.curve.edges[edge_index]
    p = bundle.field.char
    glue, den = bundle.integer_gluings[edge_index]
    va, sa = _values_at(*coords[e.a], e.pa, p)
    vb, sb = _values_at(*coords[e.b], e.pb, p)
    lhs = [sum(g * x for g, x in zip(row, va)) for row in glue]
    return [x % p for x in lhs] if p else lhs, den * sa, vb, sb


def _nonzero(x, p):
    return x % p if p else x


def _direction_scalar(p, lhs, sa, vb, sb):
    """lam with lhs / sa == lam * vb / sb, or None if the vectors are not
    parallel; the one field element built."""
    k = next((k for k, y in enumerate(vb) if y), None)
    if k is None:
        return None
    if any(_nonzero(x * vb[k] - lhs[k] * y, p) for x, y in zip(lhs, vb)):
        return None
    return element(lhs[k] * sb, sa * vb[k], p)


def _lowest(ints, den, p):
    """Integer coordinates over den as `linalg.cleared` gives their field
    elements (`linalg.lowest`), trimmed."""
    ints, den = lowest(ints, den, p)
    return [poly.trim(q) for q in ints], den


def saturate(bundle: GluedBundle, section) -> LineSubbundle:
    """Line subbundle spanned by a global section of field elements, each
    component's coordinates cleared once; see `_saturate`."""
    p = bundle.field.char
    return LineSubbundle(bundle, *_saturate(
        bundle, {v: cleared([poly.trim(q) for q in section[v]], p)
                 for v in bundle.curve.components})).validate()


def _saturate(bundle: GluedBundle, coords):
    """(degrees, coords, scalars) of the line subbundle spanned by a section
    in integers: coords maps each component to (trimmed integer coordinate
    lists, den), the section's coordinates being the lists over den
    (residues over GF(p)); the result's coords are in `_lowest` form. No
    subbundle is built: for a section with one coordinate per summand the
    result passes `LineSubbundle.validate` by construction, and only
    `saturate` and `find_line_subbundle` make one.

    Per component the coordinates are divided by their gcd, counted with
    the common vanishing order at infinity (homogenization slack); the
    subbundle degree is the total vanishing order. The section must be
    nonzero on every component, and the resulting fiber directions must
    still match across every node.

    The gcd is primitive over Q, where by Gauss's lemma it divides each
    coordinate exactly in Z[x], and monic over GF(p); the coordinates are
    divided by the gcd over its leading coefficient, as over the field. So
    (k ints, k den), for any nonzero integer k (a negative Bareiss den
    included), has the same gcd and quotients k times as large over k den,
    which `_lowest` takes to one form: the kernel's den that the search
    passes and the cleared one of `saturate` give the same subbundle.
    """
    p = bundle.field.char
    degrees, lowest = {}, {}
    for v in bundle.curve.components:
        ints, den = coords[v]
        nonzero = [(i, q) for i, q in enumerate(ints) if q]
        if not nonzero:
            raise SubbundleError("section vanishes identically on %r" % v)
        g = poly.gcd(ints, p)
        tau = min(bundle.splittings[v][i] - poly.degree(q) for i, q in nonzero)
        degrees[v] = poly.degree(g) + tau
        # q / (g / lead) = lead * (q div g), all over den
        lead = g[-1]
        lowest[v] = _lowest([[lead * c for c in poly.div_exact(q, g, p)]
                             if q else [] for q in ints], den, p)
    scalars = {}
    for i in range(len(bundle.curve.edges)):
        lam = _direction_scalar(p, *_node_fibres(bundle, i, lowest))
        if lam is None or not lam:
            raise SubbundleError(
                "saturated directions disagree across edge %d" % i)
        scalars[i] = lam
    return degrees, lowest, scalars


def _kernel_generators(p, ms, a, phis, want):
    """Minimal generators of ker((psi_i) -> sum psi_i phi_i) over the
    homogeneous coordinate ring, dehomogenized, read off the embedding's
    support.

    ms are the summand degrees, the phi_i are trimmed and have degree
    <= ms[i] - a, and the kernel is a free module of rank `want`. The phi_i
    are integer coefficient lists, an embedding's coordinates times one
    common scale (its `integer_embeddings`), which does not change the
    kernel. Returns a list of (gen_degree, integer coefficient blocks,
    den): the generator's coordinate polynomials are the blocks divided by
    den.

    The generators are those of a greedy search over all summands, degree
    by degree: in degree t, the kernel vectors of the multiplication
    matrix (one per free column of its reduced echelon form, with 1 there
    and 0 at the other free columns) that are independent of the earlier
    generators shifted into degree t and of the vectors kept before them.
    The columns of a summand i with phi_i = 0 are zero, so they are free
    and their kernel vectors are units, and the kernel splits into one
    piece per such summand and one for the nonzero coordinates N. So a
    zero coordinate i gives the unit generator e_i in degree m_i, and the
    search runs on the blocks of N alone, which gives nothing for one
    nonzero coordinate and len(N) - 1 generators otherwise (for two, the
    Koszul pair normalized at its last nonzero entry). Within a degree the
    search keeps vectors in free-column order, and a kernel vector is zero
    past its free column, so the pieces merge by degree, then by the last
    summand with a nonzero block (a stable sort, so searched generators
    that tie on both keep their order).

    The search finds N's generators degree by degree from min(m_i, i in
    N), lowest first, with one `integer_kernel` per degree and one
    `integer_rref` per degree that gains a generator. Every phi_i in N is
    nonzero, so a <= m_i and each degree's system has rows. The earlier
    generators shifted into degree t are independent kernel vectors (the
    kernel is free on the generators), so degree t gains exactly
    dim ker - #shifts of them; where that is 0 no pivot walk runs, and
    with nothing earlier every kernel vector is a pivot.
    """
    support = [i for i, phi in enumerate(phis) if phi]
    found = [(ms[i], [[1] if k == i else [] for k in range(len(ms))], 1)
             for i, phi in enumerate(phis) if not phi]
    ns = [ms[i] for i in support]
    need = len(support) - 1
    searched = []  # (degree, integer coefficient blocks on N, their den)

    def layout(t):
        blocks, n = [], 0
        for m in ns:
            size = max(0, t - m + 1)
            blocks.append((n, size))
            n += size
        return blocks, n

    t = min(ns)  # from here on the smallest summand's block has a column
    guard = sum(ns) - a - (need - 1) * t + len(ns) + 2
    while len(searched) < need:
        assert t <= guard, "kernel generator search ran past its degree bound"
        blocks, ncols = layout(t)
        rows = [[0] * ncols for _ in range(t - a + 1)]
        for (start, size), i in zip(blocks, support):
            for k in range(size):
                # coefficient rows of x^k * phi_i
                for d, c in enumerate(phis[i]):
                    rows[k + d][start + k] = c
        kern, den = integer_kernel(rows, ncols, p)
        old = sum(t - b + 1 for b, _, _ in searched)
        if len(kern) > old:
            # earlier generators shifted into degree t, then the kernel
            # vectors, as the columns of one matrix: its pivot columns are
            # the greedy choices of vectors independent of everything before
            cols = []
            for b, gens, _ in searched:
                for s in range(t - b + 1):
                    vec = [0] * ncols
                    for (start, _), g in zip(blocks, gens):
                        vec[start + s:start + s + len(g)] = g
                    cols.append(vec)
            cols += kern
            if old:
                _, pivots, _ = integer_rref(list(zip(*cols)), len(cols), p)
                assert pivots[:old] == list(range(old)), \
                    "old generators degenerated; kernel not free?"
            else:
                pivots = range(len(kern))
            for j in pivots[old:old + need - len(searched)]:
                searched.append((t, [cols[j][start:start + size]
                                     for start, size in blocks], den))
        t += 1
    for b, gens, den in searched:
        blocks = [[] for _ in ms]
        for i, g in zip(support, gens):
            blocks[i] = g
        found.append((b, blocks, den))
    found.sort(key=lambda g: (g[0], max(k for k, q in enumerate(g[1])
                                        if any(q))))
    assert len(found) == want and sum(b for b, _, _ in found) == sum(ms) - a, \
        "quotient degree bookkeeping broke"
    return found


def _quotient(bundle: GluedBundle, sub: LineSubbundle) -> GluedBundle:
    """The quotient bundle by a line subbundle.

    `sub` must already be valid (`LineSubbundle.validate`, which `saturate`
    and `find_line_subbundle` run); `quotient_bundle` validates it first.

    In rank 2 the quotient is det E (x) L^-1, in closed form. On a
    component the syzygies of (phi_0, phi_1) are generated by the Koszul
    pair (phi_1, -phi_0), so the quotient degree is m_0 + m_1 - a, and the
    generator the search of `_kernel_generators` finds is that pair over
    c = -lead(phi_0) if phi_0 != 0, else lead(phi_1) (its last nonzero
    coordinate is 1). With u = phi_a(p_a) and G u = lam phi_b(p_b), the
    a-side generator row is (u_1, -u_0) / c_a = u^T S / c_a for
    S = [[0, -1], [1, 0]], and G^T S G = det(G) S turns N g_a = g_b G into
    N = det(G) c_a / (lam c_b). Higher ranks take `_quotient_by_generators`,
    whose generators `_kernel_generators` reads off each component's
    support: a unit e_i per zero coordinate, in degree m_i, and the search
    on the nonzero ones (the same pair over the same c where two are),
    merged by degree, then by the summand of each generator's free column.
    """
    if sub.host != bundle:
        raise BundleError("subbundle does not live in this bundle")
    r = bundle.rank
    if r < 2:
        raise BundleError("quotient by a line subbundle needs rank at least 2")
    if r > 2:
        return _quotient_by_generators(bundle, sub)
    p = bundle.field.char
    qsplit, lead = {}, {}
    for v in bundle.curve.components:
        m0, m1 = bundle.splittings[v]
        qsplit[v] = (m0 + m1 - sub.degrees[v],)
        (phi0, phi1), den = sub.integer_embeddings[v]
        lead[v] = (-phi0[-1] if phi0 else phi1[-1], den)
    qglue = []
    for i, e in enumerate(bundle.curve.edges):
        ((g00, g01), (g10, g11)), den = bundle.integer_gluings[i]
        (na, da), (nb, db) = lead[e.a], lead[e.b]
        nl, dl = sub.scalars[i].as_integer_ratio()
        # det(G) = det_int / den^2
        num = (g00 * g11 - g01 * g10) * na * db * dl
        assert _nonzero(num, p), "quotient gluing is singular"
        qglue.append(lowest([[num]], den * den * da * nl * nb, p))
    return GluedBundle.of_integers(bundle.curve, 1, qsplit, qglue)


def _quotient_by_generators(bundle: GluedBundle, sub: LineSubbundle):
    """The quotient bundle of any rank from the kernel generators found by
    `_kernel_generators`, one per quotient summand.

    The gluing N of an edge solves N gx = gy G, with gx and gy the
    generator rows at the node on the two sides. Each row is an integer
    row over its own scale (diagonal S_a, S_b) and G is an integer matrix
    over L, so N = S_b^-1 N_int S_a / L for the integer solution N_int of
    N_int gx_int = gy_int G_int, from one integer Gauss-Jordan, and N's
    rows are put over one den, the lcm of S_b's entries times L and the
    solve's den.
    """
    r = bundle.rank
    p = bundle.field.char
    qsplit, generators = {}, {}
    for v in bundle.curve.components:
        found = _kernel_generators(p, list(bundle.splittings[v]),
                                   sub.degrees[v],
                                   sub.integer_embeddings[v][0], r - 1)
        qsplit[v] = tuple(b for b, _, _ in found)
        generators[v] = [(gens, den) for _, gens, den in found]
    qglue = []
    for i, e in enumerate(bundle.curve.edges):
        gx, sa = zip(*(_values_at(g, d, e.pa, p) for g, d in generators[e.a]))
        gy, sb = zip(*(_values_at(g, d, e.pb, p) for g, d in generators[e.b]))
        glue, den = bundle.integer_gluings[i]
        rhs = [[sum(y * g[k] for y, g in zip(row, glue)) for k in range(r)]
               for row in gy]
        # [gx^T | (gy G)^T]: its reduced form carries N_int^T
        aug = [[row[k] for row in gx] + [row[k] for row in rhs]
               for k in range(r)]
        red, pivots, rden = integer_rref(aug, 2 * (r - 1), p)
        assert pivots == list(range(r - 1)), \
            "quotient gluing system is inconsistent"
        block = [row[r - 1:] for row in red]
        assert invertible(block, p), "quotient gluing is singular"
        scale = lcm(*sb)
        qglue.append(lowest([[block[j][k] * sa[j] * (scale // sb[k])
                              for j in range(r - 1)] for k in range(r - 1)],
                            rden * scale * den, p))
    return GluedBundle.of_integers(bundle.curve, r - 1, qsplit, qglue)


def quotient_bundle(bundle: GluedBundle, sub: LineSubbundle) -> GluedBundle:
    """The quotient bundle by a line subbundle, validated first."""
    return _quotient(bundle, sub.validate())


# -- maximal-degree line subbundles ------------------------------------------

@dataclass
class _Plan:
    """Line-subbundle data relative to one bundle, before any curve surgery.

    degrees and coords (as `LineSubbundle.integer_embeddings`) cover the
    bundle's components; scalars are keyed by (a, b) component-id pairs of
    surviving original edges; bridges records (a, b, (u0, sa), (u1, sb))
    junctions, integer fiber vectors over their scales, to be realized by
    inserting a component whose embedding interpolates the two.
    """
    degrees: dict
    coords: dict
    scalars: dict
    bridges: list

    def total(self):
        return sum(self.degrees.values()) - len(self.bridges)


def _merge_plans(*plans):
    degrees, coords, scalars, bridges = {}, {}, {}, []
    for p in plans:
        assert not set(degrees) & set(p.degrees)
        degrees.update(p.degrees)
        coords.update(p.coords)
        scalars.update(p.scalars)
        bridges.extend(p.bridges)
    return _Plan(degrees, coords, scalars, bridges)


def _nonzero_components(curve, section):
    # a section's coefficient lists are trimmed
    return [v for v in curve.components if any(section[v])]


def _combine_support(p, curve, sec, other):
    """sec + c*other for the first scalar c keeping every component of
    either support alive; falls back to sec if no scalar works (only
    possible over a field smaller than the component count). Sections are
    `section_basis` integer lists over one den, residues over GF(p)."""
    sup_s = set(_nonzero_components(curve, sec))
    sup_o = set(_nonzero_components(curve, other))
    if sup_o <= sup_s:
        return sec
    shared = sup_s & sup_o
    for c in range(1, len(shared) + 2):
        if p and c >= p:
            break
        cand = {v: [poly.trim([(x + c * y) % p if p else x + c * y
                               for x, y in itertools.zip_longest(
                                   q, r, fillvalue=0)])
                    for q, r in zip(sec[v], other[v])]
                for v in curve.components}
        if all(any(cand[v]) for v in shared):
            return cand
    return sec


def _max_support_section(field, curve, basis):
    """Deterministic combination of the basis nonzero on every component
    the full section space allows."""
    if not basis:
        return None
    sec = basis[0]
    for other in basis[1:]:
        sec = _combine_support(field.char, curve, sec, other)
    return sec


def _restricted_dmax(bundle):
    """members -> dmax(restrict_bundle(bundle, members)), each set measured
    once. A restriction of a restriction is the restriction to the smaller
    set, so one table serves every level of a search started at `bundle`."""
    table = {}

    def dmax_of(members):
        key = frozenset(members)
        if key not in table:
            table[key] = dmax(restrict_bundle(bundle, key))
        return table[key]

    return dmax_of


def _join(bundle, blocks, cut, dmax_of, *solved):
    """Merge the plans already `solved`, then each block of the curve cut
    at the `cut` edges solved on its own, and tie them together across
    every cut edge, in order."""
    plan = _merge_plans(*solved, *[_search(restrict_bundle(bundle, b), dmax_of)
                                   for b in blocks])
    for i in cut:
        _junction(bundle, i, plan)
    return plan


def _junction(bundle, edge_index, plan):
    """Tie the two sides of an edge together through the subbundle.

    Transports the a-side fiber vector through the original gluing; if the
    result is independent of the b-side vector the junction becomes a bridge
    interpolating the two, otherwise the sides glue directly with the ratio
    as the edge scalar.
    """
    e = bundle.curve.edges[edge_index]
    u0, sa, vb, sb = _node_fibres(bundle, edge_index, plan.coords)
    rho = _direction_scalar(bundle.field.char, u0, sa, vb, sb)
    if rho is not None:
        assert rho, "transported fiber vector vanished"
        plan.scalars[(e.a, e.b)] = rho
    else:
        plan.bridges.append((e.a, e.b, (u0, sa), (vb, sb)))


def _saturation_plan(host, w_eff, section, den):
    """The plan of the line subbundle that a section of `host` (twisted by
    w_eff, the plan's degrees shifted back; coordinates the lists over den)
    spans. None when there is no section, it vanishes on a component of
    host, or its saturated directions disagree across an edge."""
    comps = host.curve.components
    if section is None or not all(any(section[v]) for v in comps):
        return None
    try:
        degrees, coords, scalars = _saturate(
            host, {v: (section[v], den) for v in comps})
    except SubbundleError:
        return None
    return _Plan({v: a - w_eff[v] for v, a in degrees.items()}, coords,
                 {(e.a, e.b): scalars[i]
                  for i, e in enumerate(host.curve.edges)}, [])


def _twisted_plan(bundle, md):
    """(plan, bump): the bundle twisted by md, its `section_basis`, and the
    basis' max-support section passed to `_saturation_plan`, with
    bump = (md, twisted, basis, den)."""
    twisted = twist(bundle, md)
    basis, den = section_basis(twisted)
    sec = _max_support_section(bundle.field, bundle.curve, basis)
    return _saturation_plan(twisted, md, sec, den), (md, twisted, basis, den)


def _search(bundle: GluedBundle, dmax_of) -> _Plan:
    """Core of the subbundle search, one recursion level.

    `bundle` is where the search started or a restriction of it, and every
    dmax it needs, its own included, is read from the start's
    `_restricted_dmax` table `dmax_of`. Returns a plan relative to `bundle`
    whose total degree (bridges count -1 each) equals dmax(bundle). Rank
    one and single components are immediate. Otherwise candidate assemblies
    are tried in order: the zero-locus walk (a +1 bump's section saturates
    whole, or the tree is split at an edge both of whose sides stay
    sectioned, or along a best section's vanishing locus), then
    surgery-free multidegree enumeration, then bridging every edge subset whose
    blocks account exactly for the maximum. The walk alone can come up
    short when the only maximal subbundle follows a chain of forced fiber
    directions, so the first plan landing exactly on dmax(bundle) wins.
    """
    curve = bundle.curve
    if bundle.rank == 1:
        degrees = {v: bundle.splittings[v][0] for v in curve.components}
        coords = {v: ([[1]], 1) for v in curve.components}
        p = bundle.field.char
        scalars = {(e.a, e.b): element(m[0][0], den, p)
                   for e, (m, den) in zip(curve.edges, bundle.integer_gluings)}
        return _Plan(degrees, coords, scalars, [])
    if len(curve.components) == 1:
        v = curve.components[0]
        ms = bundle.splittings[v]
        j = ms.index(max(ms))
        coords = {v: ([[1] if i == j else [] for i in range(bundle.rank)], 1)}
        return _Plan({v: ms[j]}, coords, {}, [])

    d, witness = dmax_of(curve.components)
    plan = _walk_candidate(bundle, witness, dmax_of)
    if plan is not None and plan.total() == d:
        return plan
    plan = _bridgeless(bundle, d)
    if plan is not None:
        return plan
    plan = _cut_assembly(bundle, d, dmax_of)
    if plan is not None:
        return plan
    raise AssertionError("subbundle search exhausted every assembly shape")


def _walk_candidate(bundle, witness, dmax_of):
    """The zero-locus walk; may return None or an undershooting plan.

    A side S is good when the bundle twisted by the witness, restricted to
    S, has dmax >= 0. dmax is twist-equivariant, dmax(twist(B, w)|S) =
    dmax(B|S) + sum of w over S (witness moved by -w), so sides are
    measured and solved untwisted.
    """
    curve = bundle.curve
    comps = curve.components

    # a +1 bump somewhere may already have a section with no vanishing
    # components; then its saturation is the whole answer
    bumps = {}
    for z in comps:
        plan, bumps[z] = _twisted_plan(
            bundle, {v: witness[v] + (1 if v == z else 0) for v in comps})
        if plan is not None:
            return plan

    # neighbor walk: keep moving toward a side that fails, turn-around
    # means both sides of an edge are good, a dead end isolates a component
    adj = curve.adjacency()
    cur, prev = comps[0], None
    for _ in range(len(comps) + 1):
        nxt = None
        for nb, i in adj[cur]:
            side = curve.side_of(i, cur)
            if dmax_of(side)[0] + sum(witness[v] for v in side) >= 0:
                nxt = nb
                break
        if nxt is None:
            return _case_vanishing(bundle, cur, bumps[cur], dmax_of)
        if nxt == prev:
            # both sides of edge i admit sections at every degree-0 twist
            e = curve.edges[i]
            return _join(bundle, [curve.side_of(i, e.a), curve.side_of(i, e.b)],
                         (i,), dmax_of)
        prev, cur = cur, nxt
    raise AssertionError("neighbor walk failed to settle")


def _bridgeless(bundle, d):
    """Degree-d line subbundle with no curve surgery, if one exists.

    Any such subbundle sits under the per-component summand maxima, so
    every multidegree a with sum d in that box is tried, through its
    co-twist co = -a: `level_tuples` walks the co-twists of total -d with
    co_v >= lo_v + 1 = -max(splittings[v]) directly, in ascending
    lexicographic order, the order of a's slack max(splittings[v]) - a_v,
    which is co shifted by a constant. A section of the bundle
    co-twisted by co that is nonzero on every component must then be
    nowhere vanishing (a saturation gain would beat dmax), and saturating
    it yields the plan.

    Only the max-support combination of each basis is tried. Over Q, or
    GF(p) with p > n + 1, each `_combine_support` step keeps the union of
    its two supports (each component rules out at most one scalar), so a
    section nonzero on every component exists iff that one is. Over a
    smaller field `_cut_assembly`, which is complete, finds the plan.

    A co-twist co is first tested by counts alone. On a component v the
    co-twist with v's value lowered to lo_v, the vanishing floor, has every
    summand negative on v and changes nothing else, so its sections are
    exactly those of co that vanish on v. When count(co) equals that count
    for some v, every section vanishes on v, the max-support one included,
    and co is skipped with no basis built. Only this direction is used, so
    the skip holds over every field and the plan is the one the basis
    gives.
    """
    comps = bundle.curve.components
    system = SectionSystem(bundle)
    sides = [bundle.splittings[v] for v in comps]
    for co in level_tuples([x + 1 for x in system.lo], None, -d):
        # a lone summand of positive twisted degree always has a zero
        if any(len(live) == 1 and live[0] > 0
               for live in ([m + c for m in ds if m + c >= 0]
                            for ds, c in zip(sides, co))):
            continue
        h = system.count(co)
        if h == 0 or any(system.count(co[:i] + (lo,) + co[i + 1:]) == h
                         for i, lo in enumerate(system.lo)):
            continue
        plan, _ = _twisted_plan(bundle, dict(zip(comps, co)))
        if plan is not None:
            assert plan.total() == d, "surgery-free subbundle beat the maximum"
            return plan
    return None


def _cut_assembly(bundle, d, dmax_of):
    """Bridge a subset of edges and solve the blocks independently.

    Complete: a maximal subbundle with bridges at edge set B restricts to
    each block with exactly the block's own maximal degree (anything less
    is beaten by reassembling the blocks' maxima, anything more beats
    dmax), so scanning subsets by size and checking the degree ledger
    finds a workable B whenever one exists.
    """
    curve = bundle.curve
    n_edges = len(curve.edges)
    for k in range(1, n_edges + 1):
        for cut in itertools.combinations(range(n_edges), k):
            blocks = curve.pieces(curve.components, cut)
            if sum(dmax_of(b)[0] for b in blocks) - k != d:
                continue
            plan = _join(bundle, blocks, cut, dmax_of)
            assert plan.total() == d, "cut assembly missed the maximal degree"
            return plan
    return None


def _case_vanishing(bundle, z, bump, dmax_of):
    """No side around z qualifies: the bump loop's (w_eff, bumped, basis,
    den) for z has a section, and its vanishing components split off as
    independently solved subtrees, joined to its saturated alive block by
    `_join`. Returns None when the section's shape does not support the
    surgery or its saturation fails."""
    curve = bundle.curve
    w_eff, bumped, basis, den = bump
    assert basis, "bumped bundle lost its guaranteed section"
    # the first basis element nonzero on the most components
    sec = max(basis, key=lambda s: len(_nonzero_components(curve, s)))
    alive = _nonzero_components(curve, sec)
    assert z in alive, "section vanished where it was forced not to"
    # one crossing edge per dead part, i.e. the rest stays connected
    parts = curve.pieces([v for v in curve.components if v not in alive])
    cut = []
    for part in parts:
        crossing = [i for i, e in enumerate(curve.edges)
                    if (e.a in part) != (e.b in part)]
        if len(crossing) != 1:
            return None
        cut.append(crossing[0])
    plan = _saturation_plan(restrict_bundle(bumped, alive), w_eff, sec, den)
    if plan is None:
        return None
    return _join(bundle, parts, cut, dmax_of, plan)


def find_line_subbundle(bundle: GluedBundle):
    """A line subbundle of maximal total degree, after inserting bridges.

    Returns (enlargement, subbundle); the subbundle lives in the pullback of
    the bundle along the enlargement and its degree is dmax(bundle), with
    every inserted bridge carrying degree -1.
    """
    plan = _search(bundle, _restricted_dmax(bundle))
    enl = identity_enlargement(bundle.curve)
    grown = bundle.curve
    degrees, coords = dict(plan.degrees), dict(plan.coords)
    for (a, b, (u0, sa), (u1, sb)) in plan.bridges:
        i = grown.edge_between(a, b)
        assert i is not None, "junction edge disappeared during surgery"
        grown, step = insert_bridge(grown, i)
        bid = next(iter(step.contracted))
        enl = compose_enlargements(enl, step)
        # u0 / sa + (u1 / sb - u0 / sa) x, over sa sb
        degrees[bid] = -1
        coords[bid] = _lowest([[x * sb, y * sa - x * sb] for x, y in zip(u0, u1)],
                              sa * sb, bundle.field.char)
    host = bundle if not plan.bridges else pullback(bundle, enl)
    scalars = {}
    for i, e in enumerate(grown.edges):
        if (e.a, e.b) in plan.scalars:
            scalars[i] = plan.scalars[(e.a, e.b)]
        elif e.a not in plan.degrees or e.b not in plan.degrees:  # a bridge
            scalars[i] = bundle.field.one
    return enl, LineSubbundle(host, degrees, coords, scalars).validate()
