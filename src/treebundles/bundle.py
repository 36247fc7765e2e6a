"""Vector bundles on tree curves, presented by splittings and node gluings.

On each component the bundle is a fixed direct sum of line bundles, in a
recorded order; at each node an invertible matrix identifies the two
fibers, written in those summand trivializations. The summand order per
component is significant because the gluing matrices index into it.
`make_bundle`, `pullback` and `contract_pushforward` read the check result
kept on the frozen curve or enlargement (`problems`), so each is checked once.

Global sections are the kernel of one exact block linear system: a summand
of twisted degree m contributes a block of polynomial coefficients, and each
node contributes rank-many matching equations (a-side values through the
gluing equal b-side values): integer rows, which `_edge_rows` builds from
the gluings the bundle carries in integers (`integer_gluings`).
`section_basis` keeps all max(0, m+1) coefficients of every block, as
the kernel gives them: integer vectors over one den. For
counting, one system per bundle serves every twist (`SectionSystem`): every
block sits at degree val(v) - 1, where val(v) counts the nodes on the
component, and a twist selects a prefix of each block's columns. A twist's
h0 is sum(max(0, m+1)) minus the rank of its selection, memoised by the
clamped block degrees, so its cost does not depend on the twist. That rank
is one block elimination: the full blocks (degree val(v) - 1), in values at
the nodes, touch one node's rows each, so each node contributes r minus the
dimension of the row vectors that kill them, and only the partial blocks'
columns, reduced by those vectors, are eliminated (Bareiss over Q, mod p
over GF(p)); a state with no partial block takes no elimination. The same
object bounds those counts from below with no rank at all (T - R, which is
the count at every all-full twist), and holds the vanishing floors and the
node counts val(v); `h0` is its count at the zero twist. Its one clamp-box
walk, `first_failure`, finds the first twist of a level with fewer sections
than a given need: `dmax` asks it with need 1 and `specialize.decide` with
the source's count. A need-1 walk skips the twists one step above a twist
that the walk of the level below showed to have a section, and `dmax`
settles the failing levels at the bottom without walking them, by one
bisection along their first twists.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from math import inf

from . import poly
from .curve import TreeCurve, check_multidegree, restrict_curve
from .linalg import (cleared, element, identity_matrix, integer_kernel,
                     invert_matrix, invertible, mat_mul, power_row, rank)


class BundleError(ValueError):
    pass


class GluedBundle:
    """curve + per-component ordered summand degrees + per-edge gluings.

    A gluing has two forms: `gluings`, per edge index the rows of field
    elements, and `integer_gluings`, per edge the (integer rows, den) of
    `linalg.cleared`, which every integer route reads. A bundle holds the
    form it is built from and builds the other once, on first use: the
    constructor holds copies of the field-element rows it is given and
    clears them when an integer route first reads them; `of_integers`,
    the JSON reader's, holds integer pairs and builds field elements only
    when something reads `gluings` (output, `__eq__`, `pullback`,
    `h0_oracle`). A form built later is built from the other as it is
    then, and then kept, so a gluing changed in place is seen by the
    routes that read the changed form only: rows of `gluings` changed in
    place reach `__eq__`, output and pullbacks taken afterwards, and no
    count.
    """

    def __init__(self, curve: TreeCurve, rank: int, splittings, gluings):
        self.curve = curve
        self.rank = int(rank)
        self.splittings = {v: tuple(int(d) for d in splittings[v])
                           for v in curve.components}
        self.gluings = {int(i): [list(row) for row in gluings[i]]
                        for i in range(len(curve.edges))}

    @classmethod
    def of_integers(cls, curve: TreeCurve, rank: int, splittings,
                    integer_gluings):
        """A bundle holding `integer_gluings`, per edge index (integer rows,
        den) as `linalg.cleared` gives them; no field element is built."""
        return cls._sharing(curve, int(rank),
                            {v: tuple(splittings[v]) for v in curve.components},
                            None, [integer_gluings[i]
                                   for i in range(len(curve.edges))])

    @classmethod
    def _sharing(cls, curve, rank, splittings, gluings, integer_gluings):
        """A bundle holding the given forms of its gluings, not copies;
        None for a form leaves it to be built on first use. `twist`,
        `restrict_bundle` and `pullback` build through it. No code in the
        package changes a gluing in place (every inverse and product builds
        new rows), so derived bundles share them: a twist and a restriction
        hold the very forms their source holds, and a pullback's forward
        edges its integer pairs."""
        out = cls.__new__(cls)
        out.curve, out.rank, out.splittings = curve, rank, splittings
        if gluings is not None:
            out.gluings = gluings
        if integer_gluings is not None:
            out.integer_gluings = integer_gluings
        return out

    def _forms(self):
        """(gluings, integer_gluings) as held, None for a form not built."""
        held = vars(self)
        return held.get("gluings"), held.get("integer_gluings")

    @cached_property
    def gluings(self):
        """Per edge index, the gluing's rows of field elements, built from
        `integer_gluings` when the bundle was built from integers."""
        p = self.field.char
        return {i: [[element(x, den, p) for x in row] for row in m]
                for i, (m, den) in enumerate(self.integer_gluings)}

    @cached_property
    def integer_gluings(self):
        """Per edge, (integer rows, den) from `linalg.cleared`: the one
        place a field-element gluing becomes integers, shared by `twist`,
        `restrict_bundle` and `pullback`."""
        return [cleared(self.gluings[i], self.field.char)
                for i in range(len(self.curve.edges))]

    @property
    def field(self):
        return self.curve.field

    def degree_on(self, v):
        return sum(self.splittings[v])

    def degree(self):
        return sum(self.degree_on(v) for v in self.curve.components)

    def multidegree(self):
        return {v: self.degree_on(v) for v in self.curve.components}

    def euler(self):
        return self.degree() + self.rank

    def __eq__(self, other):
        if not isinstance(other, GluedBundle):
            return NotImplemented
        return (self.curve == other.curve and self.rank == other.rank
                and self.splittings == other.splittings
                and self.gluings == other.gluings)

    def __repr__(self):
        return "GluedBundle(rank=%d, %s)" % (
            self.rank,
            ", ".join("%s:%s" % (v, list(self.splittings[v]))
                      for v in self.curve.components))


def make_bundle(curve: TreeCurve, splittings, gluings) -> GluedBundle:
    """Validating constructor: a valid curve, splittings covering its
    components with one rank, and `gluings` mapping every edge index to an
    invertible square matrix of field elements (`build_checked`)."""
    return build_checked(GluedBundle, curve, splittings, gluings)


def build_checked(build, curve: TreeCurve, splittings, gluings) -> GluedBundle:
    """`build(curve, rank, splittings, gluings)` after make_bundle's checks,
    in their order, on gluings in the form `build` takes: `GluedBundle`
    rows of field elements, `GluedBundle.of_integers` (integer rows, den)
    pairs, as the JSON reader reads them. Each gluing's shape and
    invertibility are checked on its integer rows (`linalg.invertible`)."""
    curve.validate()
    if set(splittings) != set(curve.components):
        raise BundleError("splittings must cover the components exactly")
    ranks = {len(tuple(splittings[v])) for v in curve.components}
    if len(ranks) != 1:
        raise BundleError("components disagree on the rank: %s" % sorted(ranks))
    (r,) = ranks
    if r < 1:
        raise BundleError("rank must be at least 1")
    if set(gluings) != set(range(len(curve.edges))):
        raise BundleError("gluings must cover the edges exactly")
    bundle = build(curve, r, splittings, gluings)
    for i, (m, _) in enumerate(bundle.integer_gluings):
        if len(m) != r or any(len(row) != r for row in m):
            raise BundleError("gluing %d is not %dx%d" % (i, r, r))
        if not invertible(m, curve.field.char):
            raise BundleError("gluing %d is singular" % i)
    return bundle


def twist(bundle: GluedBundle, md) -> GluedBundle:
    """Tensor by the line bundle of the given multidegree.

    On a tree any line bundle is determined by its multidegree (the gluing
    scalars can be absorbed component by component), so a plain integer map
    is the whole datum. The twist shares the forms of the source's gluings
    that the source holds, and builds neither.
    """
    check_multidegree(bundle.curve, md)
    new = {v: tuple(d + md[v] for d in bundle.splittings[v])
           for v in bundle.curve.components}
    return GluedBundle._sharing(bundle.curve, bundle.rank, new,
                                *bundle._forms())


def restrict_bundle(bundle: GluedBundle, members) -> GluedBundle:
    """Restriction to a connected subtree; only internal gluings survive,
    shared with the source as `twist` shares them."""
    sub = restrict_curve(bundle.curve, members)
    members = set(members)
    keep = [i for i, e in enumerate(bundle.curve.edges)
            if e.a in members and e.b in members]
    spl = {v: bundle.splittings[v] for v in sub.components}
    glue, ints = bundle._forms()
    return GluedBundle._sharing(
        sub, bundle.rank, spl,
        None if glue is None else {j: glue[i] for j, i in enumerate(keep)},
        None if ints is None else [ints[i] for i in keep])


def pullback(bundle: GluedBundle, enl) -> GluedBundle:
    """Pull back along a valid enlargement rooted at the bundle's curve: new
    components carry the trivial summand tuple, and each old node's matrix
    rides on the first edge of its replacement walk (identity on the
    rest). A forward first edge hands on the target's integer pair, as
    `twist` does, with a copy of its rows, so that a gluing of the target
    changed in place later does not show in the pulled bundle, and a check
    against a fresh pullback sees the change. An inserted edge gets the
    identity, also as integers over 1, and only an inverted edge is
    cleared."""
    if enl.target != bundle.curve:
        raise BundleError("enlargement target is not this bundle's curve")
    if enl.problems:
        raise BundleError("invalid enlargement: " + "; ".join(enl.problems))
    src = enl.source
    p = src.field.char
    zero, one = src.field.zero, src.field.one
    r = bundle.rank
    spl = {}
    for v in src.components:
        spl[v] = (0,) * r if v in enl.contracted else bundle.splittings[v]
    glue, ints = {}, {}
    for ti, walk in enumerate(enl.target_edge_paths):
        for step, (si, forward) in enumerate(walk):
            if step > 0:
                glue[si] = identity_matrix(r, zero, one)
                ints[si] = identity_matrix(r, 0, 1), 1
            elif forward:
                glue[si] = [row[:] for row in bundle.gluings[ti]]
                ints[si] = bundle.integer_gluings[ti]
            else:
                glue[si] = invert_matrix(bundle.gluings[ti], zero, one)
                ints[si] = cleared(glue[si], p)
    return GluedBundle._sharing(src, r, spl, glue,
                                [ints[i] for i in range(len(src.edges))])


def contract_pushforward(bundle: GluedBundle, enl) -> GluedBundle:
    """Inverse of pullback: push down along an enlargement whose contracted
    components all carry the zero summand tuple. Matrices along each
    replacement walk compose (first edge applied first)."""
    if enl.source != bundle.curve:
        raise BundleError("enlargement source is not this bundle's curve")
    if enl.problems:
        raise BundleError("invalid enlargement: " + "; ".join(enl.problems))
    for v in enl.contracted:
        if any(d != 0 for d in bundle.splittings[v]):
            raise BundleError("component %r is contracted but not trivial" % v)
    zero, one = bundle.field.zero, bundle.field.one
    r = bundle.rank
    glue = {}
    for ti, walk in enumerate(enl.target_edge_paths):
        acc = identity_matrix(r, zero, one)
        for si, forward in walk:
            m = [row[:] for row in bundle.gluings[si]]
            eff = m if forward else invert_matrix(m, zero, one)
            acc = mat_mul(eff, acc, zero)
        glue[ti] = acc
    spl = {v: bundle.splittings[v] for v in enl.target.components}
    return GluedBundle(enl.target, r, spl, glue)


# -- the section linear system ---------------------------------------------

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


def _edge_rows(bundle: GluedBundle, i, ka, kb):
    """(glue, ua, ub) for edge i: its integer gluing (`integer_gluings`,
    over den) and the powers at its a- and b-end node up to degrees K = ka
    and L = kb, scaled by d_b^L and -den d_a^K.

    The matching row of b-end summand k is glue[k][j] ua on a-end block j
    and ub on b-end block k, each block taking its first degree + 1
    entries: gluing times a-side values equals b-side values, scaled by
    den d_a^K d_b^L (node points n_a/d_a and n_b/d_b). So the Vandermonde
    entry x^k becomes n^k d^(K-k) (`linalg.power_row`), an integer. Scaling
    a row by a nonzero constant keeps the rank, the kernel and the reduced
    echelon form, so any K and L at least the blocks' degrees give one
    system up to row scalings. Over GF(p) every d is 1 and powers are
    residues; an end of degree below 0 has no powers.
    """
    p = bundle.field.char
    e = bundle.curve.edges[i]
    glue, den = bundle.integer_gluings[i]
    ua, ub = power_row(e.pa, ka, p), power_row(e.pb, kb, p)
    # the first power of a row is its d^K
    sa, sb = ub[0] if ub else 1, -den * (ua[0] if ua else 1)
    return glue, [u * sa for u in ua], [u * sb for u in ub]


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


class SectionSystem:
    """h0 of every twist of a bundle from one integer system, and floors
    under it that take no rank: count(md) is h0(twist(bundle, md)).

    The system is the matching system with every block at degree
    cap_v = val(v) - 1, where val(v) counts the nodes on v. The matching
    rows see a block only through its values at v's val(v) distinct node
    points, and evaluation there is already onto with val(v) coefficients,
    so a block of twisted degree m can be cut to min(m, cap_v) without
    changing the rank. The system of a twist is then a prefix of each
    block's columns here: its rows differ from these only in the degrees
    K and L of `_edge_rows`, by one nonzero constant per row, so the ranks
    agree, and h0 is T = sum(max(0, m + 1)) minus the rank of the selected
    columns. The rank depends only on each block's degree clamped to
    [-1, cap_v], so `count` memoises it on that clamped state.

    Call a block full at cap_v, empty at -1 and partial otherwise. Every
    state takes one rank route, a block elimination that leaves only the
    partial blocks' columns to eliminate:
    - a full block's val(v) coefficients map bijectively onto its values
      at v's val(v) distinct nodes (a square Vandermonde), and that change
      of columns keeps the rank;
    - afterwards the full blocks' columns at node i meet node i's rows
      only: C_i = [G_i[:, F_a] | -I[:, F_b]] up to row scalings, which keep
      the rank, with G_i the gluing and F_a, F_b the full summands on the
      a- and b-end;
    - let Y_i be a basis of the row vectors that kill C_i. They are
      supported on E_i, the b-end summands that are not full, and solve
      y G_i[E_i, F_a] = 0: the unit vectors on E_i when F_a is empty, none
      when E_i is empty or F_a is every summand. So rank C_i = r - |Y_i|;
    - the rank of [C | P] is rank C plus the rank of P modulo the columns
      of C (the Schur complement; Guttman, Ann. Math. Statist. 17, 1946),
      and Y = diag(Y_i) maps exactly those columns to zero. So
      rank = sum_i (r - |Y_i|) + rank(stack_i Y_i P_i), where P_i holds
      node i's rows of the partial blocks' coefficient columns only
      (clamped degree + 1 each), as `_edge_rows` builds them at the caps.
    With no partial block P has no columns and the rank is the sum over the
    nodes, with no elimination: |F_b| + rank G_i[E_b, F_a], a submatrix of
    the invertible gluing. A leaf has cap 0 and is never partial, so every
    state of a two-component bundle is one of these. Otherwise the one
    elimination left, of the stacked rows, is Bareiss elimination over Q,
    elimination mod p over GF(p). Y_i reads the bundle's integer gluings,
    each edge's rows are built once per system, and Y_i is memoised by
    (edge, F_a, E_i).

    Both ends of every edge carry a block, so the system has
    R = rank * #edges rows and its rank is at most R. When every block is
    full, F_b is every summand at every node and the rank is exactly R, so
    h0 = T - R there. The rank is also at most the selected column count
    T - V, where V = sum(max(0, m - cap_v)) counts the sections that vanish
    at every node of v and extend by zero. So
    floor(md) = max(T - R, V) <= h0(twist(bundle, md)), with equality to
    T - R at every all-full twist, where T - V = 2R.

    level_floor(e) bounds h0 below on the whole clamp box of level e
    (md[v] >= lo[v], total e) by max(min T - R, min V), +inf if the box is
    empty. T and V are sums over components of
    F_v(t) = sum(max(0, d + t + c_v)) (c_v = 1 for T, -cap_v for V), and
    each F_v is convex: raising t by one adds #{d : d + t + c_v >= 0}, a
    count in 0..r that never falls as t grows. So the least total is F at
    the floors plus the e - sum(lo) smallest of all these steps, taken
    greedily.
    """

    def __init__(self, bundle: GluedBundle):
        self.bundle = bundle
        adj = bundle.curve.adjacency()
        self.val = {v: len(adj[v]) for v in bundle.curve.components}
        self.lo = vanishing_floor(bundle)
        r = bundle.rank
        self._nrows = r * len(bundle.curve.edges)
        self._sides = [(v, bundle.splittings[v], n - 1)
                       for v, n in self.val.items()]
        # per entry of a clamped state, its block's cap
        self._caps = tuple(top for _, ds, top in self._sides for _ in ds)
        # per edge, the first entry of each end's blocks in a state
        at = {v: k * r for k, (v, _, _) in enumerate(self._sides)}
        self._ends = [(at[e.a], at[e.b]) for e in bundle.curve.edges]
        self._edges = {}    # edge -> `_edge_rows` at the caps
        self._kernels = {}  # (edge, F_a, E_i) -> Y_i
        self._ranks = {}
        self._failures = {}  # level -> its need-1 first failure's values

    def count(self, md):
        """h0(twist(bundle, md))."""
        total = 0
        state = []
        for v, ds, top in self._sides:
            t = md[v]
            for d in ds:
                m = d + t
                if m >= 0:
                    total += m + 1
                    state.append(m if m < top else top)
                else:
                    state.append(-1)
        state = tuple(state)
        rank = self._ranks.get(state)
        if rank is None:
            rank = self._ranks[state] = self._rank(state)
        return total - rank

    def _rank(self, state):
        # sum_i (r - |Y_i|) + rank(stack_i Y_i P_i)
        r = self.bundle.rank
        caps = self._caps
        # first column of each partial block among P's columns
        starts = {}
        ncols = 0
        for s, m in enumerate(state):
            if -1 < m < caps[s]:
                starts[s] = ncols
                ncols += m + 1
        total = self._nrows
        rows = []
        for i, (a, b) in enumerate(self._ends):
            tb = caps[b]
            rest = tuple([k for k in range(r) if state[b + k] < tb])
            if rest:
                ta = caps[a]
                full = tuple([j for j in range(r) if state[a + j] == ta])
                ys = self._kernel(i, full, rest)
                total -= len(ys)
                if ys and starts:
                    rows += self._reduced_rows(i, ys, state, starts, a, b,
                                               ncols)
        if rows:
            total += rank(rows, ncols, self.bundle.field.char)
        return total

    def _kernel(self, i, full, rest):
        # Y_i as sparse vectors ((k, y_k), ...) on the nonempty `rest`
        key = (i, full, rest)
        ys = self._kernels.get(key)
        if ys is None:
            if len(full) == self.bundle.rank:
                ys = ()
            elif not full:
                ys = tuple(((k, 1),) for k in rest)
            else:
                glue = self.bundle.integer_gluings[i][0]
                vecs, _ = integer_kernel([[glue[k][j] for k in rest]
                                          for j in full],
                                         len(rest), self.bundle.field.char)
                ys = tuple(tuple((k, c) for k, c in zip(rest, vec) if c)
                           for vec in vecs)
            self._kernels[key] = ys
        return ys

    def _reduced_rows(self, i, ys, state, starts, a, b, ncols):
        # y P_i for y in Y_i: each partial block of the a-end meets y
        # through y G_i[:, j], each partial block of the b-end through y_k
        r = self.bundle.rank
        a_side = [(j, starts[a + j], state[a + j]) for j in range(r)
                  if a + j in starts]
        if not a_side and not any(b + k in starts for k in range(r)):
            return []
        if i not in self._edges:
            self._edges[i] = _edge_rows(self.bundle, i, self._caps[a],
                                        self._caps[b])
        glue, ua, ub = self._edges[i]
        rows = []
        for y in ys:
            row = [0] * ncols
            for j, start, m in a_side:
                c = sum(yk * glue[k][j] for k, yk in y)
                if c:
                    row[start:start + m + 1] = [c * u for u in ua[:m + 1]]
            for k, yk in y:
                start = starts.get(b + k)
                if start is not None:
                    m = state[b + k]
                    row[start:start + m + 1] = [yk * u for u in ub[:m + 1]]
            if any(row):
                rows.append(row)
        return rows

    def floor(self, md):
        """max(T - R, V) at the twist md, at most its h0."""
        total = vanishing = 0
        for v, ds, top in self._sides:
            t = md[v]
            for d in ds:
                m = d + t
                if m >= 0:
                    total += m + 1
                    if m > top:
                        vanishing += m - top
        return max(total - self._nrows, vanishing)

    def level_floor(self, e):
        """At most h0 at every twist in the clamp box of level e; +inf if
        that box is empty."""
        spare = e - sum(self.lo.values())
        if spare < 0:
            return inf
        return max(self._least(False, spare) - self._nrows,
                   self._least(True, spare))

    def _least(self, vanishing, spare):
        # min over the box of sum_v F_v, c_v = -cap_v for V and 1 for T
        r = self.bundle.rank
        value = 0
        room = [0] * r  # room[k]: steps that add k sections
        for v, ds, top in self._sides:
            c, t = -top if vanishing else 1, self.lo[v]
            value += sum(max(0, d + t + c) for d in ds)
            # a step from t adds one section per breakpoint -d - c <= t
            for k, b in enumerate(sorted(-d - c for d in ds)):
                if b > t:
                    room[k] += b - t
                    t = b
        for k, n in enumerate(room):
            take = min(n, spare)
            value += k * take
            spare -= take
        return value + r * spare

    def first_failure(self, e, need):
        """(md, count(md)) for the first twist md of level e in the clamp
        box (md[v] >= lo[v], total e, in ascending lexicographic order along
        the components) with count(md) < need, or None if there is none.

        The walk is capped above where that first twist cannot lie:
        - need = 1: every coordinate at the ceiling lo_v + val(v). A
          summand of twisted degree m >= val(v) has a section (the product
          of (x - p) over v's nodes, extended by zero to the other
          components), so every sectionless twist lies under the ceiling.
        - need > 1: every coordinate but the last at
          sat_v = val(v) - 1 - min(splittings[v]). Above sat_v every
          summand on v has twisted degree at least val(v), so lowering
          md[v] by one removes exactly r sections, while raising the last
          coordinate by one adds at most r. A failure with md[v] > sat_v
          for a non-last v therefore yields a failure at the same level
          that is lexicographically smaller. The last coordinate takes
          whatever the others leave. The level is skipped whole when its
          `level_floor` reaches need.
        The ceiling, val(v) - 1 - max(splittings[v]), is never above sat_v.
        A count is read only where the twist's floor falls short of need;
        only twists with at least need sections are skipped, so the first
        failure does not change. The level floor is at most every twist's
        floor, so it never saves a rank; at need = 1 it costs more than
        the walks it skips.

        A need-1 walk also skips every twist one step above a twist of
        level e - 1 known to have a section. The system records each
        need-1 level's first failure f; a level with none records
        nothing. A twist x of
        level e is skipped when, for some v with x_v > lo_v, x - e_v comes
        before f. That twist lies in level e - 1's ceiling box, and its
        walk passed it before f, so it has a section: on the floor, by a
        count, or by this same skip. Multiplying by the section of O(p),
        p a smooth point of v, is injective on sections, so x has one too.
        A skipped twist is never a failure, so the first failure does not
        change. Only level e - 1's record at need 1 is read, so a walk with
        need > 1, or with no walk of the level below, is walked as if no
        record existed. `_above_passed` reads the test off the first
        index at which x and f differ, in O(n).
        """
        comps = self.bundle.curve.components
        lo = self.lo
        below = None
        if need == 1:
            hi = {v: lo[v] + self.val[v] for v in comps}
            below = self._failures.get(e - 1)
        elif self.level_floor(e) >= need:
            return None
        else:
            *rest, last = comps
            spl = self.bundle.splittings
            hi = {v: self.val[v] - 1 - min(spl[v]) for v in rest}
            hi[last] = e - sum(lo[v] for v in rest)
        for md in level_box(comps, lo, hi, e):
            if self.floor(md) < need and not (
                    below and self._above_passed(md, below)):
                have = self.count(md)
                if have < need:
                    if need == 1:
                        self._failures[e] = tuple(md.values())
                    return md, have
        return None

    def _above_passed(self, md, failure):
        """Whether md - e_v comes before `failure` (one level below, its
        values in component order) in ascending lexicographic order, for
        some v with md[v] > lo[v].

        Let i be the first index at which md and failure differ. A v
        before i with md_v > lo_v always does: md - e_v first differs from
        f at v, one below it. If md_i < f_i, every v at or after i does
        too, since md - e_v first differs from f at i, at most md_i there;
        and one v with md_v > lo_v exists, since md's level is above
        sum(lo). If md_i > f_i, a v after i does not, and v = i does
        exactly when md_i = f_i + 1 and md after i comes before f after i
        (md_i > f_i >= lo_i holds then).
        """
        lo = self.lo
        raised = False
        pairs = zip(md.items(), failure)
        for (v, x), f in pairs:
            if x != f:
                if x < f:
                    return True
                if raised or x > f + 1:
                    return raised
                break
            raised = raised or x > lo[v]
        for (_, x), f in pairs:
            if x != f:
                return x < f
        return False


def h0(bundle: GluedBundle) -> int:
    """Dimension of the global sections: the bundle's section system at the
    zero twist."""
    return SectionSystem(bundle).count(
        dict.fromkeys(bundle.curve.components, 0))


def h1(bundle: GluedBundle) -> int:
    # h0 - h1 is the Euler characteristic, degree + rank on a tree
    return h0(bundle) - bundle.euler()


def section_basis(bundle: GluedBundle):
    """(sections, den): a basis of the global sections, one per free column
    of the section system, each per component and summand trimmed integer
    lists over the kernel's den (residues in [0, p) over 1 over GF(p))."""
    blocks, ncols = _column_layout(bundle.splittings)
    rows = _matching_rows(bundle, ncols, blocks)
    vecs, den = integer_kernel(rows, ncols, bundle.field.char)
    sections = []
    for vec in vecs:
        sec = {}
        for v in bundle.curve.components:
            polys = []
            for i, m in enumerate(bundle.splittings[v]):
                if m < 0:
                    polys.append([])
                else:
                    _, start = blocks[(v, i)]
                    polys.append(poly.trim(vec[start:start + m + 1]))
            sec[v] = polys
        sections.append(sec)
    return sections, den


# -- independent recomputation of h0 ----------------------------------------

def h0_oracle(bundle: GluedBundle) -> int:
    """Second route to h0 for cross-checking.

    Sections are represented by their values at m+1 integer sample points
    per summand instead of coefficients, node values are reconstructed by
    Lagrange interpolation, and the elimination scans columns right to left
    with pivot rows taken from the bottom. Nothing here is shared with the
    primary path except the field.
    """
    fld = bundle.field
    zero, one = fld.zero, fld.one
    cols = []  # (component, summand, sample index)
    offsets = {}
    for v in bundle.curve.components:
        for i, m in enumerate(bundle.splittings[v]):
            if m >= 0:
                if fld.char and m >= fld.char:
                    raise ValueError("h0_oracle: degree %d needs %d sample points, "
                                     "too many for p = %d" % (m, m + 1, fld.char))
                offsets[(v, i)] = (m, len(cols))
                for j in range(m + 1):
                    cols.append((v, i, j))
    if not cols:
        return 0

    def lagrange_weights(m, at):
        # weight of sample j in the value at `at`; samples are 0..m
        pts = [fld.of(j) for j in range(m + 1)]
        ws = []
        for j in range(m + 1):
            num, den = one, one
            for k in range(m + 1):
                if k != j:
                    num = num * (at - pts[k])
                    den = den * (pts[j] - pts[k])
            ws.append(num / den)
        return ws

    rows = []
    for ei, e in enumerate(bundle.curve.edges):
        m = bundle.gluings[ei]
        for out in range(bundle.rank):
            row = [zero] * len(cols)
            for j in range(bundle.rank):
                if (e.a, j) in offsets and m[out][j] != 0:
                    deg, start = offsets[(e.a, j)]
                    for k, w in enumerate(lagrange_weights(deg, e.pa)):
                        row[start + k] = row[start + k] + m[out][j] * w
            if (e.b, out) in offsets:
                deg, start = offsets[(e.b, out)]
                for k, w in enumerate(lagrange_weights(deg, e.pb)):
                    row[start + k] = row[start + k] - w
            rows.append(row)

    # right-to-left, bottom-up elimination
    work = [r[:] for r in rows]
    used = [False] * len(work)
    rank = 0
    for c in range(len(cols) - 1, -1, -1):
        sel = None
        for i in range(len(work) - 1, -1, -1):
            if not used[i] and work[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        used[sel] = True
        rank += 1
        inv = work[sel][c]
        srow = [x / inv for x in work[sel]]
        for i in range(len(work)):
            if not used[i] and work[i][c] != 0:
                f = work[i][c]
                work[i] = [work[i][t] - f * srow[t] for t in range(len(cols))]
    return len(cols) - rank


# -- clamp boxes and the positivity threshold --------------------------------

def vanishing_floor(bundle: GluedBundle):
    """Per component, the twist below which sections die on that component."""
    return {v: -max(bundle.splittings[v]) - 1 for v in bundle.curve.components}


def level_box(comps, lo, hi, e):
    """Multidegrees of total e with lo[v] <= md[v] <= hi[v], lazily.

    Yielded as dicts keyed in `comps` order, in ascending lexicographic
    order along `comps`; `hi=None` leaves every coordinate uncapped.
    """
    if hi is None:
        # no coordinate can exceed what the others leave at their floors
        spare = e - sum(lo[v] for v in comps)
        hi = {v: lo[v] + spare for v in comps}
    n = len(comps)
    least, most = [0] * (n + 1), [0] * (n + 1)  # bounds on comps[i:]
    for i in range(n - 1, -1, -1):
        least[i] = least[i + 1] + lo[comps[i]]
        most[i] = most[i + 1] + hi[comps[i]]
    # an odometer: x[:i] is set, rem = e - sum(x[:i]) and top[j] is the
    # largest value x[j] may take given x[:j]; the bounds leave rem == 0
    # once every coordinate is set
    x, top = [0] * n, [0] * n
    i, rem = 0, e
    while True:
        while i < n:
            v = comps[i]
            first = max(lo[v], rem - most[i + 1])
            top[i] = min(hi[v], rem - least[i + 1])
            if first > top[i]:
                break
            x[i] = first
            rem -= first
            i += 1
        if i == n:
            yield dict(zip(comps, x))
        # advance the last coordinate that can still grow
        i -= 1
        while i >= 0 and x[i] == top[i]:
            rem += x[i]
            i -= 1
        if i < 0:
            return
        x[i] += 1
        rem -= 1
        i += 1


def clamp_box(bundle: GluedBundle, e: int):
    """All multidegrees of total e within the stabilization box.

    Below lo_v = -(largest summand degree on v) - 1 every section vanishes
    identically on v, so h0 is constant in that direction; any positivity or
    semicontinuity failure therefore clamps onto this finite box. Returned
    in ascending lexicographic order along the component order, and not
    capped above. The list is the `box` verb's answer and a reference for
    tests; `dmax` and `specialize.decide` instead walk each level lazily
    under caps, in `SectionSystem.first_failure`.
    """
    comps = bundle.curve.components
    return list(level_box(comps, vanishing_floor(bundle), None, e))


def clamp_multidegree(bundle: GluedBundle, md):
    """Raise coordinates below the vanishing floor up to it (h0-preserving)."""
    lo = vanishing_floor(bundle)
    return {v: max(md[v], lo[v]) for v in bundle.curve.components}


def dmax(bundle: GluedBundle):
    """Largest d such that every twist of total degree -d has a section.

    Returns (d, witness) with the witness the first multidegree in the
    total-degree -(d+1) clamp box without sections, each level's found by
    `SectionSystem.first_failure` with need = 1. Lowering an above-floor
    coordinate of a sectionless twist keeps it sectionless and in the box,
    so the levels that hold one form an interval starting at the
    all-floors twist, and the levels are climbed from there until one has
    no sectionless entry; every sectionless twist lies under the ceiling
    lo_v + val(v), whose box is empty past level sum(lo_v + val(v)), so the
    climb ends.

    The failing levels at the bottom are settled by one bisection. Let
    s = sum(lo_v) and, for 0 <= k <= sum(val(v)), chain(k) the
    lexicographically first twist of level s + k in the ceiling box: fill
    from the last component, each up to val(v). It is the first twist
    level s + k's walk probes, and chain(k) <= chain(k + 1) in every
    coordinate. h0 never falls as one coordinate rises (multiplying by
    the section of O(p), p a smooth point of that component, is injective
    on sections), so the k with h0(chain(k)) = 0 are an interval [0, K];
    chain(0) is the all-floors twist, which has none. Levels s + 1 ..
    s + K each fail at their first twist, chain(k), so the climb resumes
    at s + K + 1 with witness chain(K), where the level-by-level climb
    stands after walking them. The floors T - R and V, each at most h0,
    never fall along the chain either, so the least k with a positive
    floor, `bad`, is bisected with no rank, and K < bad. K = bad - 1 is
    probed first, the usual case; otherwise K is bisected on counts. No
    level is walked twice. Level s + K is not walked, so level s + K + 1
    finds no record below it; none is needed, since chain(K) is the first
    twist of its box and a record of it would skip nothing.
    """
    system = SectionSystem(bundle)
    comps, lo, val = bundle.curve.components, system.lo, system.val

    def chain(k):
        md = dict(lo)
        for v in reversed(comps):
            step = min(k, val[v])
            md[v] += step
            k -= step
        return md

    # k = bad - 1, with bad the least j >= 1 whose floor is positive
    # (sum(val) + 1 if none); then, if chain(k) has a section, K is the
    # least j >= 1 with one, less one
    k = bisect_left(range(1, sum(val.values()) + 1), True,
                    key=lambda j: system.floor(chain(j)) > 0)
    if k and system.count(chain(k)):
        k = bisect_left(range(1, k), True,
                        key=lambda j: system.count(chain(j)) > 0)
    e = sum(lo.values()) + k
    witness = chain(k)
    while True:
        e += 1
        found = system.first_failure(e, 1)
        if found is None:
            return -e, witness
        witness = found[0]
