"""Deciding, certifying and refuting specialization onto a tree.

decide answers whether a bundle with the given generic splitting type can
degenerate to the given glued bundle: ranks and degrees must agree and the
section counts of the tree bundle must dominate the generic ones at every
twist level, with each level reduced to its finite clamp box.

find_line_subbundle realizes the maximal line subbundle degree after
enlarging the curve by bridges, and certify chains split-offs of such
subbundles into a machine-checkable certificate.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import poly
from .bundle import (GluedBundle, clamp_box, dmax, h0, level_box, pullback,
                     restrict_bundle, section_basis, twist)
from .curve import (compose_enlargements, identity_enlargement, insert_bridge,
                    md_total)
from .linalg import mat_vec
from .splitting import (SplittingType, merge_with_line, remove_line,
                        specializes_p1)
from .subbundles import (LineSubbundle, SubbundleError, _direction_scalar,
                         quotient_bundle, saturate)


class MismatchError(ValueError):
    """Rank or degree differs between the two sides; the question is ill-posed."""


@dataclass(frozen=True)
class FailureWitness:
    """A twist where the tree bundle has fewer sections than required."""
    multidegree: dict
    lhs: int
    rhs: int

    @property
    def level(self):
        return md_total(self.multidegree)


@dataclass(frozen=True)
class Decision:
    yes: bool
    witness: FailureWitness | None = None

    def __bool__(self):
        return self.yes


def decide(target: GluedBundle, source: SplittingType) -> Decision:
    """Can a bundle of generic type `source` degenerate to `target`?

    Checks h0(target ⊗ ℓ) >= h0(P1, source(e)) for every level e in the
    window [-d'_1, -d'_r - 2] and every ℓ in the level's clamp box; failures
    outside a box clamp into one, and outside the window the inequality is
    forced by chi, so the scan is complete. The first failure (levels
    ascending, boxes lexicographic) is returned as the witness.
    """
    if target.rank != source.rank:
        raise MismatchError("rank %d vs %d" % (target.rank, source.rank))
    if target.degree() != source.degree:
        raise MismatchError("degree %d vs %d" % (target.degree(), source.degree))
    ds = source.degrees
    for e in range(-ds[0], -ds[-1] - 1):
        need = source.h0(e)
        for ell in clamp_box(target, e):
            have = h0(twist(target, ell))
            if have < need:
                return Decision(False, FailureWitness(ell, have, need))
    return Decision(True)


# -- maximal-degree line subbundles ------------------------------------------

@dataclass
class _Plan:
    """Line-subbundle data relative to one bundle, before any curve surgery.

    degrees and polys cover the bundle's components; scalars are keyed by
    (a, b) component-id pairs of surviving original edges; bridges records
    (a, b, u0, u1) junctions to be realized by inserting a component whose
    embedding interpolates the two fiber vectors.
    """
    degrees: dict
    polys: dict
    scalars: dict
    bridges: list

    def total(self):
        return sum(self.degrees.values()) - len(self.bridges)


def _merge_plans(*plans):
    degrees, polys, scalars, bridges = {}, {}, {}, []
    for p in plans:
        assert not set(degrees) & set(p.degrees)
        degrees.update(p.degrees)
        polys.update(p.polys)
        scalars.update(p.scalars)
        bridges.extend(p.bridges)
    return _Plan(degrees, polys, scalars, bridges)


def _shift_degrees(plan, shift):
    plan.degrees = {v: a - shift[v] for v, a in plan.degrees.items()}
    return plan


def _nonzero_components(curve, section):
    return [v for v in curve.components
            if any(poly.trim(p) for p in section[v])]


def _best_section(curve, basis):
    """First basis element nonzero on the most components."""
    best, best_count = None, -1
    for sec in basis.sections:
        count = len(_nonzero_components(curve, sec))
        if count > best_count:
            best, best_count = sec, count
    return best


def _combine_support(field, curve, sec, other):
    """sec + c*other for the first scalar c keeping every component of
    either support alive; falls back to sec if no scalar works (only
    possible over a field smaller than the component count)."""
    sup_s = set(_nonzero_components(curve, sec))
    sup_o = set(_nonzero_components(curve, other))
    if sup_o <= sup_s:
        return sec
    shared = sup_s & sup_o
    for c in range(1, len(shared) + 2):
        if field.char and c >= field.char:
            break
        lam = field.of(c)
        cand = {v: [poly.add(sec[v][i], poly.scale(other[v][i], lam), field.zero)
                    for i in range(len(sec[v]))]
                for v in curve.components}
        if all(any(poly.trim(p) for p in cand[v]) for v in shared):
            return cand
    return sec


def _max_support_section(field, curve, basis):
    """Deterministic combination of the basis nonzero on every component
    the full section space allows."""
    if not basis.sections:
        return None
    sec = basis.sections[0]
    for other in basis.sections[1:]:
        sec = _combine_support(field, curve, sec, other)
    return sec


def _combine(field, curve, basis, coeffs):
    acc = {v: [poly.scale(p, coeffs[0]) for p in basis.sections[0][v]]
           for v in curve.components}
    for c, b in zip(coeffs[1:], basis.sections[1:]):
        acc = {v: [poly.add(acc[v][i], poly.scale(b[v][i], c), field.zero)
                   for i in range(len(acc[v]))]
               for v in curve.components}
    return acc


def _section_candidates(field, curve, basis):
    """Sections worth trying when one with special structure is needed:
    the max-support combination, the basis itself, power-weighted sums
    lambda^i * b_i over small lambda, then seeded random combinations
    whose coefficient span outweighs the degree of any failure locus."""
    best = _max_support_section(field, curve, basis)
    if best is not None:
        yield best
    for sec in basis.sections:
        yield sec
    n = len(basis.sections)
    if n < 2:
        return
    for lam in range(2, 2 * n + len(curve.components) + 4):
        if field.char and lam >= field.char:
            break
        coeffs = [field.one]
        for _ in range(n - 1):
            coeffs.append(coeffs[-1] * field.of(lam))
        yield _combine(field, curve, basis, coeffs)
    slots = sum(m + 1 for ds in basis.bundle.splittings.values()
                for m in ds if m >= 0)
    span = 8 * (slots + n) ** 2 + 64
    if field.char:
        span = min(span, field.char)
    if span < 3:
        return
    rng = random.Random(0x5eed)
    for _ in range(48):
        coeffs = [field.of(rng.randrange(1, span)) for _ in range(n)]
        yield _combine(field, curve, basis, coeffs)


def _in_s(base, members, sides):
    """Does every total-degree-0 twist of the restriction have a section?

    That is, is its dmax >= 0; the (dmax, witness) pair is recorded in
    `sides` under the member set.
    """
    measured = dmax(restrict_bundle(base, members))
    sides[frozenset(members)] = measured
    return measured[0] >= 0


def _junction(bundle, edge_index, polys, plan):
    """Tie the two sides of an edge together through the subbundle.

    Transports the a-side fiber vector through the original gluing; if the
    result is independent of the b-side vector the junction becomes a bridge
    interpolating the two, otherwise the sides glue directly with the ratio
    as the edge scalar.
    """
    e = bundle.curve.edges[edge_index]
    zero = bundle.field.zero
    va = [poly.evaluate(p, e.pa, zero) for p in polys[e.a]]
    vb = [poly.evaluate(p, e.pb, zero) for p in polys[e.b]]
    u0 = mat_vec(bundle.gluings[edge_index], va, zero)
    rho = _direction_scalar(bundle.field, u0, vb)
    if rho is not None:
        assert rho, "transported fiber vector vanished"
        plan.scalars[(e.a, e.b)] = rho
    else:
        plan.bridges.append((e.a, e.b, u0, vb))


def _saturation_plan(host, w_eff, section):
    sat = saturate(host, section)
    scalars = {(e.a, e.b): sat.scalars[i]
               for i, e in enumerate(sat.host.curve.edges)}
    plan = _Plan(dict(sat.degrees), {v: [list(p) for p in ps]
                                     for v, ps in sat.embeddings.items()},
                 scalars, [])
    return _shift_degrees(plan, w_eff)


def _search(bundle: GluedBundle, measured=None) -> _Plan:
    """Core of the subbundle search, one recursion level.

    Returns a plan relative to `bundle` whose total degree (bridges count
    -1 each) equals dmax(bundle); `measured` is dmax(bundle) when the caller
    has already computed it. Rank one and single components are
    immediate. Otherwise candidate assemblies are tried in order: the
    zero-locus walk (a +1 bump's section saturates whole, or the tree is
    split at an edge both of whose sides stay sectioned, or along a best
    section's vanishing locus), then surgery-free multidegree enumeration,
    then bridging every edge subset whose blocks account exactly for the
    maximum. The walk alone can come up short when the only maximal
    subbundle follows a chain of forced fiber directions, so the first
    plan landing exactly on dmax(bundle) wins.
    """
    curve = bundle.curve
    one = bundle.field.one
    if bundle.rank == 1:
        degrees = {v: bundle.splittings[v][0] for v in curve.components}
        polys = {v: [[one]] for v in curve.components}
        scalars = {(e.a, e.b): bundle.gluings[i][0][0]
                   for i, e in enumerate(curve.edges)}
        return _Plan(degrees, polys, scalars, [])
    if len(curve.components) == 1:
        v = curve.components[0]
        ms = bundle.splittings[v]
        j = ms.index(max(ms))
        polys = {v: [[one] if i == j else [] for i in range(bundle.rank)]}
        return _Plan({v: ms[j]}, polys, {}, [])

    d, witness = measured or dmax(bundle)
    plan = _walk_candidate(bundle, d, witness)
    if plan is not None and plan.total() == d:
        return plan
    plan = _bridgeless(bundle, d)
    if plan is not None:
        return plan
    plan = _cut_assembly(bundle, d)
    if plan is not None:
        return plan
    raise AssertionError("subbundle search exhausted every assembly shape")


def _walk_candidate(bundle, d, witness):
    """The zero-locus walk; may return None or an undershooting plan."""
    curve = bundle.curve
    base = twist(bundle, witness)

    # a +1 bump somewhere may already have a section with no vanishing
    # components; then its saturation is the whole answer
    for z in curve.components:
        bump = {v: 1 if v == z else 0 for v in curve.components}
        bumped = twist(base, bump)
        sec = _max_support_section(bundle.field, curve, section_basis(bumped))
        if sec is None or len(_nonzero_components(curve, sec)) != len(curve.components):
            continue
        w_eff = {v: witness[v] + bump[v] for v in curve.components}
        try:
            return _saturation_plan(bumped, w_eff, sec)
        except SubbundleError:
            continue

    # neighbor walk: keep moving toward a side that fails, turn-around
    # means both sides of an edge are good, a dead end isolates a component;
    # each side's dmax is kept for the edge split
    sides = {}
    cur, prev = curve.components[0], None
    for _ in range(len(curve.components) + 1):
        nxt = None
        for nb, i in curve.adjacency()[cur]:
            if _in_s(base, curve.side_of(i, cur), sides):
                nxt = nb
                break
        if nxt is None:
            return _case_vanishing(bundle, base, witness, cur)
        if nxt == prev:
            return _case_edge_split(bundle, base, witness,
                                    curve.edge_between(prev, cur), sides)
        prev, cur = cur, nxt
    raise AssertionError("neighbor walk failed to settle")


def _bridgeless(bundle, d):
    """Degree-d line subbundle with no curve surgery, if one exists.

    Any such subbundle sits under the per-component summand maxima, so
    every multidegree a with sum d in that box is tried: a section of the
    bundle co-twisted by a that is nonzero on every component must then be
    nowhere vanishing (a saturation gain would beat dmax), and saturating
    it yields the plan.
    """
    curve = bundle.curve
    comps = curve.components
    maxm = {v: max(bundle.splittings[v]) for v in comps}
    slack_total = sum(maxm.values()) - d
    zeros = dict.fromkeys(comps, 0)
    for slack in level_box(comps, zeros, None, slack_total):
        a = {v: maxm[v] - slack[v] for v in comps}
        feasible = True
        for v in comps:
            active = [m for m in bundle.splittings[v] if m >= a[v]]
            if len(active) == 1 and active[0] > a[v]:
                # a lone coordinate of positive degree always has a zero
                feasible = False
                break
        if not feasible:
            continue
        co = {v: -a[v] for v in comps}
        twisted = twist(bundle, co)
        if h0(twisted) == 0:
            continue
        basis = section_basis(twisted)
        for sec in _section_candidates(bundle.field, curve, basis):
            if len(_nonzero_components(curve, sec)) != len(comps):
                continue
            try:
                plan = _saturation_plan(twisted, co, sec)
            except SubbundleError:
                continue
            assert plan.total() == d, "surgery-free subbundle beat the maximum"
            return plan
    return None


def _cut_assembly(bundle, d):
    """Bridge a subset of edges and solve the blocks independently.

    Complete: a maximal subbundle with bridges at edge set B restricts to
    each block with exactly the block's own maximal degree (anything less
    is beaten by reassembling the blocks' maxima, anything more beats
    dmax), so scanning subsets by size and checking the degree ledger
    finds a workable B whenever one exists.
    """
    curve = bundle.curve
    n_edges = len(curve.edges)
    block_d = {}

    def dmax_of(block):
        if block not in block_d:
            block_d[block] = dmax(restrict_bundle(bundle, block))
        return block_d[block]

    for k in range(1, n_edges + 1):
        for cut in itertools.combinations(range(n_edges), k):
            blocks = curve.pieces(curve.components, cut)
            if sum(dmax_of(b)[0] for b in blocks) - k != d:
                continue
            plan = _merge_plans(*[_search(restrict_bundle(bundle, b), dmax_of(b))
                                  for b in blocks])
            for i in cut:
                _junction(bundle, i, plan.polys, plan)
            assert plan.total() == d, "cut assembly missed the maximal degree"
            return plan
    return None


def _case_edge_split(bundle, base, witness, edge_index, sides):
    """Both sides of this edge admit sections at every degree-0 twist:
    solve each side separately and join across the node. `sides` maps
    each side's member set to the dmax of base restricted to it."""
    e = bundle.curve.edges[edge_index]
    halves = []
    for v in (e.a, e.b):
        side = frozenset(bundle.curve.side_of(edge_index, v))
        halves.append(_search(restrict_bundle(base, side), sides[side]))
    plan = _merge_plans(*halves)
    _shift_degrees(plan, witness)
    _junction(bundle, edge_index, plan.polys, plan)
    return plan


def _case_vanishing(bundle, base, witness, z):
    """No side around z qualifies: a bumped section exists, and its
    vanishing components split off as independently solved subtrees.
    Returns None when the section's shape does not support the surgery."""
    curve = bundle.curve
    bump = {v: 1 if v == z else 0 for v in curve.components}
    bumped = twist(base, bump)
    basis = section_basis(bumped)
    assert basis.sections, "bumped bundle lost its guaranteed section"
    sec = _best_section(curve, basis)
    alive = _nonzero_components(curve, sec)
    assert z in alive, "section vanished where it was forced not to"
    dead = [v for v in curve.components if v not in alive]
    w_eff = {v: witness[v] + bump[v] for v in curve.components}
    if not dead:
        try:
            return _saturation_plan(bumped, w_eff, sec)
        except SubbundleError:
            return None

    # one crossing edge per dead part, i.e. the rest stays connected
    joins = []
    for part in curve.pieces(dead):
        crossing = [i for i, e in enumerate(curve.edges)
                    if (e.a in part) != (e.b in part)]
        if len(crossing) != 1:
            return None
        joins.append((part, crossing[0]))

    host = restrict_bundle(bumped, alive)
    try:
        plan = _saturation_plan(host, {v: w_eff[v] for v in alive},
                                {v: sec[v] for v in alive})
    except SubbundleError:
        return None
    for part, _ in joins:
        sub = _shift_degrees(_search(restrict_bundle(base, part)),
                             {v: witness[v] for v in part})
        plan = _merge_plans(plan, sub)
    for _, i in joins:
        _junction(bundle, i, plan.polys, plan)
    return plan


def find_line_subbundle(bundle: GluedBundle):
    """A line subbundle of maximal total degree, after inserting bridges.

    Returns (enlargement, subbundle); the subbundle lives in the pullback of
    the bundle along the enlargement and its degree is dmax(bundle), with
    every inserted bridge carrying degree -1.
    """
    plan = _search(bundle)
    curve = bundle.curve
    enl = identity_enlargement(curve)
    grown = curve
    bridge_data = {}
    for (a, b, u0, u1) in plan.bridges:
        i = grown.edge_between(a, b)
        assert i is not None, "junction edge disappeared during surgery"
        grown, step = insert_bridge(grown, i)
        bid = next(iter(step.contracted))
        bridge_data[bid] = (u0, u1)
        enl = compose_enlargements(enl, step)
    host = bundle if not plan.bridges else pullback(bundle, enl)

    degrees = dict(plan.degrees)
    polys = {v: plan.polys[v] for v in plan.polys}
    for bid, (u0, u1) in bridge_data.items():
        degrees[bid] = -1
        polys[bid] = [poly.trim([u0[k], u1[k] - u0[k]])
                      for k in range(bundle.rank)]
    scalars = {}
    for i, e in enumerate(grown.edges):
        if (e.a, e.b) in plan.scalars:
            scalars[i] = plan.scalars[(e.a, e.b)]
        elif e.a in bridge_data or e.b in bridge_data:
            scalars[i] = bundle.field.one
    sub = LineSubbundle(host, degrees, polys, scalars).validate()
    return enl, sub


# -- certificates ------------------------------------------------------------

@dataclass(frozen=True)
class DominanceStep:
    source: SplittingType
    target: SplittingType


@dataclass(frozen=True)
class EnlargementStep:
    enlargement: object


@dataclass(frozen=True)
class SplitOffStep:
    subbundle: LineSubbundle
    quotient: GluedBundle
    qprime: SplittingType


@dataclass(frozen=True)
class RankOneBase:
    degree: int


@dataclass(frozen=True)
class Certificate:
    source: SplittingType
    target: GluedBundle
    steps: tuple

    @property
    def is_refutation(self):
        return len(self.steps) == 1 and isinstance(self.steps[0], FailureWitness)


def certify(target: GluedBundle, source: SplittingType) -> Certificate:
    """Build a certificate for decide(target, source), either way.

    A refusal certificate is the failing witness; an affirmative one splits
    off a maximal-degree line subbundle per round: dominate the source by
    merging in the line of degree dmax(target), realize that line inside an
    enlargement of the target, and recurse on the quotients.
    """
    decision = decide(target, source)
    if not decision.yes:
        return Certificate(source, target, (decision.witness,))
    steps = []
    cur_t, cur_s = target, source
    while cur_t.rank > 1:
        enl, sub = find_line_subbundle(cur_t)
        d = sub.degree()
        merged = merge_with_line(cur_s, d)
        steps.append(DominanceStep(cur_s, merged))
        steps.append(EnlargementStep(enl))
        quot = quotient_bundle(sub.host, sub)
        qprime = remove_line(merged, d)
        steps.append(SplitOffStep(sub, quot, qprime))
        cur_t, cur_s = quot, qprime
    steps.append(RankOneBase(cur_s.degree))
    return Certificate(source, target, tuple(steps))


def verify_certificate(cert: Certificate):
    """Recheck every ingredient of a certificate from scratch.

    Returns (ok, report). Nothing derived is trusted: pullbacks, quotients,
    degree bounds and decisions are all recomputed and compared against the
    recorded steps.
    """
    report = []

    def fail(msg):
        report.append(msg)
        return False, report

    src, tgt = cert.source, cert.target
    if not isinstance(src, SplittingType) or not isinstance(tgt, GluedBundle):
        return fail("claim is not a (splitting type, glued bundle) pair")
    if tgt.rank != src.rank or tgt.degree() != src.degree:
        return fail("claim sides disagree in rank or degree")
    if not cert.steps:
        return fail("certificate has no steps")

    if isinstance(cert.steps[0], FailureWitness):
        if len(cert.steps) != 1:
            return fail("refutation must be a single witness step")
        w = cert.steps[0]
        try:
            have = h0(twist(tgt, dict(w.multidegree)))
        except Exception as exc:
            return fail("witness twist is malformed: %s" % exc)
        need = src.h0(md_total(w.multidegree))
        if have != w.lhs or need != w.rhs:
            return fail("witness cohomology does not recompute: %d/%d vs %d/%d"
                        % (have, need, w.lhs, w.rhs))
        if not have < need:
            return fail("witness is not a failure: %d >= %d" % (have, need))
        return True, report

    cur_t, cur_s = tgt, src
    pulled = None
    last = len(cert.steps) - 1
    for k, step in enumerate(cert.steps):
        if isinstance(step, DominanceStep):
            if pulled is not None:
                return fail("step %d: enlargement left unconsumed" % k)
            if step.source != cur_s:
                return fail("step %d: dominance starts from %s, expected %s"
                            % (k, step.source, cur_s))
            if not specializes_p1(step.source, step.target):
                return fail("step %d: %s does not specialize to %s"
                            % (k, step.source, step.target))
            cur_s = step.target
        elif isinstance(step, EnlargementStep):
            if pulled is not None:
                return fail("step %d: two enlargements in a row" % k)
            enl = step.enlargement
            if enl.target != cur_t.curve:
                return fail("step %d: enlargement is not rooted at the current curve" % k)
            problems = enl.validate()
            if problems:
                return fail("step %d: bad enlargement: %s" % (k, "; ".join(problems)))
            pulled = pullback(cur_t, enl)
        elif isinstance(step, SplitOffStep):
            if pulled is None:
                return fail("step %d: split-off without a preceding enlargement" % k)
            sub = step.subbundle
            if sub.host != pulled:
                return fail("step %d: subbundle host is not the pulled-back bundle" % k)
            try:
                sub.validate()
            except SubbundleError as exc:
                return fail("step %d: invalid subbundle: %s" % (k, exc))
            d = sub.degree()
            if d != dmax(cur_t)[0]:
                return fail("step %d: subbundle degree %d is not maximal" % (k, d))
            if quotient_bundle(pulled, sub) != step.quotient:
                return fail("step %d: quotient does not recompute" % k)
            try:
                expected = remove_line(cur_s, d)
            except ValueError as exc:
                return fail("step %d: %s" % (k, exc))
            if expected != step.qprime:
                return fail("step %d: split-off source is %s, expected %s"
                            % (k, step.qprime, expected))
            try:
                sub_decision = decide(step.quotient, step.qprime)
            except MismatchError as exc:
                return fail("step %d: quotient sides mismatch: %s" % (k, exc))
            if not sub_decision.yes:
                return fail("step %d: quotient pair is not a specialization" % k)
            cur_t, cur_s = step.quotient, step.qprime
            pulled = None
        elif isinstance(step, RankOneBase):
            if k != last:
                return fail("step %d: base case before the end" % k)
            if pulled is not None:
                return fail("step %d: enlargement left unconsumed" % k)
            if cur_t.rank != 1 or cur_s.rank != 1:
                return fail("step %d: base case at rank %d/%d"
                            % (k, cur_t.rank, cur_s.rank))
            if cur_t.degree() != step.degree or cur_s.degree != step.degree:
                return fail("step %d: base degrees %d, %d do not match recorded %d"
                            % (k, cur_t.degree(), cur_s.degree, step.degree))
            return True, report
        else:
            return fail("step %d: unknown step kind %r" % (k, type(step).__name__))
    return fail("certificate does not end in a base case")
