"""Deciding, certifying and refuting specialization onto a tree.

decide answers whether a bundle with the given generic splitting type can
degenerate to the given glued bundle: ranks and degrees must agree and the
section counts of the tree bundle must dominate the generic ones at every
twist level, with each level reduced to its finite clamp box. The tree
bundle's one section system walks each level for its first failure
(`bundle.SectionSystem.first_failure`), the same walk `dmax` climbs.

find_line_subbundle realizes the maximal line subbundle degree after
enlarging the curve by bridges, and certify chains split-offs of such
subbundles into a machine-checkable certificate.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import poly
from .bundle import (GluedBundle, SectionSystem, _pullback, dmax, h0,
                     level_box, pullback, restrict_bundle, section_basis,
                     twist)
from .curve import (compose_enlargements, identity_enlargement, insert_bridge,
                    md_total)
from .linalg import cleared, element
from .splitting import (SplittingType, merge_with_line, remove_line,
                        specializes_p1)
from .subbundles import (LineSubbundle, SubbundleError, _direction_scalar,
                         _node_fibres, _quotient, saturate)


class MismatchError(ValueError):
    """Rank or degree differs between the two sides; the question is ill-posed."""


class SplitOffError(ValueError):
    """certify split off a maximal line subbundle whose degree the
    remaining source has no summand of, so no certificate follows from
    that subbundle."""


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
    window [-d'_1, -d'_r - 2] and every ℓ of total degree e; outside the
    window the inequality is forced by chi. Below the vanishing floor lo_v
    a coordinate no longer changes h0, so failures clamp onto the box
    ℓ_v >= lo_v. The first failure (levels ascending, twists in ascending
    lexicographic order along the components) is returned as the witness;
    each level's is `SectionSystem.first_failure` of the target with
    need = h0(P1, source(e)), which has the caps and floors that keep the
    walk short. Levels below sum(lo_v) have an empty clamp box, so the
    window is clipped to start there at the lowest. A balanced source has
    an empty window and needs no section system.
    """
    if target.rank != source.rank:
        raise MismatchError("rank %d vs %d" % (target.rank, source.rank))
    if target.degree() != source.degree:
        raise MismatchError("degree %d vs %d" % (target.degree(), source.degree))
    ds = source.degrees
    levels = range(-ds[0], -ds[-1] - 1)
    if not levels:
        return Decision(True)
    system = SectionSystem(target)
    for e in range(max(levels.start, sum(system.lo.values())), levels.stop):
        need = source.h0(e)
        found = system.first_failure(e, need)
        if found is not None:
            return Decision(False, FailureWitness(*found, need))
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


def _nonzero_components(curve, section):
    return [v for v in curve.components
            if any(poly.trim(p) for p in section[v])]


def _best_section(curve, basis):
    """First basis element nonzero on the most components."""
    best, best_count = None, -1
    for sec in basis:
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
        cand = _combine(field, curve, [sec, other], [field.one, field.of(c)])
        if all(any(poly.trim(p) for p in cand[v]) for v in shared):
            return cand
    return sec


def _max_support_section(field, curve, basis):
    """Deterministic combination of the basis nonzero on every component
    the full section space allows."""
    if not basis:
        return None
    sec = basis[0]
    for other in basis[1:]:
        sec = _combine_support(field, curve, sec, other)
    return sec


def _combine(field, curve, basis, coeffs):
    acc = {v: [poly.scale(p, coeffs[0]) for p in basis[0][v]]
           for v in curve.components}
    for c, b in zip(coeffs[1:], basis[1:]):
        acc = {v: [poly.add(acc[v][i], poly.scale(b[v][i], c), field.zero)
                   for i in range(len(acc[v]))]
               for v in curve.components}
    return acc


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


def _join(bundle, blocks, cut, dmax_of):
    """Solve each block of the curve cut at the `cut` edges on its own,
    then tie the blocks together across every cut edge."""
    plan = _merge_plans(*[_search(restrict_bundle(bundle, b), dmax_of)
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
    p = bundle.field.char
    coords = {v: cleared(plan.polys[v], p) for v in (e.a, e.b)}
    u0, sa, vb, sb = _node_fibres(bundle, edge_index, coords)
    rho = _direction_scalar(p, u0, sa, vb, sb)
    if rho is not None:
        assert rho, "transported fiber vector vanished"
        plan.scalars[(e.a, e.b)] = rho
    else:
        plan.bridges.append((e.a, e.b, [element(x, sa, p) for x in u0],
                             [element(x, sb, p) for x in vb]))


def _saturation_plan(host, w_eff, section):
    # host is twisted by w_eff; the plan's degrees are shifted back
    sat = saturate(host, section)
    degrees = {v: a - w_eff[v] for v, a in sat.degrees.items()}
    scalars = {(e.a, e.b): sat.scalars[i]
               for i, e in enumerate(sat.host.curve.edges)}
    polys = {v: [list(p) for p in ps] for v, ps in sat.embeddings.items()}
    return _Plan(degrees, polys, scalars, [])


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
        w_eff = {v: witness[v] + (1 if v == z else 0) for v in comps}
        bumped = twist(bundle, w_eff)
        basis = section_basis(bumped)
        bumps[z] = (w_eff, bumped, basis)
        sec = _max_support_section(bundle.field, curve, basis)
        if sec is None or len(_nonzero_components(curve, sec)) != len(comps):
            continue
        try:
            return _saturation_plan(bumped, w_eff, sec)
        except SubbundleError:
            continue

    # neighbor walk: keep moving toward a side that fails, turn-around
    # means both sides of an edge are good, a dead end isolates a component
    cur, prev = comps[0], None
    for _ in range(len(comps) + 1):
        nxt = None
        for nb, i in curve.adjacency()[cur]:
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
    every multidegree a with sum d in that box is tried: a section of the
    bundle co-twisted by a that is nonzero on every component must then be
    nowhere vanishing (a saturation gain would beat dmax), and saturating
    it yields the plan.

    Only the max-support combination of each basis is tried. Over Q, or
    GF(p) with p > n + 1, each `_combine_support` step keeps the union of
    its two supports (each component rules out at most one scalar), so a
    section nonzero on every component exists iff that one is. Over a
    smaller field `_cut_assembly`, which is complete, finds the plan.
    """
    curve = bundle.curve
    comps = curve.components
    system = SectionSystem(bundle)
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
        if system.count(co) == 0:
            continue
        twisted = twist(bundle, co)
        sec = _max_support_section(bundle.field, curve,
                                   section_basis(twisted))
        if len(_nonzero_components(curve, sec)) != len(comps):
            continue
        try:
            plan = _saturation_plan(twisted, co, sec)
        except SubbundleError:
            continue
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
    """No side around z qualifies: the bump loop's (w_eff, bumped, basis)
    for z has a section, and its vanishing components split off as
    independently solved subtrees. Returns None when the section's shape
    does not support the surgery."""
    curve = bundle.curve
    w_eff, bumped, basis = bump
    assert basis, "bumped bundle lost its guaranteed section"
    sec = _best_section(curve, basis)
    alive = _nonzero_components(curve, sec)
    assert z in alive, "section vanished where it was forced not to"
    dead = [v for v in curve.components if v not in alive]
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
        plan = _saturation_plan(host, w_eff, {v: sec[v] for v in alive})
    except SubbundleError:
        return None
    plan = _merge_plans(plan, *[_search(restrict_bundle(bundle, part), dmax_of)
                                for part, _ in joins])
    for _, i in joins:
        _junction(bundle, i, plan)
    return plan


def find_line_subbundle(bundle: GluedBundle):
    """A line subbundle of maximal total degree, after inserting bridges.

    Returns (enlargement, subbundle); the subbundle lives in the pullback of
    the bundle along the enlargement and its degree is dmax(bundle), with
    every inserted bridge carrying degree -1.
    """
    plan = _search(bundle, _restricted_dmax(bundle))
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
    enlargement of the target, and recurse on the quotients. Raises
    SplitOffError when a round's line has a degree the merged source has
    no summand of (seen over small primes).
    """
    decision = decide(target, source)
    if not decision.yes:
        return Certificate(source, target, (decision.witness,))
    steps = []
    cur_t, cur_s = target, source
    rounds = 0
    while cur_t.rank > 1:
        rounds += 1
        enl, sub = find_line_subbundle(cur_t)
        d = sub.degree()
        merged = merge_with_line(cur_s, d)
        steps.append(DominanceStep(cur_s, merged))
        steps.append(EnlargementStep(enl))
        # find_line_subbundle has validated sub
        quot = _quotient(sub.host, sub)
        try:
            qprime = remove_line(merged, d)
        except ValueError:
            raise SplitOffError(
                "certify over %s: split-off round %d found a line subbundle "
                "of degree %d, and the remaining source %s has no summand of "
                "that degree" % (target.field.name, rounds, d,
                                 merged)) from None
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
            # rooted and validated just above
            pulled = _pullback(cur_t, enl)
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
            # validated just above
            if _quotient(pulled, sub) != step.quotient:
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
