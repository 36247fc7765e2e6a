"""Deciding, certifying and refuting specialization onto a tree.

decide answers whether a bundle with the given generic splitting type can
degenerate to the given glued bundle: ranks and degrees must agree and the
section counts of the tree bundle must dominate the generic ones at every
twist level, with each level reduced to its finite clamp box. The tree
bundle's one section system walks each level for its first failure
(`bundle.SectionSystem.first_failure`), the same walk `dmax` climbs; the
levels Coskun's criterion settles are skipped, so at rank 2 one level
decides.

certify chains split-offs of maximal line subbundles, each found by
`subbundles.find_line_subbundle` after enlarging the curve by bridges,
into a machine-checkable certificate. verify_certificate rechecks it from
scratch, each split-off's maximality with one `first_failure` level and
no `dmax`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bundle import GluedBundle, SectionSystem, h0, pullback, twist
from .curve import md_total
from .splitting import (SplittingType, merge_with_line, remove_line,
                        specializes_p1)
from .subbundles import (LineSubbundle, SubbundleError, _quotient,
                         find_line_subbundle)


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

    Coskun's criterion skips levels. For e <= -d'_2 - 1 only the top
    summand counts, need(e) = d'_1 + e + 1. Once level -d'_1 (need 1)
    passes, dmax(target) >= d'_1, so `find_line_subbundle` gives a line
    subbundle L of degree >= d'_1 in the pullback to an enlargement. For ℓ
    of total degree e, L ⊗ π*ℓ has degree >= d'_1 + e on a tree of
    rational curves, so h0 >= χ = d'_1 + e + 1 = need(e), and those
    sections lie in H0(target ⊗ ℓ) because π contracts chains of rational
    curves. So no level up to -d'_2 - 1 fails, and the walk resumes at
    max(e + 1, -d'_2) (with d'_1 = d'_2 that is e + 1). At rank 2 that is
    past the window: one need-1 level decides. The first failure, and so
    the witness, does not change.
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
    e = max(levels.start, sum(system.lo.values()))
    while e < levels.stop:
        need = source.h0(e)
        found = system.first_failure(e, need)
        if found is not None:
            return Decision(False, FailureWitness(*found, need))
        e = max(e + 1, -ds[1]) if e == -ds[0] else e + 1
    return Decision(True)


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

    A split-off of degree d is checked maximal, d = dmax(cur_t), without a
    `dmax` climb. (>=) Its validated subbundle gives every twist of level
    -d a section, by `decide`'s χ argument. (<=) The levels holding a
    sectionless twist form an interval from the floor (`dmax`), so one at
    level -(d + 1) gives dmax <= d. So `first_failure(-(d + 1), 1)` is None,
    from an empty clamp box too, exactly when d is not maximal.
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
            if SectionSystem(cur_t).first_failure(-(d + 1), 1) is None:
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
