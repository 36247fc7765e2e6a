"""Deciding specialization, maximal line subbundles, certificates."""
import itertools
import random
from fractions import Fraction as F

import pytest

from treebundles.bundle import (clamp_box, dmax, h0, level_box, make_bundle,
                                pullback, restrict_bundle, twist)
from treebundles.curve import Edge, TreeCurve, md_total
from treebundles.sampling import (balanced_splitting, generalize,
                                  random_bundle, random_multidegree,
                                  random_splitting, random_tree, spread)
from treebundles.specialize import (Certificate, Decision, DominanceStep,
                                    EnlargementStep, FailureWitness,
                                    MismatchError, RankOneBase, SplitOffStep,
                                    _bridgeless, _cut_assembly,
                                    _in_s, certify, decide,
                                    find_line_subbundle, verify_certificate)
from treebundles.splitting import SplittingType, specializes_p1
from treebundles.subbundles import LineSubbundle


def regression_bundle():
    """Chain whose only maximal subbundle needs both bridges; the zero-locus
    walk undershoots here and the assembly fallbacks must take over."""
    curve = TreeCurve(("v1", "v2", "v3"),
                      (Edge("v1", F(0), "v2", F(0)),
                       Edge("v2", F(1), "v3", F(0))))
    g0 = [[F(-2), F(1), F(3)], [F(-1), F(-2), F(3)], [F(0), F(-3), F(2)]]
    g1 = [[F(-1), F(2), F(-1)], [F(-3), F(1), F(-2)], [F(3), F(1), F(-2)]]
    return make_bundle(curve,
                       {"v1": (-1, -1, 2), "v2": (-2, 1, -2), "v3": (-2, 0, 2)},
                       {0: g0, 1: g1})


# -- decide -------------------------------------------------------------------

def test_decide_goldens(ex_bundle):
    assert decide(ex_bundle, SplittingType((3, 1))).yes
    assert decide(ex_bundle, SplittingType((2, 2))).yes
    no = decide(ex_bundle, SplittingType((4, 0)))
    assert not no.yes and not no
    assert no.witness == FailureWitness({"v1": -2, "v2": -2}, 0, 1)
    assert no.witness.level == -4


def test_decide_mismatch(ex_bundle):
    with pytest.raises(MismatchError, match="rank"):
        decide(ex_bundle, SplittingType((2, 1, 1)))
    with pytest.raises(MismatchError, match="degree"):
        decide(ex_bundle, SplittingType((3, 2)))


def test_decision_is_truthy():
    assert bool(Decision(True)) is True
    assert bool(Decision(False, FailureWitness({"v": 0}, 0, 1))) is False


def test_decide_rank_one_is_degree_equality():
    rng = random.Random(51)
    for _ in range(30):
        curve = random_tree(rng, rng.randint(1, 4))
        bundle = random_bundle(rng, curve, 1, lo=-3, hi=3)
        d = rng.randint(-6, 6)
        if d == bundle.degree():
            assert decide(bundle, SplittingType((d,))).yes
        else:
            with pytest.raises(MismatchError):
                decide(bundle, SplittingType((d,)))


def test_decide_single_component_is_dominance():
    rng = random.Random(52)
    curve = TreeCurve(("v",), ())
    agree = 0
    for _ in range(60):
        r = rng.randint(1, 4)
        src = random_splitting(rng, r, lo=-4, hi=4)
        tgt = spread(rng, src, rng.randint(0, 3)) if rng.random() < 0.7 \
            else random_splitting(rng, r, lo=-4, hi=4)
        bundle = make_bundle(curve, {"v": tgt.degrees}, {})
        if src.degree != tgt.degree:
            with pytest.raises(MismatchError):
                decide(bundle, src)
            continue
        got = decide(bundle, src).yes
        assert got == specializes_p1(src, tgt)
        agree += 1
    assert agree >= 30


def test_decide_twist_equivariance(ex_bundle):
    rng = random.Random(53)
    for _ in range(20):
        e = rng.randint(-2, 2)
        split = rng.randint(-3, 3)
        ell = {"v1": split, "v2": e - split}
        shifted = SplittingType((3 + e, 1 + e))
        assert decide(twist(ex_bundle, ell), shifted).yes == \
            decide(ex_bundle, SplittingType((3, 1))).yes
        bad = SplittingType((4 + e, e))
        lhs = decide(twist(ex_bundle, ell), bad)
        rhs = decide(ex_bundle, SplittingType((4, 0)))
        assert not lhs.yes and not rhs.yes
        # the first witness shifts along with the twist
        assert lhs.witness.multidegree == \
            {v: rhs.witness.multidegree[v] - ell[v] for v in ell}
        assert (lhs.witness.lhs, lhs.witness.rhs) == (rhs.witness.lhs, rhs.witness.rhs)


def test_decide_yes_forces_dmax_bound():
    rng = random.Random(54)
    for _ in range(15):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(2, 3), lo=-2, hi=2)
        src = spread(rng, balanced_splitting(bundle.rank, bundle.degree()),
                     rng.randint(0, 2))
        try:
            decision = decide(bundle, src)
        except MismatchError:
            continue
        if decision.yes:
            assert dmax(bundle)[0] >= src.degrees[0]


def test_decide_balanced_is_always_yes():
    rng = random.Random(55)
    for _ in range(20):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        src = balanced_splitting(bundle.rank, bundle.degree())
        assert decide(bundle, src).yes


# -- maximal line subbundles ----------------------------------------------------

def test_find_line_subbundle_ex_golden(ex_bundle):
    enl, sub = find_line_subbundle(ex_bundle)
    assert enl.contracted == frozenset({"v1+v2"})
    assert sub.degrees == {"v1": 2, "v2": 2, "v1+v2": -1}
    assert sub.degree() == dmax(ex_bundle)[0]
    # path order across the bridge reads (2, -1, 2)
    path = sub.host.curve.path_between("v1", "v2")
    assert [sub.degrees[v] for v in path] == [2, -1, 2]


def test_find_line_subbundle_no_bridge_when_balanced():
    curve = TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))
    bal = make_bundle(curve, {"v1": (1, 1), "v2": (1, 1)},
                      {0: [[F(1), F(0)], [F(0), F(1)]]})
    assert dmax(bal) == (2, {"v1": -2, "v2": -1})
    enl, sub = find_line_subbundle(bal)
    assert enl.contracted == frozenset()
    assert sub.degrees == {"v1": 1, "v2": 1}


def test_find_line_subbundle_matches_dmax_random():
    rng = random.Random(56)
    for _ in range(25):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        d, _ = dmax(bundle)
        enl, sub = find_line_subbundle(bundle)
        assert sub.degree() == d
        assert sub.host == (bundle if not enl.contracted
                            else pullback(bundle, enl))
        for b in enl.contracted:
            assert sub.degrees[b] == -1


def test_regression_forced_double_bridge():
    bundle = regression_bundle()
    assert dmax(bundle) == (3, {"v1": -2, "v2": 0, "v3": -2})
    enl, sub = find_line_subbundle(bundle)
    assert sub.degree() == 3
    assert sub.degrees == {"v1": 2, "v2": 1, "v3": 2,
                           "v1+v2": -1, "v2+v3": -1}
    cert = certify(bundle, SplittingType((-1, -1, -1)))
    assert len(cert.steps) == 7
    ok, report = verify_certificate(cert)
    assert ok, report


# -- the assembly fallbacks, exercised directly ----------------------------------

def test_compositions_order():
    # _bridgeless walks its slack vectors through the shared level enumerator
    def slacks(total, ids):
        return list(level_box(ids, dict.fromkeys(ids, 0), None, total))

    assert slacks(3, "ab") == [{"a": 0, "b": 3}, {"a": 1, "b": 2},
                               {"a": 2, "b": 1}, {"a": 3, "b": 0}]
    assert slacks(0, "abc") == [{"a": 0, "b": 0, "c": 0}]
    assert slacks(2, "a") == [{"a": 2}]
    lo, hi = {"a": -1, "b": 0, "c": 0}, {"a": 1, "b": 1, "c": 2}
    assert list(level_box("abc", lo, hi, 2)) == [
        {"a": -1, "b": 1, "c": 2}, {"a": 0, "b": 0, "c": 2},
        {"a": 0, "b": 1, "c": 1}, {"a": 1, "b": 0, "c": 1},
        {"a": 1, "b": 1, "c": 0}]
    assert list(level_box("abc", lo, hi, sum(hi.values()) + 1)) == []
    # capped levels against a filtered product, keys in component order
    rng = random.Random(41)
    for _ in range(30):
        ids = "abcd"[:rng.randint(1, 4)]
        lo = {v: rng.randint(-2, 1) for v in ids}
        hi = {v: lo[v] + rng.randint(0, 3) for v in ids}
        e = rng.randint(sum(lo.values()) - 1, sum(hi.values()) + 1)
        want = [dict(zip(ids, t)) for t in itertools.product(
                    *(range(lo[v], hi[v] + 1) for v in ids)) if sum(t) == e]
        got = list(level_box(ids, lo, hi, e))
        assert got == want and all(list(md) == list(ids) for md in got)


def test_blocks():
    curve = TreeCurve(("a", "b", "c"),
                      (Edge("a", F(0), "b", F(0)), Edge("b", F(1), "c", F(0))))
    comps = curve.components
    assert curve.pieces(comps, (0,)) == [("a",), ("b", "c")]
    assert curve.pieces(comps, (1,)) == [("a", "b"), ("c",)]
    assert curve.pieces(comps, (0, 1)) == [("a",), ("b",), ("c",)]


def test_bridgeless_finds_constant_direction():
    curve = TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))
    bal = make_bundle(curve, {"v1": (1, 1), "v2": (1, 1)},
                      {0: [[F(1), F(0)], [F(0), F(1)]]})
    plan = _bridgeless(bal, 2)
    assert plan is not None
    assert plan.degrees == {"v1": 1, "v2": 1}
    assert plan.total() == 2 and not plan.bridges


def test_bridgeless_returns_none_when_bridge_required(ex_bundle):
    assert _bridgeless(ex_bundle, 3) is None


def test_in_s_against_the_degree_zero_clamp_box():
    rng = random.Random(43)
    seen = set()
    for _ in range(30):
        curve = random_tree(rng, rng.randint(2, 4))
        bundle = random_bundle(rng, curve, rng.randint(2, 3))
        base = twist(bundle, random_multidegree(rng, curve, -3, 3))
        for i, e in enumerate(curve.edges):
            members = curve.side_of(i, e.a)
            sub = restrict_bundle(base, members)
            box = clamp_box(sub, 0)
            want = bool(box) and all(h0(twist(sub, ell)) > 0 for ell in box)
            assert _in_s(base, members, {}) == want
            seen.add(want)
    assert seen == {True, False}


def test_cut_assembly_bridges_transverse_directions():
    # the swap gluing sends the top direction off itself, so degree 3 needs
    # a bridge between the two local maxima
    curve = TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))
    bundle = make_bundle(curve, {"v1": (2, 0), "v2": (2, 0)},
                         {0: [[F(0), F(1)], [F(1), F(0)]]})
    assert dmax(bundle)[0] == 3
    plan = _cut_assembly(bundle, 3)
    assert plan is not None
    assert plan.degrees == {"v1": 2, "v2": 2}
    assert len(plan.bridges) == 1 and plan.total() == 3
    a, b, u0, u1 = plan.bridges[0]
    assert {a, b} == {"v1", "v2"}
    # and the full search assembles the same degree with one bridge
    enl, sub = find_line_subbundle(bundle)
    assert sub.degree() == 3
    assert len(enl.contracted) == 1


# -- certificates -----------------------------------------------------------------

def test_certify_ex_golden(ex_bundle):
    cert = certify(ex_bundle, SplittingType((3, 1)))
    kinds = [type(s) for s in cert.steps]
    assert kinds == [DominanceStep, EnlargementStep, SplitOffStep, RankOneBase]
    assert not cert.is_refutation
    dom = cert.steps[0]
    assert (dom.source, dom.target) == (SplittingType((3, 1)), SplittingType((3, 1)))
    enl = cert.steps[1].enlargement
    assert enl.contracted == frozenset({"v1+v2"})
    split = cert.steps[2]
    assert split.subbundle.degrees == {"v1": 2, "v2": 2, "v1+v2": -1}
    assert split.quotient.splittings == {"v1": (0,), "v2": (0,), "v1+v2": (1,)}
    assert split.qprime == SplittingType((1,))
    assert cert.steps[3].degree == 1
    ok, report = verify_certificate(cert)
    assert ok and report == []


def test_certify_refutation(ex_bundle):
    cert = certify(ex_bundle, SplittingType((4, 0)))
    assert cert.is_refutation
    assert cert.steps[0] == FailureWitness({"v1": -2, "v2": -2}, 0, 1)
    ok, report = verify_certificate(cert)
    assert ok, report


def test_verify_rejects_tampered_subbundle(ex_bundle):
    cert = certify(ex_bundle, SplittingType((3, 1)))
    split = cert.steps[2]
    sub = split.subbundle
    fake = LineSubbundle(sub.host,
                         dict(sub.degrees, **{"v1+v2": 0}),
                         sub.embeddings, sub.scalars)
    steps = (cert.steps[0], cert.steps[1],
             SplitOffStep(fake, split.quotient, split.qprime), cert.steps[3])
    ok, report = verify_certificate(Certificate(cert.source, cert.target, steps))
    assert not ok and report


def test_verify_rejects_tampered_dominance(ex_bundle):
    cert = certify(ex_bundle, SplittingType((3, 1)))
    steps = (DominanceStep(SplittingType((3, 1)), SplittingType((2, 2))),) \
        + cert.steps[1:]
    ok, report = verify_certificate(Certificate(cert.source, cert.target, steps))
    assert not ok
    assert any("does not specialize" in line for line in report)


def test_verify_rejects_tampered_witness(ex_bundle):
    good = certify(ex_bundle, SplittingType((4, 0)))
    w = good.steps[0]
    bad = Certificate(good.source, good.target,
                      (FailureWitness(w.multidegree, w.lhs + 1, w.rhs),))
    ok, report = verify_certificate(bad)
    assert not ok and "recompute" in report[0]
    # a non-failing "witness" is rejected even if its numbers recompute
    fake = Certificate(good.source, good.target,
                       (FailureWitness({"v1": 0, "v2": 0}, 6, 5),))
    ok2, report2 = verify_certificate(fake)
    assert not ok2


def test_verify_rejects_claim_mismatch(ex_bundle):
    cert = certify(ex_bundle, SplittingType((3, 1)))
    ok, report = verify_certificate(
        Certificate(SplittingType((3, 2)), ex_bundle, cert.steps))
    assert not ok and "disagree" in report[0]
    ok2, _ = verify_certificate(Certificate(cert.source, ex_bundle, ()))
    assert not ok2


def test_certify_roundtrip_random():
    rng = random.Random(57)
    yes = no = 0
    for _ in range(25):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        src = spread(rng, balanced_splitting(bundle.rank, bundle.degree()),
                     rng.randint(0, 3))
        cert = certify(bundle, src)
        ok, report = verify_certificate(cert)
        assert ok, report
        if cert.is_refutation:
            no += 1
            w = cert.steps[0]
            assert h0(twist(bundle, w.multidegree)) == w.lhs < w.rhs
        else:
            yes += 1
    assert yes >= 5 and no >= 1


def test_certify_prime_field_smoke():
    from treebundles.fields import PrimeField
    rng = random.Random(58)
    fld = PrimeField(101)
    curve = random_tree(rng, 2, fld)
    bundle = random_bundle(rng, curve, 2, lo=-1, hi=2)
    cert = certify(bundle, balanced_splitting(2, bundle.degree()))
    ok, report = verify_certificate(cert)
    assert ok, report
