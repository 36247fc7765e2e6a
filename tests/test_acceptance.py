"""Acceptance gate: one test per criterion, each printing its own
pass/fail line with the measured time against the stated bound."""
import random
import time
from fractions import Fraction as F

import pytest

from treebundles.bundle import (clamp_box, clamp_multidegree,
                                contract_pushforward, dmax, h0, h0_oracle, h1,
                                make_bundle, pullback, twist, vanishing_floor)
from treebundles.curve import Edge, TreeCurve, insert_bridge, md_total
from treebundles.sampling import (balanced_splitting, generalize,
                                  random_bundle, random_multidegree,
                                  random_splitting, random_tree, spread)
from treebundles.specialize import (MismatchError, certify, decide,
                                    verify_certificate)
from treebundles.splitting import SplittingType, specializes_p1

from conftest import build_ex


def report(num, name, t0, bound):
    elapsed = time.perf_counter() - t0
    line = "criterion %d (%s): PASS in %.2fs (bound %ds)" % (num, name, elapsed, bound)
    print(line)
    assert elapsed < bound, "criterion %d exceeded its %ds bound: %.2fs" % (num, bound, elapsed)


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_example_decision():
    """decide says yes to (3,1) and refuses (4,0) with witness (-2,-2)."""
    t0 = time.perf_counter()
    ex = build_ex()
    assert decide(ex, SplittingType((3, 1))).yes
    no = decide(ex, SplittingType((4, 0)))
    assert not no.yes
    assert no.witness.multidegree == {"v1": -2, "v2": -2}
    report(1, "example decision", t0, 1)


# -- 2 ------------------------------------------------------------------------

def test_criterion_02_example_cohomology():
    """h0 vanishes at (-2,-2), the whole degree -3 box has sections, dmax = 3."""
    t0 = time.perf_counter()
    ex = build_ex()
    assert h0(twist(ex, {"v1": -2, "v2": -2})) == 0
    for ell in clamp_box(ex, -3):
        assert h0(twist(ex, ell)) > 0
    assert dmax(ex)[0] == 3
    report(2, "example cohomology", t0, 1)


# -- 3 ------------------------------------------------------------------------

def test_criterion_03_certificate_roundtrip():
    """certify(EX, (3,1)) verifies, with one single-bridge enlargement and
    split-off degrees (2, -1, 2) along the enlarged path."""
    t0 = time.perf_counter()
    ex = build_ex()
    cert = certify(ex, SplittingType((3, 1)))
    ok, rep = verify_certificate(cert)
    assert ok, rep
    enlargements = [s for s in cert.steps if type(s).__name__ == "EnlargementStep"]
    assert len(enlargements) == 1
    assert len(enlargements[0].enlargement.contracted) == 1
    split = next(s for s in cert.steps if type(s).__name__ == "SplitOffStep")
    enl = enlargements[0].enlargement
    (walk,) = enl.target_edge_paths
    edges = enl.source.edges
    path = [enl.target.edges[0].a] + [edges[i].b if fwd else edges[i].a
                                      for i, fwd in walk]
    assert [split.subbundle.degrees[v] for v in path] == [2, -1, 2]
    report(3, "certificate roundtrip", t0, 5)


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_rank_one_completeness():
    """200 rank-one instances: decide holds exactly on degree equality."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(200):
        curve = random_tree(rng, rng.randint(1, 4))
        bundle = random_bundle(rng, curve, 1, lo=-3, hi=3)
        d = bundle.degree() + rng.randint(-3, 3)
        if d == bundle.degree():
            assert decide(bundle, SplittingType((d,))).yes
        else:
            with pytest.raises(MismatchError):
                decide(bundle, SplittingType((d,)))
    report(4, "rank-one completeness", t0, 10)


# -- 5 ------------------------------------------------------------------------

def test_criterion_05_single_component_dominance():
    """500 splitting-type pairs: decide on one component is partial-sum
    dominance."""
    t0 = time.perf_counter()
    rng = random.Random(102)
    curve = TreeCurve(("v",), ())
    decided = 0
    for k in range(500):
        r = rng.randint(1, 5)
        src = random_splitting(rng, r, lo=-6, hi=6)
        tgt = spread(rng, src, rng.randint(0, 4)) if k % 2 == 0 \
            else random_splitting(rng, r, lo=-6, hi=6)
        bundle = make_bundle(curve, {"v": tgt.degrees}, {})
        if src.degree != tgt.degree:
            assert not specializes_p1(src, tgt)
            with pytest.raises(MismatchError):
                decide(bundle, src)
            continue
        assert decide(bundle, src).yes == specializes_p1(src, tgt)
        decided += 1
    assert decided >= 250
    report(5, "single-component dominance", t0, 10)


# -- 6 and 7 share one corpus ---------------------------------------------------

_corpus_cache = {}


def corpus():
    if _corpus_cache:
        return _corpus_cache
    rng = random.Random(103)
    entries = []
    t0 = time.perf_counter()
    for _ in range(500):
        curve = random_tree(rng, rng.randint(1, 4))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-3, hi=3)
        twists = []
        for _ in range(5):
            md = random_multidegree(rng, curve, lo=-2, hi=2)
            twisted = twist(bundle, md)
            twists.append((twisted, h0(twisted), h1(twisted), h0_oracle(twisted)))
        v = rng.choice(curve.components)
        up = twist(bundle, {w: int(w == v) for w in curve.components})
        entries.append((bundle, twists, h0(bundle), h0(up)))
    _corpus_cache["entries"] = entries
    _corpus_cache["elapsed"] = time.perf_counter() - t0
    return _corpus_cache


def test_criterion_06_oracle_equivalence():
    """500 seeded bundles, 5 twists each: h0 equals the interpolation oracle."""
    data = corpus()
    t0 = time.perf_counter() - data["elapsed"]
    for bundle, twists, _, _ in data["entries"]:
        for twisted, fast, _, oracle in twists:
            assert fast == oracle
    report(6, "oracle equivalence", t0, 120)


def test_criterion_07_euler_and_monotonicity():
    """Same corpus: h0 - h1 = deg + rank, and a unit twist up moves h0 by
    at most the rank, never down."""
    t0 = time.perf_counter()
    data = corpus()
    for bundle, twists, base_h0, up_h0 in data["entries"]:
        for twisted, fast, h1_val, _ in twists:
            assert fast - h1_val == twisted.degree() + twisted.rank
        assert 0 <= up_h0 - base_h0 <= bundle.rank
    report(7, "euler and monotonicity", t0, 120)


# -- 8 ------------------------------------------------------------------------

def test_criterion_08_box_completeness():
    """100 instances: failing multidegrees in the widened box (margin 3 per
    coordinate, 3 extra levels) clamp onto the box's own failures, and the
    two scans agree inside the box."""
    t0 = time.perf_counter()
    rng = random.Random(104)
    for _ in range(100):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        d, _ = dmax(bundle)
        floors = vanishing_floor(bundle)
        wide = twist(bundle, {v: 3 for v in curve.components})
        key = lambda md: tuple(md[v] for v in curve.components)
        for lev in range(-d - 4, -d):
            in_fail = {key(md) for md in clamp_box(bundle, lev)
                       if h0(twist(bundle, md)) == 0}
            wide_fail = [md for md in clamp_box(wide, lev)
                         if h0(twist(bundle, md)) == 0]
            for md in wide_fail:
                clamped = clamp_multidegree(bundle, md)
                assert h0(twist(bundle, clamped)) == 0
            inside = {key(md) for md in wide_fail
                      if all(md[v] >= floors[v] for v in md)}
            assert inside == in_fail
    report(8, "box completeness", t0, 300)


# -- 9 ------------------------------------------------------------------------

def test_criterion_09_transitivity():
    """300 triples: specializes_p1(A,B) and decide(T,B) imply decide(T,A)."""
    t0 = time.perf_counter()
    rng = random.Random(105)
    done = 0
    while done < 300:
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(2, 3), lo=-2, hi=2)
        b = spread(rng, balanced_splitting(bundle.rank, bundle.degree()),
                   rng.randint(0, 2))
        if not decide(bundle, b).yes:
            b = balanced_splitting(bundle.rank, bundle.degree())
            assert decide(bundle, b).yes
        a = generalize(rng, b, rng.randint(1, 2))
        assert specializes_p1(a, b)
        assert decide(bundle, a).yes
        done += 1
    report(9, "transitivity", t0, 120)


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_pushforward_consistency():
    """200 bundles: pullback then contract is the identity and h0 of three
    random twists matches across the bridge."""
    t0 = time.perf_counter()
    rng = random.Random(106)
    for _ in range(200):
        curve = random_tree(rng, rng.randint(2, 4))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        edge = rng.randrange(len(curve.edges))
        grown, step = insert_bridge(curve, edge)
        up = pullback(bundle, step)
        assert contract_pushforward(up, step) == bundle
        (bid,) = step.contracted
        for _ in range(3):
            md = random_multidegree(rng, curve, lo=-2, hi=1)
            up_md = dict(md)
            up_md[bid] = 0
            assert h0(twist(bundle, md)) == h0(twist(up, up_md))
    report(10, "pushforward consistency", t0, 60)
