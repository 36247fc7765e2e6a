"""Deciding specialization, maximal line subbundles, certificates."""
import itertools
import random
import time
from fractions import Fraction as F

import pytest

from treebundles import linalg, specialize
from treebundles.bundle import (SectionSystem, clamp_box, dmax, h0, level_box,
                                make_bundle, pullback, restrict_bundle,
                                section_basis, twist)
from treebundles.curve import Edge, Enlargement, TreeCurve, md_total
from treebundles.fields import PrimeField
from treebundles.sampling import (balanced_splitting, generalize,
                                  random_bundle, random_invertible,
                                  random_multidegree, random_splitting,
                                  random_tree, spread)
from treebundles.specialize import (Certificate, Decision, DominanceStep,
                                    EnlargementStep, FailureWitness,
                                    MismatchError, RankOneBase, SplitOffStep,
                                    _bridgeless, _cut_assembly,
                                    _max_support_section, _nonzero_components,
                                    _restricted_dmax, certify, decide,
                                    find_line_subbundle, verify_certificate)
from treebundles.splitting import SplittingType, specializes_p1
from treebundles.subbundles import LineSubbundle

from conftest import build_chain, build_ex, build_swap, regression_bundle

I2 = [[F(1), F(0)], [F(0), F(1)]]


def build_dip():
    """Chain whose middle O(1) + O(-1) sits between two O(1) + O(2) ends,
    glued by the identity: dmax = 3 is reached with no bridge in several
    ways, and by bridging one edge or both."""
    return build_chain(("v1", "v2", "v3"),
                       {"v1": (1, 2), "v2": (1, -1), "v3": (1, 2)},
                       {0: I2, 1: I2})


# -- decide -------------------------------------------------------------------

def test_decide_goldens(ex_bundle):
    assert decide(ex_bundle, SplittingType((3, 1))).yes
    assert decide(ex_bundle, SplittingType((2, 2))).yes
    no = decide(ex_bundle, SplittingType((4, 0)))
    assert not no.yes and not no
    assert no.witness == FailureWitness({"v1": -2, "v2": -2}, 0, 1)
    assert no.witness.level == -4


def test_decide_starts_the_window_at_the_clamp_box(ex_bundle):
    # the window starts at -d'_1 = -(D + 2), but every level below
    # sum(lo_v) = -6 has an empty clamp box; the first failure is at -6
    D = 10 ** 7
    source = SplittingType((D + 2, 2 - D))
    witness = FailureWitness({"v1": -3, "v2": -3}, 0, D - 3)
    t0 = time.perf_counter()
    assert decide(ex_bundle, source) == Decision(False, witness)
    assert certify(ex_bundle, source).steps == (witness,)
    assert time.perf_counter() - t0 < 1.0


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


def _decide_by_full_clamp_boxes(target, source):
    """Reference: every level of the window, every entry of its uncapped
    clamp box in lexicographic order, h0 of each twist built afresh."""
    ds = source.degrees
    for e in range(-ds[0], -ds[-1] - 1):
        need = source.h0(e)
        for ell in clamp_box(target, e):
            have = h0(twist(target, ell))
            if have < need:
                return Decision(False, FailureWitness(ell, have, need))
    return Decision(True)


def test_decide_against_the_full_clamp_box_scan():
    rng = random.Random(56)
    fields = (None, PrimeField(1000003), PrimeField(7))
    answers = set()
    for k in range(36):
        n = 2 + (k // 3) % 6
        curve = random_tree(rng, n, fields[k % 3])
        # close summands per component keep the reference's boxes small
        r, gap = (3, 2) if n <= 4 else (2, 2 if n == 5 else 1)
        spl = {}
        for v in curve.components:
            base = rng.randint(-2, 2)
            spl[v] = tuple(base + rng.randint(0, gap) for _ in range(r))
        gluings = {i: random_invertible(rng, curve.field, r)
                   for i in range(len(curve.edges))}
        bundle = make_bundle(curve, spl, gluings)
        src = spread(rng, balanced_splitting(r, bundle.degree()), 1)
        got, want = decide(bundle, src), _decide_by_full_clamp_boxes(bundle, src)
        # verdict, witness multidegree (with its key order), lhs and rhs
        assert got == want
        if not got.yes:
            assert list(got.witness.multidegree) == list(curve.components)
        answers.add(got.yes)
    assert answers == {True, False}


def _count_bareiss_calls(monkeypatch):
    calls = []
    rank = linalg.bareiss_rank

    def counted(rows, ncols):
        calls.append(ncols)
        return rank(rows, ncols)

    # linalg.rank looks the route up in linalg
    monkeypatch.setattr(linalg, "bareiss_rank", counted)
    return calls


def test_decide_rank_calls_do_not_grow_with_the_degree(monkeypatch):
    # the floor settles most twists here but not all; the rest read ranks
    # memoised on clamped states, which do not depend on the degree
    calls = _count_bareiss_calls(monkeypatch)
    g = [[F(1), F(1)], [F(0), F(1)]]
    seen = []
    for degree in (10 ** 3, 10 ** 4):
        bundle = build_chain(("v1", "v2", "v3"),
                             {"v1": (degree + 3, degree + 1), "v2": (3, 1),
                              "v3": (-degree + 3, -degree + 2)},
                             {0: g, 1: g})
        calls.clear()
        assert decide(bundle, SplittingType((9, 4))).yes
        seen.append(len(calls))
    assert seen[0] == seen[1] > 0


def _record_floor_probes(monkeypatch):
    probes = []
    floor = SectionSystem.floor

    def recording(self, md):
        probes.append((self, dict(md)))
        return floor(self, md)

    monkeypatch.setattr(SectionSystem, "floor", recording)
    return probes


def test_decide_walks_need_one_levels_under_the_ceiling(monkeypatch):
    # where one section is needed the first failure is sectionless, so it
    # lies under the ceiling lo_v + val(v) on every coordinate, the last
    # one included, and no twist above it is probed
    probes = _record_floor_probes(monkeypatch)
    rng = random.Random(57)
    fields = (None, PrimeField(1000003), PrimeField(7))
    seen = 0
    for k in range(30):
        curve = random_tree(rng, rng.randint(2, 5), fields[k % 3])
        bundle = random_bundle(rng, curve, rng.randint(2, 3), lo=-2, hi=2)
        src = spread(rng, balanced_splitting(bundle.rank, bundle.degree()), 1)
        probes.clear()
        decide(bundle, src)
        for system, md in probes:
            if src.h0(md_total(md)) == 1:
                seen += 1
                assert all(md[v] <= system.lo[v] + system.val[v] for v in md)
    assert seen > 20


def test_decide_probes_on_a_degree_spread_stay_within_the_walk(monkeypatch):
    # (D, -D), (0, 0) against (D, -D): about 2D levels of about D twists,
    # quadratic in D; the walk with every level's last coordinate uncapped
    # probed 5,148 floors at D = 50 and 20,298 at D = 100
    probes = _record_floor_probes(monkeypatch)
    curve = TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))
    for degree, most in ((50, 5148), (100, 20298)):
        bundle = make_bundle(curve, {"v1": (degree, -degree), "v2": (0, 0)},
                             {0: I2})
        probes.clear()
        assert decide(bundle, SplittingType((degree, -degree))).yes
        assert 0 < len(probes) <= most


def test_decide_settles_a_spread_level_without_ranks(monkeypatch):
    # the one level's clamp box has about 2 * 10^6 twists, and the least
    # T - R over it is 10^6 - 1 sections, far above the 1 required
    degree = 10 ** 6
    curve = TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))
    bundle = make_bundle(curve, {"v1": (degree, -degree), "v2": (0, 0)},
                         {0: [[F(1), F(0)], [F(0), F(1)]]})
    # counted from here: make_bundle's invertibility test is a rank too
    calls = _count_bareiss_calls(monkeypatch)
    t0 = time.perf_counter()
    assert decide(bundle, SplittingType((1, -1))).yes
    assert time.perf_counter() - t0 < 1.0
    assert calls == []


# -- maximal line subbundles ----------------------------------------------------

def test_find_line_subbundle_ex_golden(ex_bundle):
    enl, sub = find_line_subbundle(ex_bundle)
    assert enl.contracted == frozenset({"v1+v2"})
    assert sub.degrees == {"v1": 2, "v2": 2, "v1+v2": -1}
    assert sub.degree() == dmax(ex_bundle)[0]
    # the walk of the one target edge crosses the bridge as (2, -1, 2)
    (walk,) = enl.target_edge_paths()
    edges = enl.source.edges
    path = [enl.target.edges[0].a] + [edges[i].b if fwd else edges[i].a
                                      for i, fwd in walk]
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


def test_level_box_on_a_long_chain():
    # one coordinate per component, with no recursion to run out of
    n = 3000
    ids = ["c%d" % i for i in range(n)]
    lo = dict.fromkeys(ids, -1)
    hi = dict.fromkeys(ids, 0)
    first = next(level_box(ids, lo, hi, 1 - n))
    assert list(first) == ids and first[ids[-1]] == 0
    assert sum(first.values()) == 1 - n
    assert list(level_box(ids, lo, None, -n)) == [lo]


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


def test_bridgeless_takes_the_first_working_slack():
    # slacks are tried in ascending lexicographic order: on the two-component
    # bundle both (2, 1) and (1, 2) carry a degree-3 subbundle, and on the
    # dip chain (2, -1, 2) and (1, 1, 1) both do, after (2, 1, 0), whose
    # co-twist has sections but none that saturates
    curve = TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))
    mixed = make_bundle(curve, {"v1": (2, 1), "v2": (1, 2)}, {0: I2})
    assert dmax(mixed)[0] == 3
    plan = _bridgeless(mixed, 3)
    assert plan.degrees == {"v1": 2, "v2": 1}
    assert plan.polys == {"v1": [[1], []], "v2": [[1], []]}
    dip = build_dip()
    assert dmax(dip)[0] == 3
    plan = _bridgeless(dip, 3)
    assert plan.degrees == {"v1": 2, "v2": -1, "v3": 2}
    assert plan.polys == {"v1": [[], [1]], "v2": [[0, -1, 1], [1]],
                          "v3": [[], [1]]}
    assert not plan.bridges


def test_bridgeless_builds_one_section_system(monkeypatch):
    # one system per call serves every candidate's count; only candidates
    # with sections are twisted
    systems, counted = [], []
    init, count = SectionSystem.__init__, SectionSystem.count

    def counting_init(self, b):
        systems.append(b)
        init(self, b)

    def counting_count(self, md):
        counted.append(md)
        return count(self, md)

    monkeypatch.setattr(SectionSystem, "__init__", counting_init)
    monkeypatch.setattr(SectionSystem, "count", counting_count)
    dip = build_dip()
    assert _bridgeless(dip, 3) is not None
    assert systems == [dip]
    # (2, 0, 1) is passed over uncounted: v2's lone O(1) would vanish
    assert counted == [{"v1": -2, "v2": -1, "v3": 0},
                       {"v1": -2, "v2": 1, "v3": -2}]


def test_max_support_section_reaches_where_the_first_basis_vector_does_not():
    # on the example bundle the first basis vector lives on v1 alone, and
    # the max-support combination is nonzero on both components
    ex = build_ex()
    basis = section_basis(ex)
    assert basis[0] == {"v1": [[0, 1], []], "v2": [[], []]}
    assert _max_support_section(ex.field, ex.curve, basis) == {
        "v1": [[1, 1], []], "v2": [[1], []]}


def test_bridgeless_passes_a_slack_only_where_no_section_has_full_support(
        monkeypatch):
    # _bridgeless tries one section per slack, the max-support combination;
    # over Q and over GF(p) with p > n + 1 it is nonzero on the union of the
    # basis' supports, so a slack it passes over has no section nonzero on
    # every component; certify then verify accepts on the same bundles
    picks = []
    pick = specialize._max_support_section

    def recording(field, curve, basis):
        sec = pick(field, curve, basis)
        union = {v for b in basis for v in _nonzero_components(curve, b)}
        picks.append((set(_nonzero_components(curve, sec)), union,
                      len(curve.components)))
        return sec

    monkeypatch.setattr(specialize, "_max_support_section", recording)
    rng = random.Random(59)
    for field, most in ((None, 5), (PrimeField(7), 5), (PrimeField(5), 3)):
        for _ in range(10):
            curve = random_tree(rng, rng.randint(2, most), field)
            bundle = random_bundle(rng, curve, rng.randint(2, 3), lo=-2, hi=2)
            _bridgeless(bundle, dmax(bundle)[0])
            src = balanced_splitting(bundle.rank, bundle.degree())
            ok, report = verify_certificate(certify(bundle, src))
            assert ok, report
    assert all(got == union for got, union, _ in picks)
    passed = [union for got, union, n in picks if len(got) < n]
    assert len(passed) > 10
    assert 0 < len(passed) < len(picks)


def test_side_dmax_is_twist_equivariant():
    # the walk reads each side's dmax untwisted from the search's table and
    # shifts it: dmax(twist(B, w)|S) = dmax(B|S) + sum of w over S, with the
    # witness moved by -w; the shifted value is >= 0 exactly when every
    # total-degree-0 twist of the twisted side has a section
    rng = random.Random(43)
    seen = set()
    for _ in range(30):
        curve = random_tree(rng, rng.randint(2, 4))
        bundle = random_bundle(rng, curve, rng.randint(2, 3))
        w = random_multidegree(rng, curve, -3, 3)
        base = twist(bundle, w)
        dmax_of = _restricted_dmax(bundle)
        for i, e in enumerate(curve.edges):
            members = curve.side_of(i, e.a)
            d, witness = dmax_of(members)
            shifted = d + sum(w[v] for v in members)
            sub = restrict_bundle(base, members)
            assert dmax(sub) == (shifted, {v: witness[v] - w[v] for v in witness})
            box = clamp_box(sub, 0)
            want = bool(box) and all(h0(twist(sub, ell)) > 0 for ell in box)
            assert (shifted >= 0) == want
            seen.add(want)
    assert seen == {True, False}


def test_cut_assembly_bridges_transverse_directions():
    # the swap gluing sends the top direction off itself, so degree 3 needs
    # a bridge between the two local maxima
    bundle = build_swap()
    assert dmax(bundle)[0] == 3
    plan = _cut_assembly(bundle, 3, _restricted_dmax(bundle))
    assert plan is not None
    assert plan.degrees == {"v1": 2, "v2": 2}
    assert len(plan.bridges) == 1 and plan.total() == 3
    a, b, u0, u1 = plan.bridges[0]
    assert {a, b} == {"v1", "v2"}
    # and the full search assembles the same degree with one bridge
    enl, sub = find_line_subbundle(bundle)
    assert sub.degree() == 3
    assert len(enl.contracted) == 1


def test_cut_assembly_scans_cut_sizes_from_the_smallest():
    # on the dip chain the ledger balances with edge 0 cut, with edge 1 cut
    # and with both: blocks {v1}, {v2, v3} at 2 + 2 - 1, and 2 + 1 + 2 - 2;
    # the single cut at edge 0 comes first
    dip = build_dip()
    dmax_of = _restricted_dmax(dip)
    assert [dmax_of(m)[0] for m in (("v1",), ("v2",), ("v2", "v3"))] == [2, 1, 2]
    plan = _cut_assembly(dip, 3, dmax_of)
    assert plan.degrees == {"v1": 2, "v2": 1, "v3": 1}
    assert plan.scalars == {("v2", "v3"): 1}
    assert plan.bridges == [("v1", "v2", [0, 1], [1, 0])]


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


def test_verify_validates_each_enlargement_once(ex_bundle, monkeypatch):
    cert = certify(ex_bundle, SplittingType((3, 1)))
    calls = []
    validate = Enlargement.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(Enlargement, "validate", counted)
    assert verify_certificate(cert) == (True, [])
    assert calls == [cert.steps[1].enlargement]


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
