"""Line subbundles: validation, saturation, quotients, exactness checks."""
import random
from fractions import Fraction as F

import pytest

from treebundles import poly
from treebundles.bundle import (BundleError, clamp_box, h0, h1, make_bundle,
                                twist)
from treebundles.curve import Edge, TreeCurve
from treebundles.fields import PrimeField, RationalField
from treebundles.linalg import cleared, element
from treebundles.sampling import random_bundle, random_tree
from treebundles.subbundles import (SubbundleError, _kernel_generators,
                                    _quotient, _quotient_by_generators,
                                    _saturation_plan, quotient_bundle,
                                    saturate)

from conftest import field_sections, projections
from reference_linalg import (as_line_bundle, evaluate, gcd_monic,
                              kernel_generators, mat_vec, matrix_rank,
                              subbundle_of)


def line_sub_of_ex(ex):
    # the constant first-summand direction, degrees (2, 0)
    return subbundle_of(ex,
                        {"v1": 2, "v2": 0},
                        {"v1": [[F(1)], []], "v2": [[F(1)], []]},
                        {0: F(1)})


def test_validate_accepts_good_subbundle(ex_bundle):
    sub = line_sub_of_ex(ex_bundle).validate()
    assert sub.degree() == 2
    assert sub.multidegree() == {"v1": 2, "v2": 0}
    assert [evaluate(p, F(5), F(0)) for p in sub.embeddings["v1"]] == [F(1), F(0)]


def test_as_line_bundle(ex_bundle):
    lb = as_line_bundle(line_sub_of_ex(ex_bundle))
    assert lb.rank == 1
    assert lb.splittings == {"v1": (2,), "v2": (0,)}
    assert lb.gluings == {0: [[F(1)]]}
    assert h0(lb) == 3


def test_validate_rejects_degree_bound_violation(ex_bundle):
    sub = line_sub_of_ex(ex_bundle)
    sub.degrees["v2"] = 1  # shrinks every budget on v2 below the data
    with pytest.raises(SubbundleError, match="exceeds degree bound"):
        sub.validate()


def test_validate_rejects_zero_embedding(ex_bundle):
    sub = subbundle_of(ex_bundle,
                       {"v1": 2, "v2": 0},
                       {"v1": [[F(1)], []], "v2": [[], []]},
                       {0: F(1)})
    with pytest.raises(SubbundleError, match="identically zero"):
        sub.validate()


def test_validate_rejects_common_zero(ex_bundle):
    # both coordinates divisible by x, so the map drops rank at 0
    sub = subbundle_of(ex_bundle,
                       {"v1": 1, "v2": 0},
                       {"v1": [[F(0), F(1)], []], "v2": [[F(1)], []]},
                       {0: F(1)})
    with pytest.raises(SubbundleError, match="common zero"):
        sub.validate()


def test_validate_rejects_vanishing_at_infinity(ex_bundle):
    # no coordinate reaches its degree bound, so the homogenization does
    sub = subbundle_of(ex_bundle,
                       {"v1": 1, "v2": 0},
                       {"v1": [[F(1)], []], "v2": [[F(1)], []]},
                       {0: F(1)})
    with pytest.raises(SubbundleError, match="vanishes at infinity"):
        sub.validate()


def test_validate_rejects_bad_scalar(ex_bundle):
    sub = line_sub_of_ex(ex_bundle)
    sub.scalars[0] = F(2)
    with pytest.raises(SubbundleError, match="do not match"):
        sub.validate()
    sub.scalars = {}
    with pytest.raises(SubbundleError, match="missing or zero scalar"):
        sub.validate()


# -- saturation ----------------------------------------------------------------

def test_saturate_golden(ex_bundle):
    # (x, 1) on v1 and (0, 1+x) on v2: one finite zero and one at infinity
    sec = {"v1": [[F(0), F(1)], [F(1)]], "v2": [[], [F(1), F(1)]]}
    sub = saturate(ex_bundle, sec)
    assert sub.degrees == {"v1": 0, "v2": 2}
    assert sub.embeddings["v2"] == [[], [F(1)]]
    assert sub.scalars == {0: F(1)}
    assert sub.degree() == 2


def test_saturate_rejects_vanishing_component(ex_bundle):
    sec = {"v1": [[F(0), F(1)], [F(1)]], "v2": [[], []]}
    with pytest.raises(SubbundleError, match="vanishes identically"):
        saturate(ex_bundle, sec)


def test_saturate_rejects_direction_mismatch(ex_bundle):
    # vanishes at the node on both sides with transverse residual directions
    sec = {"v1": [[F(0), F(1)], []], "v2": [[], [F(0), F(1)]]}
    with pytest.raises(SubbundleError, match="directions disagree"):
        saturate(ex_bundle, sec)


def test_saturation_plan_returns_none_where_saturate_raises(ex_bundle):
    # the search's one route from a section to a plan: the two sections
    # `saturate` rejects above, in integers over den 1, give no plan, and so
    # does no section; the golden one gives its plan, degrees shifted back
    zero = {"v1": 0, "v2": 0}
    vanishing = {"v1": [[0, 1], [1]], "v2": [[], []]}
    transverse = {"v1": [[0, 1], []], "v2": [[], [0, 1]]}
    assert _saturation_plan(ex_bundle, zero, vanishing, 1) is None
    assert _saturation_plan(ex_bundle, zero, transverse, 1) is None
    assert _saturation_plan(ex_bundle, zero, None, 1) is None
    golden = {"v1": [[0, 1], [1]], "v2": [[], [1, 1]]}
    plan = _saturation_plan(ex_bundle, {"v1": 1, "v2": 0}, golden, 1)
    assert plan.degrees == {"v1": -1, "v2": 2}
    assert plan.coords["v2"] == ([[], [1]], 1)
    assert plan.scalars == {("v1", "v2"): F(1)} and not plan.bridges


def test_saturate_only_raises_degree():
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(1, 2), lo=-1, hi=2)
        for sec in field_sections(bundle)[:3]:
            if any(not any(poly.trim(p) for p in sec[v])
                   for v in curve.components):
                continue
            try:
                sub = saturate(bundle, sec)
            except SubbundleError:
                continue
            checked += 1
            assert sub.degree() >= 0  # a section twists O in, never out
    assert checked >= 20


# -- quotients -------------------------------------------------------------------

def test_quotient_golden(ex_bundle):
    sec = {"v1": [[F(0), F(1)], [F(1)]], "v2": [[], [F(1), F(1)]]}
    sub = saturate(ex_bundle, sec)
    quot = _quotient(ex_bundle, sub)
    assert quot.rank == 1
    assert quot.splittings == {"v1": (2,), "v2": (0,)}
    assert quot.gluings == {0: [[F(-1)]]}
    assert quot.degree() == ex_bundle.degree() - sub.degree()


def test_quotient_requires_matching_host(ex_bundle):
    sub = line_sub_of_ex(ex_bundle)
    other = twist(ex_bundle, {"v1": 1, "v2": -1})
    with pytest.raises(BundleError, match="does not live"):
        quotient_bundle(other, sub)


def test_quotient_degree_additivity_random():
    rng = random.Random(42)
    from treebundles.specialize import find_line_subbundle
    for _ in range(15):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(2, 3), lo=-2, hi=2)
        enl, sub = find_line_subbundle(bundle)
        quot = quotient_bundle(sub.host, sub)
        assert quot.rank == bundle.rank - 1
        assert quot.degree() == sub.host.degree() - sub.degree()


def test_six_term_euler_exactness(ex_bundle):
    sec = {"v1": [[F(0), F(1)], [F(1)]], "v2": [[], [F(1), F(1)]]}
    sub = saturate(ex_bundle, sec)
    line = as_line_bundle(sub)
    quot = quotient_bundle(ex_bundle, sub)
    for e in (-1, -2, -3, -4):
        for ell in clamp_box(ex_bundle, e):
            alt = (h0(twist(line, ell)) - h0(twist(ex_bundle, ell))
                   + h0(twist(quot, ell)) - h1(twist(line, ell))
                   + h1(twist(ex_bundle, ell)) - h1(twist(quot, ell)))
            assert alt == 0


def test_fiber_surjectivity_with_line_kernel(ex_bundle):
    """At nodes and random points the projection is onto and kills the line."""
    rng = random.Random(43)
    sec = {"v1": [[F(0), F(1)], [F(1)]], "v2": [[], [F(1), F(1)]]}
    sub = saturate(ex_bundle, sec)
    rows = projections(ex_bundle, sub)
    zero = ex_bundle.field.zero
    r = ex_bundle.rank
    points = {v: [F(rng.randint(-20, 20)) for _ in range(5)]
              for v in ex_bundle.curve.components}
    e = ex_bundle.curve.edges[0]
    points["v1"].append(e.pa)
    points["v2"].append(e.pb)
    for v, pts in points.items():
        for t in pts:
            g = [[evaluate(p, t, zero) for p in gens] for gens in rows[v]]
            emb = [evaluate(p, t, zero) for p in sub.embeddings[v]]
            assert mat_vec(g, emb, zero) == [zero] * (r - 1)
            # onto: the (r-1) x r evaluation matrix has full row rank
            assert matrix_rank(g, r) == r - 1


def test_quotient_fiber_checks_random():
    rng = random.Random(44)
    from treebundles.specialize import find_line_subbundle
    ranks = set()
    for _ in range(10):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(2, 3), lo=-2, hi=2)
        enl, sub = find_line_subbundle(bundle)
        host = sub.host
        rows = projections(host, sub)
        ranks.add(host.rank)
        zero = host.field.zero
        r = host.rank
        for v in host.curve.components:
            for _ in range(5):
                t = F(rng.randint(-30, 30))
                g = [[evaluate(p, t, zero) for p in gens] for gens in rows[v]]
                emb = [evaluate(p, t, zero) for p in sub.embeddings[v]]
                assert mat_vec(g, emb, zero) == [zero] * (r - 1)
                assert matrix_rank(g, r) == r - 1
    assert ranks == {2, 3}


def _random_embedding(rng, fld, r, size):
    """(ms, a, phis) of rank r with nonzero coordinates on `size` summands,
    of degree <= m_i - a and with no common zero, also at infinity, so the
    kernel is free of rank r - 1; None where a draw has a common zero. A
    zero summand's degree is drawn below a (which forces its coordinate to
    zero), at a generator degree of the nonzero part (a tie in the merge)
    or at random. Over Q the coefficients have denominators."""
    # the support at random, first or last: a zero summand then falls on
    # either side of a generator's free column
    support = rng.choice((sorted(rng.sample(range(r), size)),
                          range(size), range(r - size, r)))
    ms = [None] * r
    for i in support:
        ms[i] = rng.randint(-2, 3)
    if size == 1:
        a = ms[support[0]]
    else:
        a = min(ms[i] for i in support) - rng.randint(0, 2)
    phis = [[] for _ in range(r)]
    for i in support:
        while not phis[i]:
            phis[i] = poly.trim([fld.of(rng.randint(-3, 3))
                                 / fld.of(rng.choice((1, 1, 2, 3)))
                                 for _ in range(ms[i] - a + 1)])
    if not any(poly.degree(phis[i]) == ms[i] - a for i in support):
        return None
    g = []
    for i in support:
        g = gcd_monic(g, phis[i], fld.zero)
    if poly.degree(g) != 0:
        return None
    part = kernel_generators(fld, [ms[i] for i in support], a,
                             [phis[i] for i in support], size - 1)
    ties = [b for b, _ in part] or [a]
    for z in range(r):
        if ms[z] is None:
            # below a a quarter of the time, at a tie half of it
            ms[z] = rng.choice((rng.randint(a - 3, a - 1), rng.choice(ties),
                                rng.choice(ties), rng.randint(-2, 3)))
    return ms, a, phis


def test_kernel_generators_match_the_field_reference():
    # the generators read off the support (units, and the search on the
    # nonzero coordinates, which gives nothing for one) against the greedy
    # search over all summands on field elements, as rational vectors and
    # in its order, on ranks 3-5 over q, p:7 and p:1000003; a unit
    # generator ties in degree with a searched one on both sides of it, so
    # a merge by degree alone fails
    for fld in (RationalField(), PrimeField(7), PrimeField(1000003)):
        rng = random.Random(45 + fld.char % 1000)
        classes = {1: 0, 2: 0, 3: 0}
        ties = {"unit first": 0, "unit second": 0}
        for k in range(90):
            r = 3 + k % 3
            size = k // 3 % 3 + 1
            drawn = None
            while drawn is None:
                drawn = _random_embedding(rng, fld, r, rng.randint(3, r)
                                          if size == 3 else size)
            ms, a, phis = drawn
            classes[min(3, sum(map(bool, phis)))] += 1
            got = []
            iphis = cleared(phis, fld.char)[0]
            for b, blocks, den in _kernel_generators(fld.char, ms, a, iphis,
                                                     r - 1):
                got.append((b, [poly.trim([element(x, den, fld.char)
                                           for x in g]) for g in blocks]))
            want = kernel_generators(fld, ms, a, phis, r - 1)
            assert got == want
            for (b, x), (c, y) in zip(want, want[1:]):
                units = [sum(map(bool, gens)) == 1 for gens in (x, y)]
                if b == c and units[0] != units[1]:
                    ties["unit first" if units[0] else "unit second"] += 1
        assert min(classes.values()) >= 10 and min(ties.values()) >= 10, \
            (fld, classes, ties)


def test_quotient_generators_run_no_empty_elimination(monkeypatch):
    # a component whose embedding has at most one nonzero coordinate reads
    # its generators off the support with no `integer_kernel` or
    # `integer_rref` call, so a rank-3 or rank-4 quotient with no wider
    # support makes one `integer_rref` per edge (its gluing) and nothing
    # else; the search on two or more makes no call on a system with no
    # rows. The subbundles are the split-offs of seeded certificates; 96
    # cases give 25 quotients of width at most one (48 gave 12).
    from treebundles import subbundles
    from treebundles.sampling import balanced_splitting
    from treebundles.specialize import SplitOffStep, certify
    rng = random.Random(47)
    subs = []
    for k in range(96):
        fld = PrimeField(1000003) if k % 3 == 2 else RationalField()
        bundle = random_bundle(rng, random_tree(rng, 1 + k % 4, fld),
                               3 + k % 2, lo=-2, hi=2)
        cert = certify(bundle, balanced_splitting(bundle.rank, bundle.degree()))
        subs += [s.subbundle for s in cert.steps if isinstance(s, SplitOffStep)
                 and s.subbundle.host.rank > 2]
    calls = []
    for name in ("integer_kernel", "integer_rref"):
        def watched(rows, ncols, p, inner=getattr(subbundles, name), name=name):
            calls.append((name, len(rows)))
            return inner(rows, ncols, p)
        monkeypatch.setattr(subbundles, name, watched)
    narrow = searched = 0
    for sub in subs:
        host = sub.host
        widths = [sum(map(bool, sub.integer_embeddings[v][0]))
                  for v in host.curve.components]
        del calls[:]
        _quotient(host, sub)
        assert all(rows for _, rows in calls)
        if max(widths) <= 1:
            narrow += 1
            assert calls == [("integer_rref", host.rank)] * len(host.curve.edges)
        searched += max(widths) > 1
    assert narrow >= 15 and searched >= 15, (narrow, searched)


@pytest.mark.parametrize("fld", [RationalField(), PrimeField(7),
                                 PrimeField(1000003)], ids=lambda f: f.name)
def test_rank_two_quotient_matches_the_generator_search(fld):
    """The closed form det E (x) L^-1 against the generic route through
    `_kernel_generators`: maximal subbundles of seeded rank-2 bundles,
    bridged hosts included, saturated sections of split bundles, where a
    whole coordinate of the embedding vanishes on some component, and
    copies of each with one component's embedding rescaled."""
    from treebundles.sampling import random_invertible
    from treebundles.specialize import find_line_subbundle
    rng = random.Random(46 + fld.char % 1000)
    subs, bridged, zero_coordinate, both_nonzero = [], 0, 0, 0

    def gluing(split):
        # gluing entries with denominators over Q
        scale = fld.one / fld.of(rng.choice((1, 2, 3, 5)))
        if split:
            return [[fld.of(rng.choice((1, -2, 3))) * scale, fld.zero],
                    [fld.zero, fld.of(rng.choice((-1, 2, 5))) * scale]]
        return [[x * scale for x in row]
                for row in random_invertible(rng, fld, 2)]

    for k in range(40):
        split = k % 2 == 1
        curve = random_tree(rng, rng.randint(1, 4), fld)
        bundle = make_bundle(
            curve, {v: (rng.randint(-2, 2), rng.randint(-2, 2))
                    for v in curve.components},
            {i: gluing(split) for i in range(len(curve.edges))})
        enl, sub = find_line_subbundle(bundle)
        bridged += bool(enl.contracted)
        subs.append(sub)
        if split:
            host = twist(bundle, {v: 1 for v in curve.components})
            for sec in field_sections(host)[:4]:
                try:
                    subs.append(saturate(host, sec))
                except SubbundleError:
                    continue
    # the search and saturation give scalars of +-1 almost always; one
    # component's embedding times c moves the scalars by c (c^-1 where the
    # component is the b side) and leaves the quotient as it is
    c = fld.of(2) / fld.of(3)
    for sub in subs[:]:
        v = rng.choice(sub.host.curve.components)
        scalars = {}
        for i, e in enumerate(sub.host.curve.edges):
            lam = sub.scalars[i]
            scalars[i] = lam * c if e.a == v else lam / c if e.b == v else lam
        scaled = subbundle_of(
            sub.host, sub.degrees,
            {w: [[x * c for x in q] if w == v else q for q in ps]
             for w, ps in sub.embeddings.items()}, scalars).validate()
        assert _quotient(sub.host, scaled) == _quotient(sub.host, sub)
        subs.append(scaled)
    for sub in subs:
        zeros = [[not poly.trim(q) for q in ps] for ps in sub.embeddings.values()]
        zero_coordinate += any(map(any, zeros))
        # a component where the sign and the lead of phi_0 both matter
        both_nonzero += not all(map(any, zeros))
        assert _quotient(sub.host, sub) == _quotient_by_generators(sub.host, sub)
    assert len(subs) >= 30 and bridged >= 5
    assert zero_coordinate >= 5 and both_nonzero >= 5
