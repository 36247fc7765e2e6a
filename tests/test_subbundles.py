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
from treebundles.subbundles import (LineSubbundle, SubbundleError,
                                    _kernel_generators, _quotient,
                                    _quotient_by_generators, quotient_bundle,
                                    saturate)

from conftest import field_sections, projections
from reference_linalg import (evaluate, gcd_monic, kernel_generators, mat_vec,
                              matrix_rank)


def line_sub_of_ex(ex):
    # the constant first-summand direction, degrees (2, 0)
    return LineSubbundle(ex,
                         {"v1": 2, "v2": 0},
                         {"v1": [[F(1)], []], "v2": [[F(1)], []]},
                         {0: F(1)})


def test_validate_accepts_good_subbundle(ex_bundle):
    sub = line_sub_of_ex(ex_bundle).validate()
    assert sub.degree() == 2
    assert sub.multidegree() == {"v1": 2, "v2": 0}
    assert [evaluate(p, F(5), F(0)) for p in sub.embeddings["v1"]] == [F(1), F(0)]


def test_as_line_bundle(ex_bundle):
    lb = line_sub_of_ex(ex_bundle).as_line_bundle()
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
    sub = line_sub_of_ex(ex_bundle)
    sub.embeddings["v2"] = [[], []]
    with pytest.raises(SubbundleError, match="identically zero"):
        sub.validate()


def test_validate_rejects_common_zero(ex_bundle):
    # both coordinates divisible by x, so the map drops rank at 0
    sub = LineSubbundle(ex_bundle,
                        {"v1": 1, "v2": 0},
                        {"v1": [[F(0), F(1)], []], "v2": [[F(1)], []]},
                        {0: F(1)})
    with pytest.raises(SubbundleError, match="common zero"):
        sub.validate()


def test_validate_rejects_vanishing_at_infinity(ex_bundle):
    # no coordinate reaches its degree bound, so the homogenization does
    sub = LineSubbundle(ex_bundle,
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
    line = sub.as_line_bundle()
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


def test_kernel_generators_match_the_field_reference():
    # random embeddings with no common zero, also at infinity, so the
    # kernel is free of rank r - 1; over Q with denominators, and mod 7
    rng = random.Random(45)
    for fld in (RationalField(), PrimeField(7)):
        done = 0
        while done < 40:
            r = rng.randint(2, 4)
            ms = [rng.randint(-2, 3) for _ in range(r)]
            a = min(ms) - rng.randint(0, 2)
            phis = [poly.trim([fld.of(rng.randint(-3, 3))
                               / fld.of(rng.choice((1, 1, 2, 3)))
                               for _ in range(m - a + 1)]) for m in ms]
            if not any(p and poly.degree(p) == m - a
                       for p, m in zip(phis, ms)):
                continue
            g = []
            for p in phis:
                if p:
                    g = gcd_monic(g, p, fld.zero)
            if poly.degree(g) != 0:
                continue
            got = []
            iphis = cleared(phis, fld.char)[0]
            for b, blocks, den in _kernel_generators(fld.char, ms, a, iphis, r - 1):
                got.append((b, [poly.trim([element(x, den, fld.char)
                                           for x in g]) for g in blocks]))
            assert got == kernel_generators(fld, ms, a, phis, r - 1)
            done += 1


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
        scaled = LineSubbundle(
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
