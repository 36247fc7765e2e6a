"""Glued bundles: construction, cohomology, twists, boxes, surgery."""
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from treebundles import linalg, poly
from treebundles.bundle import (BundleError, GluedBundle, SectionSystem,
                                clamp_box, clamp_multidegree,
                                contract_pushforward, dmax, h0, h0_oracle, h1,
                                level_tuples, make_bundle, pullback,
                                restrict_bundle, section_basis, twist,
                                vanishing_floor)
from treebundles.curve import (Edge, Enlargement, TreeCurve,
                               identity_enlargement, insert_bridge, md_total)
from treebundles.fields import PrimeField, RationalField
from treebundles.sampling import (random_bundle, random_invertible,
                                  random_multidegree, random_tree)
from treebundles.serialize import bundle_from_json, bundle_to_json

from conftest import build_chain, build_ex, field_sections, non_integral
from reference_linalg import (_column_layout, _matching_rows, dmax_by_levels,
                              evaluate, invert_matrix, mat_vec, matrix_rank,
                              rref)

I2 = [[F(1), F(0)], [F(0), F(1)]]
QQ = RationalField()


def t2():
    return TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))


def values_of(bundle, md):
    """md's values in the bundle's component order, the form a section
    system reads a twist in."""
    return tuple(md[v] for v in bundle.curve.components)


def node_counts(system):
    """The system's val(v), keyed by component."""
    return dict(zip(system.bundle.curve.components, system.val))


# -- construction -----------------------------------------------------------

def test_make_bundle_accepts_ex(ex_bundle):
    assert ex_bundle.rank == 2
    assert ex_bundle.degree() == 4
    assert ex_bundle.degree_on("v1") == 2
    assert ex_bundle.multidegree() == {"v1": 2, "v2": 2}
    assert ex_bundle.euler() == 6
    assert ex_bundle.splittings["v1"] == (2, 0)


def test_make_bundle_rejects_bad_input():
    curve = t2()
    with pytest.raises(BundleError, match="cover the components"):
        make_bundle(curve, {"v1": (1, 0)}, {0: I2})
    with pytest.raises(BundleError, match="disagree on the rank"):
        make_bundle(curve, {"v1": (1, 0), "v2": (1,)}, {0: I2})
    with pytest.raises(BundleError, match="cover the edges"):
        make_bundle(curve, {"v1": (1, 0), "v2": (0, 0)}, {})
    with pytest.raises(BundleError, match="not 2x2"):
        make_bundle(curve, {"v1": (1, 0), "v2": (0, 0)}, {0: [[F(1)]]})
    with pytest.raises(BundleError, match="singular"):
        make_bundle(curve, {"v1": (1, 0), "v2": (0, 0)},
                    {0: [[F(1), F(1)], [F(1), F(1)]]})


def test_make_bundle_tests_invertibility_in_the_field():
    # determinant 7: invertible over Q, singular over GF(7)
    glue = [[2, 1], [1, 4]]
    spl = {"v1": (1, 0), "v2": (0, 0)}
    for fld, ok in ((PrimeField(7), False), (PrimeField(1000003), True),
                    (QQ, True)):
        curve = TreeCurve(("v1", "v2"), (Edge("v1", fld.zero, "v2", fld.zero),),
                          fld)
        m = [[fld.of(x) for x in row] for row in glue]
        if ok:
            assert make_bundle(curve, spl, {0: m}).gluings == {0: m}
        else:
            with pytest.raises(BundleError, match="gluing 0 is singular"):
                make_bundle(curve, spl, {0: m})
    # a non-integral gluing of determinant 7/4 over Q
    half = [[F(1, 2), F(-3, 2)], [F(1, 2), F(2)]]
    assert make_bundle(t2(), spl, {0: half}).gluings == {0: half}


@pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=lambda f: f.name)
def test_load_reports_the_first_bad_gluing_in_edge_order(fld):
    # the shape and singular checks run gluing by gluing, so gluing 0's
    # fault is the error whatever is wrong with gluing 1; over p:7 the
    # singular gluing has determinant 7, invertible over Q (see above)
    curve = TreeCurve(("a", "b", "c"), (Edge("a", fld.zero, "b", fld.zero),
                                        Edge("b", fld.one, "c", fld.zero)),
                      fld)
    spl = {"a": (1, 0), "b": (0, 0), "c": (0, -1)}
    of = lambda rows: [[fld.of(x) for x in row] for row in rows]
    singular = of([[2, 1], [1, 4]] if fld.char else [[1, 2], [2, 4]])
    misshapen = of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    obj = bundle_to_json(make_bundle(curve, spl, {0: of(I2), 1: of(I2)}))
    for gluings, want in (((singular, misshapen), "gluing 0 is singular"),
                          ((misshapen, singular), "gluing 0 is not 2x2")):
        with pytest.raises(BundleError, match="^%s$" % want):
            make_bundle(curve, spl, dict(enumerate(gluings)))
        for g, m in zip(obj["gluings"], gluings):
            g["matrix"] = [[str(x) for x in row] for row in m]
        with pytest.raises(BundleError, match="^%s$" % want):
            bundle_from_json(obj, fld)


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_integer_gluings_are_cleared_once_and_shared(fld):
    # a bundle's integer gluings are its gluings as `linalg.cleared` gives
    # them, cleared by the constructor, which stores no field-element form,
    # and a twist or a restriction hands on the source's very pairs; over
    # q half the bundles have non-integral gluings
    rng = random.Random(41 + fld.char % 1000)
    fractional = 0
    for k in range(48):
        curve = random_tree(rng, 1 + k % 6, fld)
        bundle = random_bundle(rng, curve, 1 + (k // 6) % 4, lo=-2, hi=2)
        if fld == QQ and k % 2:
            bundle = non_integral(rng, bundle)
        fresh = GluedBundle(bundle.curve, bundle.rank, bundle.splittings,
                            bundle.gluings)
        assert set(vars(fresh)) == {"curve", "rank", "splittings",
                                    "integer_gluings"}
        for b in (bundle, fresh):
            assert b.integer_gluings == [
                linalg.cleared(b.gluings[i], fld.char)
                for i in range(len(b.curve.edges))]
        fractional += any(den > 1 for _, den in bundle.integer_gluings)
        twisted = twist(bundle, random_multidegree(rng, bundle.curve, -2, 2))
        assert twisted.integer_gluings is bundle.integer_gluings
        for i, e in enumerate(bundle.curve.edges):
            members = bundle.curve.side_of(i, e.a)
            kept = [j for j, f in enumerate(bundle.curve.edges)
                    if f.a in members and f.b in members]
            sub = restrict_bundle(twisted, members)
            assert len(sub.integer_gluings) == len(kept)
            assert all(pair is bundle.integer_gluings[j]
                       for pair, j in zip(sub.integer_gluings, kept))
    assert fractional >= (15 if fld == QQ else 0)


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_a_bundle_load_builds_no_field_element_gluing(fld, monkeypatch):
    # the reader reads gluings straight to integers: loading, twisting,
    # restricting and counting sections build no field element of a
    # gluing (no `element` call in `bundle`, where the `gluings` view
    # builds them), and that view is the parsed matrix, whose clearing is
    # the loaded integer pairs; over q half the bundles are non-integral
    # and one spells its entries out of lowest terms
    from treebundles import bundle as bundle_module
    built = []
    element = bundle_module.element
    rng = random.Random(28 + fld.char % 1000)
    for k in range(36):
        curve = random_tree(rng, 1 + k % 5, fld)
        bundle = random_bundle(rng, curve, 1 + (k // 5) % 4, lo=-2, hi=2)
        if fld == QQ and k % 2:
            bundle = non_integral(rng, bundle)
        obj = bundle_to_json(bundle)
        if k == 1:
            obj["gluings"][0]["matrix"] = [
                ["%d/%d" % tuple(6 * n for n in x.as_integer_ratio())
                 for x in row] for row in bundle.gluings[0]]
        monkeypatch.setattr(bundle_module, "element",
                            lambda *args: built.append(args))
        back = bundle_from_json(obj, fld)
        twisted = twist(back, random_multidegree(rng, back.curve, -2, 2))
        h0(back), h0(twisted), dmax(back)
        for e in back.curve.edges[:1]:
            h0(restrict_bundle(twisted, back.curve.side_of(0, e.a)))
        monkeypatch.setattr(bundle_module, "element", element)
        assert built == []
        parsed = {g["edge"]: [[fld.parse(x) for x in row] for row in g["matrix"]]
                  for g in obj["gluings"]}
        assert back.gluings == parsed == bundle.gluings
        assert back.integer_gluings == [
            linalg.cleared(back.gluings[i], fld.char)
            for i in range(len(back.curve.edges))]
        assert back == bundle


@pytest.mark.parametrize("fld", [QQ, PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_a_gluing_view_changed_in_place_changes_no_count(fld):
    # `gluings` is built on each read, so swapping two rows of what it
    # returns, after a count has read the bundle, leaves the bundle as it
    # was: its counts are those of its JSON round trip
    rng = random.Random(65 + fld.char % 1000)
    for k in range(30):
        curve = random_tree(rng, 2 + k % 3, fld)
        b = random_bundle(rng, curve, 2 + k % 2, lo=-2, hi=2)
        h0(b)
        m = b.gluings[0]
        m[0], m[1] = m[1], m[0]
        back = bundle_from_json(bundle_to_json(b), fld)
        assert dmax(b) == dmax(back)
        for _ in range(3):
            md = random_multidegree(rng, curve, -2, 2)
            assert h0(twist(b, md)) == h0(twist(back, md))


def _every_edge_kind(fld):
    """(target, enlargement): a two-edge target whose first edge is walked
    forward and then along an inserted bridge, and whose second edge is
    walked inverted, as an enlargement read from JSON may list it."""
    from treebundles.curve import Enlargement

    def tree(rows):
        comps = []
        for a, _, b, _ in rows:
            comps += [v for v in (a, b) if v not in comps]
        return TreeCurve(tuple(comps), tuple(
            Edge(a, fld.of(pa), b, fld.of(pb)) for a, pa, b, pb in rows), fld)

    target = tree([("u", 0, "w", 0), ("w", 1, "x", 0)])
    enl = Enlargement(tree([("u", 0, "b", 0), ("w", 0, "b", 1),
                            ("x", 0, "w", 1)]), target, frozenset({"b"}))
    assert enl.target_edge_paths == [[(0, True), (1, False)], [(2, False)]]
    return target, enl


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_every_built_gluing_is_in_lowest_terms(fld):
    # every bundle the package builds holds each gluing as `linalg.cleared`
    # gives its field elements: den > 0 and prime to the entries over q,
    # residues over 1 over GF(p); so `==` on bundles is equality of their
    # field rows. Builders: loads (one spelled out of lowest terms),
    # pullbacks on forward, inserted and inverted edges, pushforwards, and
    # quotients of bundles of rank 2 (closed form), 3 and 4 (generators)
    from treebundles.specialize import find_line_subbundle
    from treebundles.subbundles import quotient_bundle
    p = fld.char

    def canonical(b):
        for m, den in b.integer_gluings:
            assert den > 0
            assert math.gcd(den, *(x for row in m for x in row)) == 1
            assert not p or (den == 1 and all(0 <= x < p for row in m
                                                for x in row))
        assert b.integer_gluings == [linalg.cleared(b.gluings[i], p)
                                     for i in range(len(b.curve.edges))]
        return b

    def agree(a, b):
        same = (a.curve == b.curve and a.rank == b.rank
                and a.splittings == b.splittings and a.gluings == b.gluings)
        assert (canonical(a) == canonical(b)) == same
        return same

    rng = random.Random(66 + p % 1000)
    target, enl = _every_edge_kind(fld)
    quotients = set()
    for k in range(12):
        r = 1 + k % 4
        scale = fld.one / fld.of(rng.choice((1, 2, 3, 5)))
        bundle = make_bundle(
            target, {v: tuple(rng.randint(-2, 2) for _ in range(r))
                     for v in target.components},
            {i: [[x * scale for x in row]
                 for row in random_invertible(rng, fld, r)] for i in (0, 1)})
        obj = bundle_to_json(bundle)
        obj["gluings"][1]["matrix"] = [
            ["%d/%d" % tuple(4 * n for n in x.as_integer_ratio()) for x in row]
            for row in bundle.gluings[1]]
        back = bundle_from_json(obj, fld)
        assert agree(back, bundle)
        up = pullback(back, enl)
        down = contract_pushforward(up, enl)
        assert agree(down, bundle)
        assert agree(up, make_bundle(up.curve, up.splittings, up.gluings))
        moved = up.gluings
        moved[0] = [[x * fld.of(2) for x in row] for row in moved[0]]
        assert not agree(up, GluedBundle(up.curve, r, up.splittings, moved))
        curve = random_tree(rng, 2 + k % 3, fld)
        host = random_bundle(rng, curve, 2 + k % 3, lo=-1, hi=1)
        if fld == QQ and k % 2:
            host = non_integral(rng, host)
        _, sub = find_line_subbundle(host)
        quotient = quotient_bundle(sub.host, sub)
        quotients.add(host.rank)
        assert agree(quotient, GluedBundle(quotient.curve, quotient.rank,
                                           quotient.splittings,
                                           quotient.gluings))
    assert quotients == {2, 3, 4}


@pytest.mark.parametrize("name, matrix, ok", [
    # over GF(7): determinants 7 and 0 mod 7, and their 1x1 forms
    ("p:7", [[7, 0], [0, 1]], False),
    ("p:7", [[1, 2], [3, 6]], False),
    ("p:7", [[2, 1], [1, 4]], False),
    ("p:7", [[1, 2], [3, 5]], True),
    ("p:7", [[14]], False),
    ("p:7", [[-6]], True),
    ("p:7", [[1, 2, 3], [4, 5, 6], [0, 0, 7]], False),
    ("p:7", [[1, 2, 3], [4, 5, 6], [0, 0, 8]], True),
    # over Q: a non-integral 2x2 of determinant 0, and a 1x1 zero
    ("q", [["1/2", "1/3"], ["3/2", 1]], False),
    ("q", [["1/2", "1/3"], ["3/2", 2]], True),
    ("q", [["0/5"]], False),
    ("q", [["-1/5"]], True),
    ("q", [[2, 1], [1, 4]], True),
    ("q", [[1, 2, 3], [4, 5, 6], [5, 7, 9]], False),
    # 4x4 of determinant 7, 4x4 of a row the sum of two, and 5x5 by rank
    ("p:7", [[7, 2, 3, 1], [14, 5, 10, 4], [7, 5, 16, 12], [28, 9, 18, 17]],
     False),
    ("q", [[7, 2, 3, 1], [14, 5, 10, 4], [7, 5, 16, 12], [28, 9, 18, 17]],
     True),
    ("q", [["1/2", 0, 1, 0], [0, 1, 0, 3], ["1/2", 1, 1, 3], [0, 0, 0, 1]],
     False),
    ("p:7", [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 3, 0, 0],
             [0, 0, 0, 4, 0], [0, 0, 0, 0, 7]], False),
])
def test_the_singular_check_reads_the_determinant_up_to_2x2(name, matrix, ok):
    # make_bundle and the reader share one check; over GF(p) it is taken
    # mod p, and above 4x4 it is the rank
    from treebundles.fields import field_from_name
    fld = field_from_name(name)
    r = len(matrix)
    rows = [[fld.parse(str(x)) for x in row] for row in matrix]
    curve = TreeCurve(("v1", "v2"), (Edge("v1", fld.zero, "v2", fld.zero),),
                      fld)
    spl = {"v1": (0,) * r, "v2": (0,) * r}
    obj = {"curve": {"components": ["v1", "v2"],
                     "edges": [{"a": "v1", "pa": "0", "b": "v2", "pb": "0"}]},
           "rank": r, "splittings": {v: list(d) for v, d in spl.items()},
           "gluings": [{"edge": 0, "matrix": [[str(x) for x in row]
                                              for row in matrix]}]}
    ints = linalg.cleared(rows, fld.char)[0]
    assert linalg.invertible(ints, fld.char) == ok
    if ok:
        assert make_bundle(curve, spl, {0: rows}) == bundle_from_json(obj, fld)
    else:
        for load in (lambda: make_bundle(curve, spl, {0: rows}),
                     lambda: bundle_from_json(obj, fld)):
            with pytest.raises(BundleError, match="^gluing 0 is singular$"):
                load()


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_a_rank_3_or_4_load_runs_no_elimination(monkeypatch, fld):
    # the singular check takes the determinant of each gluing up to 4x4,
    # so a load calls neither rank route
    calls = []
    for route in ("bareiss_rank", "modular_rank"):
        real = getattr(linalg, route)
        monkeypatch.setattr(linalg, route, lambda *args, real=real, route=route:
                            calls.append(route) or real(*args))
    rng = random.Random(31)
    for r in (3, 4):
        bundle = random_bundle(rng, random_tree(rng, 6, fld), r)
        obj = bundle_to_json(bundle)
        calls.clear()
        assert bundle_from_json(obj, fld) == bundle
        assert calls == []


def test_bundle_equality(ex_bundle):
    assert ex_bundle == build_ex()
    assert ex_bundle != twist(ex_bundle, {"v1": 1, "v2": 0})


def test_twist_leaves_the_source_bundle_as_it_was():
    # a twist shares its source's gluing rows; neither twisting, nor
    # counting, bounding or scanning on the twist changes the source
    rng = random.Random(39)
    for k in range(24):
        fld = (QQ, PrimeField(7), PrimeField(1000003))[k % 3]
        bundle = random_bundle(rng, random_tree(rng, 1 + k % 5, fld),
                               1 + k % 3, lo=-2, hi=2)
        before = bundle_to_json(bundle)
        md = random_multidegree(rng, bundle.curve, -2, 2)
        twisted = twist(bundle, md)
        h0(twisted)
        dmax(twisted)
        twist(twisted, md)
        assert bundle_to_json(bundle) == before
        assert twisted.gluings == bundle.gluings
        assert twisted.splittings == {
            v: tuple(d + md[v] for d in ds)
            for v, ds in bundle.splittings.items()}
    # the public constructor still copies what it is given
    glue = [[F(1), F(2)], [F(0), F(1)]]
    bundle = make_bundle(t2(), {"v1": (1, 0), "v2": (0, 0)}, {0: glue})
    glue[0][1] = F(5)
    assert bundle.gluings[0] == [[F(1), F(2)], [F(0), F(1)]]


# -- cohomology golden values -------------------------------------------------

def test_ex_cohomology(ex_bundle):
    assert h0(ex_bundle) == 6
    assert h1(ex_bundle) == 0


def test_ex_twisted_cohomology(ex_bundle):
    down = twist(ex_bundle, {"v1": -2, "v2": -2})
    assert h0(down) == 0
    assert h1(down) == 2
    assert down.degree() == -4


def test_ex_dmax(ex_bundle):
    d, witness = dmax(ex_bundle)
    assert d == 3
    assert witness == {"v1": -2, "v2": -2}
    assert h0(twist(ex_bundle, witness)) == 0


def test_rank_one_h0_is_tree_line_bundle_count():
    # a line bundle of nonnegative total degree e on a tree has h0 = e + 1
    curve = TreeCurve(("a", "b", "c"),
                      (Edge("a", F(0), "b", F(0)), Edge("b", F(1), "c", F(0))))
    for md in ({"a": 2, "b": 0, "c": 1}, {"a": 0, "b": 0, "c": 0},
               {"a": 3, "b": -1, "c": 0}):
        bundle = make_bundle(curve, {v: (md[v],) for v in curve.components},
                             {0: [[F(2)]], 1: [[F(-1)]]})
        e = md_total(md)
        if all(d >= 0 for d in md.values()):
            assert h0(bundle) == e + 1
        assert h0(bundle) - h1(bundle) == e + 1


# -- boxes and clamping -------------------------------------------------------

def test_vanishing_floor(ex_bundle):
    assert vanishing_floor(ex_bundle) == {"v1": -3, "v2": -3}


def test_clamp_box_goldens(ex_bundle):
    assert clamp_box(ex_bundle, -4) == [{"v1": -3, "v2": -1},
                                        {"v1": -2, "v2": -2},
                                        {"v1": -1, "v2": -3}]
    assert clamp_box(ex_bundle, -3) == [{"v1": -3, "v2": 0},
                                        {"v1": -2, "v2": -1},
                                        {"v1": -1, "v2": -2},
                                        {"v1": 0, "v2": -3}]


def test_level_tuples_against_a_filtered_product():
    # the odometer on the first n - 2 coordinates and the range on the last
    # two give every tuple of the product with total e, in its order
    rng = random.Random(43)
    for n in range(1, 7):
        for _ in range(40):
            lo = [rng.randint(-3, 2) for _ in range(n)]
            if rng.random() < 0.5:
                # a cap below a floor, now and then, empties the box
                hi = [x + rng.randint(-(rng.random() < 0.1), 3) for x in lo]
                e = rng.randint(sum(lo) - 1, sum(hi) + 1)
                top = hi
            else:
                hi = None
                e = sum(lo) + rng.randint(-1, 4)
                top = [x + max(0, e - sum(lo)) for x in lo]
            want = [t for t in itertools.product(
                        *(range(a, b + 1) for a, b in zip(lo, top)))
                    if sum(t) == e]
            assert list(level_tuples(lo, hi, e)) == want
    assert list(level_tuples((0, 0), (2, -1), 1)) == []
    assert list(level_tuples((0,), None, -1)) == []
    assert list(level_tuples((0,), None, 4)) == [(4,)]
    assert list(level_tuples((), None, 0)) == [()]
    assert list(level_tuples((), None, 1)) == []


def test_clamp_box_structure(ex_bundle):
    floors = vanishing_floor(ex_bundle)
    for e in (-4, -5, -6):
        box = clamp_box(ex_bundle, e)
        for md in box:
            assert md_total(md) == e
            assert all(md[v] >= floors[v] for v in md)
        # ascending lexicographic in component order, no repeats
        keys = [tuple(md[v] for v in ex_bundle.curve.components) for md in box]
        assert keys == sorted(set(keys))


def test_clamp_multidegree_preserves_h0(ex_bundle):
    md = {"v1": -9, "v2": 3}
    clamped = clamp_multidegree(ex_bundle, md)
    assert clamped == {"v1": -3, "v2": 3}
    assert h0(twist(ex_bundle, md)) == h0(twist(ex_bundle, clamped))
    assert clamp_multidegree(ex_bundle, clamped) == clamped


def test_clamp_multidegree_random_h0_preservation():
    rng = random.Random(31)
    for _ in range(40):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        md = {v: rng.randint(-8, 2) for v in curve.components}
        clamped = clamp_multidegree(bundle, md)
        assert h0(twist(bundle, md)) == h0(twist(bundle, clamped))


# -- dmax against its definition ----------------------------------------------

def test_dmax_definition_on_random_instances():
    rng = random.Random(32)
    for field in [None] * 25 + [PrimeField(1000003)] * 25:
        curve = random_tree(rng, rng.randint(1, 4), field)
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        d, witness = dmax(bundle)
        assert md_total(witness) == -(d + 1)
        assert h0(twist(bundle, witness)) == 0
        # every multidegree one level up still has sections
        assert all(h0(twist(bundle, md)) > 0 for md in clamp_box(bundle, -d))
        # the witness is the first failure in its own box
        box = clamp_box(bundle, -(d + 1))
        first = next(md for md in box if h0(twist(bundle, md)) == 0)
        assert first == witness


def test_dmax_takes_ranks_only_where_the_floor_is_zero(monkeypatch):
    # a positive floor already proves a section, so no rank is taken there
    floors = []
    count, rank = SectionSystem.count, SectionSystem._rank

    def counting(self, values):
        self.probe = values
        return count(self, values)

    def ranking(self, state):
        floors.append(self.floor(self.probe))
        return rank(self, state)

    monkeypatch.setattr(SectionSystem, "count", counting)
    monkeypatch.setattr(SectionSystem, "_rank", ranking)
    rng = random.Random(33)
    for field in [None] * 25 + [PrimeField(1000003)] * 25:
        curve = random_tree(rng, rng.randint(1, 4), field)
        dmax(random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2))
    assert len(floors) > 50 and set(floors) == {0}


def eight_chain():
    """A random rank-2 bundle on the 8-component chain."""
    ids = tuple("v%d" % (k + 1) for k in range(8))
    curve = TreeCurve(ids, tuple(Edge(ids[k], F(1), ids[k + 1], F(0))
                                 for k in range(7)))
    return random_bundle(random.Random(1), curve, 2)


def test_dmax_cost_is_bounded_by_the_ceiling_box():
    # a sectionless twist has at most val(v) + 1 values per component, so
    # this chain costs a handful of small levels, not its full clamp boxes
    bundle = eight_chain()
    t0 = time.perf_counter()
    d, witness = dmax(bundle)
    assert time.perf_counter() - t0 < 1.0
    assert (d, witness) == (10, {"v1": -2, "v2": -3, "v3": -2, "v4": 2,
                                 "v5": -2, "v6": 0, "v7": -1, "v8": -3})
    assert h0_oracle(twist(bundle, witness)) == 0
    # the ceiling box does not grow with the summand degrees either
    huge = make_bundle(t2(), {"v1": (10 ** 8, 0), "v2": (0, -10 ** 8)},
                       {0: I2})
    t0 = time.perf_counter()
    d, witness = dmax(huge)
    assert time.perf_counter() - t0 < 1.0
    assert (d, witness) == (10 ** 8, {"v1": -10 ** 8 - 1, "v2": 0})
    assert h0_oracle(twist(huge, witness)) == 0


def dmax_corpus(seed, count, fields, most=8):
    """`count` seeded bundles of rank 1-4 on trees with 1..`most`
    components, cycling through `fields`."""
    rng = random.Random(seed)
    for k in range(count):
        curve = random_tree(rng, rng.randint(1, most), fields[k % len(fields)])
        yield random_bundle(rng, curve, rng.randint(1, 4), lo=-3, hi=3)


def test_dmax_matches_the_level_by_level_climb():
    # value, witness and the witness's key order, against one fresh
    # first-failure walk per level from the all-floors twist up; p:5 only
    # on trees small enough for its five node points
    fields = (None, PrimeField(7), PrimeField(1000003))
    corpus = [*dmax_corpus(38, 900, fields),
              *dmax_corpus(39, 150, (PrimeField(5),), most=4)]
    for bundle in corpus:
        d, witness = dmax(bundle)
        want_d, want_witness = dmax_by_levels(bundle)
        assert (d, list(witness.items())) == (want_d,
                                               list(want_witness.items()))


def chain_twist(system, k):
    """The lexicographically first twist of level sum(lo) + k in the
    ceiling box, as values: from the last component, each raised by up to
    val(v)."""
    values = list(system.lo)
    for i in reversed(range(len(values))):
        values[i] += min(k, system.val[i])
        k -= values[i] - system.lo[i]
    return tuple(values)


def test_dmax_walks_no_level_it_settles_along_the_chain(monkeypatch):
    # the chain's sectionless prefix [0, K] is settled without a walk, so
    # the levels walked are exactly sum(lo) + K + 1 .. -dmax
    walked = []
    first_failure = SectionSystem.first_failure

    def walking(self, e, need, below=None):
        walked.append(e)
        return first_failure(self, e, need, below)

    settled = 0
    for bundle in dmax_corpus(40, 200, (None, PrimeField(7))):
        system = SectionSystem(bundle)
        k = 0
        while k < sum(system.val) and not system.count(
                chain_twist(system, k + 1)):
            k += 1
        settled += k
        walked.clear()
        with monkeypatch.context() as m:
            m.setattr(SectionSystem, "first_failure", walking)
            d, witness = dmax(bundle)
        base = sum(system.lo)
        assert walked == list(range(base + k + 1, -d + 1))
        if -d == base + k + 1:
            assert values_of(bundle, witness) == chain_twist(system, k)
    assert settled > 100


def dmax_walks(monkeypatch, bundle):
    """(dmax, walks): per level dmax walks, in order, (system, level, first
    failure, the twists counted)."""
    walks, probes = [], []
    first_failure, count = SectionSystem.first_failure, SectionSystem.count

    def walking(self, e, need, below=None):
        start = len(probes)
        found = first_failure(self, e, need, below)
        walks.append((self, e, found, probes[start:]))
        return found

    def counting(self, values):
        probes.append(values)
        return count(self, values)

    with monkeypatch.context() as m:
        m.setattr(SectionSystem, "first_failure", walking)
        m.setattr(SectionSystem, "count", counting)
        d, _ = dmax(bundle)
    return d, walks


def dmax_skips(monkeypatch, bundle):
    """(dmax, {level: skipped}) for each level dmax walks: the twists of
    its ceiling box up to its first failure (all, when it has none) whose
    floor is 0 and that the walk took no count of, as multidegrees."""
    d, walks = dmax_walks(monkeypatch, bundle)
    comps = bundle.curve.components
    skips = {}
    for system, e, found, counted in walks:
        hi = [x + n for x, n in zip(system.lo, system.val)]
        box = list(level_tuples(system.lo, hi, e))
        if found is not None:
            box = box[:box.index(found[0]) + 1]
        skips[e] = [dict(zip(comps, x)) for x in box
                    if system.floor(x) == 0 and x not in counted]
    return d, skips


def rank_one_chain(n):
    ids = tuple("v%d" % (k + 1) for k in range(n))
    return build_chain(ids, dict.fromkeys(ids, (0,)),
                       {k: [[F(1)]] for k in range(n - 1)})


def test_walks_skip_twists_the_level_below_proved(monkeypatch):
    # on the rank-1 chain dmax is the degree, 0, and every twist of level
    # 0 has a positive floor, so the saving is in the failing levels below
    # it; on the rank-2 chain the level with no failure skips twists too
    bundle = rank_one_chain(8)
    d, skips = dmax_skips(monkeypatch, bundle)
    assert d == 0 and len(skips[-1]) >= 50
    checks = [(bundle, md) for md in skips[-1][::10]]
    bundle = eight_chain()
    d, skips = dmax_skips(monkeypatch, bundle)
    assert d == 10 and len(skips[-10]) >= 1
    checks += [(bundle, md) for mds in skips.values() for md in mds]
    for b, md in checks:
        assert h0_oracle(twist(b, md)) > 0


def test_the_skip_test_against_its_definition():
    # every twist of a ceiling-box level against every possible first
    # failure one level below: some md - e_v with md[v] > lo[v] comes first
    rng = random.Random(42)
    for k in range(12):
        curve = random_tree(rng, 2 + k % 4)
        system = SectionSystem(random_bundle(rng, curve, 1 + k % 3))
        lo = system.lo
        hi = [x + n for x, n in zip(lo, system.val)]
        base = sum(lo)
        for e in range(base + 1, base + 4):
            below = list(level_tuples(lo, hi, e - 1))
            for values in level_tuples(lo, hi, e):
                x = list(values)
                for f in below:
                    want = any(
                        x[i] > lo[i] and
                        tuple(x[:i] + [x[i] - 1] + x[i + 1:]) < f
                        for i in range(len(x)))
                    assert system._above_passed(values, f) == want


def test_every_skipped_twist_has_a_section(monkeypatch):
    # twisted degrees in a ceiling box stay below val(v) <= 6 on n <= 7,
    # within the oracle's reach mod 7
    skipped = 0
    for bundle in dmax_corpus(41, 120, (None, PrimeField(7)), most=7):
        _, skips = dmax_skips(monkeypatch, bundle)
        for mds in skips.values():
            skipped += len(mds)
            for md in mds:
                assert h0_oracle(twist(bundle, md)) > 0
    assert skipped > 20


def test_a_fresh_walk_given_the_failure_below_repeats_dmax(monkeypatch):
    # a walk reads what the level below proved only from `below`: a fresh
    # system given dmax's failure at level e - 1 counts the same twists at
    # level e, in the same order, and finds the same failure as dmax's own
    # climb, whose system walked e - 1 itself; the first level climbed is
    # given none. Given none, a fresh walk counts more on some levels
    count = SectionSystem.count

    def fresh_walk(bundle, e, below):
        probes = []
        with monkeypatch.context() as m:
            m.setattr(SectionSystem, "count", lambda self, values:
                      probes.append(values) or count(self, values))
            found = SectionSystem(bundle).first_failure(e, 1, below)
        return found, probes

    fields = (None, PrimeField(7), PrimeField(1000003))
    given = skipping = 0
    for bundle in dmax_corpus(44, 300, fields, most=6):
        _, walks = dmax_walks(monkeypatch, bundle)
        below = None
        for k, (_, e, found, counted) in enumerate(walks):
            assert k == 0 or e == walks[k - 1][1] + 1
            assert fresh_walk(bundle, e, below) == (found, counted)
            if below is not None:
                given += 1
                skipping += len(fresh_walk(bundle, e, None)[1]) > len(counted)
            below = None if found is None else found[0]
    assert given > 100 and skipping > 50


# -- sections ------------------------------------------------------------------

def test_section_basis_size_and_matching(ex_bundle):
    basis = field_sections(ex_bundle)
    assert len(basis) == h0(ex_bundle)
    e = ex_bundle.curve.edges[0]
    g = ex_bundle.gluings[0]
    zero = ex_bundle.field.zero
    for sec in basis:
        va = [evaluate(p, e.pa, zero) for p in sec["v1"]]
        vb = [evaluate(p, e.pb, zero) for p in sec["v2"]]
        for out in range(2):
            assert sum(g[out][k] * va[k] for k in range(2)) == vb[out]


def test_section_basis_respects_degree_bounds(ex_bundle):
    for sec in field_sections(ex_bundle):
        for v in ("v1", "v2"):
            for k, m in enumerate(ex_bundle.splittings[v]):
                assert poly.degree(sec[v][k]) <= m


def test_one_row_builder_serves_counts_and_section_bases(monkeypatch):
    # the matching system is written once: `bundle` keeps no second row
    # builder, and a count on a state with a partial block (h0 is the
    # count at the zero twist) and a section basis both build their rows
    # with `_node_rows`
    from treebundles import bundle as bundle_module
    assert not hasattr(bundle_module, "_matching_rows")
    assert not hasattr(bundle_module, "_column_layout")
    calls = []
    build = bundle_module._node_rows
    monkeypatch.setattr(bundle_module, "_node_rows",
                        lambda *args: calls.append(args) or build(*args))
    # v2 meets both nodes, so its cap is 1 and its degree-0 block partial
    bundle = build_chain(["v1", "v2", "v3"],
                         {"v1": (-1,), "v2": (0,), "v3": (-1,)},
                         {0: [[F(1)]], 1: [[F(1)]]})
    assert h0(bundle) == 0
    assert calls
    calls.clear()
    assert section_basis(bundle)[0] == []
    assert calls


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_section_basis_is_the_canonical_kernel_of_the_matching_system(fld):
    # against the matching system built apart (`_matching_rows`, every
    # block whole, one row per edge and b-end summand), reduced over field
    # elements: one basis vector per free column, 1 there and minus the
    # reduced rows' entries at the pivots. That is the exact basis, not
    # just its span, that the subbundle search reads; rank 1-4, n <= 7,
    # half the bundles over q non-integral
    rng = random.Random(38 + fld.char % 1000)
    for k in range(84):
        curve = random_tree(rng, 1 + k % 7, fld)
        bundle = random_bundle(rng, curve, 1 + (k // 7) % 4, lo=-3, hi=4)
        if fld == QQ and k % 2:
            bundle = non_integral(rng, bundle)
        blocks, ncols = _column_layout(bundle.splittings)
        red, pivots = rref([[fld.of(x) for x in row]
                            for row in _matching_rows(bundle, ncols, blocks)],
                           ncols)
        want = []
        for free in range(ncols):
            if free in pivots:
                continue
            vec = [fld.zero] * ncols
            vec[free] = fld.one
            for row, c in zip(red, pivots):
                vec[c] = -row[free]
            want.append({v: [poly.trim(vec[blocks[(v, i)][1]:][:m + 1])
                             if m >= 0 else [] for i, m in enumerate(ds)]
                         for v, ds in bundle.splittings.items()})
        assert field_sections(bundle) == want


# -- oracle agreement -----------------------------------------------------------

def test_h0_oracle_refuses_degrees_at_or_above_p():
    # a degree-5 summand needs six distinct sample points, and GF(5) has five
    fld = PrimeField(5)
    curve = TreeCurve(("v1",), (), fld)
    bundle = make_bundle(curve, {"v1": (5,)}, {})
    with pytest.raises(ValueError, match="degree 5 .* p = 5"):
        h0_oracle(bundle)
    assert h0_oracle(make_bundle(curve, {"v1": (4,)}, {})) == 5


def assert_sections_agree(bundle):
    """h0, the oracle and the section basis give one dimension, every basis
    section matches through the gluing at every node, and the basis is
    trimmed integer lists over one nonzero den (residues over 1 in
    GF(p))."""
    want = h0_oracle(bundle)
    assert h0(bundle) == want
    sections, den = section_basis(bundle)
    p = bundle.field.char
    assert den and (not p or den == 1)
    for sec in sections:
        for q in (q for ps in sec.values() for q in ps):
            assert q == poly.trim(q)
            assert all(type(x) is int and (not p or 0 <= x < p) for x in q)
    basis = field_sections(bundle)
    assert len(basis) == want
    zero = bundle.field.zero
    for sec in basis:
        for ei, e in enumerate(bundle.curve.edges):
            va = [evaluate(p, e.pa, zero) for p in sec[e.a]]
            vb = [evaluate(p, e.pb, zero) for p in sec[e.b]]
            assert mat_vec(bundle.gluings[ei], va, zero) == vb


def test_h0_matches_oracle_random():
    # twisted degrees reach 12, far above val(v) - 1, so h0's degree cap
    # engages on every component
    rng = random.Random(33)
    for _ in range(30):
        curve = random_tree(rng, rng.randint(1, 4))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-3, hi=3)
        md = random_multidegree(rng, curve, lo=-3, hi=9)
        for b in (bundle, non_integral(rng, bundle)):
            assert_sections_agree(b)
            assert_sections_agree(twist(b, md))


def test_h0_matches_oracle_prime_field():
    rng = random.Random(34)
    fld = PrimeField(101)
    for _ in range(20):
        curve = random_tree(rng, rng.randint(1, 3), fld)
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        md = random_multidegree(rng, curve, lo=-2, hi=10)
        for b in (bundle, non_integral(rng, bundle)):
            assert_sections_agree(b)
            assert_sections_agree(twist(b, md))


def test_section_system_reuses_ranks_across_twists():
    # one system per bundle: many twists share a clamped state, so most
    # probes reuse a memoised rank; each must still match the oracle, whose
    # sample points 0..m stay distinct mod 7 up to degree 6
    rng = random.Random(35)
    for fld in (None, PrimeField(7)):
        for _ in range(12):
            curve = random_tree(rng, rng.randint(1, 4), fld)
            bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
            if fld is None:
                bundle = non_integral(rng, bundle)
            system = SectionSystem(bundle)
            for _ in range(8):
                md = random_multidegree(rng, curve, lo=-4, hi=4)
                assert system.count(values_of(bundle, md)) == h0_oracle(
                    twist(bundle, md))


def test_section_system_floors_bound_h0_from_below():
    # floor(md) <= h0 at random twists, and each level's bound <= the least
    # h0 over that level's clamp box; n 1-5 (a single component included)
    # and rank 1-4, with twisted degrees <= 6 for the oracle mod 7
    rng = random.Random(36)
    fields = (None, PrimeField(7), PrimeField(1000003))
    for k in range(60):
        curve = random_tree(rng, 1 + k % 5, fields[k % 3])
        bundle = random_bundle(rng, curve, 1 + (k // 5) % 4, lo=-2, hi=2)
        system = SectionSystem(bundle)
        for _ in range(6):
            md = random_multidegree(rng, curve, lo=-4, hi=4)
            assert system.floor(values_of(bundle, md)) <= h0_oracle(
                twist(bundle, md))
        assert system.lo == values_of(bundle, vanishing_floor(bundle))
        base = sum(system.lo)
        assert system.level_floor(base - 1) == math.inf  # an empty box
        for e in range(base, base + 6):
            assert system.level_floor(e) <= min(
                system.count(values_of(bundle, md))
                for md in clamp_box(bundle, e))


def test_first_failure_against_the_uncapped_clamp_box():
    # the first twist of a level with fewer than `need` sections, and its
    # count, for every need 1..r + 1, against a scan of the uncapped clamp
    # box with h0 from the oracle; twisted degrees stay <= 6 for the oracle
    # mod 7, since a level `spare` above sum(lo) reaches degree spare - 1.
    # For each order of the queries (levels ascending, descending, or
    # shuffled with the needs mixed) one system answers them all, each
    # query once with no `below` and once with the level below's first
    # failure, which a need-1 walk skips by and a need > 1 walk ignores
    rng = random.Random(37)
    order = random.Random(137)
    fields = (None, PrimeField(7), PrimeField(1000003))
    for k in range(48):
        n = rng.randint(1, 6)
        curve = random_tree(rng, n, fields[k % 3])
        bundle = random_bundle(rng, curve, rng.randint(1, 4), lo=-2, hi=2)
        base = sum(vanishing_floor(bundle).values())
        want = {}
        for e in range(base - 1, base + (7 if n <= 4 else 5)):
            counts = [(values_of(bundle, md), h0_oracle(twist(bundle, md)))
                      for md in clamp_box(bundle, e)]
            for need in range(1, bundle.rank + 2):
                want[e, need] = next(((md, h) for md, h in counts if h < need),
                                     None)
        shuffled = list(want)
        order.shuffle(shuffled)
        for queries in (list(want), list(reversed(want)), shuffled):
            system = SectionSystem(bundle)
            for e, need in queries:
                found = want.get((e - 1, 1))
                below = None if found is None else found[0]
                assert system.first_failure(e, need) == want[e, need]
                assert system.first_failure(e, need, below) == want[e, need]


def test_section_system_floor_counts_sections_vanishing_at_every_node():
    # only v1's first summand has sections, and they must vanish at the
    # node: h0 = 5 = V, while the row bound gives T - R = 6 - 2
    bundle = make_bundle(t2(), {"v1": (5, -10), "v2": (-10, -10)}, {0: I2})
    system = SectionSystem(bundle)
    assert system.floor((0, 0)) == h0(bundle) == 5
    # over the level -6 clamp box the least T - R is 0 and the least V is 1
    i3 = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    bundle = make_bundle(t2(), {"v1": (3, 1, -1), "v2": (4, 3, -5)}, {0: i3})
    system = SectionSystem(bundle)
    box = clamp_box(bundle, -6)
    assert [system.floor(values_of(bundle, md)) for md in box] == [3, 1, 1, 2]
    assert system.level_floor(-6) == 1 < min(h0(twist(bundle, md))
                                             for md in box) == 2


def _twist_of_kind(rng, system, kind):
    """A twist putting every block of a component at its cap ('full'),
    below its summands ('empty'), one of the two per component ('mixed'),
    one summand per component exactly at its cap ('split': the larger ones
    full, the smaller partial or empty), or anywhere in -4..4 ('any')."""
    val = node_counts(system)
    md = {}
    for v, ds in system.bundle.splittings.items():
        side = rng.choice(("full", "empty")) if kind == "mixed" else kind
        if side == "full":
            md[v] = val[v] - 1 - min(ds) + rng.randint(0, 1)
        elif side == "empty":
            md[v] = -max(ds) - 1 - rng.randint(0, 1)
        elif side == "split":
            md[v] = val[v] - 1 - rng.choice(ds)
        else:
            md[v] = rng.randint(-4, 4)
    return md


def _clamped_state(system, md):
    # each block's degree clamped to [-1, val(v) - 1], in the system's order
    val = node_counts(system)
    return tuple(max(-1, min(d + md[v], val[v] - 1))
                 for v, ds in system.bundle.splittings.items() for d in ds)


def _state_kind(system, state):
    val = node_counts(system)
    caps = [val[v] - 1 for v, ds in system.bundle.splittings.items()
            for _ in ds]
    blocks = {"full" if m == cap else "empty" if m == -1 else "partial"
              for m, cap in zip(state, caps)}
    if "partial" in blocks:
        return "partial"
    return "mixed" if len(blocks) == 2 else blocks.pop()


def _left_kernel_node(system, state):
    """Whether some node has full summands F_a on its a-end and summands
    E_i that are not full on its b-end, both proper and nonempty: the node
    whose Y_i solves y G_i[E_i, F_a] = 0."""
    r = system.bundle.rank
    val = node_counts(system)
    at, k = {}, 0
    for v, ds in system.bundle.splittings.items():
        at[v] = k
        k += len(ds)
    for e in system.bundle.curve.edges:
        full = sum(state[at[e.a] + j] == val[e.a] - 1 for j in range(r))
        rest = sum(state[at[e.b] + j] < val[e.b] - 1 for j in range(r))
        if 0 < full < r and 0 < rest < r:
            return True
    return False


def _capped_rank(system, state):
    """The rank of the state's columns of the full capped matching system,
    over field elements: every block at cap_v, each keeping its first
    (clamped degree + 1) columns, eliminated by the reference."""
    bundle = system.bundle
    caps = {v: n - 1 for v, n in node_counts(system).items()}
    blocks, ncols = _column_layout(
        {v: (caps[v],) * bundle.rank for v in bundle.curve.components})
    rows = _matching_rows(bundle, ncols, blocks)
    keys = [(v, j) for v, ds in bundle.splittings.items()
            for j in range(len(ds))]
    keep = [blocks[key][1] + t for key, m in zip(keys, state)
            for t in range(m + 1)]
    of = bundle.field.of
    return matrix_rank([[of(row[j]) for j in keep] for row in rows],
                       len(keep))


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_node_rank_matches_the_coefficient_elimination(fld):
    # the one rank route against the reference rank of the whole capped
    # system's selected columns; n 1-8 (a single component included),
    # rank 1-4, and half the bundles over q with non-integral node
    # coordinates and gluings
    rng = random.Random(37 + fld.char % 1000)
    seen = {"full": 0, "mixed": 0, "empty": 0, "partial": 0,
            "left kernel": 0}
    for k in range(80):
        curve = random_tree(rng, 1 + k % 8, fld)
        bundle = random_bundle(rng, curve, 1 + (k // 8) % 4, lo=-3, hi=3)
        if fld == QQ and k % 2:
            bundle = non_integral(rng, bundle)
        system = SectionSystem(bundle)
        for kind in ("full", "mixed", "mixed", "any", "any", "split"):
            state = _clamped_state(system, _twist_of_kind(rng, system, kind))
            seen[_state_kind(system, state)] += 1
            if (_state_kind(system, state) == "partial"
                    and _left_kernel_node(system, state)):
                seen["left kernel"] += 1
            assert system._rank(state) == _capped_rank(system, state)
    assert min(seen["full"], seen["mixed"], seen["partial"],
               seen["left kernel"]) >= 30, seen


@pytest.mark.parametrize("fld", [QQ, PrimeField(1000003)], ids=lambda f: f.name)
def test_all_full_twists_take_no_elimination(fld, monkeypatch):
    # every twisted degree reaches val(v) - 1: h0 is the floor T - R, with
    # no rank routine called and no matching rows built
    rng = random.Random(38 + fld.char % 1000)
    corpus = []
    for k in range(30):
        curve = random_tree(rng, 1 + k % 6, fld)
        bundle = random_bundle(rng, curve, 1 + (k // 6) % 4, lo=-2, hi=2)
        corpus.append(non_integral(rng, bundle) if fld == QQ and k % 2
                      else bundle)
    calls = []
    # linalg.rank looks both routes up in linalg
    for name in ("bareiss_rank", "modular_rank"):
        monkeypatch.setattr(linalg, name,
                            lambda *args, name=name: calls.append(name))
    for bundle in corpus:
        system = SectionSystem(bundle)
        for _ in range(4):
            md = _twist_of_kind(rng, system, "full")
            total = sum(d + md[v] + 1
                        for v, ds in bundle.splittings.items() for d in ds)
            rows = bundle.rank * len(bundle.curve.edges)
            values = values_of(bundle, md)
            assert system.count(values) == system.floor(values) == total - rows
        # no power row built and no Y_i found (the gluings were read into
        # integers when the bundle was made): every b-end is full, so no
        # node has a summand left to kill C_i
        assert system._edges == {}
        assert not any(system._kernels.values())
    assert calls == []
    monkeypatch.undo()
    # full and empty blocks mixed, against the independent route
    mixed = 0
    for bundle in corpus:
        system = SectionSystem(bundle)
        for _ in range(3):
            md = _twist_of_kind(rng, system, "mixed")
            if _state_kind(system, _clamped_state(system, md)) == "mixed":
                mixed += 1
                assert system.count(values_of(bundle, md)) == h0_oracle(
                    twist(bundle, md))
    assert mixed >= 30


def test_h0_on_fractional_node_coordinates():
    # coordinates and gluing entries with denominators, as in quotient bundles
    curve = TreeCurve(("a", "b"), (Edge("a", F(1, 2), "b", F(-2, 3)),))
    bundle = make_bundle(curve, {"a": (2, 0), "b": (1, 1)},
                         {0: [[F(1, 3), F(1)], [F(0), F(2)]]})
    assert h0(bundle) == h0_oracle(bundle)
    assert h0(bundle) - h1(bundle) == bundle.euler()


def test_euler_and_twist_monotonicity():
    rng = random.Random(35)
    for _ in range(25):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        assert h0(bundle) - h1(bundle) == bundle.euler()
        v = rng.choice(curve.components)
        up = twist(bundle, {w: int(w == v) for w in curve.components})
        delta = h0(up) - h0(bundle)
        assert 0 <= delta <= bundle.rank


# -- restriction ----------------------------------------------------------------

def test_restrict_bundle(ex_bundle):
    left = restrict_bundle(ex_bundle, {"v1"})
    assert left.curve.components == ("v1",)
    assert left.splittings == {"v1": (2, 0)}
    assert left.gluings == {}
    assert h0(left) == 4
    curve = TreeCurve(("a", "b", "c"),
                      (Edge("a", F(0), "b", F(0)), Edge("b", F(1), "c", F(0))))
    bundle = make_bundle(curve, {"a": (1,), "b": (0,), "c": (2,)},
                         {0: [[F(3)]], 1: [[F(5)]]})
    mid = restrict_bundle(bundle, {"b", "c"})
    assert mid.curve.components == ("b", "c")
    assert mid.gluings == {0: [[F(5)]]}


# -- pullback and pushforward -----------------------------------------------------

def test_pullback_layout(ex_bundle):
    grown, step = insert_bridge(ex_bundle.curve, 0)
    up = pullback(ex_bundle, step)
    assert up.curve == grown
    assert up.splittings["v1+v2"] == (0, 0)
    # original gluing rides on the first replacement edge, identity on the rest
    assert up.gluings[0] == ex_bundle.gluings[0]
    assert up.gluings[1] == I2
    assert h0(up) == h0(ex_bundle)


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=lambda f: f.name)
def test_pullback_integer_gluings_on_every_edge_kind(fld):
    # an enlargement read from JSON may list a source edge against the
    # target edge's direction, so a pulled gluing comes forward, inserted
    # or inverted: forward edges hand on the target's integer pair, with
    # copies of its rows, and on every edge the pair is the pulled gluing
    # as `linalg.cleared` gives it
    rng = random.Random(42 + fld.char % 1000)
    target, enl = _every_edge_kind(fld)
    for r in (1, 2, 3):
        scale = fld.one / fld.of(rng.choice((1, 2, 3, 5)))
        bundle = make_bundle(
            target, {v: tuple(rng.randint(-2, 2) for _ in range(r))
                     for v in target.components},
            {i: [[x * scale for x in row]
                 for row in random_invertible(rng, fld, r)] for i in (0, 1)})
        up = pullback(bundle, enl)
        assert up.integer_gluings[0] == bundle.integer_gluings[0]
        assert not any(a is b for a, b in zip(up.integer_gluings[0][0],
                                              bundle.integer_gluings[0][0]))
        assert up.gluings[2] == invert_matrix(bundle.gluings[1], fld.zero,
                                              fld.one)
        assert up.integer_gluings == [linalg.cleared(up.gluings[i], fld.char)
                                      for i in range(3)]
        assert contract_pushforward(up, enl) == bundle
        for _ in range(4):
            md = random_multidegree(rng, target, -2, 2)
            assert h0(twist(up, dict(md, b=0))) == h0(twist(bundle, md))


def test_pullback_and_pushforward_refuse_a_foreign_or_invalid_enlargement(
        ex_bundle):
    grown, step = insert_bridge(ex_bundle.curve, 0)
    up = pullback(ex_bundle, step)
    invalid = Enlargement(grown, ex_bundle.curve,
                          frozenset({"v1+v2", "zz"}))
    unknown = "invalid enlargement: contracted set contains unknown components"
    cases = [(pullback, ex_bundle, identity_enlargement(grown),
              "enlargement target is not this bundle's curve"),
             (pullback, ex_bundle, invalid, unknown),
             (contract_pushforward, ex_bundle, step,
              "enlargement source is not this bundle's curve"),
             (contract_pushforward, up, invalid, unknown)]
    for surgery, bundle, enl, text in cases:
        with pytest.raises(BundleError) as info:
            surgery(bundle, enl)
        assert str(info.value) == text


def test_contract_is_inverse_of_pullback(ex_bundle):
    grown, step = insert_bridge(ex_bundle.curve, 0)
    up = pullback(ex_bundle, step)
    assert contract_pushforward(up, step) == ex_bundle


def test_contract_composes_gluings():
    curve = t2()
    grown, step = insert_bridge(curve, 0)
    m1 = [[F(1), F(2)], [F(0), F(1)]]
    m2 = [[F(3), F(0)], [F(1), F(1)]]
    up = make_bundle(grown, {"v1": (1, 0), "v2": (0, 0), "v1+v2": (0, 0)},
                     {0: m1, 1: m2})
    down = contract_pushforward(up, step)
    # walk composition, first edge applied first
    assert down.gluings[0] == [[F(3), F(6)], [F(1), F(3)]]
    md = {"v1": 0, "v2": -1}
    up_md = dict(md, **{"v1+v2": 0})
    assert h0(twist(down, md)) == h0(twist(up, up_md))


def test_contract_rejects_nontrivial_bridge():
    curve = t2()
    grown, step = insert_bridge(curve, 0)
    bad = make_bundle(grown, {"v1": (1, 0), "v2": (0, 0), "v1+v2": (1, -1)},
                      {0: I2, 1: I2})
    with pytest.raises(BundleError, match="not trivial"):
        contract_pushforward(bad, step)
