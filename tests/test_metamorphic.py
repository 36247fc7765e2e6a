"""Metamorphic invariants: presentations of one bundle that must give the
same answers.

A glued bundle is presented with a component order, an edge order, an
orientation of every edge and an affine chart on every component. None of
these change the bundle, so none may change h0 at a twist, the dmax value,
the decide verdict or whether a freshly built certificate verifies. The
dmax witness is the first sectionless twist in the order of the
components, so it must also stay the same wherever that order does.

A chart change x -> a*x + b on a component keeps every summand O(m) and
its trivialization at finite points, so the gluings stay as they are and
only the node coordinates on that component move. Over q the new
coordinates carry denominators, which sends the section system through the
homogeneous node values n^k d^(K-k) with d != 1.

Over p:7, certify can end in a ValueError on a bundle decide accepts:
there a maximal line subbundle can leave a quotient of smaller dmax than
the certificate's next source needs, and which one the search finds
depends on the presentation. That is counted here, not forgiven over q or
p:1000003, and every certificate certify does build must verify.
"""
import random

import pytest

from treebundles.bundle import dmax, h0, make_bundle, twist
from treebundles.curve import Edge, TreeCurve
from treebundles.fields import PrimeField, RationalField
from treebundles.sampling import (balanced_splitting, generalize,
                                  random_bundle, random_multidegree,
                                  random_tree, spread)
from treebundles.specialize import certify, decide, verify_certificate

from reference_linalg import invert_matrix

FIELDS = [RationalField(), PrimeField(7), PrimeField(1000003)]


def _rebuild(bundle, components, edges, gluings):
    curve = TreeCurve(tuple(components), tuple(edges), bundle.field)
    return make_bundle(curve, bundle.splittings, gluings)


def _permutation(rng, n):
    """A random order of range(n), other than the identity if n > 1."""
    order = list(range(n))
    while n > 1 and order == sorted(order):
        rng.shuffle(order)
    return order


def reorder_components(rng, bundle):
    comps = bundle.curve.components
    order = _permutation(rng, len(comps))
    return _rebuild(bundle, [comps[i] for i in order], bundle.curve.edges,
                    bundle.gluings)


def reorder_edges(rng, bundle):
    order = _permutation(rng, len(bundle.curve.edges))
    return _rebuild(bundle, bundle.curve.components,
                    [bundle.curve.edges[i] for i in order],
                    {k: bundle.gluings[i] for k, i in enumerate(order)})


def reverse_edge(rng, bundle):
    i = rng.randrange(len(bundle.curve.edges))
    e = bundle.curve.edges[i]
    edges = list(bundle.curve.edges)
    edges[i] = Edge(e.b, e.pb, e.a, e.pa)
    gluings = dict(bundle.gluings)
    fld = bundle.field
    gluings[i] = invert_matrix(bundle.gluings[i], fld.zero, fld.one)
    return _rebuild(bundle, bundle.curve.components, edges, gluings)


def _scalar(rng, fld):
    # a ratio of small integers, so over q it carries a denominator
    return fld.of(rng.randint(-4, 4)) / fld.of(rng.choice((2, 3)))


def change_chart(rng, bundle):
    fld = bundle.field
    v = rng.choice(bundle.curve.components)
    # b != 0 moves a node at 0, and x = b / (1 - a) is the only fixed point
    a = b = fld.zero
    while not a or not b:
        a, b = _scalar(rng, fld), _scalar(rng, fld)

    def move(w, x):
        return a * x + b if w == v else x

    edges = [Edge(e.a, move(e.a, e.pa), e.b, move(e.b, e.pb))
             for e in bundle.curve.edges]
    return _rebuild(bundle, bundle.curve.components, edges, bundle.gluings)


TRANSFORMS = [(reorder_components, False), (reorder_edges, True),
              (reverse_edge, True), (change_chart, True)]


def _certified(bundle, source, want, small):
    """Whether certify built a certificate, which must verify with the
    verdict `want`; over a small field it may raise instead."""
    try:
        cert = certify(bundle, source)
    except ValueError:
        if small:
            return False
        raise
    assert cert.is_refutation == (not want)
    ok, report = verify_certificate(cert)
    assert ok, report
    return True


def _sources(rng, bundle):
    """A splitting type the bundle may specialize from and one it may not."""
    base = balanced_splitting(bundle.rank, bundle.degree())
    return [spread(rng, base, rng.randint(0, 2)),
            generalize(rng, spread(rng, base, 3), rng.randint(0, 1))]


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.name)
def test_presentations_of_one_bundle_agree(fld):
    rng = random.Random(81 + fld.char % 1000)
    verdicts = set()
    charts = certified = 0
    for k in range(12):
        curve = random_tree(rng, 2 + k % 3, fld)
        bundle = random_bundle(rng, curve, 1 + k % 3, lo=-2, hi=2)
        twists = [random_multidegree(rng, curve, -2, 2) for _ in range(4)]
        sources = _sources(rng, bundle)
        want_h0 = [h0(twist(bundle, md)) for md in twists]
        want_d, want_witness = dmax(bundle)
        want_verdicts = [decide(bundle, src).yes for src in sources]
        verdicts.update(want_verdicts)
        for transform, same_order in TRANSFORMS:
            other = transform(rng, bundle)
            # every transform changes the presentation, save a reorder of
            # a single edge
            assert other != bundle or len(curve.edges) == 1
            charts += transform is change_chart and not fld.char and any(
                e.pa.denominator > 1 or e.pb.denominator > 1
                for e in other.curve.edges)
            assert [h0(twist(other, md)) for md in twists] == want_h0
            d, witness = dmax(other)
            assert d == want_d
            if same_order:
                assert witness == want_witness
            for src, want in zip(sources, want_verdicts):
                assert decide(other, src).yes == want
                certified += _certified(other, src, want, fld.char == 7)
    assert verdicts == {True, False}
    assert charts >= 8 or fld.char
    # 12 bundles, 4 presentations, 2 sources
    assert certified == 96 or fld.char == 7 and certified >= 80
