"""Shared builders for the test suite.

The running example everywhere is the two-component tree with the rank-2
bundle O(2,0) + O(0,2) glued by the identity at a single node; its golden
values (h0 = 6, dmax = 3, witness (-2,-2)) are frozen in the tests.
"""
from fractions import Fraction as F

import pytest

from treebundles import poly
from treebundles.bundle import make_bundle, section_basis
from treebundles.curve import Edge, TreeCurve
from treebundles.linalg import element
from treebundles.subbundles import _kernel_generators

from reference_linalg import invert_matrix


def build_ex():
    curve = TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))
    return make_bundle(curve, {"v1": (2, 0), "v2": (0, 2)},
                       {0: [[F(1), F(0)], [F(0), F(1)]]})


def build_chain(ids, splittings, gluings, coords=None):
    """Path curve on `ids`; node coordinates default to 1 (right) and 0 (left)."""
    edges = []
    for k in range(len(ids) - 1):
        pa, pb = (F(1), F(0)) if coords is None else coords[k]
        edges.append(Edge(ids[k], pa, ids[k + 1], pb))
    curve = TreeCurve(tuple(ids), tuple(edges))
    return make_bundle(curve, splittings, gluings)


def build_swap():
    """Two O(2) + O(0) components glued by the swap: the top direction on
    one side meets the bottom one on the other, so dmax = 3 needs a bridge."""
    curve = TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))
    return make_bundle(curve, {"v1": (2, 0), "v2": (2, 0)},
                       {0: [[F(0), F(1)], [F(1), F(0)]]})


def regression_bundle():
    """Chain whose only maximal subbundle needs both bridges; on its
    quotient the zero-locus walk undershoots and the surgery-free
    enumeration takes over."""
    curve = TreeCurve(("v1", "v2", "v3"),
                      (Edge("v1", F(0), "v2", F(0)),
                       Edge("v2", F(1), "v3", F(0))))
    g0 = [[F(-2), F(1), F(3)], [F(-1), F(-2), F(3)], [F(0), F(-3), F(2)]]
    g1 = [[F(-1), F(2), F(-1)], [F(-3), F(1), F(-2)], [F(3), F(1), F(-2)]]
    return make_bundle(curve,
                       {"v1": (-1, -1, 2), "v2": (-2, 1, -2), "v3": (-2, 0, 2)},
                       {0: g0, 1: g1})


def non_integral(rng, bundle):
    """The same tree shape and splittings with every chart moved by an
    affine change x -> (x + t)/s, s not dividing t, and every gluing
    replaced by its inverse. Over q, node coordinates on both sides of a
    node and gluing entries then leave the integers."""
    fld = bundle.field
    chart = {}
    for v in bundle.curve.components:
        s = rng.randint(2, 7)
        t = s * rng.randint(-2, 2) + rng.randint(1, s - 1)
        chart[v] = (fld.of(s), fld.of(t))

    def move(v, x):
        s, t = chart[v]
        return (x + t) / s

    edges = tuple(Edge(e.a, move(e.a, e.pa), e.b, move(e.b, e.pb))
                  for e in bundle.curve.edges)
    gluings = {i: invert_matrix([row[:] for row in m], fld.zero, fld.one)
               for i, m in bundle.gluings.items()}
    return make_bundle(TreeCurve(bundle.curve.components, edges, fld),
                       bundle.splittings, gluings)


def field_sections(bundle):
    """`section_basis` as field-element sections: each integer coefficient
    list divided by the kernel's den."""
    sections, den = section_basis(bundle)
    p = bundle.field.char
    return [{v: [[element(x, den, p) for x in q] for q in ps]
             for v, ps in sec.items()} for sec in sections]


def projections(host, sub):
    """Per component, the rows projecting host fibers onto quotient fibers:
    the generators `_kernel_generators` finds from the subbundle's
    `integer_embeddings`, as field-element polynomials."""
    p = host.field.char
    out = {}
    for v in host.curve.components:
        rows = []
        for _, blocks, den in _kernel_generators(
                p, list(host.splittings[v]), sub.degrees[v],
                sub.integer_embeddings[v][0], host.rank - 1):
            rows.append([poly.trim([element(x, den, p) for x in g])
                         for g in blocks])
        out[v] = rows
    return out


@pytest.fixture
def ex_bundle():
    return build_ex()
