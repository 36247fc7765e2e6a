"""Seeded random instances: trees, bundles, splitting types.

All generators draw from a caller-owned random.Random so corpora are
reproducible from a single seed. Node coordinates are consecutive small
integers per component, which keeps the distinctness constraint satisfied
by construction.
"""
from __future__ import annotations

from .bundle import GluedBundle, make_bundle
from .curve import Edge, TreeCurve
from .fields import field_from_name
from .linalg import invertible
from .splitting import SplittingType


def random_tree(rng, n, field=None) -> TreeCurve:
    fld = field if field is not None else field_from_name("q")
    comps = tuple("v%d" % (k + 1) for k in range(n))
    used = {v: 0 for v in comps}

    def next_coord(v):
        # consecutive integers per chart; a prime field must be big enough
        k = used[v]
        used[v] += 1
        assert not fld.char or k < fld.char, \
            "component valence exceeds the field size"
        return fld.of(k)

    edges = []
    for k in range(1, n):
        parent = comps[rng.randrange(k)]
        edges.append(Edge(parent, next_coord(parent), comps[k], next_coord(comps[k])))
    return TreeCurve(comps, tuple(edges), fld)


def random_invertible(rng, field, r, span=3):
    for _ in range(1000):
        # the determinant of the integers mod p is that of their residues
        m = [[rng.randint(-span, span) for _ in range(r)] for _ in range(r)]
        if invertible(m, field.char):
            return [[field.of(x) for x in row] for row in m]
    raise AssertionError("could not sample an invertible matrix")


def random_bundle(rng, curve: TreeCurve, rank, lo=-3, hi=3) -> GluedBundle:
    splittings = {v: tuple(rng.randint(lo, hi) for _ in range(rank))
                  for v in curve.components}
    gluings = {i: random_invertible(rng, curve.field, rank)
               for i in range(len(curve.edges))}
    return make_bundle(curve, splittings, gluings)


def random_multidegree(rng, curve: TreeCurve, lo=-3, hi=3):
    return {v: rng.randint(lo, hi) for v in curve.components}


def random_splitting(rng, rank, lo=-6, hi=6) -> SplittingType:
    return SplittingType(tuple(rng.randint(lo, hi) for _ in range(rank)))


def balanced_splitting(rank, degree) -> SplittingType:
    q, r = divmod(degree, rank)
    return SplittingType((q + 1,) * r + (q,) * (rank - r))


def spread(rng, st: SplittingType, moves) -> SplittingType:
    """Push mass outward: each move raises one summand and lowers a
    weakly smaller one, producing a type the input specializes to."""
    ds = list(st.degrees)
    for _ in range(moves):
        if len(ds) < 2:
            break
        i = rng.randrange(len(ds) - 1)
        j = rng.randrange(i + 1, len(ds))
        ds[i] += 1
        ds[j] -= 1
        ds.sort(reverse=True)
    return SplittingType(tuple(ds))


def generalize(rng, st: SplittingType, moves) -> SplittingType:
    """Pull mass inward where a gap of at least 2 allows it; the result
    specializes to the input."""
    ds = list(st.degrees)
    for _ in range(moves):
        gaps = [(i, j) for i in range(len(ds)) for j in range(i + 1, len(ds))
                if ds[i] - ds[j] >= 2]
        if not gaps:
            break
        i, j = gaps[rng.randrange(len(gaps))]
        ds[i] -= 1
        ds[j] += 1
        ds.sort(reverse=True)
    return SplittingType(tuple(ds))
