"""Seeded inputs for the three workloads, standard library only.

Nothing here imports treebundles, so a change to the library (its
`sampling` module included) cannot change the corpus. A case is a plain
dict: the bundle payload to write, the field, the CLI verb and its
arguments, and the facts the checks need.

Case k takes its shape, field and slice from fixed cycles over k, and its
summand degrees, twists and sources from a design sequence that is the
same for every seed. The seed draws the trees and the gluing matrices,
which decide the answers. Runs on different seeds therefore time the same
mix of work, and their spread shows the program and the machine, not a
reshuffled corpus.
"""
from __future__ import annotations

from fractions import Fraction

PRIME = 1000003
P_FIELD = "p:%d" % PRIME


# -- exact helpers (the library's linear algebra is under test) -----------

def _echelon(m):
    """Row-reduce a copy of m over Fraction; returns (rows, pivot count)."""
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for c in range(len(a[0])):
        sel = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        piv = a[rank][c]
        a[rank] = [x / piv for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return a, rank


def _det(m):
    """Integer determinant by Fraction elimination with sign tracking."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        sel = next((i for i in range(c, n) if a[i][c]), None)
        if sel is None:
            return 0
        if sel != c:
            a[c], a[sel] = a[sel], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(det)


def _inverse(m):
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    red, _ = _echelon(aug)
    return [row[n:] for row in red]


def _gluing(rng, r, rational):
    """Random invertible integer matrix (nonzero mod PRIME too), or the
    inverse of one with determinant +-2 or +-3: quotient bundles carry such
    non-integral gluings, and the small denominators keep the cost of these
    cases alike across seeds."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        det = _det(m)
        if det % PRIME and (abs(det) in (2, 3) if rational else det):
            break
    if rational:
        m = _inverse(m)
    return [[str(Fraction(x)) for x in row] for row in m]


# node coordinates handed out per component in this order; capping the
# valence at 3 keeps every coordinate in {0, 1, -1}, so the integers in a
# section system grow alike on every seed
COORDS = ("0", "1", "-1")


def _tree(rng, n):
    """Random tree on v1..vn with valence at most 3."""
    comps = ["v%d" % (k + 1) for k in range(n)]
    used = {v: 0 for v in comps}
    edges = []
    for k in range(1, n):
        parent = rng.choice([v for v in comps[:k] if used[v] < len(COORDS)])
        child = comps[k]
        edges.append({"a": parent, "pa": COORDS[used[parent]],
                      "b": child, "pb": COORDS[used[child]]})
        used[parent] += 1
        used[child] += 1
    return comps, edges


def _bundle(rng, design, n, r, rational=False, lo=-3, hi=3):
    """Tree and gluings from the seeded rng, summand degrees from design."""
    comps, edges = _tree(rng, n)
    return {
        "curve": {"components": comps, "edges": edges},
        "rank": r,
        "splittings": {v: [design.randint(lo, hi) for _ in range(r)] for v in comps},
        "gluings": [{"edge": i, "matrix": _gluing(rng, r, rational)}
                    for i in range(n - 1)],
    }


def degree_of(bundle):
    return sum(sum(ds) for ds in bundle["splittings"].values())


def balanced(rank, degree):
    q, rem = divmod(degree, rank)
    return [q + 1] * rem + [q] * (rank - rem)


def spread(rng, ds, moves):
    """Push mass outward: raise one summand, lower a weakly smaller one."""
    ds = list(ds)
    for _ in range(moves):
        i = rng.randrange(len(ds) - 1)
        j = rng.randrange(i + 1, len(ds))
        ds[i] += 1
        ds[j] -= 1
        ds.sort(reverse=True)
    return ds


def _csv(ds):
    return ",".join(str(d) for d in ds)


# -- workloads --------------------------------------------------------------
#
# Each workload walks fixed cycles over the case index k whose lengths are
# pairwise coprime, so every combination of shape, field and slice turns up
# at a steady rate in any long enough prefix.

SECTION_SHAPES = [(8, 4), (5, 2), (6, 3), (3, 1), (4, 4), (7, 2), (2, 3), (8, 1)]


def _twist_degree(design, cls, index, top):
    """Class 0 low, 2 high (up to `top`), 1 alternating low and high along
    the components."""
    if cls == 0 or (cls == 1 and index % 2 == 0):
        return design.randint(-5, 5)
    return design.randint(3 * top // 4, top)


def sections_case(rng, design, k):
    n, r = SECTION_SHAPES[k % 8]
    field = P_FIELD if k % 5 == 4 else "q"
    bundle = _bundle(rng, design, n, r, rational=(k % 7 == 3))
    # high twists reach 300 per component on the small shapes; on the big
    # ones they stop near 4000 section-system columns, so that no single
    # case outweighs the rest of a run
    top = min(300, 4000 // (n * r))
    tw = {v: _twist_degree(design, k % 3, i, top)
          for i, v in enumerate(bundle["curve"]["components"])}
    return {"verb": "h0", "field": field, "bundle": bundle, "twist": tw,
            "args": ["--twist", ",".join("%s:%d" % kv for kv in tw.items())]}


DMAX_SHAPES = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3)]
DECIDE_SHAPES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)]
BOX_SHAPES = [(3, 2), (6, 2), (4, 3)]


def scan_case(rng, design, k):
    """Per ten cases: five dmax, four decide, one box."""
    block, slot = divmod(k, 10)
    field = P_FIELD if k % 7 == 3 else "q"
    if slot < 5:
        n, r = DMAX_SHAPES[(5 * block + slot) % len(DMAX_SHAPES)]
        return {"verb": "dmax", "field": field,
                "bundle": _bundle(rng, design, n, r),
                "args": []}
    if slot < 9:
        n, r = DECIDE_SHAPES[(4 * block + slot - 5) % len(DECIDE_SHAPES)]
        bundle = _bundle(rng, design, n, r)
        # a balanced source has an empty level window; spreading it gives
        # decide levels to scan and a mix of verdicts
        src = spread(design, balanced(r, degree_of(bundle)), design.randint(1, 3))
        return {"verb": "decide", "field": field, "bundle": bundle,
                "source": src, "args": ["--target=" + _csv(src)]}
    n, r = BOX_SHAPES[block % len(BOX_SHAPES)]
    bundle = _bundle(rng, design, n, r)
    floors = sum(-max(ds) - 1 for ds in bundle["splittings"].values())
    level = floors + design.randint(0, 6)
    return {"verb": "box", "field": field, "bundle": bundle, "level": level,
            "args": ["--level", str(level)]}


# (n, rank, lowest, highest summand degree); on (3,3) a wider degree range
# gives a tail of cases that each take seconds
CERTIFY_SHAPES = [(2, 2, -3, 3), (3, 2, -3, 3), (2, 3, -3, 3), (4, 2, -3, 3),
                  (3, 3, -1, 1), (2, 4, -3, 3), (3, 2, -3, 3), (2, 2, -3, 3)]


def certify_case(rng, design, k):
    n, r, lo, hi = CERTIFY_SHAPES[k % 8]
    field = P_FIELD if k % 5 == 4 else "q"
    bundle = _bundle(rng, design, n, r, lo=lo, hi=hi)
    # a balanced source: decide's level window is empty, so the time goes
    # into the subbundle search, the quotients and verification
    src = balanced(r, degree_of(bundle))
    return {"verb": "certify", "field": field, "bundle": bundle,
            "source": src, "args": ["--target=" + _csv(src)]}


GENERATORS = {"sections": sections_case, "scan": scan_case,
              "certify": certify_case}
