"""Splitting types of vector bundles on the projective line.

Every bundle on P^1 is a direct sum of line bundles, so an isomorphism
class is a weakly decreasing integer tuple. Cohomology is a closed
formula, and the specialization (dominance) order is a partial-sum
comparison at fixed rank and degree.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass


@dataclass(frozen=True)
class SplittingType:
    degrees: tuple

    def __post_init__(self):
        ds = tuple(sorted((int(d) for d in self.degrees), reverse=True))
        if not ds:
            raise ValueError("a splitting type needs at least one summand")
        object.__setattr__(self, "degrees", ds)

    @property
    def rank(self):
        return len(self.degrees)

    @property
    def degree(self):
        return sum(self.degrees)

    def twist(self, e):
        return SplittingType(tuple(d + e for d in self.degrees))

    def h0(self, e=0):
        return sum(max(0, d + e + 1) for d in self.degrees)

    def h1(self, e=0):
        return sum(max(0, -(d + e) - 1) for d in self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __str__(self):
        return "(%s)" % ", ".join(str(d) for d in self.degrees)


def specializes_p1(general: SplittingType, special: SplittingType):
    """Does `general` degenerate to `special`?

    True exactly when ranks and degrees agree and every leading partial sum
    of the general type is bounded by the special one's.
    """
    if general.rank != special.rank or general.degree != special.degree:
        return False
    sg = ss = 0
    for a, b in zip(general.degrees, special.degrees):
        sg += a
        ss += b
        if sg > ss:
            return False
    return True


def merge_with_line(st: SplittingType, d: int):
    """The splitting type whose h0 at every twist is max(h0 of O(d), h0 of st).

    Below the least twist c where st's sections catch up with the line's
    the line wins, and from c on st does. Reading the summands back from
    the first differences of that envelope gives d, then -c for the rest
    of the jump at c, then -c - 1 for the rest of st's count at c + 1, then
    st's summands below -c. Rank one with d above the degree has no such
    type.
    """
    ds = st.degrees
    if d <= ds[0]:
        return st
    if st.rank == 1:
        raise ValueError("no rank-1 type absorbs a line of degree %d > %d"
                         % (d, ds[0]))
    # c is the least e >= -d_1 with h0(e) >= d + e + 1: the gap between the
    # two sides does not decrease from -d_1 on, and h0(e) >= D + r(e + 1)
    # makes it >= 0 at hi, the least e with (r - 1)(e + 1) >= d - D
    c0, hi = -ds[0], (d - st.degree - 1) // (st.rank - 1)
    c = c0 + bisect_left(range(c0, hi), True,
                         key=lambda e: st.h0(e) >= d + e + 1)
    j = st.h0(c) - (d + c)
    k = sum(1 for x in ds if x >= -c) - j
    rest = tuple(x for x in ds if x < -c)
    return SplittingType((d,) + (-c,) * (j - 1) + (-c - 1,) * k + rest)


def remove_line(st: SplittingType, d: int):
    """Drop one summand of degree exactly d."""
    if st.rank == 1:
        raise ValueError("cannot remove the last summand")
    ds = list(st.degrees)
    try:
        ds.remove(d)
    except ValueError:
        raise ValueError("no summand of degree %d in %s" % (d, st)) from None
    return SplittingType(tuple(ds))
