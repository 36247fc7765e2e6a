"""Splitting types of vector bundles on the projective line.

Every bundle on P^1 is a direct sum of line bundles, so an isomorphism
class is a weakly decreasing integer tuple. Cohomology is a closed
formula, and the specialization (dominance) order is a partial-sum
comparison at fixed rank and degree.
"""
from __future__ import annotations

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


class HilbertFunction:
    """Section counts e -> h0(e) of a P^1 bundle, tabulated on the window
    where they are not forced by the two closed forms (0 below, degree +
    rank*(e+1) above)."""

    def __init__(self, rank, degree, lo, values):
        self.rank = int(rank)
        self.degree = int(degree)
        self.lo = int(lo)
        self.values = tuple(int(v) for v in values)
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if not self.values:
            raise ValueError("empty value window")

    @property
    def hi(self):
        return self.lo + len(self.values) - 1

    def value(self, e):
        if e < self.lo:
            return 0
        if e > self.hi:
            return self.degree + self.rank * (e + 1)
        return self.values[e - self.lo]

    def check(self):
        """Raise unless the table is consistent with some splitting type."""
        if self.value(self.lo) != 0:
            raise ValueError("window must start where h0 vanishes")
        top = self.degree + self.rank * (self.hi + 1)
        if self.values[-1] != top:
            raise ValueError("window must end on the Euler characteristic line")
        last_diff = 0
        for e in range(self.lo, self.hi + 1):
            diff = self.value(e) - self.value(e - 1)
            if diff < last_diff or diff > self.rank:
                raise ValueError("first differences must climb from 0 to the rank")
            last_diff = diff
        if last_diff != self.rank:
            raise ValueError("first differences never reach the rank")
        return self

    def __eq__(self, other):
        if not isinstance(other, HilbertFunction):
            return NotImplemented
        if (self.rank, self.degree) != (other.rank, other.degree):
            return False
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return all(self.value(e) == other.value(e) for e in range(lo, hi + 1))

    def __repr__(self):
        return "HilbertFunction(rank=%d, degree=%d, lo=%d, values=%r)" % (
            self.rank, self.degree, self.lo, self.values)


def hilbert_function(st: SplittingType):
    lo = -st.degrees[0] - 1
    hi = -st.degrees[-1]
    return HilbertFunction(st.rank, st.degree,
                           lo, [st.h0(e) for e in range(lo, hi + 1)])


def splitting_from_hilbert(h: HilbertFunction):
    """Invert hilbert_function: the count of summands with d >= -e is the
    first difference h0(e) - h0(e-1)."""
    h.check()
    degrees = []
    prev = 0
    for e in range(h.lo, h.hi + 1):
        diff = h.value(e) - h.value(e - 1)
        degrees.extend([-e] * (diff - prev))
        prev = diff
    st = SplittingType(tuple(degrees))
    if st.rank != h.rank or st.degree != h.degree:
        raise ValueError("table is not realizable at rank %d degree %d"
                         % (h.rank, h.degree))
    return st


def merge_with_line(st: SplittingType, d: int):
    """The splitting type whose h0 at every twist is max(h0 of O(d), h0 of st).

    This is the unique candidate that absorbs a degree-d line bundle while
    staying a specialization target; it exists at st's rank and degree
    whenever d stays within reach (rank 1 with d above the degree has no
    such type, and the reconstruction raises).
    """
    lo = min(-d - 1, -st.degrees[0] - 1)
    hi = max(-d, -st.degrees[-1])
    if st.rank > 1:
        # past this point the rank-r side outgrows the line permanently
        cross = -((-(d - st.degree)) // (st.rank - 1))  # ceil division
        hi = max(hi, cross)
    line = SplittingType((d,))
    values = [max(line.h0(e), st.h0(e)) for e in range(lo, hi + 1)]
    return splitting_from_hilbert(
        HilbertFunction(st.rank, st.degree, lo, values))


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
