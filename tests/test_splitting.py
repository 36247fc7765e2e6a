"""Splitting types, dominance order, line merge and removal."""
import random
import time

import pytest

from treebundles.splitting import (SplittingType, merge_with_line, remove_line,
                                   specializes_p1)


def test_degrees_sorted_descending():
    assert SplittingType((0, 3, -1)).degrees == (3, 0, -1)
    assert SplittingType((1,)).rank == 1
    with pytest.raises(ValueError):
        SplittingType(())


def test_rank_degree_twist():
    st = SplittingType((3, 1))
    assert (st.rank, st.degree) == (2, 4)
    assert st.twist(-2).degrees == (1, -1)
    assert str(st) == "(3, 1)"


def test_cohomology_closed_forms():
    st = SplittingType((2, 0, -3))
    assert st.h0() == 3 + 1 + 0
    assert st.h1() == 0 + 0 + 2
    # Euler characteristic at every twist
    for e in range(-5, 5):
        assert st.h0(e) - st.h1(e) == st.degree + st.rank * (e + 1)


def test_specializes_p1_cases():
    bal, unbal = SplittingType((2, 2)), SplittingType((3, 1))
    assert specializes_p1(bal, unbal)
    assert not specializes_p1(unbal, bal)
    assert specializes_p1(bal, bal)
    # rank or degree mismatch is never a specialization
    assert not specializes_p1(SplittingType((2,)), SplittingType((1, 1)))
    assert not specializes_p1(SplittingType((2, 2)), SplittingType((3, 2)))
    # non-adjacent jump
    assert specializes_p1(SplittingType((1, 1, 1)), SplittingType((3, 0, 0)))


def test_specialization_is_h0_monotone():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(1, 4)
        a = SplittingType(tuple(rng.randint(-4, 4) for _ in range(r)))
        b = SplittingType(tuple(rng.randint(-4, 4) for _ in range(r)))
        if not specializes_p1(a, b):
            continue
        for e in range(-6, 6):
            assert a.h0(e) <= b.h0(e)


def test_merge_with_line_goldens():
    assert merge_with_line(SplittingType((3, 1)), 3) == SplittingType((3, 1))
    assert merge_with_line(SplittingType((0, 0)), 1) == SplittingType((1, -1))
    assert merge_with_line(SplittingType((2, -2)), 0) == SplittingType((2, -2))
    with pytest.raises(ValueError):
        merge_with_line(SplittingType((2,)), 3)


def test_merge_with_line_cost_does_not_depend_on_the_degree():
    t0 = time.perf_counter()
    merged = merge_with_line(SplittingType((1, -1)), 2 * 10**6)
    assert merged == SplittingType((2000000, -2000000))
    assert time.perf_counter() - t0 < 1.0


def _envelope_type(st, d):
    """Reference merge: tabulate max(h0 of O(d), h0 of st) on a window past
    every jump and read the summands back from its first differences."""
    lo = -max(d, st.degrees[0]) - 1
    hi = max(-d, -st.degrees[-1]) + abs(d) + abs(st.degree) + 2
    h = [max(0, d + e + 1, st.h0(e)) for e in range(lo, hi + 1)]
    counts = [0] + [b - a for a, b in zip(h, h[1:])]
    if any(b < a for a, b in zip(counts, counts[1:])):
        raise ValueError("first differences decrease")
    degrees = [-(lo + i) for i in range(1, len(counts))
               for _ in range(counts[i] - counts[i - 1])]
    if (len(degrees), sum(degrees)) != (st.rank, st.degree):
        raise ValueError("envelope is not realizable at st's rank and degree")
    return SplittingType(tuple(degrees))


def test_merge_with_line_matches_envelope_reference():
    rng = random.Random(10)
    raised = 0
    for _ in range(10000):
        st = SplittingType(tuple(rng.randint(-6, 6)
                                 for _ in range(rng.randint(1, 6))))
        d = rng.randint(st.degrees[-1] - 4, st.degrees[0] + 12)
        try:
            want = _envelope_type(st, d)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                merge_with_line(st, d)
            continue
        assert merge_with_line(st, d) == want, (st, d)
    assert raised > 500  # the rank-1 cases with d above the summand


def test_merge_with_line_is_h0_envelope():
    rng = random.Random(9)
    for _ in range(120):
        r = rng.randint(1, 4)
        st = SplittingType(tuple(rng.randint(-4, 4) for _ in range(r)))
        d = rng.randint(-4, st.degrees[0] if r == 1 else 6)
        merged = merge_with_line(st, d)
        line = SplittingType((d,))
        assert merged.rank == st.rank and merged.degree == st.degree
        for e in range(-12, 12):
            assert merged.h0(e) == max(st.h0(e), line.h0(e))
        # absorbing a line only generalizes the h0 profile upward
        assert specializes_p1(st, merged)
        if d >= st.degrees[0]:
            # a line at or above the top summand survives as a summand
            assert d in merged.degrees


def test_remove_line():
    assert remove_line(SplittingType((3, 1)), 3) == SplittingType((1,))
    assert remove_line(SplittingType((2, 2, 0)), 2) == SplittingType((2, 0))
    with pytest.raises(ValueError, match="no summand"):
        remove_line(SplittingType((2, 0)), 1)
    with pytest.raises(ValueError, match="last"):
        remove_line(SplittingType((5,)), 5)
