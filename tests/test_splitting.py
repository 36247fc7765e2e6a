"""Splitting types, dominance order, Hilbert tables, line merge and removal."""
import random

import pytest

from treebundles.splitting import (HilbertFunction, SplittingType,
                                   hilbert_function, merge_with_line,
                                   remove_line, specializes_p1,
                                   splitting_from_hilbert)


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


def test_hilbert_function_golden():
    hf = hilbert_function(SplittingType((2, 0)))
    assert (hf.lo, hf.hi) == (-3, 0)
    assert hf.values == (0, 1, 2, 4)
    assert hf.value(-10) == 0
    assert hf.value(2) == 2 + 2 * 3  # closed form above the window


def test_hilbert_roundtrip():
    rng = random.Random(8)
    for _ in range(100):
        r = rng.randint(1, 5)
        st = SplittingType(tuple(rng.randint(-5, 5) for _ in range(r)))
        assert splitting_from_hilbert(hilbert_function(st)) == st


def test_hilbert_equality_ignores_window_padding():
    st = SplittingType((1, -1))
    a = hilbert_function(st)
    b = HilbertFunction(2, 0, a.lo - 2, (0, 0) + a.values)
    assert a == b


def test_hilbert_rejects_unrealizable_tables():
    with pytest.raises(ValueError, match="vanishes"):
        HilbertFunction(1, 0, 0, (1, 2)).check()
    with pytest.raises(ValueError, match="differences"):
        # drop then climb is not a section count of any splitting type
        HilbertFunction(2, 1, -2, (0, 2, 2, 5)).check()


def test_merge_with_line_goldens():
    assert merge_with_line(SplittingType((3, 1)), 3) == SplittingType((3, 1))
    assert merge_with_line(SplittingType((0, 0)), 1) == SplittingType((1, -1))
    assert merge_with_line(SplittingType((2, -2)), 0) == SplittingType((2, -2))


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
