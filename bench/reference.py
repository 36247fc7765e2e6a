"""A fixed reference kernel, timed next to every case, that turns wall
times into times at a nominal machine speed.

The machines this benchmark runs on are shared: outside load slows
everything in the process by up to half, for stretches of seconds to
minutes, and neither CPU time nor the fastest of several passes escapes it.
The kernel below does the kind of work the library's hot paths do,
fraction-free elimination and big-integer products, but never touches the
library, so a library change cannot move it. (Of the candidates tried,
Fraction sums and dict traffic tracked the library's slowdowns worst.) Its
duration around a case measures how fast the machine was at that moment; a
case time scaled by NOMINAL_S / (that duration) is the time the case would
have taken on a machine where the kernel takes NOMINAL_S.
"""
from __future__ import annotations

import random
import statistics
import time

NOMINAL_S = 0.85e-3   # about the kernel's time on an unloaded 2-core 2.1 GHz Xeon
WINDOW = 8            # kernel timings on each side of a case that set its speed

_rng = random.Random(20080698)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(14)] for _ in range(10)]
_FACTORS = [3 ** 700 + i for i in range(12)]
_MODULUS = 7 ** 900


def _bareiss():
    m = [row[:] for row in _MATRIX]
    prev, rank = 1, 0
    for c in range(14):
        sel = next((i for i in range(rank, 10) if m[i][c]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        piv = m[rank][c]
        for i in range(rank + 1, 10):
            f = m[i][c]
            m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], m[rank])]
        prev, rank = piv, rank + 1
        if rank == 10:
            break
    return rank


def kernel():
    acc = 1
    for _ in range(6):
        for x in _FACTORS:
            acc = acc * x % _MODULUS
    return _bareiss() + _bareiss(), acc


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(times, refs):
    """times[k] at nominal speed; refs[k] is the kernel timing taken just
    before times[k], and the median of the timings within WINDOW of k
    stands for the machine's speed during it."""
    out = []
    for k, t in enumerate(times):
        local = statistics.median(refs[max(0, k - WINDOW):k + WINDOW + 1])
        out.append(t * NOMINAL_S / local)
    return out
