"""Machine-speed calibration for the benchmark's end-to-end times.

On a shared virtual machine the CPU speed can change by up to 2x over
seconds to minutes as other tenants load the same cores (seen on a 2 vCPU
Intel Xeon VM); one and the same analyze() call then takes up to 2x longer,
in wall time and in CPU time alike.  No statistic over one run removes a
slow phase that lasts the whole run, so every end-to-end time is scaled to
a fixed reference speed:
a fixed pure-Python kernel (a determinant over a prime field, the same kind
of work as the library's) is timed right before and right after each op and
each set-up, and the op's time is multiplied by REFERENCE_S over the mean
of those two kernel times.  Over 30 s windows of one distance_enum run,
this cut the quartile spread of ops per second from 18% to 3%.

The kernel allocates no container objects, so it never triggers the cyclic
garbage collector and its time does not depend on how much memory the
library holds.
"""

from __future__ import annotations

import random
import statistics
import time

P = 1009
N = 12
# Kernel calls per calibration block; the block reports their median.
REPS = 5
# The kernel's median time in the fast phase of the machine the benchmark
# was defined on (2 vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7; 102 to
# 283 us per call were seen there).  Scaled times are times at the speed
# where the kernel takes REFERENCE_S; the constant sets the unit only, and
# cancels when two commits are compared.
REFERENCE_S = 110e-6


def _tables() -> tuple[list[int], list[int]]:
    """exp and log tables of GF(P) for the smallest primitive root."""
    # 2, 3 and 7 are the prime factors of P - 1 = 1008.
    g = next(g for g in range(2, P) if all(pow(g, (P - 1) // r, P) != 1 for r in (2, 3, 7)))
    exp = [0] * (2 * (P - 1))
    log = [0] * P
    x = 1
    for i in range(P - 1):
        exp[i] = exp[i + P - 1] = x
        log[x] = i
        x = x * g % P
    return exp, log


_EXP, _LOG = _tables()


def _sub(a: int, b: int) -> int:
    return (a - b) % P


def _mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _inv(a: int) -> int:
    return _EXP[P - 1 - _LOG[a]]


_rng = random.Random("perfbench-speed")
_SOURCE = tuple(tuple(_rng.randrange(1, P) for _ in range(N)) for _ in range(N))
_WORK = [list(row) for row in _SOURCE]


def kernel() -> int:
    """Determinant of the fixed N x N matrix over GF(P), in place.

    Field operations go through small functions and exp/log tables, as in
    the library's table fields, so the kernel slows down under contention
    about as much as the library does.
    """
    a = _WORK
    for i in range(N):
        a[i][:] = _SOURCE[i]
    det = 1
    for c in range(N):
        r = c
        while not a[r][c]:
            r += 1
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = _sub(0, det)
        ac = a[c]
        det = _mul(det, ac[c])
        inv = _inv(ac[c])
        for r in range(c + 1, N):
            ar = a[r]
            f = _mul(ar[c], inv)
            if f:
                for j in range(c, N):
                    ar[j] = _sub(ar[j], _mul(f, ac[j]))
    return det


def block() -> float:
    """Median seconds of one kernel call over REPS calls."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds at the reference speed, given the kernel blocks around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
