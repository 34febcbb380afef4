"""Calibration kernels for run.py, run in a process of their own.

For every line read from stdin it prints how much slower than the reference
host this machine runs right now: the geometric mean of two fixed kernels,
each relative to its reference time.  One is an interpreter-bound integer
loop; the other makes numpy passes over arrays of the size naive point
counting uses.  The program's time is a mix of both kinds of work, and
contention from other tenants slows them by different amounts.

The kernels live outside run.py so that run.py stays small: Linux carries
the spawning process's peak RSS over into each child's ru_maxrss, and
importing numpy would lift run.py above the smallest report.
"""

import math
import sys
import time

import numpy as np

LOOPS = 600_000
PRIMES = (40009, 50021, 60013, 65521, 30011, 45007) * 4
REFERENCE_LOOP_S = 0.07     # the two kernels on a quiet 2-core host
REFERENCE_ARRAY_S = 0.022


def slowdown() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    for ell in PRIMES:
        x = np.arange(ell, dtype=np.int64)
        rhs = (4 * x + 5) % ell * x % ell
        is_sq = np.zeros(ell, dtype=np.int8)
        is_sq[x * x % ell] = 1
        acc += int(is_sq[rhs].sum())
    array_s = time.perf_counter() - start
    return math.sqrt(loop_s / REFERENCE_LOOP_S * array_s / REFERENCE_ARRAY_S)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(slowdown()), flush=True)
