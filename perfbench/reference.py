"""Reference kernel: a fixed piece of exact-integer work, timed next to every
benchmark operation to measure the host's speed at that moment.

The kernel has the profile of the program's hot path (generalized
binomials by one-factor-at-a-time division, Bareiss elimination on 4 x 4
binomial matrices) but shares no code with it, so no change to the program
moves it. Run on the CPUs the operation was pinned to, just before and just
after the operation, its time rises and falls with the slow phases of a
shared host; dividing an operation's wall time by it cancels them.
"""

from __future__ import annotations

import os
import time

REPS = 30


def _binom(a: int, b: int) -> int:
    if b < 0:
        return 0
    out = 1
    for k in range(b):
        out = out * (a - k) // (k + 1)
        if out == 0:
            break
    return out


def _det(rows: list[list[int]]) -> int:
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for p in range(k + 1, n):
            lead = a[p][k]
            for q in range(k + 1, n):
                a[p][q] = (a[p][q] * pivot - lead * a[k][q]) // prev
            a[p][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def kernel() -> int:
    """One pass: 44 determinants of binomial matrices. Returns their sum,
    375, so the work cannot be skipped."""
    total = 0
    for v0 in range(1, 9):
        for v1 in range(v0 + 1, 11):
            values = (v0, v1, v1 + 2, v1 + 5)
            shifts = (v0 % 3, v1 % 2, 1, 0)
            rows = [[_binom(values[q], p - shifts[q]) for q in range(4)] for p in range(4)]
            total += _det(rows)
    return total


def reference_s(cpus: list[int]) -> list[float]:
    """Time of REPS kernel passes on each of the given CPUs, run one CPU at
    a time; the process's CPU affinity is restored afterwards."""
    own = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            for _ in range(REPS):
                if kernel() != 375:
                    raise RuntimeError("reference kernel returned a wrong value")
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, own)
    return times
