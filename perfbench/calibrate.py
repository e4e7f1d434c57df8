"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core can change by a factor of two for
seconds at a time, because other tenants load the same physical cores.
Identical adlog work then reads 20-35 % apart between runs.  To keep the
benchmark steady, a fixed pure-Python kernel is timed next to the measured
work, and each timing is scaled by REFERENCE_S / (the kernel's time nearby).
A scaled time is the time the work would take on a machine where the kernel
takes REFERENCE_S; raw wall times are kept in the result record.

The kernel does the two kinds of work adlog does: building small objects
(tuples, strings, frozensets, dicts and sets, as grounding does) and
integer fixpoint loops over lists (as the well-founded and stable-model
checks do).  Under contention these slow down by different amounts, so the
kernel has both.  It shares no code with adlog, so a change to adlog cannot
change the kernel's time.  The garbage collector is off while the kernel
runs, so the size of adlog's heap does not change its cost either.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# The kernel's median time on a shared 2-vCPU x86-64 VM in its fast phase.
REFERENCE_S = 0.0022

# Rules (head, positive body, floor) over 300 atoms for the propagation half.
_RULES = [(i % 300, tuple((7 * i + j) % 300 for j in range(i % 4)), i % 3) for i in range(900)]


def _pair(i: int) -> tuple:
    return (i % 97, f"c{i % 13}", i)


def _allocate() -> int:
    """Object-building half: tuples, strings, frozensets, a dict and a set."""
    table = {}
    for i in range(2000):
        table[_pair(i)] = frozenset((i, i + 1))
    seen = set()
    for key, value in table.items():
        if key[0] in value or len(value) == 2:
            seen.add((key[1], key[0]))
    return len(seen)


def _propagate() -> int:
    """Integer half: a least-fixpoint loop over list-indexed rules."""
    total = 0
    for _ in range(4):
        vals = [0] * 300
        changed = True
        while changed:
            changed = False
            for head, pos, floor in _RULES:
                v = floor
                for p in pos:
                    if vals[p] < v:
                        v = vals[p]
                if v > vals[head]:
                    vals[head] = v
                    changed = True
        total += sum(vals)
    return total


def kernel() -> float:
    """Seconds one run of the calibration kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _allocate()
        _propagate()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factors(kernel_times: list[float], count: int, window: int = 2) -> list[float]:
    """Scale factor of each of `count` samples timed between kernel runs.

    kernel_times[i] is taken just before sample i and kernel_times[i+1] just
    after it.  Sample i is scaled by REFERENCE_S over the median of the
    kernel times from i-window to i+window+1, which surround it.
    """
    return [REFERENCE_S / statistics.median(kernel_times[max(0, i - window): i + window + 2])
            for i in range(count)]


def scale(samples: list[float], kernel_times: list[float]) -> list[float]:
    return [s * f for s, f in zip(samples, factors(kernel_times, len(samples)))]
