"""A fixed piece of exact arithmetic that measures how fast this process runs right now.

The machine the benchmark runs on is shared: its speed drifts by a fifth or
more over tens of seconds, so two runs of the same code minutes apart differ
more than the bounds a useful benchmark can allow.  The runner therefore
times this kernel in its own process right after each child process ends
and scales that child's times by REFERENCE_S / kernel time.  The runner
never imports boolekit, so nothing boolekit does (at import time or later)
can change the kernel's time.  The kernel uses only the standard library and
does the same kind of work the workloads do: Fraction powers and binomial
sums, and fraction-free integer elimination.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# Scaled times are in seconds as if the kernel took this long.
REFERENCE_S = 0.1

_REPEATS = 10
_ORDER = 36
_SIDE = 28


def _kernel() -> tuple[Fraction, int]:
    total = Fraction(0)
    for n in range(_ORDER):
        for k in range(n + 1):
            total += (-1) ** k * math.comb(n, k) * Fraction(2 * k + 1, 7) ** n
    rows = [[(i + 3) ** j for j in range(_SIDE)] for i in range(_SIDE)]
    previous = 1
    for p in range(_SIDE - 1):
        for i in range(p + 1, _SIDE):
            for j in range(p + 1, _SIDE):
                rows[i][j] = (rows[p][p] * rows[i][j] - rows[i][p] * rows[p][j]) // previous
        previous = rows[p][p]
    return total, rows[-1][-1]


def kernel_seconds() -> float:
    """Wall time of the kernel in this process, now.

    The cyclic collector is paused meanwhile: the kernel makes no cycles,
    and a collection would charge the size of the caller's heap to it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        for _ in range(_REPEATS):
            _kernel()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()
