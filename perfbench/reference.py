"""Reference kernel that measures how fast the host runs Python right now.

A shared host's speed for the same pure-Python work can swing by up to 2x
from one second to the next (shared cores).  The benchmark times this fixed
kernel next to every request and scales the request's wall time by
``NOMINAL_S / kernel time``: figures are then milliseconds on a host that
runs the kernel in ``NOMINAL_S``, which stays put while the host's speed
moves.  The kernel is plain Python with no latpoly code (dicts keyed by
tuples, sorting, Fraction arithmetic, like the ring), so no change to
latpoly can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: kernel time of the host this benchmark was tuned on, in its fast phase
NOMINAL_S = 0.0008


def kernel() -> Fraction:
    acc = {}
    f = Fraction(1)
    for i in range(120):
        key = (("a", i % 7), ("b", i % 5))
        acc[key] = acc.get(key, 0) + Fraction(i % 11, 3)
        f = f * Fraction(i % 5 + 1, 7) + 1 if i % 40 else Fraction(1)
    sorted(acc.items())
    return f


def kernel_seconds(repeats: int = 5) -> float:
    """Median of a few kernel runs.

    One run is short next to a request and the host's speed flickers, so a
    single timing is a noisy speed estimate; the median of five steadies it.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
