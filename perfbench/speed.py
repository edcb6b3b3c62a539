"""Solve times scaled to a fixed reference speed of the machine.

On a shared virtual machine the speed of one core drifts by up to ~40%
over periods of seconds (other tenants, host frequency), so a 20-second
run can fall mostly in a fast or mostly in a slow period, and raw medians
jump between runs by more than any useful regression bound.

:class:`SpeedProbe` times a fixed pure-Python kernel (complex arithmetic,
``cmath.exp``, tuple allocation: the simulator's instruction mix, and no
``qndmzi`` code, so no change to the program can move it) before and after
every timed call.  A call's time is scaled by ``REFERENCE_S`` over the mean
of the two kernel samples around it: the result reads as the call's time on
a machine where the kernel takes ``REFERENCE_S``.  Raw times are kept too.
"""

from __future__ import annotations

import cmath
import statistics
from time import perf_counter

#: Kernel time that defines the reference speed: about its median on the
#: 2-core virtual machine the benchmark was tuned on.  Any constant works;
#: it only fixes the unit.
REFERENCE_S = 5e-5


def kernel() -> complex:
    acc = 0j
    z = complex(0.3, 0.4)
    for k in range(150):
        acc += cmath.exp(z * (k * 1e-3)) * (k & 7)
        pair = (acc, k)
    return pair[0]


def sample() -> float:
    """Median time of three kernel runs, in seconds."""
    runs = []
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        runs.append(perf_counter() - t0)
    return statistics.median(runs)


class SpeedProbe:
    """Raw times of calls and the kernel samples taken between them."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.kernel: list[float] = [sample()]

    def time(self, fn, *args):
        """Call ``fn(*args)``, record its wall time, then sample the kernel."""
        t0 = perf_counter()
        out = fn(*args)
        self.raw.append(perf_counter() - t0)
        self.kernel.append(sample())
        return out

    def scaled(self) -> list[float]:
        """Every recorded time at reference speed."""
        return [
            d * 2.0 * REFERENCE_S / (before + after)
            for d, before, after in zip(self.raw, self.kernel, self.kernel[1:])
        ]
