"""Closed forms of the paper apparatus built by ``build_nested_mzi(r, alpha, eps)``.

The apparatus holds at most three branches, each carrying the probe
rotation exp(-i eps) or none, so every quantity read here follows from the
paper's derivation in (r, alpha, eps) alone, with no Fock truncation:

* the photon reaches the detector arm (mode 0 at L3p) with probability r^2
  and leaves through the exit (mode 2) with probability 1 - r^2;
* the inner dark output (mode 1 at L3) stays empty;
* a detector click leaves the probes in (i sqrt(2) alpha, 0), whose mean
  photon numbers are (2 |alpha|^2, 0);
* an exit leaves mean photon numbers 2 |alpha|^2 (cos^2(eps/2), sin^2(eps/2));
* the fringe of the probe interferometer, post-selected on the exit, is
  shifted by eps against the coupling-off fringe;
* a phase delta on inner arm 1 leaks t^2 sin^2(delta/2) into the inner dark
  output, t^2 = 1 - r^2;
* at eps = 0 the weak values of the mode projectors at L2, against the
  detector at the final stage, are (1, t^2 / (2 r^2), -t^2 / (2 r^2)):
  (1, 8/9, -8/9) at r = 0.6.

1 - cos(eps) is written as 2 sin^2(eps/2), which keeps its digits at tiny
eps (1 - cos(1e-13) rounds to 0).  Rounding in the engine's overlaps grows
as |alpha|^2 times machine epsilon, so :func:`tolerance` scales with it.
"""

from __future__ import annotations

import math


def tolerance(alpha: complex) -> float:
    magnitude = abs(alpha)
    return 1e-12 * max(1.0, magnitude * magnitude)


def detector_probability(r: float) -> float:
    return r * r


def exit_probability(r: float) -> float:
    return 1.0 - r * r


def detector_probes(alpha: complex) -> tuple[complex, complex]:
    return 1j * math.sqrt(2.0) * alpha, 0j


def detector_means(alpha: complex) -> tuple[float, float]:
    magnitude = abs(alpha)
    return 2.0 * magnitude * magnitude, 0.0


def exit_means(alpha: complex, eps: float) -> tuple[float, float]:
    n = detector_means(alpha)[0]
    return n * math.cos(0.5 * eps) ** 2, n * math.sin(0.5 * eps) ** 2


def fringe_shift(eps: float) -> float:
    return eps % (2.0 * math.pi)


def dark_port_leak(r: float, delta: float) -> float:
    return (1.0 - r * r) * math.sin(0.5 * delta) ** 2


def l2_weak_values(r: float) -> tuple[float, float, float]:
    ratio = (1.0 - r * r) / (2.0 * r * r)
    return 1.0, ratio, -ratio
