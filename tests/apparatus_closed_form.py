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

import cmath
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


def fidelity_deficit(r: float, alpha: complex, eps: float, delta: float) -> float:
    """The leakage sweep's fidelity deficit at D for a phase delta on inner arm 1.

    At the end, the detector mode holds F(delta) = F_0 + z F_m with
    z = e^{i delta} - 1, F_0 = -r^2 |u> (the outer arm, unmarked probes u)
    and F_m = -(t^2/2) |m> (the leaked inner arm, Kerr-marked probes m), one
    branch each, where <u|m> = exp(|alpha|^2 (e^{-i eps} - 1)).  The deficit
    1 - |<F_0|F>|^2 / (||F_0||^2 ||F||^2) is then
    |z|^2 (t^4/4) (1 - |<u|m>|^2) / ||F||^2, with
    1 - |<u|m>|^2 = -expm1(-4 |alpha|^2 sin^2(eps/2)) and
    ||F||^2 = r^4 + r^2 t^2 Re(z <u|m>) + |z|^2 t^4/4.
    """
    t_sq = 1.0 - r * r
    n = abs(alpha) ** 2
    half = math.sin(0.5 * eps)
    s = math.sin(0.5 * delta)
    z, zz = 2j * s * cmath.exp(0.5j * delta), 4.0 * s * s
    overlap = cmath.exp(complex(-2.0 * n * half * half, -n * math.sin(eps)))
    norm = r ** 4 + r * r * t_sq * (z * overlap).real + zz * t_sq * t_sq / 4.0
    return zz * t_sq * t_sq / 4.0 * -math.expm1(-4.0 * n * half * half) / norm


def deficit_scale(r: float, alpha: complex, eps: float, delta: float) -> float:
    """|z|^2 ||F_m||^2 / ||F||^2: :func:`fidelity_deficit` with the probes told fully apart.

    The deficit's rounding is relative to this scale, since the engine
    forms 1 - |<u|m>|^2 as a difference of its sums.
    """
    return fidelity_deficit(r, alpha, eps, delta) / -math.expm1(
        -4.0 * abs(alpha) ** 2 * math.sin(0.5 * eps) ** 2)
