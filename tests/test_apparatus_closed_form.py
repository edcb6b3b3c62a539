"""The paper apparatus against its closed forms over |alpha| up to 1e150.

Each case runs ``run_both`` on ``build_nested_mzi(r, alpha, eps)`` and reads
the detector, exit and dark-port post-selections.  Where a port is empty
(the detector at r = 0, the exit at r = 1) only its probability is checked.
The fringe shift, the dark-port leak, the fidelity deficit and the L2 weak
values come from ``fringe_scan``, ``leakage_sweep`` and ``tsvf_report``.
"""

import cmath
import math

import pytest

from qndmzi import (
    build_nested_mzi, fringe_scan, leakage_sweep, postselect, run_both, tsvf_report
)

import apparatus_closed_form as cf

MAGNITUDES = (1e-3, 2.0, 1e3, 1e8, 1e150)
ARGS = (0.0, 1.0, -2.5)
EPS = (1e-13, 0.3, math.pi)
RS = (0.0, 0.6, 1.0)
#: |alpha| of the fringe and leakage checks: their closed forms hold at
#: every |alpha| whose first norm does not overflow.
WIDE_MAGNITUDES = (1e-3, 2.0, 1e3, 1e6, 1e8, 1e100, 1e150)
FRINGE_PHIS = tuple(2.0 * math.pi * i / 64 for i in range(64))
DELTAS = (1e-4, 0.3, math.pi, -2.0)
#: Absolute tolerance of the leak and the weak values.
ABS_TOL = 1e-12
#: Absolute tolerance of the fringe shift, in radians.  The shift is the
#: angle between two first harmonics, each read off three sampled phases;
#: the largest error seen is 4.4e-16 at every |alpha| here, and at eps =
#: 1e-13 it must stay absolute.
SHIFT_TOL = 1e-14
#: The leak against t^2 sin^2(delta/2), relative, in ulps; the largest
#: error seen is 2.6.
LEAK_ULPS = 4
#: The fidelity deficit against :func:`apparatus_closed_form.fidelity_deficit`,
#: in ulps of max(1, |alpha|^2) times :func:`apparatus_closed_form.deficit_scale`:
#: the engine forms 1 - |<u|m>|^2 as a difference of sums whose overlaps
#: round as |alpha|^2 ulp.  The largest error over these inputs is 2.4.
DEFICIT_ULPS = 16
ULP = 2.0 ** -52
#: Deltas from 1e-12 to pi, log-spaced, with both signs.
SMALL_TO_PI = tuple(10.0 ** (-12.0 + 12.5 * i / 40) for i in range(40)) + (math.pi, -1e-9, -2.0)


def check_apparatus(r: float, alpha: complex, eps: float) -> None:
    trace = run_both(build_nested_mzi(r, alpha, eps))
    tol = cf.tolerance(alpha)
    detector = postselect(trace, 0)
    exit_port = postselect(trace, 2, compute_fidelity=False)
    dark = postselect(trace, 1, at="L3", compute_fidelity=False)

    assert abs(detector.probability - cf.detector_probability(r)) <= tol
    assert abs(exit_port.probability - cf.exit_probability(r)) <= tol
    assert dark.probability <= tol

    if r > 0.0:
        for branch in detector.conditional.branches:
            for got, want in zip(branch.probes, cf.detector_probes(alpha)):
                assert abs(got - want) <= tol
        for got, want in zip(detector.probe_mean_photons, cf.detector_means(alpha)):
            assert abs(got - want) <= tol
    if r < 1.0:
        for got, want in zip(exit_port.probe_mean_photons, cf.exit_means(alpha, eps)):
            assert abs(got - want) <= tol


@pytest.mark.parametrize("r", RS)
@pytest.mark.parametrize("magnitude", MAGNITUDES)
def test_apparatus_matches_closed_form(magnitude, r):
    for arg in ARGS:
        for eps in EPS:
            check_apparatus(r, cmath.rect(magnitude, arg), eps)


@pytest.mark.xfail(raises=ValueError, strict=True, reason="non-finite inner product")
def test_apparatus_beyond_1e154():
    # exp(-|a|^2/2 - |b|^2/2 + conj(a) b) cancels terms of size |alpha|^2,
    # which overflow past |alpha| ~ 1e154: the first norm, in postselect,
    # raises.
    check_apparatus(0.6, cmath.rect(1e160, 1.0), 0.3)


def test_empty_ports_report_zero_probability():
    alpha = cmath.rect(2.0, 1.0)
    detector = postselect(run_both(build_nested_mzi(0.0, alpha, 0.3)), 0)
    exit_port = postselect(run_both(build_nested_mzi(1.0, alpha, 0.3)), 2)
    for empty in (detector, exit_port):
        assert empty.probability == 0.0
        assert empty.conditional is None


def angle_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


@pytest.mark.parametrize("magnitude", WIDE_MAGNITUDES)
def test_exit_fringe_shift_equals_eps(magnitude):
    for arg in ARGS:
        for eps in EPS:
            circuit = build_nested_mzi(0.6, cmath.rect(magnitude, arg), eps)
            scan = fringe_scan(circuit, 2, FRINGE_PHIS)
            assert angle_gap(scan.extracted_shift, cf.fringe_shift(eps)) <= SHIFT_TOL


@pytest.mark.parametrize("magnitude", WIDE_MAGNITUDES)
def test_dark_port_leak(magnitude):
    for arg in ARGS:
        for eps in EPS:
            for r in (0.3, 0.6, 0.95):
                circuit = build_nested_mzi(r, cmath.rect(magnitude, arg), eps)
                for point in leakage_sweep(circuit, DELTAS):
                    want = cf.dark_port_leak(r, point.delta)
                    assert abs(point.dark_port_probability - want) <= ABS_TOL


@pytest.mark.parametrize("magnitude", (1e-3, 2.0, 30.0, 1e4))
def test_leakage_sweep_matches_the_closed_forms_down_to_tiny_deltas(magnitude):
    # The leak and the deficit keep their relative digits as delta goes to
    # 1e-12: neither is formed as a difference that vanishes with delta.
    for arg in ARGS:
        for eps in (1e-13, 1e-6, 0.3, math.pi):
            for r in (0.05, 0.3, 0.6, 0.95, 1.0):
                alpha = cmath.rect(magnitude, arg)
                points = leakage_sweep(build_nested_mzi(r, alpha, eps), SMALL_TO_PI)
                for point in points:
                    leak = cf.dark_port_leak(r, point.delta)
                    assert abs(point.dark_port_probability - leak) <= LEAK_ULPS * ULP * leak
                    assert point.fidelity_deficit >= 0.0
                    if r == 1.0:
                        # t = 0: nothing leaks into the detector.
                        assert point.fidelity_deficit == 0.0
                        continue
                    want = cf.fidelity_deficit(r, alpha, eps, point.delta)
                    unit = ULP * max(1.0, magnitude * magnitude)
                    scale = cf.deficit_scale(r, alpha, eps, point.delta)
                    assert abs(point.fidelity_deficit - want) <= DEFICIT_ULPS * unit * scale


def test_leakage_sweep_with_the_detector_dark_raises():
    # At r = 0 the detector is empty whatever delta is.
    with pytest.raises(ValueError, match="unperturbed circuit is null"):
        leakage_sweep(build_nested_mzi(0.0, 2.0, 0.3), SMALL_TO_PI)


@pytest.mark.parametrize("magnitude", MAGNITUDES[:-1])
def test_l2_weak_values(magnitude):
    assert cf.l2_weak_values(0.6) == pytest.approx((1.0, 8.0 / 9.0, -8.0 / 9.0))
    for arg in ARGS:
        for r in (0.3, 0.6, 0.95):
            report = tsvf_report(build_nested_mzi(r, cmath.rect(magnitude, arg), 0.0))
            for mode, want in zip(report.stage("L2").modes, cf.l2_weak_values(r)):
                assert abs(mode.weak_value - want) <= ABS_TOL
