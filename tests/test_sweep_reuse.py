"""Prefix reuse and closed forms in sweeps, and prefix reuse in the post-selection twin.

The engine evolves the prefix a sweep shares once and resumes from it.  A
leakage sweep then runs the rest twice, for the unperturbed state and its
part in the perturbed arm, and takes every delta from the sums of those two
runs; a fringe scan runs three phases and evaluates every point from them
wherever its fringe is a degree-1 form, and else also runs every phase.
``sweep_reference`` keeps the naive path: every point re-runs its circuit
from the source.  Runs per point must give its bits under ``==``, closed
forms must agree within the bounds named here, the work must not grow with
the number of points, and bad arguments must fail before anything is
evolved.
"""

import cmath
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qndmzi.analysis
import qndmzi.circuit
import qndmzi.states
from qndmzi import (
    FINAL_STAGE,
    MERGE_TOL,
    PROBE,
    SOURCE_STAGE,
    SYS,
    BeamSplitter,
    Branch,
    Circuit,
    FringeScan,
    HybridState,
    KerrCoupling,
    LeakagePoint,
    PhaseShift,
    Snapshot,
    apply_element,
    build_nested_mzi,
    fringe_scan,
    leakage_sweep,
    postselect,
    run_backward,
    run_both,
    run_forward,
)
from deep_chains import deep_chain
from helpers import random_complex, random_element
import apparatus_closed_form as cf
import sweep_reference
from sweep_reference import (
    detector_probabilities,
    reference_fringe_scan,
    reference_leakage_sweep,
    reference_postselect,
)

PHIS = tuple(2.0 * math.pi * i / 12 for i in range(12))
DELTAS = (0.0, 1e-4, -3e-3, 1.0 / 3.0, math.pi)

#: Source probes with a signed zero in every part, some next to nonzero parts.
SIGNED_PROBES = (
    (complex(-0.0, -0.0), complex(0.0, -0.0)),
    (complex(2.0, -0.0), complex(-0.0, 0.0)),
    (complex(-0.0, 1.5), complex(-1.0, -0.0)),
)
SIGNED_PHIS = (0.0, -0.0, math.pi, -math.pi, 1.0, -0.0, 2.5)
SIGNED_DELTAS = (-0.0, 1e-4, math.pi, -math.pi, -0.0)

#: Angles that are not real numbers: complex ones, numpy's included (whose
#: imaginary part ``float`` drops), None and a string.
NOT_REAL = (0.1 + 1j, 0.1 + 0j, np.complex128(0.1 + 1j), np.complex64(0.5 + 0.25j), None, "0.1")

#: One unit in the last place of 1.0.
ULP = 2.0 ** -52

#: A closed-form fringe's intensities against the per-phase runs, as a
#: multiple of ulp * max(1, |p|^2) of the scan's largest intensity (both
#: ports), with |p| the largest source probe: the engine's overlaps round
#: as |p|^2 * ulp, and the per-phase runs carry that rounding where a
#: conditional state holds branches whose probes overlap.  The largest
#: error over this module's inputs is 6.4 of these units; on the preset the
#: two agree within about 1 ulp of the largest intensity.
INTENSITY_ULPS = 16

#: The split leakage sweep against the per-delta runs, as a multiple of
#: ulp * max(1, |p|^2) as above, divided for the deficit by the detector's
#: probability N at that delta where it is below 1.  Both are probabilities,
#: formed from sums of at most 1 in modulus; the split takes N from the
#: sums at delta 0 and the arm's, so where the detector dims at some delta
#: the deficit keeps its digits only relative to N.  The per-delta deficit
#: is 1 - F, which keeps only the digits that survive that cancellation.
#: The largest errors over this module's inputs are 2.5 of these units for
#: the leak and 9.0 for the deficit.
SWEEP_ULPS = 32


def _signed(rng, scale=1.0):
    """0.0, -0.0, +-pi or a uniform draw in [-scale, scale]: signed zeros a third of the time."""
    uniform = rng.uniform(-scale, scale)
    return rng.choice((0.0, -0.0, math.pi, -math.pi, uniform, uniform))


def _signed_circuit(rng):
    """The preset with signed-zero-rich r, eps_tau and source probe parts."""
    r = rng.choice((0.0, 1.0, rng.random()))
    eps = rng.choice((0.0, -0.0, rng.uniform(0.0, math.pi)))
    probes = tuple(complex(rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))),
                           rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0)))) for _ in range(2))
    return replace(build_nested_mzi(r, 2.0, eps), source_probes=probes)


def _grid():
    """Seeded r x alpha x eps cases: edge values plus random draws."""
    rng = random.Random(20141027)
    cases = []
    for r in (0.0, 0.6, 1.0, rng.uniform(0.05, 0.95)):
        for mag in (1e-3, 2.0, rng.uniform(3.0, 50.0), 1e3):
            alpha = cmath.rect(mag, rng.uniform(0.0, 2.0 * math.pi))
            for eps in (0.0, rng.uniform(0.01, math.pi)):
                cases.append((r, alpha, eps))
    return cases


GRID = _grid()


def _circuits(r, alpha, eps):
    """The apparatus detected at L3p as built, at the final stage, and at L2.

    L2 lies ahead of every insertion point, so the detected state is part of
    the shared prefix there.
    """
    circuit = build_nested_mzi(r, alpha, eps)
    return tuple(
        replace(circuit, detect_stage=stage) for stage in ("L3p", FINAL_STAGE, "L2")
    )


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


def _same_error(got, want):
    """Both outcomes are the same error.

    A non-finite sum names its value, which depends on the point that
    raised first: the closed forms raise at their first sampled point, the
    naive path at the first requested one.  Such messages compare up to the
    value.
    """
    for outcome in (got, want):
        assert isinstance(outcome, tuple) and isinstance(outcome[0], type), (got, want)
    if got[1].startswith("non-finite"):
        got, want = (got[0], got[1].split(":")[0]), (want[0], want[1].split(":")[0])
    assert got == want


def _largest(*values):
    return max(map(abs, values), default=0.0)


def _scale(circuit):
    """max(1, |p|^2) over the source probes p of ``circuit``."""
    return max(1.0, _largest(*circuit.source_probes) ** 2)


def _assert_scans_agree(got, want, circuit):
    """A closed-form scan against the per-phase ``want``: the same shift, bounded intensities.

    The shift is read off three phases that both paths run per point, so
    it keeps its bits; intensities agree within ``INTENSITY_ULPS`` of the
    largest, and the visibility within what that moves it by.  Errors are
    :func:`_same_error`.
    """
    if not isinstance(want, FringeScan):
        _same_error(got, want)
        return
    assert isinstance(got, FringeScan), got
    assert got.phis == want.phis
    assert got.extracted_shift == want.extracted_shift
    bound = INTENSITY_ULPS * ULP * _scale(circuit) * _largest(*want.intensity_dp1, *want.intensity_dp2)
    for a, b in zip(got.intensity_dp1 + got.intensity_dp2, want.intensity_dp1 + want.intensity_dp2,
                    strict=True):
        assert abs(a - b) <= bound
    top, bottom = max(want.intensity_dp1), min(want.intensity_dp1)
    assert abs(got.visibility - want.visibility) <= 4.0 * bound / (top + bottom)


def _assert_sweeps_agree(got, want, circuit, arm_mode=1):
    """A split leakage sweep against the per-delta ``want``, within ``SWEEP_ULPS``.

    Errors are :func:`_same_error`; no deficit is negative.
    """
    if not (isinstance(want, tuple) and (not want or isinstance(want[0], LeakagePoint))):
        _same_error(got, want)
        return
    bound = SWEEP_ULPS * ULP * _scale(circuit)
    detector = detector_probabilities(circuit, [p.delta for p in want], arm_mode)
    assert len(got) == len(want)
    for a, b, n in zip(got, want, detector):
        assert repr(a.delta) == repr(b.delta)
        assert abs(a.dark_port_probability - b.dark_port_probability) <= bound
        assert abs(a.fidelity_deficit - b.fidelity_deficit) <= bound / min(1.0, n)
        assert a.fidelity_deficit >= 0.0


def _count_elements(monkeypatch):
    """Count every element the circuit engine applies from now on."""
    calls = []

    def counted(state, element, *args, **kwargs):
        calls.append(element)
        return apply_element(state, element, *args, **kwargs)

    monkeypatch.setattr(qndmzi.circuit, "apply_element", counted)
    return calls


def _count_closed_forms(monkeypatch):
    """Record, per fringe from now on, whether it took the closed form."""
    verdicts = []
    degree_one = qndmzi.analysis._degree_one

    def counted(*args):
        verdicts.append(degree_one(*args))
        return verdicts[-1]

    monkeypatch.setattr(qndmzi.analysis, "_degree_one", counted)
    return verdicts


class TestBitIdentity:
    @pytest.mark.parametrize("r,alpha,eps", GRID)
    def test_fringe_scan(self, r, alpha, eps):
        for circuit in _circuits(r, alpha, eps):
            for mode in range(circuit.m_modes):
                _assert_scans_agree(_outcome(fringe_scan, circuit, mode, PHIS),
                                    _outcome(reference_fringe_scan, circuit, mode, PHIS), circuit)

    def test_flat_fringes_raise_on_both_paths(self):
        # Detected at L2, ahead of the scanned phase, every fringe is flat:
        # its three samples are equal, so c1 is exactly 0.
        flat = 0
        for r, alpha, eps in GRID:
            for circuit in _circuits(r, alpha, eps):
                for mode in range(circuit.m_modes):
                    got = _outcome(fringe_scan, circuit, mode, PHIS)
                    if not (isinstance(got, tuple) and "is flat" in got[1]):
                        continue
                    flat += 1
                    assert got == _outcome(reference_fringe_scan, circuit, mode, PHIS)
        assert flat

    @pytest.mark.parametrize("r,alpha,eps", GRID)
    def test_leakage_sweep(self, r, alpha, eps):
        for circuit in _circuits(r, alpha, eps):
            for arm_mode, dark_stage in ((1, "L3"), (2, "L3p"), (0, SOURCE_STAGE)):
                got = _outcome(leakage_sweep, circuit, DELTAS, arm_mode, dark_stage)
                want = _outcome(reference_leakage_sweep, circuit, DELTAS, arm_mode, dark_stage)
                _assert_sweeps_agree(got, want, circuit, arm_mode)

    @pytest.mark.parametrize("r,alpha,eps", GRID)
    def test_postselect_fidelity(self, r, alpha, eps):
        for circuit in _circuits(r, alpha, eps):
            trace = run_both(circuit)
            for stage in circuit.stages:
                for mode in range(circuit.m_modes):
                    assert postselect(trace, mode, at=stage) == reference_postselect(
                        trace, mode, at=stage
                    )

    def test_postselect_fidelity_random_circuits(self):
        rng = random.Random(7)
        for _ in range(40):
            elements = []
            for i in range(rng.randint(1, 10)):
                elements.append(random_element(rng))
                if rng.random() < 0.5:
                    elements.append(Snapshot(f"s{i}"))
            probes = tuple(random_complex(rng, 3.0) for _ in range(2))
            circuit = Circuit(3, 2, elements, rng.randrange(3), probes)
            trace = run_forward(circuit)
            for stage in circuit.stages:
                for mode in range(3):
                    assert postselect(trace, mode, at=stage) == reference_postselect(
                        trace, mode, at=stage
                    )


class TestSharedLoop:
    """run_forward and run_backward share one loop."""

    @staticmethod
    def _naive(circuit):
        state = circuit.source_state()
        fwd = {SOURCE_STAGE: state}
        for el in circuit.elements:
            if isinstance(el, Snapshot):
                fwd[el.label] = state
            else:
                state = apply_element(state, el)
        fwd[FINAL_STAGE] = state
        carrier = circuit.source_state()
        for el in circuit.elements:
            if isinstance(el, (BeamSplitter, PhaseShift)) and el.target == PROBE:
                carrier = apply_element(carrier, el)
        probes = carrier.branches[0].probes
        bra = HybridState(3, 2, (Branch(circuit.postselect_mode, 1.0, probes),))
        bwd = {FINAL_STAGE: bra}
        for el in reversed(circuit.elements):
            if isinstance(el, Snapshot):
                bwd[el.label] = bra
            else:
                bra = apply_element(bra, el, dagger=True)
        bwd[SOURCE_STAGE] = bra
        return fwd, bwd

    def test_matches_element_by_element_runs(self):
        rng = random.Random(11)
        for _ in range(30):
            elements = []
            for i in range(rng.randint(1, 10)):
                elements.append(random_element(rng))
                if rng.random() < 0.5:
                    elements.append(Snapshot(f"s{i}"))
            probes = tuple(random_complex(rng, 3.0) for _ in range(2))
            circuit = Circuit(3, 2, elements, rng.randrange(3), probes)
            fwd, bwd = self._naive(circuit)
            assert list(run_forward(circuit).forward.items()) == list(fwd.items())
            assert list(run_backward(circuit).backward.items()) == list(bwd.items())


def _never_called(*args, **kwargs):
    raise AssertionError("called")


def _applied(circuit, end=None):
    """The elements other than snapshots in ``circuit.elements[:end]``."""
    return sum(not isinstance(el, Snapshot) for el in circuit.elements[:end])


class TestWorkCount:
    INSERT_AT = 11  # the probe recombiner of build_nested_mzi

    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_fringe_scan_evolves_the_prefix_once_per_scan(self, monkeypatch, n):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        assert circuit.elements[self.INSERT_AT] == BeamSplitter(PROBE, 0, 1, math.sqrt(0.5))
        prefix = _applied(circuit, self.INSERT_AT)
        calls = _count_elements(monkeypatch)
        monkeypatch.setattr(Circuit, "kerr_free", _never_called)
        fringe_scan(circuit, 2, [2.0 * math.pi * i / n for i in range(n)])
        # The scan evolves the prefix once and runs its three sampled phases
        # (the phase and the recombiner); the Kerr-free reference resumes
        # from its L2, skips the coupling, applies the inner recombiner and
        # the pi probe phase, and runs its own three, whatever the number of
        # phases.  The per-point full runs applied 15 elements each.
        samples = [PhaseShift, BeamSplitter] * 3
        assert [type(el) for el in calls[prefix:]] == samples + [BeamSplitter, PhaseShift] + samples

    @pytest.mark.parametrize("n", [21, 201])
    def test_leakage_sweep_evolves_the_prefix_once(self, monkeypatch, n):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        full = _applied(circuit)
        calls = _count_elements(monkeypatch)
        leakage_sweep(circuit, [1e-4 * 100.0 ** (i / (n - 1)) for i in range(n)])
        # The two elements up to the inner splitter once, and the rest twice
        # from there, for the unperturbed state and for its part in the arm,
        # whatever the number of deltas.
        assert len(calls) == full + (full - 2)
        calls.clear()
        leakage_sweep(circuit, [1e-3 * i for i in range(n)])
        # A delta of 0 costs nothing extra.
        assert len(calls) == full + (full - 2)

    def test_fringe_scan_detected_ahead_reads_the_prefix_once(self, monkeypatch):
        circuit = replace(build_nested_mzi(0.6, 2.0, 0.3), detect_stage="L2")
        prefix = _applied(circuit, self.INSERT_AT)
        calls = _count_elements(monkeypatch)
        monkeypatch.setattr(Circuit, "kerr_free", _never_called)
        got = _outcome(fringe_scan, circuit, 0, PHIS)
        # The scan evolves its prefix, which holds L2, and the reference
        # resumes from there; no phase runs the suffix.
        assert len(calls) == prefix + 2
        monkeypatch.undo()
        assert got == _outcome(reference_fringe_scan, circuit, 0, PHIS)
        assert got[0] is ValueError and "is flat" in got[1]

    @pytest.mark.parametrize("dark_stage", [SOURCE_STAGE, "L1"])
    def test_leakage_sweep_reads_a_leak_ahead_once(self, monkeypatch, dark_stage):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        full = _applied(circuit)
        deltas = [1e-3 * i for i in range(10)]
        calls = _count_elements(monkeypatch)
        sums = []
        pair_sum = qndmzi.analysis._pair_sum

        def counted(*args, **kwargs):
            sums.append(args)
            return pair_sum(*args, **kwargs)

        monkeypatch.setattr(qndmzi.analysis, "_pair_sum", counted)
        got = leakage_sweep(circuit, deltas, 1, dark_stage)
        assert len(calls) == full + (full - 2)
        # The detector's three sums and the leak's one, whatever the number
        # of deltas.
        assert len(sums) == 3 + 1
        monkeypatch.undo()
        _assert_sweeps_agree(got, reference_leakage_sweep(circuit, deltas, 1, dark_stage), circuit)

    def test_postselect_twin_resumes_before_the_kerr_coupling(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        trace = run_forward(circuit)
        calls = _count_elements(monkeypatch)
        result = postselect(trace, 0)
        assert result.fidelity_vs_reference == pytest.approx(1.0)
        # From snapshot L2, with the coupling skipped: the inner recombiner,
        # the probe phase and the probe recombiner, then detection at L3p.
        assert [type(el) for el in calls] == [BeamSplitter, PhaseShift, BeamSplitter]

    def test_postselect_takes_the_projection_norm_once(self, monkeypatch):
        trace = run_forward(build_nested_mzi(0.6, 2.0, 0.3))
        calls = []
        pair_sum = qndmzi.states._pair_sum

        def counted(*args, **kwargs):
            calls.append(args)
            return pair_sum(*args, **kwargs)

        monkeypatch.setattr(qndmzi.states, "_pair_sum", counted)
        monkeypatch.setattr(qndmzi.analysis, "_pair_sum", counted)
        postselect(trace, 0, compute_fidelity=False)
        # The projection's norm, which also scales the conditional state, and
        # one pass for the conditional state's norm and both probe moments.
        # Normalizing the projection used to take its norm a second time,
        # and each probe's moment used to be a pass of its own.
        assert len(calls) == 2
        calls.clear()
        postselect(trace, 0)
        # The fidelity adds the twin's projection norm and the overlap; it
        # reuses both norms instead of taking them again.
        assert len(calls) == 4


class TestFringeClosedForm:
    """Which fringe scans take the closed form, and how close it stays to the per-phase runs."""

    INSERT_AT = 11  # the probe recombiner of build_nested_mzi

    @staticmethod
    def _with_arm_coupling(preset):
        """``preset`` coupled to inner arm 1 alone: two marked branches in each of modes 1 and 2."""
        elements = tuple(
            KerrCoupling(frozenset({1}), 0, 0.3) if isinstance(el, KerrCoupling) else el
            for el in preset.elements
        )
        return replace(preset, elements=elements)

    @classmethod
    def _after_the_recombiner(cls, circuit, *elements):
        """``circuit`` with ``elements`` between its probe recombiner and L3p."""
        els = circuit.elements
        return replace(circuit, elements=els[:cls.INSERT_AT + 1] + elements + els[cls.INSERT_AT + 1:])

    def test_preset_applies_no_per_phase_elements(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        calls = _count_elements(monkeypatch)
        verdicts = _count_closed_forms(monkeypatch)
        scan = fringe_scan(circuit, 2, PHIS)
        # The prefix and the reference's resumed run, then three sampled
        # phases per scan; no element runs per requested phase.
        assert len(calls) == _applied(circuit, self.INSERT_AT) + 2 + 2 * 3 * 2
        assert verdicts == [True, True]
        monkeypatch.undo()
        _assert_scans_agree(scan, reference_fringe_scan(circuit, 2, PHIS), circuit)

    def test_two_branches_in_one_mode_keep_the_closed_form(self, monkeypatch):
        # Coupled to inner arm 1 alone, the inner recombiner leaves two
        # differently marked branches in each of modes 1 and 2, ahead of the
        # scanned phase: the fringe stays a degree-1 form.
        circuit = self._with_arm_coupling(build_nested_mzi(0.6, 2.0, 0.3))
        calls = _count_elements(monkeypatch)
        fringe_scan(circuit, 2, PHIS)
        assert len(calls) == _applied(circuit, self.INSERT_AT) + 2 + 2 * 3 * 2
        monkeypatch.undo()
        for mode in range(circuit.m_modes):
            _assert_scans_agree(_outcome(fringe_scan, circuit, mode, PHIS),
                                _outcome(reference_fringe_scan, circuit, mode, PHIS), circuit)

    def test_overflow_raises_the_per_phase_error(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 1e160, 0.3)
        calls = _count_elements(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(fringe_scan, circuit, 2, PHIS)
        assert got[0] is ValueError and got[1].startswith("non-finite inner product")
        # The first sampled phase reuses the prefix and raises.
        assert len(calls) == _applied(circuit, self.INSERT_AT) + 2
        monkeypatch.undo()
        assert got == _outcome(reference_fringe_scan, circuit, 2, PHIS)

    def test_overflowing_norm_raises_the_per_phase_error(self):
        # Engine amplitudes stay within the unit disk; a state built by hand
        # can carry one whose squared norm overflows, where every phase's
        # post-selection raises, so the sampled phases must raise too.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        factors = [cmath.exp(1j * phi) for phi in PHIS]
        suffix = circuit.elements[self.INSERT_AT:]
        head = HybridState(3, 2, (Branch(2, 1e200, (2.0, 1j)),))
        with pytest.raises(ValueError, match="non-finite inner product"):
            qndmzi.analysis._fringe(circuit, (head, {}), suffix, 2, PHIS, factors)
        head = HybridState(3, 2, (Branch(2, 0.5, (2.0, 1j)),))
        (dp1, dp2), _ = qndmzi.analysis._fringe(circuit, (head, {}), suffix, 2, PHIS, factors)
        assert len(dp1) == len(dp2) == len(PHIS)

    @pytest.mark.parametrize("magnitude", [1e-300, 1e-3, 1e8, 1e100, 1e150, 1e154, 1e160])
    def test_edge_inputs(self, magnitude):
        # Detected at L2, the samples read the stage the prefix recorded.
        for r in (0.0, 0.37, 1.0):
            for eps in (0.0, -0.0, 1e-13, math.pi):
                for circuit in _circuits(r, cmath.rect(magnitude, -2.5), eps):
                    for mode in range(circuit.m_modes):
                        _assert_scans_agree(_outcome(fringe_scan, circuit, mode, PHIS),
                                            _outcome(reference_fringe_scan, circuit, mode, PHIS), circuit)

    def test_signed_zero_inputs(self):
        # Signed zeros in the source probes, eps_tau and the phases (with
        # +-pi); the sampled phases keep the per-point bits, so the shift
        # and every error compare exactly.
        for r in (0.0, 0.6, 1.0):
            for eps in (0.0, -0.0, math.pi):
                for probes in SIGNED_PROBES:
                    circuit = replace(build_nested_mzi(r, 2.0, eps), source_probes=probes)
                    for mode in (0, 2):
                        for phis in (PHIS, SIGNED_PHIS):
                            args = (circuit, mode, phis)
                            _assert_scans_agree(_outcome(fringe_scan, *args),
                                                _outcome(reference_fringe_scan, *args), circuit)

    def test_samples_keep_every_bit_of_the_per_point_runs(self):
        # The three sampled phases run per point: both ports' intensities at
        # 0, 2pi/3 and 4pi/3 equal those of inserting each phase and running
        # the circuit from the source, under repr, signed zeros included.
        rng = random.Random(2319)
        samples = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
        checked = 0
        for probes in SIGNED_PROBES + tuple(_signed_circuit(rng).source_probes for _ in range(6)):
            for eps in (0.0, -0.0, 0.3):
                circuit = replace(build_nested_mzi(0.6, 2.0, eps), source_probes=probes)
                prefix = qndmzi.circuit._run_prefix(circuit, self.INSERT_AT)
                suffix = circuit.elements[self.INSERT_AT:]
                for mode in (0, 2):
                    args = (circuit, prefix, suffix, mode, samples)
                    got = _outcome(qndmzi.analysis._resumed_scan, *args)
                    want = _outcome(sweep_reference._intensities, circuit, mode, samples)
                    assert repr(got) == repr(want)
                    checked += not isinstance(got[0], type)
        assert checked > 30

    @pytest.mark.parametrize("case", ["preset", "detected ahead", "per phase"])
    def test_samples_build_no_trace_and_call_no_postselect(self, monkeypatch, case):
        # Each sampled phase resumes through _evolve, or reads a detection
        # stage ahead of the phase from the prefix, and conditions the state
        # with postselect's own calls: no StageTrace, stage dict copy or
        # PostSelectionResult is built per phase.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        if case == "detected ahead":
            circuit = replace(circuit, detect_stage="L2")
        elif case == "per phase":
            circuit = self._after_the_recombiner(
                circuit, KerrCoupling(frozenset({2}), 1, 0.9), BeamSplitter(SYS, 0, 2, 0.5))
        mode = 0 if case == "detected ahead" else 2
        monkeypatch.setattr(qndmzi.circuit.StageTrace, "__init__", _never_called)
        monkeypatch.setattr(qndmzi.analysis, "postselect", _never_called)
        got = _outcome(fringe_scan, circuit, mode, PHIS)
        monkeypatch.undo()
        want = _outcome(reference_fringe_scan, circuit, mode, PHIS)
        if case == "preset":
            _assert_scans_agree(got, want, circuit)
        else:
            assert got == want
        assert isinstance(got, FringeScan) == (case != "detected ahead")

    def test_random_signed_zero_inputs(self):
        rng = random.Random(2317)
        for _ in range(60):
            circuit = _signed_circuit(rng)
            phis = [_signed(rng, 10.0) for _ in range(rng.randint(4, 12))]
            for mode in (0, 2):
                args = (circuit, mode, phis)
                _assert_scans_agree(_outcome(fringe_scan, *args), _outcome(reference_fringe_scan, *args), circuit)

    def test_random_probe_optics_after_the_recombiner(self, monkeypatch):
        # Random elements of every kind (probe optics, system splitters and
        # phases, Kerr couplings) between the last probe splitter and the
        # detection snapshot, random scan phases and a random second source
        # probe.  Where a system splitter follows a Kerr coupling there, the
        # scan runs per phase and keeps every bit; elsewhere it takes the
        # closed form.
        rng = random.Random(1410)
        verdicts = _count_closed_forms(monkeypatch)
        seen = {True: 0, False: 0}
        for _ in range(300):
            r, alpha = rng.random(), cmath.rect(10.0 ** rng.uniform(-3, 5), rng.uniform(0, 7))
            circuit = build_nested_mzi(r, alpha, rng.uniform(0.0, math.pi))
            elements = list(circuit.elements)
            for _ in range(rng.randint(1, 3)):
                elements.insert(self.INSERT_AT + 1, random_element(rng))
            circuit = replace(
                circuit,
                elements=tuple(elements),
                source_probes=(circuit.source_probes[0], random_complex(rng, 3.0)),
            )
            phis = [rng.uniform(-10.0, 10.0) for _ in range(rng.randint(4, 16))]
            for mode in (0, 2):
                del verdicts[:]
                got = _outcome(fringe_scan, circuit, mode, phis)
                want = _outcome(reference_fringe_scan, circuit, mode, phis)
                if False in verdicts:
                    assert got == want
                else:
                    _assert_scans_agree(got, want, circuit)
                seen[False not in verdicts] += bool(verdicts)
        # System elements past the scanned phase keep most scans in closed form.
        assert seen[True] > 2 * seen[False] > 0

    def test_the_rule_both_ways_on_random_circuits(self, monkeypatch):
        # The preset, then 1 to 4 random elements between the recombiner and
        # the detection snapshot, half of the circuits with a Kerr coupling
        # and a system splitter after it among them.  Circuits that break
        # the rule give the per-point bits; the others the closed form.
        rng = random.Random(1411)
        verdicts = _count_closed_forms(monkeypatch)
        seen = {True: 0, False: 0}
        for i in range(120):
            r, alpha = rng.uniform(0.1, 0.9), cmath.rect(10.0 ** rng.uniform(-1, 2), rng.uniform(0, 7))
            extra = [random_element(rng) for _ in range(rng.randint(1, 4))]
            if i % 2:
                marks = frozenset(rng.sample(range(3), rng.randint(1, 2)))
                at = rng.randint(0, len(extra))
                extra[at:at] = [KerrCoupling(marks, rng.randrange(2), rng.uniform(0.1, 3.0)),
                                BeamSplitter(SYS, *rng.sample(range(3), 2), rng.uniform(0.1, 0.9))]
            extra = [el for el in extra if not (isinstance(el, BeamSplitter) and el.target == PROBE)]
            circuit = self._after_the_recombiner(build_nested_mzi(r, alpha, rng.uniform(0.1, 3.0)), *extra)
            holds = qndmzi.analysis._degree_one(circuit.elements[self.INSERT_AT:], "L3p")
            for mode in range(3):
                del verdicts[:]
                got = _outcome(fringe_scan, circuit, mode, PHIS)
                want = _outcome(reference_fringe_scan, circuit, mode, PHIS)
                if holds:
                    _assert_scans_agree(got, want, circuit)
                else:
                    assert got == want
                if isinstance(got, FringeScan):
                    assert verdicts == [holds, True]
                    seen[holds] += 1
        assert min(seen.values()) > 50

    def test_kerr_then_system_splitter_breaks_the_degree_one_form(self):
        # The case that sets the rule: a Kerr coupling after the recombiner,
        # then a system splitter.  The per-point fringe is no degree-1 form,
        # so evaluating the three samples' form would be far off; the scan
        # runs per phase and keeps every bit.
        circuit = self._after_the_recombiner(
            build_nested_mzi(0.6, 2.0, 0.3),
            KerrCoupling(frozenset({2}), 1, 0.9), BeamSplitter(SYS, 0, 2, 0.5),
        )
        assert not qndmzi.analysis._degree_one(circuit.elements[self.INSERT_AT:], "L3p")
        phis = tuple(2.0 * math.pi * i / 16 for i in range(16))
        got = fringe_scan(circuit, 2, phis)
        assert got == reference_fringe_scan(circuit, 2, phis)
        samples = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
        i0, i1, i2 = sweep_reference._intensities(circuit, 2, samples)[0]
        c1 = complex(((i0 - i1) + (i0 - i2)) / 6.0, (i2 - i1) / (2.0 * math.sqrt(3.0)))
        c0 = i0 - 2.0 * c1.real
        form = [c0 + 2.0 * (c1 * cmath.exp(1j * phi)).real for phi in phis]
        assert max(abs(a - b) for a, b in zip(form, got.intensity_dp1)) > 1e-3 * max(got.intensity_dp1)


class TestLeakageSplit:
    """The split leakage sweep against the per-delta runs and the preset's closed form."""

    ARMS = ((1, "L3"), (2, "L3p"), (0, SOURCE_STAGE))  # as in TestBitIdentity
    DELTAS = (1e-4, -3e-3, 1.0 / 3.0, -2.0, 3.0)

    def test_preset_applies_no_per_delta_elements(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        calls = _count_elements(monkeypatch)
        points = leakage_sweep(circuit, self.DELTAS)
        # Every element once for the unperturbed run, and the elements past
        # the inner splitter once more for the arm's part.
        assert len(calls) == 2 * _applied(circuit) - 2
        monkeypatch.undo()
        _assert_sweeps_agree(points, reference_leakage_sweep(circuit, self.DELTAS), circuit)

    @pytest.mark.parametrize("arm_mode, dark_stage", ARMS)
    def test_delta_zero_gives_the_unperturbed_point(self, monkeypatch, arm_mode, dark_stage):
        # At delta 0 the inner dark port drops its branch; at any other
        # delta it keeps it.  The split gives z = 0 there: the unperturbed
        # leak and a deficit of exactly 0.0, at no extra cost.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        deltas = (0.0, -0.0) + self.DELTAS
        calls = _count_elements(monkeypatch)
        got = leakage_sweep(circuit, deltas, arm_mode, dark_stage)
        assert len(calls) == 2 * _applied(circuit) - 2
        monkeypatch.undo()
        want = reference_leakage_sweep(circuit, deltas, arm_mode, dark_stage)
        _assert_sweeps_agree(got, want, circuit, arm_mode)
        unperturbed = run_forward(circuit).forward[dark_stage].project_mode(arm_mode).norm_sq()
        for point in got[:2]:
            assert repr(point.fidelity_deficit) == "0.0"
            assert point.dark_port_probability == unperturbed

    def test_overflow_raises_the_per_delta_error(self):
        circuit = build_nested_mzi(0.6, 1e160, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(leakage_sweep, circuit, self.DELTAS)
        assert got[0] is ValueError and got[1].startswith("non-finite inner product")
        _same_error(got, _outcome(reference_leakage_sweep, circuit, self.DELTAS))

    def test_kerr_on_one_inner_arm(self):
        # Coupled to inner arm 1 alone, the inner recombiner leaves two
        # differently marked branches in each of modes 1 and 2, and the
        # detector projection holds two branches.
        circuit = TestFringeClosedForm._with_arm_coupling(build_nested_mzi(0.6, 2.0, 0.3))
        for arm_mode, dark_stage in self.ARMS:
            got = leakage_sweep(circuit, self.DELTAS, arm_mode, dark_stage)
            _assert_sweeps_agree(got, reference_leakage_sweep(circuit, self.DELTAS, arm_mode, dark_stage), circuit, arm_mode)

    @pytest.mark.parametrize("magnitude", [1e-300, 1e-3, 1e8, 1e100, 1e150, 1e154, 1e160])
    def test_edge_inputs(self, magnitude):
        # A dark stage at the source is read from the prefix; a leakage
        # sweep ignores the detection stage.
        alpha = cmath.rect(magnitude, -2.5)
        for r in (0.0, 0.37, 1.0):
            for eps in (0.0, -0.0, 1e-13, math.pi):
                for circuit in _circuits(r, alpha, eps):
                    for arm_mode, dark_stage in self.ARMS:
                        args = (circuit, self.DELTAS, arm_mode, dark_stage)
                        _assert_sweeps_agree(_outcome(leakage_sweep, *args),
                                             _outcome(reference_leakage_sweep, *args), circuit, arm_mode)

    def test_signed_zero_inputs(self):
        # Signed zeros in the source probes, eps_tau and the deltas (with
        # +-pi).
        for r in (0.0, 0.6, 1.0):
            for eps in (0.0, -0.0, math.pi):
                for probes in SIGNED_PROBES:
                    circuit = replace(build_nested_mzi(r, 2.0, eps), source_probes=probes)
                    for deltas in (self.DELTAS, SIGNED_DELTAS):
                        for arm_mode, dark_stage in self.ARMS:
                            args = (circuit, deltas, arm_mode, dark_stage)
                            _assert_sweeps_agree(_outcome(leakage_sweep, *args),
                                                 _outcome(reference_leakage_sweep, *args), circuit, arm_mode)

    def test_random_signed_zero_inputs(self):
        rng = random.Random(2318)
        for _ in range(60):
            circuit = _signed_circuit(rng)
            deltas = [_signed(rng, 4.0) for _ in range(rng.randint(1, 8))]
            for arm_mode in range(3):
                args = (circuit, deltas, arm_mode, rng.choice(circuit.stages))
                _assert_sweeps_agree(_outcome(leakage_sweep, *args),
                                     _outcome(reference_leakage_sweep, *args), circuit, arm_mode)

    def test_dark_port_below_the_merge_tolerance_keeps_its_leak(self):
        # At delta 4.6e-12 the inner dark port holds |amp| = 1.84e-12 at L3,
        # within a factor 2 of MERGE_TOL; at 1e-13 the per-delta run drops
        # the branch and reads a leak of 0.  The split's leak keeps
        # t^2 sin^2(delta/2) at both.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        deltas = (4.6e-12, 1e-13, 1e-3, 0.1)
        trace = run_forward(circuit.insert(3, PhaseShift(SYS, 1, deltas[0])))
        small = [abs(br.amp) for label in ("L3", FINAL_STAGE)
                 for br in trace.forward[label].branches if abs(br.amp) < 2.0 * MERGE_TOL]
        assert len(small) == 3 and min(small) >= MERGE_TOL
        assert reference_leakage_sweep(circuit, deltas[1:2])[0].dark_port_probability == 0.0
        for point in leakage_sweep(circuit, deltas):
            want = cf.dark_port_leak(0.6, point.delta)
            assert abs(point.dark_port_probability - want) <= 4 * ULP * want

    def test_random_elements_after_the_inner_splitter(self):
        # Random elements at random positions, ahead of and past the inner
        # splitter, a random dark stage per arm, and delta 0 in some sweeps.
        rng = random.Random(7482)
        for _ in range(100):
            r, alpha = rng.random(), cmath.rect(10.0 ** rng.uniform(-3, 5), rng.uniform(0, 7))
            circuit = build_nested_mzi(r, alpha, rng.uniform(0.0, math.pi))
            elements = list(circuit.elements)
            for _ in range(rng.randint(1, 3)):
                elements.insert(rng.randint(0, len(elements)), random_element(rng))
            circuit = replace(circuit, elements=tuple(elements))
            deltas = [rng.uniform(-4.0, 4.0) for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.3:
                deltas.insert(rng.randint(0, len(deltas)), 0.0)
            for arm_mode in range(3):
                args = (circuit, deltas, arm_mode, rng.choice(circuit.stages))
                _assert_sweeps_agree(_outcome(leakage_sweep, *args),
                                     _outcome(reference_leakage_sweep, *args), circuit, arm_mode)
            for mode in (0, 2):
                _assert_scans_agree(_outcome(fringe_scan, circuit, mode, PHIS),
                                    _outcome(reference_fringe_scan, circuit, mode, PHIS), circuit)

    def test_fields_are_python_floats(self):
        # A numpy scalar would compare equal but change the repr.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        for deltas in (self.DELTAS, (0.0,) + self.DELTAS):
            for p in leakage_sweep(circuit, deltas):
                assert [type(v) for v in vars(p).values()] == [float] * 3


class TestSweepsAtSize:
    """A prefix that holds a Kerr-marked chain: sums over 64 x 64 branch pairs and more.

    The chain is ``tests/deep_chains.py``'s at depth 7 with K = 2: 128
    branches at d7, 64 in each of modes 0 and 1, and 192 from the inner
    splitter on, so the sweeps' pair sums take the Gram form.
    """

    PHIS = (0.1, 0.7, 1.9, 2.8, 4.0)
    DELTAS = (1e-3, 0.2, -1.0)

    @staticmethod
    def _circuit(detect_stage=FINAL_STAGE):
        rng = random.Random("axis size")
        chain = deep_chain([rng.uniform(0.05, 1.0) for _ in range(7)], 2.0, 2)
        tail = (
            BeamSplitter(SYS, 1, 2, math.sqrt(0.5)), Snapshot("in"), PhaseShift(PROBE, 0, 0.4),
            BeamSplitter(PROBE, 0, 1, math.sqrt(0.5)), Snapshot("out"),
            BeamSplitter(SYS, 1, 2, 0.3),
        )
        return Circuit(3, 2, chain.elements + tail, 0, chain.source_probes,
                       detect_stage=detect_stage)

    def test_fringe_scan_detected_ahead_is_flat(self):
        for stage in ("d7", "in"):  # ahead of the scanned phase
            circuit = self._circuit(stage)
            assert qndmzi.states._count(run_forward(circuit).forward[stage].project_mode(0)) == 64
            for mode in (0, 1):
                args = (circuit, mode, self.PHIS)
                got = _outcome(fringe_scan, *args)
                assert got == _outcome(reference_fringe_scan, *args)
                assert got[0] is ValueError and "is flat" in got[1]

    def test_leakage_sweep_on_gram_sized_states(self, monkeypatch):
        circuit = self._circuit()
        calls = _count_elements(monkeypatch)
        for arm_mode, dark_stage in ((1, "d7"), (2, "out"), (0, FINAL_STAGE)):
            calls.clear()
            args = (circuit, self.DELTAS, arm_mode, dark_stage)
            got = _outcome(leakage_sweep, *args)
            assert len(calls) == 2 * _applied(circuit) - _applied(circuit, -5)
            monkeypatch.undo()
            _assert_sweeps_agree(got, _outcome(reference_leakage_sweep, *args), circuit, arm_mode)
            calls = _count_elements(monkeypatch)


class TestErrorPaths:
    def test_fringe_scan_needs_a_probe_splitter(self):
        circuit = Circuit(3, 2, (BeamSplitter(SYS, 0, 1, 0.5),), 0, (1.0, 0.0))
        with pytest.raises(ValueError, match="no probe beam splitter"):
            fringe_scan(circuit, 0, PHIS)

    def test_fringe_scan_needs_two_probes(self):
        circuit = Circuit(
            2, 3, (BeamSplitter(PROBE, 0, 1, 0.5),), 0, (1.0, 0.0, 0.0)
        )
        with pytest.raises(ValueError, match="exactly two probe modes"):
            fringe_scan(circuit, 0, PHIS)

    def test_fringe_scan_impossible_postselection(self):
        # Mode 1 is the inner interferometer's dark port: empty at L3p.
        with pytest.raises(ValueError, match="impossible"):
            fringe_scan(build_nested_mzi(0.6, 2.0, 0.3), 1, PHIS)

    @pytest.mark.parametrize("mode", [3, -1])
    def test_fringe_scan_bad_mode_fails_before_evolving(self, monkeypatch, mode):
        calls = _count_elements(monkeypatch)
        with pytest.raises(IndexError, match=f"mode {mode} outside"):
            fringe_scan(build_nested_mzi(0.6, 2.0, 0.3), mode, PHIS)
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fringe_scan_non_finite_phi_fails_before_evolving(self, monkeypatch, bad):
        calls = _count_elements(monkeypatch)
        with pytest.raises(ValueError, match="phi must be finite"):
            fringe_scan(build_nested_mzi(0.6, 2.0, 0.3), 2, PHIS + (bad,))
        assert calls == []

    @pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
    def test_fringe_scan_non_real_phi_fails_before_evolving(self, monkeypatch, bad):
        calls = _count_elements(monkeypatch)
        with pytest.raises(ValueError, match=r"^phi .* is not a real number$"):
            fringe_scan(build_nested_mzi(0.6, 2.0, 0.3), 2, PHIS + (bad,))
        assert calls == []

    def test_leakage_sweep_needs_an_inner_splitter(self):
        circuit = Circuit(3, 1, (BeamSplitter(SYS, 0, 1, 0.5),), 0, (1.0,))
        with pytest.raises(ValueError, match="no inner beam splitter"):
            leakage_sweep(circuit, [0.1])

    @pytest.mark.parametrize("deltas", [[], [0.1]])
    def test_leakage_sweep_bad_arm_mode_fails_before_evolving(self, monkeypatch, deltas):
        calls = _count_elements(monkeypatch)
        with pytest.raises(IndexError, match=r"system mode 7 outside \[0, 3\)"):
            leakage_sweep(build_nested_mzi(0.6, 2.0, 0.3), deltas, arm_mode=7)
        assert calls == []

    @pytest.mark.parametrize("deltas", [[], [0.1]])
    def test_leakage_sweep_unknown_dark_stage_fails_before_evolving(
        self, monkeypatch, deltas
    ):
        calls = _count_elements(monkeypatch)
        with pytest.raises(ValueError, match="'nope'"):
            leakage_sweep(build_nested_mzi(0.6, 2.0, 0.3), deltas, dark_stage="nope")
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_leakage_sweep_non_finite_delta_fails_before_evolving(self, monkeypatch, bad):
        calls = _count_elements(monkeypatch)
        with pytest.raises(ValueError, match=f"leakage delta {bad!r} is not finite"):
            leakage_sweep(build_nested_mzi(0.6, 2.0, 0.3), [1e-3, bad])
        assert calls == []

    @pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
    def test_leakage_sweep_non_real_delta_fails_before_evolving(self, monkeypatch, bad):
        calls = _count_elements(monkeypatch)
        with pytest.raises(ValueError, match=r"^leakage delta .* is not a real number$"):
            leakage_sweep(build_nested_mzi(0.6, 2.0, 0.3), [1e-3, bad])
        assert calls == []

    def test_int_beyond_the_float_range_is_not_finite(self):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        with pytest.raises(ValueError, match="phi must be finite"):
            fringe_scan(circuit, 2, PHIS + (-10**400,))
        with pytest.raises(ValueError, match="leakage delta inf is not finite"):
            leakage_sweep(circuit, [1e-3, 10**400])

    def test_real_phase_and_delta_types_keep_their_bits(self):
        # ints, bools and numpy reals run as float() of the value, as before.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        phis = (0, 1, True, np.float64(2.5), np.int64(4), np.float32(5.5))
        assert repr(fringe_scan(circuit, 2, phis)) == repr(
            fringe_scan(circuit, 2, [float(p) for p in phis]))
        deltas = (1, False, np.float64(1e-3), np.int64(-2), np.float32(0.25))
        assert repr(leakage_sweep(circuit, deltas)) == repr(
            leakage_sweep(circuit, [float(d) for d in deltas]))

    def test_leakage_sweep_checks_arm_mode_before_dark_stage(self):
        with pytest.raises(IndexError):
            leakage_sweep(build_nested_mzi(0.6), [], arm_mode=7, dark_stage="nope")
