"""Prefix reuse in sweeps and in the post-selection twin.

The engine evolves the prefix a sweep shares once and resumes from it per
point; the post-selection twin resumes from the trace.  Every result must
be bit-identical (``==``) to the naive per-point path of
``sweep_reference``, the work must shrink accordingly, and bad arguments
must fail before anything is evolved.
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
    HybridState,
    KerrCoupling,
    LeakagePoint,
    PhaseShift,
    Snapshot,
    apply_element,
    build_nested_mzi,
    fringe_scan,
    inner_product,
    leakage_sweep,
    postselect,
    run_backward,
    run_both,
    run_forward,
)
from qndmzi.analysis import fringe_csv, leakage_csv
from deep_chains import deep_chain
from helpers import random_complex, random_element
import sweep_reference
from sweep_reference import (
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


def _signed(rng, scale=1.0):
    """0.0, -0.0, +-pi or a uniform draw in [-scale, scale]: signed zeros a third of the time."""
    uniform = rng.uniform(-scale, scale)
    return rng.choice((0.0, -0.0, math.pi, -math.pi, uniform, uniform))


def _at(value, i):
    """Point ``i`` of a value on an axis: a list's entry, a fixed value itself."""
    return value[i] if type(value) is list else value


def _point_state(rows, i):
    """The state of point ``i`` of axis rows over three modes and two probes."""
    branches = [Branch(m, _at(a, i), tuple(_at(p, i) for p in ps)) for m, a, ps in rows]
    return HybridState(3, 2, branches)


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


def _count_elements(monkeypatch):
    """Count every element the circuit engine applies from now on."""
    calls = []

    def counted(state, element, *args, **kwargs):
        calls.append(element)
        return apply_element(state, element, *args, **kwargs)

    monkeypatch.setattr(qndmzi.circuit, "apply_element", counted)
    return calls


def _reference_intensities(circuit, mode, phis):
    """``sweep_reference``'s intensities of both outputs, then of its Kerr-free twin's first."""
    dp1, dp2 = sweep_reference._intensities(circuit, mode, phis)
    return dp1, dp2, sweep_reference._intensities(circuit.kerr_free(), mode, phis)[0]


def _count_axis(monkeypatch, name):
    """Record, per call of the axis entry ``name`` from now on, whether it ran or handed over."""
    ran = []
    axis = getattr(qndmzi.analysis, name)

    def counted(*args):
        try:
            points = axis(*args)
        except qndmzi.states._HandOver:
            ran.append(False)
            raise
        ran.append(True)
        return points

    monkeypatch.setattr(qndmzi.analysis, name, counted)
    return ran


class TestBitIdentity:
    @pytest.mark.parametrize("r,alpha,eps", GRID)
    def test_fringe_scan(self, r, alpha, eps):
        for circuit in _circuits(r, alpha, eps):
            for mode in range(circuit.m_modes):
                got = _outcome(fringe_scan, circuit, mode, PHIS)
                want = _outcome(reference_fringe_scan, circuit, mode, PHIS)
                assert got == want
                if not isinstance(got, tuple):
                    assert fringe_csv(got) == fringe_csv(want)

    def test_flat_fringe_intensities(self):
        # A flat fringe raises on both paths, so ``test_fringe_scan``
        # compares only the errors there; the scanned intensities of both
        # scans must still be bit-identical.
        flat = 0
        for r, alpha, eps in GRID:
            for circuit in _circuits(r, alpha, eps):
                for mode in range(circuit.m_modes):
                    got = _outcome(fringe_scan, circuit, mode, PHIS)
                    if not (isinstance(got, tuple) and "is flat" in got[1]):
                        continue
                    flat += 1
                    assert qndmzi.analysis._scan_intensities(
                        circuit, mode, PHIS
                    ) == _reference_intensities(circuit, mode, PHIS)
        assert flat

    @pytest.mark.parametrize("r,alpha,eps", GRID)
    def test_leakage_sweep(self, r, alpha, eps):
        for circuit in _circuits(r, alpha, eps):
            for arm_mode, dark_stage in ((1, "L3"), (2, "L3p"), (0, SOURCE_STAGE)):
                got = _outcome(leakage_sweep, circuit, DELTAS, arm_mode, dark_stage)
                want = _outcome(
                    reference_leakage_sweep, circuit, DELTAS, arm_mode, dark_stage
                )
                assert got == want
                if isinstance(got[0], LeakagePoint):
                    assert leakage_csv(got) == leakage_csv(want)

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


class TestWorkCount:
    def test_fringe_scan_evolves_the_prefix_once_per_scan(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        insert_at = 11
        assert circuit.elements[insert_at] == BeamSplitter(PROBE, 0, 1, math.sqrt(0.5))
        prefix = sum(not isinstance(el, Snapshot) for el in circuit.elements[:insert_at])
        calls = _count_elements(monkeypatch)
        monkeypatch.setattr(Circuit, "kerr_free", _never_called)
        n = 32
        fringe_scan(circuit, 2, [2.0 * math.pi * i / n for i in range(n)])
        # The scan evolves the prefix once; the Kerr-free reference resumes
        # from its L2, skips the coupling and applies the inner recombiner
        # and the pi probe phase.  Both scans run every phase on the axis.
        # The per-point full runs applied 15 elements each.
        assert len(calls) == prefix + 2
        assert [type(el) for el in calls[prefix:]] == [BeamSplitter, PhaseShift]

    def test_leakage_sweep_evolves_the_prefix_once(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        full = sum(not isinstance(el, Snapshot) for el in circuit.elements)
        calls = _count_elements(monkeypatch)
        n = 10
        leakage_sweep(circuit, [1e-3 * (i + 1) for i in range(n)])
        # The two elements up to the inner splitter once and the rest of the
        # unperturbed run from there; every delta runs on the delta axis.
        assert len(calls) == full
        calls.clear()
        leakage_sweep(circuit, [1e-3 * i for i in range(n)])
        # Delta 0 leaves the dark port empty, so the per-delta loop runs:
        # per point the arm phase and the remaining elements.
        assert len(calls) == full + n * (full - 1)

    def test_fringe_scan_detected_ahead_reads_the_prefix_once(self, monkeypatch):
        circuit = replace(build_nested_mzi(0.6, 2.0, 0.3), detect_stage="L2")
        prefix = sum(not isinstance(el, Snapshot) for el in circuit.elements[:11])
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
        full = sum(not isinstance(el, Snapshot) for el in circuit.elements)
        deltas = [1e-3 * i for i in range(10)]  # delta 0 takes the per-delta loop
        calls = _count_elements(monkeypatch)
        sums = []
        pair_sum = qndmzi.states._pair_sum

        def counted(*args, **kwargs):
            sums.append(args)
            return pair_sum(*args, **kwargs)

        monkeypatch.setattr(qndmzi.states, "_pair_sum", counted)
        got = leakage_sweep(circuit, deltas, 1, dark_stage)
        assert len(calls) == full + len(deltas) * (full - 1)
        # The base's probability and norm, the leak once, then per delta the
        # probability, the conditional norm and the overlap with the base.
        assert len(sums) == 2 + 1 + 3 * len(deltas)
        monkeypatch.undo()
        assert got == reference_leakage_sweep(circuit, deltas, 1, dark_stage)

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


class TestPhaseAxis:
    """Which fringe scans run over a phase axis, and that they keep every bit."""

    INSERT_AT = 11  # the probe recombiner of build_nested_mzi

    @classmethod
    def _prefix(cls, circuit):
        return sum(not isinstance(el, Snapshot) for el in circuit.elements[: cls.INSERT_AT])

    def test_preset_applies_no_per_phase_elements(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        calls = _count_elements(monkeypatch)
        scan = fringe_scan(circuit, 2, PHIS)
        # The scan evolves its prefix and the reference resumes from its L2;
        # every phase past it runs on the phase axis, so no element is
        # applied per phase.
        assert len(calls) == self._prefix(circuit) + 2
        monkeypatch.undo()
        assert scan == reference_fringe_scan(circuit, 2, PHIS)

    def test_two_branches_in_one_mode_take_the_per_phase_loop(self, monkeypatch):
        # Coupled to inner arm 1 alone, the inner recombiner leaves two
        # differently marked branches in each of modes 1 and 2.
        preset = build_nested_mzi(0.6, 2.0, 0.3)
        elements = tuple(
            KerrCoupling(frozenset({1}), 0, 0.3) if isinstance(el, KerrCoupling) else el
            for el in preset.elements
        )
        circuit = replace(preset, elements=elements)
        calls = _count_elements(monkeypatch)
        fringe_scan(circuit, 2, PHIS)
        # The scan applies the phase and the recombiner per phase; its
        # Kerr-free reference resumes from L2, holds one branch per mode and
        # runs on the axis.
        assert len(calls) == self._prefix(circuit) + 2 + 2 * len(PHIS)
        monkeypatch.undo()
        for mode in range(circuit.m_modes):
            got = _outcome(fringe_scan, circuit, mode, PHIS)
            assert got == _outcome(reference_fringe_scan, circuit, mode, PHIS)

    def test_overflow_raises_the_per_phase_error(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 1e160, 0.3)
        calls = _count_elements(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(fringe_scan, circuit, 2, PHIS)
        assert got[0] is ValueError and got[1].startswith("non-finite inner product")
        # The phase axis finds the non-finite norm and hands over to the
        # per-phase loop, which reuses the prefix and raises at phase 0.
        assert len(calls) == self._prefix(circuit) + 2
        monkeypatch.undo()
        assert got == _outcome(reference_fringe_scan, circuit, 2, PHIS)

    def test_overflowing_norm_hands_over(self):
        # Engine amplitudes stay within the unit disk; a state built by hand
        # can carry one whose squared norm overflows, where the per-phase
        # path raises, so the phase axis must not return values.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        phase_axis = qndmzi.analysis._phase_axis_intensities
        args = (qndmzi.analysis._phase_factors(PHIS), circuit.detect_stage)
        suffix = circuit.elements[self.INSERT_AT:]
        head = HybridState(3, 2, (Branch(2, 1e200, (2.0, 1j)),))
        with pytest.raises(qndmzi.states._HandOver):
            phase_axis(suffix, (head, {}), 2, *args)
        head = HybridState(3, 2, (Branch(2, 0.5, (2.0, 1j)),))
        assert len(phase_axis(suffix, (head, {}), 2, *args)) == 2

    @pytest.mark.parametrize("magnitude", [1e-300, 1e-3, 1e8, 1e100, 1e150, 1e154, 1e160])
    def test_edge_inputs(self, magnitude):
        # repr tells signed zeros apart, which == does not.  Detected at L2,
        # the axis reads the stage the prefix recorded.
        for r in (0.0, 0.37, 1.0):
            for eps in (0.0, -0.0, 1e-13, math.pi):
                for circuit in _circuits(r, cmath.rect(magnitude, -2.5), eps):
                    for mode in range(circuit.m_modes):
                        got = _outcome(fringe_scan, circuit, mode, PHIS)
                        assert repr(got) == repr(_outcome(reference_fringe_scan, circuit, mode, PHIS))
                        assert repr(_outcome(
                            qndmzi.analysis._scan_intensities, circuit, mode, PHIS
                        )) == repr(_outcome(_reference_intensities, circuit, mode, PHIS))

    def test_signed_zero_inputs(self, monkeypatch):
        # Signed zeros in the source probes, eps_tau and the phases (with
        # +-pi) reach the 0j + term sums, the complex(scale) * amp scaling
        # and a zero intensity's sign; repr compares every bit.
        ran = _count_axis(monkeypatch, "_phase_axis_intensities")
        for r in (0.0, 0.6, 1.0):
            for eps in (0.0, -0.0, math.pi):
                for probes in SIGNED_PROBES:
                    circuit = replace(build_nested_mzi(r, 2.0, eps), source_probes=probes)
                    for mode in (0, 2):
                        for phis in (PHIS, SIGNED_PHIS):
                            args = (circuit, mode, phis)
                            got = _outcome(fringe_scan, *args)
                            assert repr(got) == repr(_outcome(reference_fringe_scan, *args))
                            assert repr(_outcome(qndmzi.analysis._scan_intensities, *args)) == repr(
                                _outcome(_reference_intensities, *args))
        assert ran.count(True) > len(ran) // 2

    def test_axis_sums_keep_every_bit_at_every_point(self):
        # The axis's pair sums, moments, conditioned amplitudes and norms
        # equal the per-branch code's at every point under repr, imaginary
        # parts included, where a sign lost by 0j + term or complex(scale)
        # * amp would show.
        analysis, states = qndmzi.analysis, qndmzi.states
        rng = random.Random(2319)
        factors = analysis._phase_factors(SIGNED_PHIS)
        conditioned_points = 0
        for probes in SIGNED_PROBES + tuple(_signed_circuit(rng).source_probes for _ in range(6)):
            for eps in (0.0, -0.0, 0.3):
                circuit = replace(build_nested_mzi(0.6, 2.0, eps), source_probes=probes)
                prefix = qndmzi.circuit._run_prefix(circuit, self.INSERT_AT)
                suffix = circuit.elements[self.INSERT_AT:]
                rows = analysis._axis_stages(suffix, prefix, PROBE, 1, factors, ("L3p",))["L3p"]
                for mode in (0, 2):
                    kept = [row for row in rows if row[0] == mode]
                    total, moments = states._batch_pair_sum(kept, kept, moments=True)
                    try:
                        conditioned = analysis._axis_condition(rows, mode, moments=True)
                    except states._HandOver:
                        conditioned = None
                    for i in range(len(factors)):
                        state = _point_state(rows, i).project_mode(mode)
                        point_moments = []
                        point_total = states._pair_sum(state, state, point_moments)
                        assert repr([_at(v, i) for v in (total, *moments)]) == repr(
                            [point_total, *point_moments])
                        if conditioned is None:
                            continue
                        conditioned_points += 1
                        conditional = analysis._condition(state, mode)[1]
                        scaled, (norm, _) = conditioned
                        assert repr([_at(amp, i) for _, amp, _ in scaled]) == repr(
                            [br.amp for br in conditional.branches])
                        assert repr(_at(norm, i)) == repr(analysis._probe_means(conditional)[0])
        assert conditioned_points > 100

    def test_random_signed_zero_inputs(self, monkeypatch):
        rng = random.Random(2317)
        ran = _count_axis(monkeypatch, "_phase_axis_intensities")
        for _ in range(60):
            circuit = _signed_circuit(rng)
            phis = [_signed(rng, 10.0) for _ in range(rng.randint(4, 12))]
            for mode in (0, 2):
                args = (circuit, mode, phis)
                assert repr(_outcome(qndmzi.analysis._scan_intensities, *args)) == repr(
                    _outcome(_reference_intensities, *args))
        assert ran.count(True) > len(ran) // 2

    def test_random_probe_optics_after_the_recombiner(self, monkeypatch):
        # Random elements of every kind (probe optics, system splitters and
        # phases, Kerr couplings) between the last probe splitter and the
        # detection snapshot, random scan phases and a random second source
        # probe.
        rng = random.Random(1410)
        ran = _count_axis(monkeypatch, "_phase_axis_intensities")
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
                got = _outcome(fringe_scan, circuit, mode, phis)
                assert got == _outcome(reference_fringe_scan, circuit, mode, phis)
        # System elements past the scanned phase keep most scans on the axis.
        assert ran.count(True) > 0.6 * len(ran)


class TestDeltaAxis:
    """Which leakage sweeps run over a delta axis, and that they keep every bit."""

    ARMS = ((1, "L3"), (2, "L3p"), (0, SOURCE_STAGE))  # as in TestBitIdentity
    DELTAS = (1e-4, -3e-3, 1.0 / 3.0, -2.0, 3.0)

    @staticmethod
    def _full(circuit):
        return sum(not isinstance(el, Snapshot) for el in circuit.elements)

    def test_preset_applies_no_per_delta_elements(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        calls = _count_elements(monkeypatch)
        points = leakage_sweep(circuit, self.DELTAS)
        # The base run evolves every element once; every delta past the
        # inner splitter runs on the delta axis.
        assert len(calls) == self._full(circuit)
        monkeypatch.undo()
        assert points == reference_leakage_sweep(circuit, self.DELTAS)

    @pytest.mark.parametrize("arm_mode, dark_stage", ARMS)
    def test_delta_zero_on_an_inner_arm_hands_over(self, monkeypatch, arm_mode, dark_stage):
        # At delta 0 the inner dark port drops its branch; at any other
        # delta it keeps it, so the deltas share no branch structure when
        # the phase sits on an inner arm.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        deltas = (0.0,) + self.DELTAS
        ran = _count_axis(monkeypatch, "_delta_axis_points")
        got = leakage_sweep(circuit, deltas, arm_mode, dark_stage)
        assert ran == [arm_mode == 0]
        monkeypatch.undo()
        assert got == reference_leakage_sweep(circuit, deltas, arm_mode, dark_stage)

    def test_overflow_raises_the_per_delta_error(self):
        circuit = build_nested_mzi(0.6, 1e160, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(leakage_sweep, circuit, self.DELTAS)
        assert got[0] is ValueError and got[1].startswith("non-finite inner product")
        assert got == _outcome(reference_leakage_sweep, circuit, self.DELTAS)

    def test_kerr_on_one_inner_arm(self, monkeypatch):
        # Coupled to inner arm 1 alone, the inner recombiner leaves two
        # differently marked branches in each of modes 1 and 2, and the
        # detector projection holds two branches: the axis sums every pair.
        preset = build_nested_mzi(0.6, 2.0, 0.3)
        elements = tuple(
            KerrCoupling(frozenset({1}), 0, 0.3) if isinstance(el, KerrCoupling) else el
            for el in preset.elements
        )
        circuit = replace(preset, elements=elements)
        ran = _count_axis(monkeypatch, "_delta_axis_points")
        for arm_mode, dark_stage in self.ARMS:
            got = leakage_sweep(circuit, self.DELTAS, arm_mode, dark_stage)
            assert got == reference_leakage_sweep(circuit, self.DELTAS, arm_mode, dark_stage)
        assert ran == [True] * len(self.ARMS)

    @pytest.mark.parametrize("magnitude", [1e-300, 1e-3, 1e8, 1e100, 1e150, 1e154, 1e160])
    def test_edge_inputs(self, magnitude):
        # repr tells signed zeros apart, which == does not.  A dark stage at
        # the source is read from the prefix; a leakage sweep ignores the
        # detection stage.
        for r in (0.0, 0.37, 1.0):
            for eps in (0.0, -0.0, 1e-13, math.pi):
                for circuit in _circuits(r, cmath.rect(magnitude, -2.5), eps):
                    for arm_mode, dark_stage in self.ARMS:
                        args = (circuit, self.DELTAS, arm_mode, dark_stage)
                        got = _outcome(leakage_sweep, *args)
                        assert repr(got) == repr(_outcome(reference_leakage_sweep, *args))

    def test_signed_zero_inputs(self, monkeypatch):
        # Signed zeros in the source probes, eps_tau and the deltas (with
        # +-pi); delta -0.0 on an inner arm hands over, on the outer arm not.
        ran = _count_axis(monkeypatch, "_delta_axis_points")
        for r in (0.0, 0.6, 1.0):
            for eps in (0.0, -0.0, math.pi):
                for probes in SIGNED_PROBES:
                    circuit = replace(build_nested_mzi(r, 2.0, eps), source_probes=probes)
                    for deltas in (self.DELTAS, SIGNED_DELTAS):
                        for arm_mode, dark_stage in self.ARMS:
                            args = (circuit, deltas, arm_mode, dark_stage)
                            got = _outcome(leakage_sweep, *args)
                            assert repr(got) == repr(_outcome(reference_leakage_sweep, *args))
        assert ran.count(True) > len(ran) // 2

    def test_random_signed_zero_inputs(self, monkeypatch):
        rng = random.Random(2318)
        ran = _count_axis(monkeypatch, "_delta_axis_points")
        for _ in range(60):
            circuit = _signed_circuit(rng)
            deltas = [_signed(rng, 4.0) for _ in range(rng.randint(1, 8))]
            for arm_mode in range(3):
                args = (circuit, deltas, arm_mode, rng.choice(circuit.stages))
                assert repr(_outcome(leakage_sweep, *args)) == repr(
                    _outcome(reference_leakage_sweep, *args))
        assert ran.count(True) > len(ran) // 3

    def test_pair_sums_keep_signed_zeros_at_every_point(self):
        # Without probes a pair's term is conj(a_u) a_v alone, so the sign of
        # a zero imaginary part shows whether the sum starts from 0j + term.
        states = qndmzi.states
        amps = [complex(0.5, -0.0), complex(-0.0, -0.0), complex(-0.25, 0.0), complex(0.0, -1.0)]
        for bra_amp in (1 + 0j, complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0)):
            for ket in ([(0, amps, ())], [(1, amps, ()), (0, amps, ()), (0, complex(0.0, -0.5), ())]):
                total, _ = states._batch_pair_sum([(0, bra_amp, ()), (1, bra_amp, ())], ket)
                bra = HybridState(2, 0, (Branch(0, bra_amp, ()), Branch(1, bra_amp, ())))
                for i in range(len(amps)):
                    at_i = HybridState(2, 0, tuple(Branch(m, _at(a, i), ()) for m, a, _ in ket))
                    assert repr(_at(total, i)) == repr(states._pair_sum(bra, at_i))

    def test_dark_port_near_the_merge_tolerance_stays_on_the_axis(self, monkeypatch):
        # At delta 4.6e-12 the inner dark port holds |amp| = 1.84e-12 at L3,
        # and the outer recombiner splits it into 1.47e-12 and 1.1e-12: all
        # within a factor 2 of MERGE_TOL, none below it.  Each point keeps
        # every branch, which the per-point test of _nonempty sees.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        deltas = (4.6e-12, 1e-3, 0.1)
        trace = run_forward(circuit.insert(3, PhaseShift(SYS, 1, deltas[0])))
        small = [abs(br.amp) for label in ("L3", FINAL_STAGE)
                 for br in trace.forward[label].branches if abs(br.amp) < 2.0 * MERGE_TOL]
        assert len(small) == 3 and min(small) >= MERGE_TOL
        ran = _count_axis(monkeypatch, "_delta_axis_points")
        got = leakage_sweep(circuit, deltas)
        assert ran == [True]
        monkeypatch.undo()
        assert got == reference_leakage_sweep(circuit, deltas)

    def test_random_elements_after_the_inner_splitter(self, monkeypatch):
        # Random elements at random positions, ahead of and past the inner
        # splitter, a random dark stage per arm, and delta 0 in some sweeps.
        rng = random.Random(7482)
        ran = _count_axis(monkeypatch, "_delta_axis_points")
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
                assert _outcome(leakage_sweep, *args) == _outcome(reference_leakage_sweep, *args)
            for mode in (0, 2):
                got = _outcome(fringe_scan, circuit, mode, PHIS)
                assert got == _outcome(reference_fringe_scan, circuit, mode, PHIS)
        # Most sweeps run on the axis; the rest hand over.
        assert ran.count(True) > len(ran) // 2


    def test_fields_are_python_floats(self):
        # A numpy scalar would compare equal but change the repr.
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        for deltas in (self.DELTAS, (0.0,) + self.DELTAS):
            points = leakage_sweep(circuit, deltas)
            for p in points:
                assert [type(v) for v in vars(p).values()] == [float] * 3
            assert repr(points) == repr(reference_leakage_sweep(circuit, deltas))


class TestAxisDeclinesAtSize:
    """A prefix that holds a Kerr-marked chain meets the axis's size bounds.

    The chain is ``tests/deep_chains.py``'s at depth 7 with K = 2: 128
    branches at d7, 64 in each of modes 0 and 1, and 192 from the inner
    splitter on.  The axis hands over to the per-point loop at
    ``_GRAM_MIN_PAIRS`` pairs, and the results keep every bit of
    ``sweep_reference``'s.
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

    @staticmethod
    def _calls(monkeypatch, name):
        """Record (rows, whether it ran rather than handed over) for every call of ``analysis.name``."""
        calls = []
        step = getattr(qndmzi.analysis, name)

        def counted(*rows):
            try:
                out = step(*rows)
            except qndmzi.states._HandOver:
                calls.append((rows, False))
                raise
            calls.append((rows, True))
            return out

        monkeypatch.setattr(qndmzi.analysis, name, counted)
        return calls

    def test_fringe_scan_detected_ahead_declines_at_the_pair_count(self, monkeypatch):
        calls = self._calls(monkeypatch, "_batch_overlaps")
        for stage in ("d7", "in"):  # ahead of the scanned phase
            circuit = self._circuit(stage)
            for mode in (0, 1):
                calls.clear()
                args = (circuit, mode, self.PHIS)
                assert repr(_outcome(qndmzi.analysis._scan_intensities, *args)) == repr(
                    _outcome(_reference_intensities, *args))
                # The scan's 64 rows in the detected mode; the Kerr-free
                # reference's few rows stay on the axis.
                declined = [(len(bra), len(ket)) for (bra, ket), ran in calls if not ran]
                assert declined == [(64, 64)]
                assert 64 * 64 >= qndmzi.states._GRAM_MIN_PAIRS
                got = _outcome(fringe_scan, *args)
                assert repr(got) == repr(_outcome(reference_fringe_scan, *args))
                assert got[0] is ValueError and "is flat" in got[1]

    def test_leakage_sweep_declines_ahead_of_the_axis(self, monkeypatch):
        # The prefix holds 64 rows in each mode, so the leak's or the
        # detector's pair sum would hand over after every axis merge: the
        # sweep runs per delta from the start.
        calls = self._calls(monkeypatch, "_merge_rows")
        circuit = self._circuit()
        assert 64 * 64 >= qndmzi.states._GRAM_MIN_PAIRS
        for arm_mode, dark_stage in ((1, "d7"), (2, "out"), (0, FINAL_STAGE)):
            args = (circuit, self.DELTAS, arm_mode, dark_stage)
            assert repr(_outcome(leakage_sweep, *args)) == repr(
                _outcome(reference_leakage_sweep, *args))
            assert calls == []


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
