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
from dataclasses import replace

import pytest

import qndmzi.analysis
import qndmzi.circuit
import qndmzi.states
from qndmzi import (
    FINAL_STAGE,
    PROBE,
    SOURCE_STAGE,
    SYS,
    BeamSplitter,
    Branch,
    Circuit,
    HybridState,
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
from helpers import random_complex, random_element
from sweep_reference import (
    reference_fringe_scan,
    reference_leakage_sweep,
    reference_postselect,
)

PHIS = tuple(2.0 * math.pi * i / 12 for i in range(12))
DELTAS = (0.0, 1e-4, -3e-3, 1.0 / 3.0, math.pi)


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


class TestWorkCount:
    def test_fringe_scan_evolves_the_prefix_once_per_scan(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        insert_at = 11
        assert circuit.elements[insert_at] == BeamSplitter(PROBE, 0, 1, math.sqrt(0.5))
        prefix = sum(not isinstance(el, Snapshot) for el in circuit.elements[:insert_at])
        calls = _count_elements(monkeypatch)
        n = 32
        fringe_scan(circuit, 2, [2.0 * math.pi * i / n for i in range(n)])
        # Scan and Kerr-free reference each evolve the prefix once; per point
        # each applies the scanned phase and the probe recombiner, then stops
        # at the detection stage.  The per-point full run applied 15 each.
        assert len(calls) <= 2 * prefix + 2 * 2 * n

    def test_leakage_sweep_evolves_the_prefix_once(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        full = sum(not isinstance(el, Snapshot) for el in circuit.elements)
        calls = _count_elements(monkeypatch)
        n = 10
        leakage_sweep(circuit, [1e-3 * (i + 1) for i in range(n)])
        # Unperturbed run, then the two elements up to the inner splitter
        # once, then per point the arm phase and the remaining elements.
        assert len(calls) <= full + 2 + n * (1 + full - 2)

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

        def counted(bra, ket):
            calls.append((bra, ket))
            return inner_product(bra, ket)

        monkeypatch.setattr(qndmzi.states, "inner_product", counted)
        monkeypatch.setattr(qndmzi.analysis, "inner_product", counted)
        postselect(trace, 0, compute_fidelity=False)
        # The projection's norm, which also scales the conditional state, and
        # the conditional state's norm in mean_probe_photons.  Normalizing
        # the projection used to take its norm a second time.
        assert len(calls) == 2
        calls.clear()
        postselect(trace, 0)
        # The fidelity adds the twin's projection norm, then the two norms
        # and the overlap of state_fidelity.
        assert len(calls) == 6


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

    def test_leakage_sweep_checks_arm_mode_before_dark_stage(self):
        with pytest.raises(IndexError):
            leakage_sweep(build_nested_mzi(0.6), [], arm_mode=7, dark_stage="nope")
