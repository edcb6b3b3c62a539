"""One branch-pair loop: exact agreement with the old loops, loud overflow.

``inner_product`` and ``mean_probe_photons`` share ``states._pair_sum``.
Their results must equal (``==``) the separate loops kept in
``overlap_reference`` on every stage of seeded random circuits, forward and
backward, and on the preset apparatus over a wide range of |alpha|.  An
overlap that overflows must raise rather than pass on as NaN.
"""

import math
import random

import numpy as np
import pytest

from qndmzi import (
    Branch,
    HybridState,
    StageTrace,
    build_nested_mzi,
    inner_product,
    mean_probe_photons,
    postselect,
    run_backward,
    run_both,
    run_forward,
    state_fidelity,
    tsvf_report,
)
from helpers import random_circuit
from overlap_reference import reference_inner_product, reference_mean_probe_photons

ALPHAS = [1e-3, 0.7 + 0.2j, 30.0, 1e3 - 2j]


def traced_states(circuit):
    trace = run_both(circuit)
    for label in circuit.stages:
        yield trace.backward[label], trace.forward[label]


def assert_matches_reference(circuit):
    for bwd, fwd in traced_states(circuit):
        assert inner_product(bwd, fwd) == reference_inner_product(bwd, fwd)
        for state in (fwd, bwd):
            assert inner_product(state, state) == reference_inner_product(state, state)
            for m in range(circuit.m_modes):
                part = state.project_mode(m)
                assert inner_product(state, part) == reference_inner_product(state, part)
                if reference_inner_product(part, part).real > 0.0:
                    assert mean_probe_photons(part) == reference_mean_probe_photons(part)
            if reference_inner_product(state, state).real > 0.0:
                assert mean_probe_photons(state) == reference_mean_probe_photons(state)


class TestSharedLoopIsBitIdentical:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuit_stages(self, seed):
        rng = random.Random(900 + seed)
        for _ in range(8):
            assert_matches_reference(
                random_circuit(rng, probe_radius=rng.choice([0.5, 1.0, 3.0]))
            )

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_preset_stages(self, alpha, eps):
        assert_matches_reference(build_nested_mzi(0.6, alpha, eps))


class TestOverflowFailsLoudly:
    def test_inner_product_and_norm(self):
        state = HybridState.single_photon(1, 0, (1e160 + 0j,))
        with pytest.raises(ValueError, match="non-finite inner product"):
            inner_product(state, state)
        with pytest.raises(ValueError, match="non-finite inner product"):
            state.norm_sq()

    def test_mean_photons_and_fidelity(self):
        big = HybridState(1, 1, (Branch(0, 1.0, (1e160 + 0j,)),))
        with pytest.raises(ValueError, match="non-finite inner product"):
            mean_probe_photons(big)
        with pytest.raises(ValueError, match="non-finite inner product"):
            state_fidelity(big, big)

    def test_tsvf_and_postselect(self):
        circuit = build_nested_mzi(0.6, 1e160, 0.3)
        with pytest.raises(ValueError, match="non-finite inner product"):
            tsvf_report(circuit)
        with pytest.raises(ValueError, match="non-finite inner product"):
            postselect(run_forward(circuit), 0)


class TestCustomBra:
    def test_weak_values_sum_to_one_for_a_custom_final_bra(self):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        bra = HybridState(
            3,
            2,
            (
                Branch(0, 0.6, (2.5j, 0.1 + 0j)),
                Branch(2, 0.8j, (0.4 + 0.3j, -1.0 + 0j)),
            ),
        )
        trace = StageTrace(
            circuit, run_forward(circuit).forward, run_backward(circuit, bra).backward
        )
        report = tsvf_report(circuit, trace=trace)
        assert report.stage("final").modes[0].backward_amp == 0.6
        possible = [s for s in report.stages if s.postselection_possible]
        assert len(possible) == len(circuit.stages)
        for stage in possible:
            total = sum(rep.weak_value for rep in stage.modes)
            assert abs(total - 1.0) < 1e-10
        assert report.stage("final").transition_amplitude != pytest.approx(
            tsvf_report(circuit).stage("final").transition_amplitude
        )


class TestThreshold:
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            tsvf_report(build_nested_mzi(0.6, 2.0, 0.0), threshold=threshold)

    @pytest.mark.parametrize("threshold", ["0.1", 0.1 + 0j, np.complex128(0.1), None, b"0.1"])
    def test_non_real_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"^overlap threshold .* is not a real number$"):
            tsvf_report(build_nested_mzi(0.6, 2.0, 0.0), threshold=threshold)

    @pytest.mark.parametrize("threshold", [np.float64(0.1), np.float32(0.25), np.int64(1), 1, True])
    def test_numpy_and_int_kept_as_float(self, threshold):
        circuit = build_nested_mzi(0.6, 2.0, 0.0)
        report = tsvf_report(circuit, threshold=threshold)
        assert type(report.threshold) is float and report.threshold == float(threshold)
        assert repr(report) == repr(tsvf_report(circuit, threshold=float(threshold)))

    def test_zero_accepted(self):
        report = tsvf_report(build_nested_mzi(0.6, 2.0, 0.0), threshold=0.0)
        assert report.threshold == 0.0
        assert report.overlap_modes("L2") == (0, 1, 2)
