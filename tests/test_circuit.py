import cmath
import math
import random

import pytest

from qndmzi import (
    SYS,
    BeamSplitter,
    Branch,
    FINAL_STAGE,
    Circuit,
    HybridState,
    PhaseShift,
    Snapshot,
    build_nested_mzi,
    inner_product,
    run_backward,
    run_both,
    run_forward,
)
from helpers import random_circuit

S2 = math.sqrt(2)


def branch_map(state):
    """mode -> single branch; fails if a mode holds several branches."""
    out = {}
    for br in state.branches:
        assert br.mode not in out
        out[br.mode] = br
    return out


class TestBuilder:
    def test_rejects_bad_reflectivity(self):
        with pytest.raises(ValueError):
            build_nested_mzi(1.5)
        with pytest.raises(ValueError):
            build_nested_mzi(-0.2)

    def test_first_stage_content(self):
        trace = run_forward(build_nested_mzi(0.6, 2.0, 0.3))
        branches = branch_map(trace.forward["L1"])
        assert branches[0].amp == pytest.approx(-0.6j, abs=1e-15)
        assert branches[1].amp == pytest.approx(0.8, abs=1e-15)
        for br in branches.values():
            assert br.probes[0] == pytest.approx(2 * S2, abs=1e-15)
            assert br.probes[1] == 0j

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_dark_output_is_empty(self, r):
        trace = run_forward(build_nested_mzi(r, 2.0, 0.3))
        assert trace.forward["L3"].project_mode(1).norm_sq() < 1e-24

    def test_probe_interferometer_closes_without_coupling(self):
        alpha = 2.0
        trace = run_forward(build_nested_mzi(0.6, alpha, 0.0))
        for br in trace.forward["L3p"].branches:
            assert br.probes[0] == pytest.approx(1j * S2 * alpha, abs=1e-12)
            assert br.probes[1] == pytest.approx(0j, abs=1e-12)


class TestRunForward:
    def test_stage_probes_before_and_after_coupling(self):
        alpha, x = 2.0, 0.3
        trace = run_forward(build_nested_mzi(0.6, alpha, x))
        at_l2 = branch_map(trace.forward["L2"])
        for br in at_l2.values():
            assert br.probes[0] == pytest.approx(alpha, abs=1e-12)
            assert br.probes[1] == pytest.approx(1j * alpha, abs=1e-12)
        after = branch_map(trace.forward["L2p"])
        assert after[0].probes[0] == pytest.approx(alpha, abs=1e-12)
        for m in (1, 2):
            assert after[m].probes[0] == pytest.approx(
                alpha * cmath.exp(-1j * x), abs=1e-12
            )
            assert after[m].probes[1] == pytest.approx(1j * alpha, abs=1e-12)

    def test_output_stage_branches(self):
        alpha, x, r = 2.0, 0.3, 0.6
        trace = run_forward(build_nested_mzi(r, alpha, x))
        out = branch_map(trace.forward["L3p"])
        assert abs(out[0].amp) == pytest.approx(r, abs=1e-12)
        assert out[0].probes[0] == pytest.approx(1j * S2 * alpha, abs=1e-12)
        assert out[0].probes[1] == pytest.approx(0j, abs=1e-12)
        assert abs(out[2].amp) == pytest.approx(math.sqrt(1 - r * r), abs=1e-12)
        assert out[2].probes[0] == pytest.approx(
            1j * alpha * (1 + cmath.exp(-1j * x)) / S2, abs=1e-12
        )
        assert out[2].probes[1] == pytest.approx(
            alpha * (1 - cmath.exp(-1j * x)) / S2, abs=1e-12
        )

    def test_fully_reflective_outer_splitter_gives_single_branch(self):
        trace = run_forward(build_nested_mzi(1.0, 2.0, 0.3))
        for label in trace.circuit.stages:
            state = trace.forward[label]
            assert len(state.branches) == 1
            assert state.branches[0].mode == 0

    def test_norm_conserved_through_full_run(self):
        for r, x in [(0.6, 0.3), (0.25, 1.7), (0.9, math.pi)]:
            trace = run_forward(build_nested_mzi(r, 2.0, x))
            for label in trace.circuit.stages:
                assert trace.forward[label].norm_sq() == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_decoupled_probe_factorizes_at_every_stage(self):
        trace = run_forward(build_nested_mzi(0.6, 2.0, 0.0))
        for label in trace.circuit.stages:
            probes = {br.probes for br in trace.forward[label].branches}
            assert len(probes) == 1


class TestRunBackward:
    def test_default_bra_is_the_unperturbed_probe_output(self):
        alpha = 2.0
        circuit = build_nested_mzi(0.6, alpha, 0.3)
        bra = run_backward(circuit).backward[FINAL_STAGE]
        assert bra.branches[0].mode == 0
        assert bra.branches[0].probes[0] == pytest.approx(1j * S2 * alpha, abs=1e-12)
        assert bra.branches[0].probes[1] == pytest.approx(0j, abs=1e-12)

    def test_stage_l3_pattern(self):
        r, alpha = 0.6, 2.0
        trace = run_backward(build_nested_mzi(r, alpha, 0.3))
        branches = branch_map(trace.backward["L3"])
        assert branches[0].amp == pytest.approx(1j * r, abs=1e-12)
        assert branches[1].amp == pytest.approx(math.sqrt(1 - r * r), abs=1e-12)
        for br in branches.values():
            assert br.probes[0] == pytest.approx(alpha, abs=1e-12)
            assert br.probes[1] == pytest.approx(1j * alpha, abs=1e-12)

    def test_detector_branch_reaches_source_with_pristine_probe(self):
        alpha = 2.0
        trace = run_backward(build_nested_mzi(0.6, alpha, 0.3))
        branches = branch_map(trace.backward["L1"])
        assert branches[0].probes[0] == pytest.approx(S2 * alpha, abs=1e-12)
        assert branches[0].probes[1] == pytest.approx(0j, abs=1e-12)
        # the inner-interferometer portion exits on mode 2 and never holds
        # amplitude on the source mode
        assert set(branches) == {0, 2}
        source = trace.backward["source"]
        for br in source.branches:
            if br.mode == 0:
                assert br.probes[0] == pytest.approx(S2 * alpha, abs=1e-12)
                assert br.probes[1] == pytest.approx(0j, abs=1e-12)

    def test_identity_circuit_keeps_bra_everywhere(self):
        circuit = Circuit(
            m_modes=3,
            k_probes=2,
            elements=(Snapshot("A"), Snapshot("B")),
            source_mode=0,
            source_probes=(1 + 0j, 0j),
        )
        bra = HybridState(3, 2, (Branch(1, 0.5j, (0.2 + 0j, 0j)),))
        trace = run_backward(circuit, bra)
        for label in ("final", "A", "B", "source"):
            assert trace.backward[label].branches == bra.branches

    def test_dimension_mismatch_rejected(self):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        with pytest.raises(ValueError):
            run_backward(circuit, HybridState(3, 1, (Branch(0, 1.0, (0j,)),)))


class TestTimeReversalConsistency:
    @pytest.mark.parametrize("eps", [0.0, 0.3, 2.0])
    def test_transition_amplitude_is_stage_independent(self, eps):
        circuit = build_nested_mzi(0.6, 2.0, eps)
        trace = run_both(circuit)
        amplitudes = [
            inner_product(trace.backward[label], trace.forward[label])
            for label in circuit.stages
        ]
        for amp in amplitudes[1:]:
            assert abs(amp - amplitudes[0]) < 1e-12

    def test_holds_with_arm_perturbation(self):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        perturbed = circuit.insert(3, PhaseShift(SYS, 1, 0.05))
        trace = run_both(perturbed)
        amplitudes = [
            inner_product(trace.backward[label], trace.forward[label])
            for label in perturbed.stages
        ]
        for amp in amplitudes[1:]:
            assert abs(amp - amplitudes[0]) < 1e-12

    def test_random_circuits(self):
        rng = random.Random(41)
        for _ in range(10):
            circuit = random_circuit(rng)
            trace = run_both(circuit)
            amplitudes = [
                inner_product(trace.backward[label], trace.forward[label])
                for label in circuit.stages
            ]
            for amp in amplitudes[1:]:
                assert abs(amp - amplitudes[0]) < 1e-12


class TestCircuitValidation:
    def test_duplicate_snapshot_label(self):
        with pytest.raises(ValueError):
            Circuit(
                m_modes=2,
                k_probes=1,
                elements=(Snapshot("X"), Snapshot("X")),
                source_mode=0,
                source_probes=(0j,),
            )

    def test_reserved_labels(self):
        for label in ("source", "final"):
            with pytest.raises(ValueError):
                Circuit(
                    m_modes=2,
                    k_probes=1,
                    elements=(Snapshot(label),),
                    source_mode=0,
                    source_probes=(0j,),
                )

    def test_detect_stage_must_exist(self):
        with pytest.raises(ValueError):
            Circuit(
                m_modes=2,
                k_probes=1,
                elements=(Snapshot("X"),),
                source_mode=0,
                source_probes=(0j,),
                detect_stage="Y",
            )

    def test_element_indices_checked_at_construction(self):
        with pytest.raises(IndexError):
            Circuit(
                m_modes=2,
                k_probes=1,
                elements=(BeamSplitter(SYS, 0, 3, 0.5),),
                source_mode=0,
                source_probes=(0j,),
            )

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, float("-inf"))])
    def test_non_finite_source_probe_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite source probe"):
            Circuit(m_modes=2, k_probes=1, elements=(), source_mode=0, source_probes=(bad,))
        with pytest.raises(ValueError, match="non-finite source probe"):
            build_nested_mzi(0.6, bad, 0.3)

    def test_probe_optics_image_folds_probe_elements_only(self):
        circuit = build_nested_mzi(0.6, 2.0, 1.2)
        image = run_backward(circuit).backward[FINAL_STAGE].branches[0].probes
        assert image[0] == pytest.approx(1j * S2 * 2.0, abs=1e-12)
        assert image[1] == pytest.approx(0j, abs=1e-12)
