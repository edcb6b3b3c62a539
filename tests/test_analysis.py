import cmath
import math
import random

import numpy as np
import pytest

from qndmzi import (
    Branch,
    HybridState,
    build_nested_mzi,
    fringe_scan,
    inner_product,
    leakage_sweep,
    mean_probe_photons,
    postselect,
    run_both,
    run_forward,
    state_fidelity,
    tsvf_report,
)
from qndmzi.analysis import fringe_csv, leakage_csv

S2 = math.sqrt(2)


def preset(r=0.6, alpha=2.0, eps=0.3):
    return build_nested_mzi(r, alpha, eps)


class TestPostselect:
    def test_detector_statistics(self):
        result = postselect(run_forward(preset()), 0)
        assert result.probability == pytest.approx(0.36, abs=1e-12)
        assert result.fidelity_vs_reference == pytest.approx(1.0, abs=1e-12)
        # conditional probe is the unperturbed interferometer output
        br = result.conditional.branches[0]
        assert br.probes[0] == pytest.approx(1j * S2 * 2.0, abs=1e-12)
        assert br.probes[1] == pytest.approx(0j, abs=1e-12)

    def test_dark_output_has_zero_probability(self):
        result = postselect(run_forward(preset()), 1, at="L3")
        assert result.probability == 0.0
        assert result.conditional is None
        assert result.fidelity_vs_reference is None
        assert result.probe_mean_photons is None

    def test_exit_statistics(self):
        alpha, x = 2.0, 0.3
        result = postselect(run_forward(preset(eps=x)), 2)
        assert result.probability == pytest.approx(0.64, abs=1e-12)
        # direct expansion |alpha (1 - e^(-ix)) / sqrt(2)|^2 as the oracle
        direct = abs(alpha * (1 - cmath.exp(-1j * x)) / S2) ** 2
        assert direct == pytest.approx(alpha**2 * (1 - math.cos(x)), abs=1e-14)
        assert result.probe_mean_photons[1] == pytest.approx(direct, abs=1e-10)
        assert result.probe_mean_photons[1] == pytest.approx(0.178654043498, abs=1e-9)

    def test_probabilities_of_detector_and_exit_sum_to_one(self):
        for r in (0.3, 0.6, 0.9):
            trace = run_forward(preset(r=r))
            total = (
                postselect(trace, 0, compute_fidelity=False).probability
                + postselect(trace, 2, compute_fidelity=False).probability
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            postselect(run_forward(preset()), 0, at="L7")

    @pytest.mark.parametrize("mode, at", [(np.int64(1), "L3"), (True, None), (np.int64(0), None)])
    def test_result_holds_the_checked_mode(self, mode, at):
        result = postselect(run_both(preset()), mode, at)
        assert type(result.mode) is int and result.mode == mode

    def test_stage_is_checked_before_the_mode(self):
        with pytest.raises(ValueError, match="^stage 'L7' not present"):
            postselect(run_forward(preset()), "x", at="L7")
        with pytest.raises(ValueError, match="^mode 'x' is not an integer$"):
            postselect(run_forward(preset()), "x")
        with pytest.raises(IndexError, match=r"^mode 3 outside \[0, 3\)$"):
            postselect(run_forward(preset()), 3)

    def test_exit_fidelity_decays_with_coupling(self):
        weak = postselect(run_forward(preset(eps=0.1)), 2)
        strong = postselect(run_forward(preset(eps=1.0)), 2)
        assert 0.0 < strong.fidelity_vs_reference < weak.fidelity_vs_reference < 1.0


class TestMeanPhotons:
    def test_single_coherent_branch(self):
        s = HybridState.single_photon(3, 0, (1.5 + 0.5j, -2j))
        means = mean_probe_photons(s)
        assert means[0] == pytest.approx(abs(1.5 + 0.5j) ** 2, abs=1e-12)
        assert means[1] == pytest.approx(4.0, abs=1e-12)

    def test_superposed_branches_use_exact_matrix_elements(self):
        # <n> of (|0>|b> + |0>|g>)/norm differs from the weighted average of
        # |b|^2 and |g|^2 by the interference term Re(conj(b) g <b|g>).
        b, g = 1.0 + 0j, 0.5j
        s = HybridState(
            1, 1, (Branch(0, 1 / S2, (b,)), Branch(0, 1 / S2, (g,)))
        )
        ov = cmath.exp(-0.5 * abs(b) ** 2 - 0.5 * abs(g) ** 2 + b.conjugate() * g)
        norm = 1 + ov.real
        expected = (0.5 * abs(b) ** 2 + 0.5 * abs(g) ** 2 + (b.conjugate() * g * ov).real) / norm
        assert mean_probe_photons(s)[0] == pytest.approx(expected, abs=1e-12)

    def test_null_state_rejected(self):
        with pytest.raises(ValueError):
            mean_probe_photons(HybridState(1, 1, ()))


class TestFringes:
    PHIS = tuple(2 * math.pi * i / 48 for i in range(48))

    def test_needs_at_least_four_points(self):
        with pytest.raises(ValueError):
            fringe_scan(preset(), 0, [0.0, 1.0, 2.0])

    def test_detector_fringes_ignore_the_coupling(self):
        scans = [
            fringe_scan(preset(eps=eps), 0, self.PHIS) for eps in (0.0, 0.3, 1.0)
        ]
        for other in scans[1:]:
            for a, b in zip(scans[0].intensity_dp1, other.intensity_dp1):
                assert abs(a - b) < 1e-10
            for a, b in zip(scans[0].intensity_dp2, other.intensity_dp2):
                assert abs(a - b) < 1e-10
        assert scans[1].extracted_shift == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 0.3, 1.0, 2.0])
    def test_exit_fringes_reveal_the_phase(self, eps):
        scan = fringe_scan(preset(eps=eps), 2, self.PHIS)
        assert scan.extracted_shift == pytest.approx(eps, abs=1e-6)

    def test_flat_fringe_has_no_phase(self):
        # No probe light: every intensity is 0, so the fit has no cosine.
        with pytest.raises(ValueError, match="mode 2 is flat"):
            fringe_scan(preset(alpha=0.0), 2, self.PHIS)

    def test_unperturbed_visibility_is_unity(self):
        for mode in (0, 2):
            scan = fringe_scan(preset(eps=0.0), 2 if mode else 0, self.PHIS)
            assert scan.visibility == pytest.approx(1.0, abs=1e-12)

    def test_detector_intensities_match_closed_form(self):
        alpha = 2.0
        scan = fringe_scan(preset(eps=0.7), 0, self.PHIS)
        for phi, dp1, dp2 in zip(scan.phis, scan.intensity_dp1, scan.intensity_dp2):
            assert dp1 == pytest.approx(alpha**2 * (1 + math.cos(phi)), abs=1e-10)
            assert dp2 == pytest.approx(alpha**2 * (1 - math.cos(phi)), abs=1e-10)
            assert dp1 > -1e-12 and dp2 > -1e-12


class TestTsvf:
    def test_verdicts_with_probe_decoupled(self):
        report = tsvf_report(preset(eps=0.0))
        assert report.overlap_modes("L1") == (0,)
        assert report.overlap_modes("L2") == (0, 1, 2)
        assert report.overlap_modes("L3") == (0,)

    def test_weak_values_match_matrix_product_oracle(self):
        # Independent route: assemble the bare interferometer as explicit
        # 3x3 matrix products and form conj(bwd_m) fwd_m / sum.
        r = 0.6
        t = math.sqrt(1 - r * r)
        u = lambda rr: np.array(
            [[-1j * rr, math.sqrt(1 - rr * rr)], [math.sqrt(1 - rr * rr), -1j * rr]]
        )

        def embed(mat, pair):
            out = np.eye(3, dtype=complex)
            out[np.ix_(pair, pair)] = mat
            return out

        bs1 = embed(u(r), (0, 1))
        bs2 = embed(u(math.sqrt(0.5)), (1, 2))
        e0 = np.array([1, 0, 0], dtype=complex)
        fwd = {"L1": bs1 @ e0, "L2": bs2 @ bs1 @ e0, "L3": bs2 @ bs2 @ bs1 @ e0}
        bwd = {
            "L3": bs1.conj().T @ e0,
            "L2": bs2.conj().T @ bs1.conj().T @ e0,
            "L1": bs2.conj().T @ bs2.conj().T @ bs1.conj().T @ e0,
        }
        report = tsvf_report(preset(r=r, eps=0.0))
        for stage in ("L1", "L2", "L3"):
            den = np.vdot(bwd[stage], fwd[stage])
            for m in range(3):
                expected = bwd[stage][m].conjugate() * fwd[stage][m] / den
                got = report.stage(stage).modes[m].weak_value
                assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.4])
    def test_weak_values_sum_to_one_at_every_stage(self, eps):
        report = tsvf_report(preset(eps=eps))
        for stage in report.stages:
            assert stage.postselection_possible
            total = sum(rep.weak_value for rep in stage.modes)
            assert abs(total - 1.0) < 1e-10

    def test_coupling_suppresses_inner_weak_values(self):
        alpha, x = 2.0, 0.3
        bare = tsvf_report(preset(eps=0.0))
        coupled = tsvf_report(preset(eps=x))
        suppression = abs(
            coupled.stage("L2").modes[1].weak_value
            / bare.stage("L2").modes[1].weak_value
        )
        assert suppression == pytest.approx(
            math.exp(-(alpha**2) * (1 - math.cos(x))), abs=1e-10
        )

    def test_stage_lookup_raises_for_unknown_label(self):
        report = tsvf_report(preset())
        for lookup in (report.stage, report.overlap_modes):
            with pytest.raises(ValueError, match=r"^stage 'L99' is not one of \['source', .*'L3'"):
                lookup("L99")

    def test_null_transition_amplitude_is_flagged(self):
        # post-selecting on a mode the photon can never reach makes the
        # backward/forward pairing vanish; the report must say so instead
        # of fabricating weak values
        from qndmzi import Circuit, Snapshot

        circuit = Circuit(
            m_modes=2,
            k_probes=1,
            elements=(Snapshot("A"),),
            source_mode=0,
            source_probes=(0.5 + 0j,),
            postselect_mode=1,
        )
        report = tsvf_report(circuit)
        for stage in report.stages:
            assert not stage.postselection_possible
            assert all(rep.weak_value is None for rep in stage.modes)
            assert all(not rep.overlap_nonzero for rep in stage.modes)

    def test_rounding_residue_is_not_a_valid_denominator(self):
        # with a fully transmissive outer splitter nothing can reach the
        # detector; intermediate-stage pairings cancel only to rounding
        # noise, which must still be flagged as impossible
        report = tsvf_report(build_nested_mzi(0.0, 2.0, 0.3))
        for stage in report.stages:
            assert not stage.postselection_possible

    def test_transition_amplitude_column_matches_inner_product(self):
        from qndmzi import run_both

        circuit = preset(eps=0.3)
        trace = run_both(circuit)
        report = tsvf_report(circuit, trace=trace)
        for stage in report.stages:
            direct = inner_product(trace.backward[stage.stage], trace.forward[stage.stage])
            assert stage.transition_amplitude == pytest.approx(direct, abs=1e-14)

    def test_trace_of_another_circuit_rejected(self):
        from qndmzi import run_both

        with pytest.raises(ValueError, match="different circuit"):
            tsvf_report(preset(), trace=run_both(build_nested_mzi(0.2, 2.0, 0.0)))

    def test_trace_of_an_equal_circuit_accepted(self):
        from qndmzi import run_both

        report = tsvf_report(preset(), trace=run_both(preset()))
        assert report == tsvf_report(preset())

    def test_forward_only_trace_rejected(self):
        circuit = preset()
        with pytest.raises(ValueError, match="run_both"):
            tsvf_report(circuit, trace=run_forward(circuit))

    def test_overflowing_overlap_exponent_raises_value_error(self):
        # The backward bra's probes differ from the forward ones by rounding,
        # so an overlap exponent, a cancellation of terms of size |alpha|^2,
        # comes out large and positive and overflows cmath.exp.
        circuit = preset(alpha=cmath.rect(1e50, 1.0), eps=0.0)
        with pytest.raises(ValueError, match="^non-finite inner product"):
            tsvf_report(circuit)


class TestLeakage:
    def test_unperturbed_point_is_clean(self):
        rows = leakage_sweep(preset(), [0.0])
        assert rows[0].dark_port_probability == 0.0
        assert rows[0].fidelity_deficit == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_coefficient(self):
        t = 0.8
        deltas = np.logspace(-4, -2, 13)
        rows = leakage_sweep(preset(), deltas)
        leaks = np.array([p.dark_port_probability for p in rows])
        coefficient = float(np.sum(leaks * deltas**2) / np.sum(deltas**4))
        assert coefficient == pytest.approx(t * t / 4, rel=1e-2)

    def test_log_log_slope_is_two(self):
        deltas = np.logspace(-4, -2, 13)
        rows = leakage_sweep(preset(), deltas)
        leaks = np.array([p.dark_port_probability for p in rows])
        slope = np.polyfit(np.log(deltas), np.log(leaks), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.01)

    def test_qnd_scheme_never_leaks(self):
        for eps in (0.0, 0.3, 1.0, 2.0, math.pi):
            trace = run_forward(preset(eps=eps))
            assert trace.forward["L3"].project_mode(1).norm_sq() < 1e-24

    def test_perturbation_marks_the_detector_state_when_coupled(self):
        rows = leakage_sweep(preset(eps=0.5), [1e-2])
        assert rows[0].fidelity_deficit > 0.0
        rows_dark = leakage_sweep(preset(eps=0.0), [1e-2])
        assert rows_dark[0].fidelity_deficit == pytest.approx(0.0, abs=1e-12)

    def test_null_detector_state_at_a_delta_raises(self):
        # The detector amplitude -r^2 + t^2 (1 - exp(i delta)) / 2 is 0 here.
        circuit = build_nested_mzi(math.sqrt(0.5), 2, 0.0)
        with pytest.raises(ValueError, match=r"^detector-conditioned state at delta 3\.14159"):
            leakage_sweep(circuit, [math.pi])


class TestCsv:
    def test_fringe_csv_layout(self):
        scan = fringe_scan(preset(), 0, [0.0, 1.0, 2.0, 3.0])
        text = fringe_csv(scan)
        lines = text.splitlines()
        assert lines[0] == "phi,dp1,dp2"
        assert len(lines) == 5
        assert lines[1].startswith("0,")
        assert text.endswith("\n")

    def test_leakage_csv_layout(self):
        rows = leakage_sweep(preset(), [1e-3, 2e-3])
        lines = leakage_csv(rows).splitlines()
        assert lines[0] == "delta,leak_prob,fidelity_deficit"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0.001"

    def test_byte_determinism(self):
        phis = [2 * math.pi * i / 16 for i in range(16)]
        a = fringe_csv(fringe_scan(preset(), 2, phis))
        b = fringe_csv(fringe_scan(preset(), 2, phis))
        assert a == b

    def test_twelve_significant_digits(self):
        rows = leakage_sweep(preset(eps=0.4), [1.0 / 3.0])
        cell = leakage_csv(rows).splitlines()[1].split(",")[0]
        assert cell == "0.333333333333"


class TestStateFidelity:
    def test_self_fidelity(self):
        s = HybridState.single_photon(2, 0, (0.3 + 1j,))
        assert state_fidelity(s, s) == pytest.approx(1.0, abs=1e-13)

    def test_symmetric_and_bounded(self):
        rng = random.Random(3)
        from helpers import random_state

        for _ in range(20):
            a, b = random_state(rng), random_state(rng)
            fab = state_fidelity(a, b)
            fba = state_fidelity(b, a)
            assert fab == pytest.approx(fba, abs=1e-12)
            assert -1e-12 <= fab <= 1 + 1e-12

    def test_null_state_rejected(self):
        s = HybridState.single_photon(2, 0, (0j,))
        with pytest.raises(ValueError):
            state_fidelity(s, HybridState(2, 1, ()))
