import cmath
import math
import random

import pytest

from qndmzi import (
    PROBE,
    SYS,
    BeamSplitter,
    Branch,
    HybridState,
    KerrCoupling,
    PhaseShift,
    apply_beam_splitter,
    apply_element,
    apply_kerr,
    apply_phase,
)
from helpers import random_element, random_state

BALANCED = math.sqrt(0.5)


def photon(mode, amp=1.0, probes=(0j, 0j), m=3):
    return HybridState(m, len(probes), (Branch(mode, amp, tuple(probes)),))


class TestBeamSplitterSpec:
    def test_reflectivity_bounds(self):
        with pytest.raises(ValueError):
            BeamSplitter(SYS, 0, 1, -0.1)
        with pytest.raises(ValueError):
            BeamSplitter(SYS, 0, 1, 1.1)

    def test_ports_must_differ(self):
        with pytest.raises(ValueError):
            BeamSplitter(SYS, 1, 1, 0.5)

    def test_energy_split_exact(self):
        rng = random.Random(3)
        for _ in range(50):
            bs = BeamSplitter(SYS, 0, 1, rng.random())
            assert bs.reflectivity**2 + bs.transmissivity**2 == pytest.approx(
                1.0, abs=1e-15
            )


class TestApplyBeamSplitter:
    def test_splits_photon_into_reflection_and_transmission(self):
        bs = BeamSplitter(SYS, 0, 1, 0.6)
        out = apply_beam_splitter(photon(0), bs)
        amps = {br.mode: br.amp for br in out.branches}
        assert amps[0] == pytest.approx(-0.6j, abs=1e-15)
        assert amps[1] == pytest.approx(0.8, abs=1e-15)

    def test_balanced_split_of_inner_input(self):
        t = 0.8
        bs = BeamSplitter(SYS, 1, 2, BALANCED)
        out = apply_beam_splitter(photon(1, amp=t), bs)
        amps = {br.mode: br.amp for br in out.branches}
        assert amps[1] == pytest.approx(-1j * t * BALANCED, abs=1e-15)
        assert amps[2] == pytest.approx(t * BALANCED, abs=1e-15)

    def test_fully_transmissive_crosses_ports(self):
        # r = 0 swaps the port labels with unit amplitude: mode indices here
        # follow the interferometer arms, and full transmission carries the
        # photon into the other arm.
        bs = BeamSplitter(SYS, 0, 1, 0.0)
        out = apply_beam_splitter(photon(0, amp=0.3 + 0.4j), bs)
        assert len(out.branches) == 1
        assert out.branches[0].mode == 1
        assert out.branches[0].amp == pytest.approx(0.3 + 0.4j, abs=1e-15)

    def test_fully_reflective_keeps_the_port(self):
        bs = BeamSplitter(SYS, 0, 1, 1.0)
        out = apply_beam_splitter(photon(0, amp=0.5), bs)
        assert len(out.branches) == 1
        assert out.branches[0].mode == 0
        assert out.branches[0].amp == pytest.approx(-0.5j, abs=1e-15)

    def test_probe_side_uses_same_matrix(self):
        bs = BeamSplitter(PROBE, 0, 1, 0.6)
        s = photon(2, probes=(0.5 + 0j, -0.25j))
        out = apply_beam_splitter(s, bs)
        pa, pb = out.branches[0].probes
        assert pa == pytest.approx(-0.6j * 0.5 + 0.8 * (-0.25j), abs=1e-15)
        assert pb == pytest.approx(0.8 * 0.5 + (-0.6j) * (-0.25j), abs=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_beam_splitter(photon(0), BeamSplitter(SYS, 0, 5, 0.5))
        with pytest.raises(IndexError):
            apply_beam_splitter(photon(0), BeamSplitter(PROBE, 0, 3, 0.5))


class TestApplyKerr:
    def test_rotates_probe_on_threaded_branch(self):
        x = 0.7
        alpha = 2.0
        s = photon(2, amp=0.8 * BALANCED, probes=(alpha, 1j * alpha))
        out = apply_kerr(s, KerrCoupling(frozenset({1, 2}), 0, x))
        assert out.branches[0].probes[0] == pytest.approx(
            alpha * cmath.exp(-1j * x), abs=1e-15
        )
        assert out.branches[0].probes[1] == pytest.approx(1j * alpha, abs=1e-15)
        assert out.branches[0].amp == pytest.approx(0.8 * BALANCED, abs=1e-15)

    def test_zero_coupling_is_identity(self):
        s = photon(1, probes=(1.5, 0.5j))
        out = apply_kerr(s, KerrCoupling(frozenset({1, 2}), 0, 0.0))
        assert out.branches == s.branches

    def test_untouched_branch_keeps_probes(self):
        s = photon(0, probes=(2.0, 2j))
        out = apply_kerr(s, KerrCoupling(frozenset({1, 2}), 0, 1.3))
        assert out.branches == s.branches

    def test_index_validation(self):
        with pytest.raises(IndexError):
            apply_kerr(photon(0), KerrCoupling(frozenset({5}), 0, 0.1))
        with pytest.raises(IndexError):
            apply_kerr(photon(0), KerrCoupling(frozenset({1}), 7, 0.1))


class TestApplyPhase:
    def test_zero_phase_is_identity(self):
        s = photon(1, amp=0.5 - 0.5j)
        assert apply_phase(s, PhaseShift(SYS, 1, 0.0)).branches == s.branches

    def test_pi_flips_sign(self):
        s = photon(1, amp=0.5)
        out = apply_phase(s, PhaseShift(SYS, 1, math.pi))
        assert out.branches[0].amp == pytest.approx(-0.5, abs=1e-15)

    def test_probe_phase_rotates_amplitude(self):
        s = photon(0, probes=(1.0, 2.0))
        out = apply_phase(s, PhaseShift(PROBE, 1, math.pi / 2))
        assert out.branches[0].probes == (
            pytest.approx(1.0, abs=1e-15),
            pytest.approx(2j, abs=1e-15),
        )

    def test_small_arm_phase_leaks_through_dark_port(self):
        # Amplitude through the balanced pair with a phase delta on one arm:
        # magnitude t*delta/2 to first order.  Cross-checked by evaluating
        # the product numerically at delta = 1e-4.
        t = 0.8
        delta = 1e-4
        bs = BeamSplitter(SYS, 1, 2, BALANCED)
        state = apply_beam_splitter(photon(1, amp=t), bs)
        state = apply_phase(state, PhaseShift(SYS, 1, delta))
        state = apply_beam_splitter(state, bs)
        leak = abs(sum(br.amp for br in state.branches if br.mode == 1))
        assert leak == pytest.approx(t * delta / 2, rel=1e-8)
        # independent route: the 2x2 product gives t|1 - e^(i delta)|/2
        direct = t * abs(1 - cmath.exp(1j * delta)) / 2
        assert leak == pytest.approx(direct, rel=1e-12)


class TestUnitarity:
    def test_norm_conserved_by_every_element(self):
        rng = random.Random(17)
        for _ in range(100):
            s = random_state(rng)
            el = random_element(rng)
            out = apply_element(s, el)
            assert out.norm_sq() == pytest.approx(s.norm_sq(), abs=1e-12)

    def test_element_then_dagger_restores_input(self):
        rng = random.Random(29)
        for _ in range(100):
            s = random_state(rng)
            el = random_element(rng)
            back = apply_element(apply_element(s, el), el, dagger=True)
            assert len(back.branches) == len(s.branches)
            for u, v in zip(back.branches, s.branches):
                assert u.mode == v.mode
                assert abs(u.amp - v.amp) < 1e-12
                assert all(abs(p - q) < 1e-12 for p, q in zip(u.probes, v.probes))

    def test_kerr_commutes_with_disjoint_system_splitter(self):
        rng = random.Random(31)
        bs = BeamSplitter(SYS, 0, 1, 0.37)
        kerr = KerrCoupling(frozenset({2}), 0, 0.85)
        for _ in range(25):
            s = random_state(rng)
            ab = apply_element(apply_element(s, bs), kerr)
            ba = apply_element(apply_element(s, kerr), bs)
            assert len(ab.branches) == len(ba.branches)
            for u, v in zip(ab.branches, ba.branches):
                assert u.mode == v.mode
                assert abs(u.amp - v.amp) < 1e-12
                assert all(abs(p - q) < 1e-12 for p, q in zip(u.probes, v.probes))
