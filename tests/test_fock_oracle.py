"""Dual-route checks: engine states versus the truncated-Fock brute force."""

import math
import random

import numpy as np
import pytest

from qndmzi import (
    PROBE,
    BeamSplitter,
    apply_element,
    build_nested_mzi,
    inner_product,
    mean_probe_photons,
)
from fock_oracle import (
    apply_element_fock,
    coherent_fock,
    fidelity_error,
    fock_inner,
    fock_mean_photons,
    probe_bs_matrix,
    state_to_fock,
)
from helpers import random_circuit, random_element, random_state

TOL = 1e-8


class TestOracleInternals:
    def test_coherent_expansion_is_normalized(self):
        for alpha in (0j, 0.5, 1j, 1 - 0.3j):
            coeffs = coherent_fock(alpha)
            assert np.vdot(coeffs, coeffs).real == pytest.approx(1.0, abs=1e-12)

    def test_probe_splitter_matrix_is_unitary_on_complete_sectors(self):
        big = probe_bs_matrix(0.6, n_max=6)
        assert np.allclose(big @ big.conj().T, np.eye(49), atol=1e-12)

    def test_vacuum_maps_like_the_mode_matrix(self):
        # one photon in probe port 0 against the 2x2 single-photon matrix
        big = probe_bs_matrix(0.3, n_max=4)
        vec = np.zeros(25, dtype=complex)
        vec[1 * 5 + 0] = 1.0
        out = big @ vec
        t = math.sqrt(1 - 0.09)
        assert out[1 * 5 + 0] == pytest.approx(-0.3j, abs=1e-12)
        assert out[0 * 5 + 1] == pytest.approx(t, abs=1e-12)


class TestElementAgreement:
    def test_every_element_action_matches(self):
        rng = random.Random(101)
        for _ in range(60):
            state = random_state(rng)
            element = random_element(rng)
            engine = state_to_fock(apply_element(state, element))
            oracle = apply_element_fock(state_to_fock(state), element)
            assert fidelity_error(engine, oracle) < TOL

    def test_probe_splitter_acts_linearly_on_coherent_amplitudes(self):
        # the engine's 2x2 amplitude map versus the full Fock-space unitary
        rng = random.Random(103)
        for _ in range(20):
            state = random_state(rng)
            element = BeamSplitter(PROBE, 0, 1, rng.random())
            engine = state_to_fock(apply_element(state, element))
            oracle = apply_element_fock(state_to_fock(state), element)
            assert fidelity_error(engine, oracle) < TOL


class TestInnerProductAgreement:
    def test_against_fock_contraction(self):
        rng = random.Random(107)
        for _ in range(40):
            a = random_state(rng)
            b = random_state(rng)
            exact = inner_product(a, b)
            brute = fock_inner(state_to_fock(a), state_to_fock(b))
            assert abs(exact - brute) < TOL

    def test_mean_photons_against_fock_expectation(self):
        rng = random.Random(109)
        for _ in range(20):
            state = random_state(rng)
            exact = mean_probe_photons(state)
            brute = fock_mean_photons(state_to_fock(state))
            assert max(abs(x - y) for x, y in zip(exact, brute)) < TOL


def run_random_circuit_comparison(seed: int, n_circuits: int) -> float:
    """Worst per-element state fidelity error across random circuits."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_circuits):
        circuit = random_circuit(rng, max_elements=10)
        state = circuit.source_state()
        arr = state_to_fock(state)
        for element in circuit.elements:
            state = apply_element(state, element)
            arr = apply_element_fock(arr, element)
            worst = max(worst, fidelity_error(state_to_fock(state), arr))
    return worst


class TestRandomCircuits:
    def test_fifty_random_circuits(self):
        assert run_random_circuit_comparison(seed=211, n_circuits=50) < TOL


class TestPresetAgainstOracle:
    def test_full_apparatus_with_small_field(self):
        # |alpha| <= 1 keeps the coherent tails far below the truncation
        circuit = build_nested_mzi(0.6, 0.5, 0.3)
        state = circuit.source_state()
        arr = state_to_fock(state)
        for element in circuit.elements:
            state = apply_element(state, element)
            arr = apply_element_fock(arr, element)
        assert fidelity_error(state_to_fock(state), arr) < TOL
