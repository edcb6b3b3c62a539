"""Truncated-Fock brute-force oracle.

Represents the joint photon/probe state as a dense tensor of shape
(M, d, ..., d) with d = n_max + 1 Fock levels per probe mode, and applies
every circuit element as an explicit operator on that tensor.  Probe beam
splitters are exponentiated per total-photon sector (the mixing generator
conserves the photon count, so truncation only loses the coherent tails
above n_max).  Nothing here reuses the engine's coherent-amplitude
shortcuts; this is the independent side of the dual-route checks.
"""

from __future__ import annotations

import math

import numpy as np

from qndmzi import (
    SYS,
    BeamSplitter,
    HybridState,
    KerrCoupling,
    PhaseShift,
    Snapshot,
)

N_MAX = 40


def coherent_fock(alpha: complex, n_max: int = N_MAX) -> np.ndarray:
    """Fock coefficients e^(-|a|^2/2) a^n / sqrt(n!) up to n_max."""
    coeffs = np.empty(n_max + 1, dtype=complex)
    coeffs[0] = 1.0
    for n in range(1, n_max + 1):
        coeffs[n] = coeffs[n - 1] * alpha / math.sqrt(n)
    return coeffs * math.exp(-0.5 * abs(alpha) ** 2)


def state_to_fock(state: HybridState, n_max: int = N_MAX) -> np.ndarray:
    d = n_max + 1
    arr = np.zeros((state.m_modes,) + (d,) * state.k_probes, dtype=complex)
    for br in state.branches:
        block = np.asarray(br.amp, dtype=complex)
        for beta in br.probes:
            block = np.multiply.outer(block, coherent_fock(beta, n_max))
        arr[br.mode] += block
    return arr


def probe_bs_matrix(reflectivity: float, n_max: int = N_MAX) -> np.ndarray:
    """Two-mode Fock-space unitary of the [[-i r, t], [t, -i r]] splitter.

    Mode matrix: exp(-i pi/2) exp(i theta X) with cos(theta) = r, so the
    Fock generator is theta (a'b + ab') - (pi/2)(n_a + n_b).  Assembled
    sector by sector via exact eigendecompositions; sectors above n_max
    (incomplete in the truncated product space) are left as the identity.
    """
    d = n_max + 1
    r = reflectivity
    theta = math.atan2(math.sqrt(max(0.0, 1.0 - r * r)), r)
    big = np.eye(d * d, dtype=complex)
    for n in range(n_max + 1):
        size = n + 1
        hop = np.zeros((size, size))
        for k in range(n):
            # <k+1, n-k-1| a'b |k, n-k> = sqrt((k+1)(n-k))
            hop[k + 1, k] = hop[k, k + 1] = math.sqrt((k + 1) * (n - k))
        evals, vecs = np.linalg.eigh(hop)
        sector = (vecs * np.exp(1j * (theta * evals - 0.5 * math.pi * n))) @ vecs.T
        idx = np.array([k * d + (n - k) for k in range(size)])
        big[np.ix_(idx, idx)] = sector
    return big


def apply_element_fock(
    arr: np.ndarray, element, n_max: int = N_MAX
) -> np.ndarray:
    d = n_max + 1
    m_modes = arr.shape[0]
    k_probes = arr.ndim - 1
    if isinstance(element, BeamSplitter):
        (u00, u01), (u10, u11) = element.unitary()
        a, b = element.mode_a, element.mode_b
        if element.target == SYS:
            out = arr.copy()
            out[a] = u00 * arr[a] + u01 * arr[b]
            out[b] = u10 * arr[a] + u11 * arr[b]
            return out
        big = probe_bs_matrix(element.reflectivity, n_max)
        moved = np.moveaxis(arr, (1 + a, 1 + b), (-2, -1))
        shape = moved.shape
        flat = moved.reshape(-1, d * d)
        out = flat @ big.T
        return np.moveaxis(out.reshape(shape), (-2, -1), (1 + a, 1 + b))
    if isinstance(element, KerrCoupling):
        out = arr.copy()
        number_phase = np.exp(-1j * element.eps_tau * np.arange(d))
        shape = [1] * (1 + k_probes)
        shape[1 + element.probe_mode] = d
        number_phase = number_phase.reshape(shape[1:])
        for m in range(m_modes):
            if m in element.system_modes:
                out[m] = out[m] * number_phase
        return out
    if isinstance(element, PhaseShift):
        out = arr.copy()
        if element.target == SYS:
            out[element.index] *= np.exp(1j * element.phi)
            return out
        number_phase = np.exp(1j * element.phi * np.arange(d))
        shape = [1] * k_probes
        shape[element.index] = d
        return out * number_phase.reshape(shape)
    if isinstance(element, Snapshot):
        return arr
    raise TypeError(f"unknown element {element!r}")


def fock_inner(bra: np.ndarray, ket: np.ndarray) -> complex:
    return complex(np.vdot(bra, ket))


def fidelity_error(a: np.ndarray, b: np.ndarray) -> float:
    na = np.vdot(a, a).real
    nb = np.vdot(b, b).real
    return abs(1.0 - abs(np.vdot(a, b)) ** 2 / (na * nb))


def fock_mean_photons(arr: np.ndarray) -> tuple[float, ...]:
    d = arr.shape[1]
    k_probes = arr.ndim - 1
    norm = np.vdot(arr, arr).real
    means = []
    for k in range(k_probes):
        shape = [1] * arr.ndim
        shape[1 + k] = d
        weights = np.arange(d).reshape(shape)
        means.append((np.vdot(arr, weights * arr).real) / norm)
    return tuple(means)
