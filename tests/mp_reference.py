"""Arbitrary-precision reference runs of any circuit, in mpmath.

The evolution is branch-sparse, as the engine's is: a branch is a photon
mode, an amplitude and one coherent amplitude per probe, and every element
maps branches to branches.  Nothing is taken from the engine but the
circuit's fields.  A beam splitter's entries -i r and t = sqrt(1 - r^2),
and the factors exp(i phi) of a phase shift and exp(-i eps_tau) of a Kerr
coupling, are formed in mpmath from the element's float parameter, which
mpmath holds exactly, so none of them carries the engine's float rounding.

Precision.  A coherent overlap exp(-|a|^2/2 - |b|^2/2 + conj(a) b) cancels
terms of size |p|^2 down to O(1), so a run whose source probes p have scale
s = max(1, max |p|) keeps 2 log10(s) + 40 digits (:func:`digits`), and
about 40 of them survive every overlap.  A fixed 60 digits returns nonsense
at |p| = 1e150.

Merging.  Branches in one mode merge where every probe lies within
10**(20 - digits) * max(1, |p|) of the first member's (relative to the
probe, as the rounding of a rotated probe is), and a branch whose amplitude
falls below 10**(20 - digits) is dropped.  Rounding sits 20 digits below
that tolerance; a merge within it moves an overlap's exponent by at most
about 1e-20, whatever the scale.

Usage: ``run_forward(circuit)`` and ``run_backward(circuit)`` give the
stage states that the engine's runs record; :func:`pair_sum` gives
<bra|P_m|ket> (P the projector on photon mode m, or 1) as a Python complex.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
from mpmath import mp

from qndmzi import (
    FINAL_STAGE, PROBE, SOURCE_STAGE, SYS, BeamSplitter, Circuit, KerrCoupling, PhaseShift, Snapshot,
)

#: Digits kept beyond those that the overlaps' cancellation takes.
GUARD_DIGITS = 40


class State(NamedTuple):
    """Branches (mode, amplitude, probes) in mpmath numbers of ``digits`` digits."""

    digits: int
    branches: tuple


def digits(circuit: Circuit) -> int:
    """2 log10(max(1, |p|)) + 40 over the source probes p of ``circuit``."""
    scale = max([1.0] + [abs(p) for p in circuit.source_probes])
    return math.ceil(2.0 * math.log10(scale)) + GUARD_DIGITS


def _source(circuit: Circuit, mode: int, n: int) -> State:
    probes = tuple(mpmath.mpc(p.real, p.imag) for p in circuit.source_probes)
    return State(n, ((mode, mpmath.mpc(1), probes),))


def _splitter(el: BeamSplitter, dagger: bool):
    r = mpmath.mpf(float(el.reflectivity))
    t = mpmath.sqrt(1 - r * r)
    diagonal = mpmath.mpc(0, r if dagger else -r)
    return ((diagonal, t), (t, diagonal))


def _apply(branches: list, el, dagger: bool) -> list:
    """``branches`` after ``el`` (or its conjugate transpose), unmerged."""
    sign = -1 if dagger else 1
    out = []
    if isinstance(el, BeamSplitter) and el.target == SYS:
        (u00, u01), (u10, u11) = _splitter(el, dagger)
        a, b = el.mode_a, el.mode_b
        for mode, amp, probes in branches:
            if mode in (a, b):
                first, second = (u00, u10) if mode == a else (u01, u11)
                out += [(a, first * amp, probes), (b, second * amp, probes)]
            else:
                out.append((mode, amp, probes))
    elif isinstance(el, BeamSplitter):
        (u00, u01), (u10, u11) = _splitter(el, dagger)
        a, b = el.mode_a, el.mode_b
        for mode, amp, probes in branches:
            p = list(probes)
            p[a], p[b] = u00 * probes[a] + u01 * probes[b], u10 * probes[a] + u11 * probes[b]
            out.append((mode, amp, tuple(p)))
    elif isinstance(el, KerrCoupling):
        factor = mpmath.expj(-sign * mpmath.mpf(float(el.eps_tau)))
        k = el.probe_mode
        for mode, amp, probes in branches:
            if mode in el.system_modes:
                probes = probes[:k] + (factor * probes[k],) + probes[k + 1:]
            out.append((mode, amp, probes))
    elif isinstance(el, PhaseShift):
        factor = mpmath.expj(sign * mpmath.mpf(float(el.phi)))
        i = el.index
        for mode, amp, probes in branches:
            if el.target == SYS and mode == i:
                amp = factor * amp
            elif el.target == PROBE:
                probes = probes[:i] + (factor * probes[i],) + probes[i + 1:]
            out.append((mode, amp, probes))
    else:
        raise TypeError(f"unknown element {el!r}")
    return out


def _merge(branches: list, n: int) -> tuple:
    """``branches`` with matching probes in one mode summed, and empty ones dropped."""
    tol = mpmath.mpf(10) ** (20 - n)
    groups: list[list] = []
    for mode, amp, probes in branches:
        for group in groups:
            if group[0] == mode and all(
                    abs(p - q) <= tol * max(1, abs(q)) for p, q in zip(probes, group[2])):
                group[1] += amp
                break
        else:
            groups.append([mode, amp, probes])
    return tuple((mode, amp, probes) for mode, amp, probes in groups if abs(amp) >= tol)


def _evolve(state: State, elements, stages: dict, end: str, dagger: bool = False) -> State:
    """Apply ``elements`` to ``state``, recording each snapshot, and the state reached under ``end``."""
    n = state.digits
    with mp.workdps(n):
        for el in elements:
            if isinstance(el, Snapshot):
                stages[el.label] = state
            else:
                state = State(n, _merge(_apply(list(state.branches), el, dagger), n))
    stages[end] = state
    return state


def run_forward(circuit: Circuit) -> dict[str, State]:
    """The forward state at every stage, source and final included, as ``qndmzi.run_forward`` has it."""
    source = _source(circuit, circuit.source_mode, digits(circuit))
    stages = {SOURCE_STAGE: source}
    _evolve(source, circuit.elements, stages, FINAL_STAGE)
    return stages


def run_backward(circuit: Circuit) -> dict[str, State]:
    """The default bra at every stage, as ``qndmzi.run_backward(circuit)`` records.

    The bra starts with the photon at the detector mode and the source
    probes carried through the probe optics alone.
    """
    bra = _source(circuit, circuit.postselect_mode, digits(circuit))
    optics = [el for el in circuit.elements if getattr(el, "target", None) == PROBE]
    bra = _evolve(bra, optics, {}, FINAL_STAGE)
    stages = {FINAL_STAGE: bra}
    _evolve(bra, reversed(circuit.elements), stages, SOURCE_STAGE, dagger=True)
    return stages


def _pair_sum(bra: State, ket: State, mode: int | None, probe: int | None = None):
    """<bra|P n|ket> in mpmath: P projects on photon ``mode``, n counts ``probe`` (each 1 for None)."""
    total = mpmath.mpc(0)
    for m, a, ps in bra.branches:
        for n, b, qs in ket.branches:
            if m == n and mode in (None, m):
                exponent = sum(mpmath.conj(p) * q - (abs(p) ** 2 + abs(q) ** 2) / 2
                               for p, q in zip(ps, qs))
                weight = 1 if probe is None else mpmath.conj(ps[probe]) * qs[probe]
                total += mpmath.conj(a) * b * weight * mpmath.exp(exponent)
    return total


def pair_sum(bra: State, ket: State, mode: int | None = None) -> complex:
    """<bra|P|ket> rounded to a Python complex, P the projector on photon ``mode`` (1 for None)."""
    with mp.workdps(max(bra.digits, ket.digits)):
        return complex(_pair_sum(bra, ket, mode))


def probabilities(state: State, m_modes: int) -> tuple[float, ...]:
    """<S|P_m|S> per photon mode m, each rounded to a float."""
    return tuple(pair_sum(state, state, m).real for m in range(m_modes))


def conditional_means(state: State, mode: int, k_probes: int) -> tuple[float, ...]:
    """Mean photon number per probe of ``state`` conditioned on photon ``mode``."""
    with mp.workdps(state.digits):
        norm = _pair_sum(state, state, mode).real
        return tuple(float(_pair_sum(state, state, mode, k).real / norm) for k in range(k_probes))


def fidelity_deficit(circuit: Circuit, perturbed: Circuit) -> float:
    """1 - |<F_0|F>|^2 / (||F_0||^2 ||F||^2), F the final states projected on the detector mode.

    ``circuit`` gives F_0 and ``perturbed`` (the same circuit with a phase
    inserted, say) gives F, both run at the larger of their precisions.
    """
    n = max(digits(circuit), digits(perturbed))
    f0, f = (_evolve(_source(c, c.source_mode, n), c.elements, {}, FINAL_STAGE)
             for c in (circuit, perturbed))
    with mp.workdps(n):
        mode = circuit.postselect_mode
        overlap = _pair_sum(f0, f, mode)
        deficit = 1 - abs(overlap) ** 2 / (_pair_sum(f0, f0, mode).real * _pair_sum(f, f, mode).real)
        return float(deficit)
