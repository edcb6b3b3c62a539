"""Unitary circuit elements acting on hybrid photon/probe states.

The element set is a beam splitter (on system modes or on probe modes), a
phase shifter, and the Kerr cross-phase coupling that rotates a probe's
coherent amplitude conditioned on the photon occupying one of the coupled
system modes.  All appliers are pure functions returning new, merged states;
passing ``dagger=True`` applies the conjugate-transpose element, which is
how bra states evolve backward.  Constructors reject non-integer mode
indices; every index is checked against the state's dimensions by one
private checker, which :class:`~qndmzi.circuit.Circuit` and the file
parser call as well.  Each element forms its constants once, at
construction: its factor or matrix, forward and conjugated, and the spans of
system and probe modes it names.  They sit outside the dataclass fields, so
``==``, ``hash``, ``repr`` and ``replace`` ignore them.  An applier reads
them and hands its steps to one dispatcher, ``_step``: the column step of
a column state, else, or where it hands over (see :mod:`qndmzi.states`),
the per-branch step, then the merge.  Only the two steps that a chain of
branch growth repeats have a column step, a system splitter that splits
every branch and a Kerr mark: deep circuits of those steps are what reach
the column form's size.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Complex, Real
from typing import Union

from .states import (
    HybridState, _HandOver, _branch, _check_finite, _check_mode, _collection, _scale_branches,
    _scale_columns, _split_columns, _state, merge_branches,
)

SYS = "sys"
PROBE = "probe"


def _check_target(target: str) -> str:
    """Check ``target``; return the name of the modes it addresses."""
    if target not in (SYS, PROBE):
        raise ValueError(f"target must be {SYS!r} or {PROBE!r}, got {target!r}")
    return "system mode" if target == SYS else "probe mode"


def _real(what: str, value) -> float:
    """``value`` as a float (an int beyond the float range as +-inf); ``ValueError`` unless it is real.

    A complex value is not real, numpy's included (``float`` would take its
    real part with a warning), and neither is None or a string.
    """
    if type(value) is float:
        return value
    real = not isinstance(value, Complex) or isinstance(value, Real)
    if real and (hasattr(value, "__float__") or hasattr(value, "__index__")):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise ValueError(f"{what} {value!r} is not a real number")


def _set_indices(el, span: tuple[int, ...]) -> None:
    """Store ``el._indices``, (system modes, probe modes), with ``span`` on ``el.target``."""
    object.__setattr__(el, "_indices", (span, ()) if el.target == SYS else ((), span))


@dataclass(frozen=True)
class BeamSplitter:
    """Two-port mixer with unitary [[-i r, t], [t, -i r]], t = sqrt(1 - r^2).

    ``target`` selects whether the ports are system modes (the photon
    amplitude splits into two branches) or probe modes (the coherent
    amplitudes mix linearly inside every branch, with the same matrix).
    The matrix and its conjugate transpose are formed from
    ``float(reflectivity)``, so a numpy reflectivity gives Python floats.
    """

    target: str
    mode_a: int
    mode_b: int
    reflectivity: float

    def __post_init__(self) -> None:
        what = _check_target(self.target)
        object.__setattr__(self, "mode_a", _check_mode(what, self.mode_a))
        object.__setattr__(self, "mode_b", _check_mode(what, self.mode_b))
        if self.mode_a == self.mode_b:
            raise ValueError("beam splitter ports must differ")
        r = _real("reflectivity", self.reflectivity)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"reflectivity {self.reflectivity} outside [0, 1]")
        t = self.transmissivity
        (u00, u01), (u10, u11) = u = ((-1j * r, t + 0j), (t + 0j, -1j * r))
        object.__setattr__(self, "_unitary", u)
        object.__setattr__(self, "_adjoint", (
            (u00.conjugate(), u10.conjugate()), (u01.conjugate(), u11.conjugate())
        ))
        _set_indices(self, (self.mode_a, self.mode_b))

    @property
    def transmissivity(self) -> float:
        r = float(self.reflectivity)
        return math.sqrt(max(0.0, 1.0 - r * r))

    def unitary(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        return self._unitary


@dataclass(frozen=True)
class KerrCoupling:
    """Cross-phase medium threading ``system_modes`` and one probe mode.

    A branch whose photon sits in one of ``system_modes`` has its coherent
    amplitude at ``probe_mode`` rotated by exp(-i eps_tau).  A photon-photon
    term would couple the occupations of two threaded system modes, but one
    photon never occupies two modes at once, so the model has none.
    """

    system_modes: frozenset[int]
    probe_mode: int
    eps_tau: float

    def __post_init__(self) -> None:
        modes = _collection("system modes", self.system_modes)
        modes = frozenset([_check_mode("system mode", m) for m in modes])
        if not modes:
            raise ValueError("Kerr coupling names no system mode")
        object.__setattr__(self, "system_modes", modes)
        object.__setattr__(self, "probe_mode", _check_mode("probe mode", self.probe_mode))
        if not math.isfinite(_real("eps_tau", self.eps_tau)):
            raise ValueError("eps_tau must be finite")
        eps = self.eps_tau
        object.__setattr__(self, "_factors", (cmath.exp(-1.0 * 1j * eps), cmath.exp(1.0 * 1j * eps)))
        object.__setattr__(self, "_indices", (tuple(sorted(modes)), (self.probe_mode,)))


@dataclass(frozen=True)
class PhaseShift:
    """Phase exp(i phi) on one system mode's amplitude or one probe amplitude."""

    target: str
    index: int
    phi: float

    def __post_init__(self) -> None:
        what = _check_target(self.target)
        object.__setattr__(self, "index", _check_mode(what, self.index))
        if not math.isfinite(_real("phi", self.phi)):
            raise ValueError("phi must be finite")
        phi = self.phi
        object.__setattr__(self, "_factors", (_phase_factor(phi), _phase_factor(phi, True)))
        _set_indices(self, (self.index,))


@dataclass(frozen=True)
class Snapshot:
    """Marker recording the state under ``label``; acts as the identity."""

    label: str

    _indices = ((), ())


Element = Union[BeamSplitter, KerrCoupling, PhaseShift, Snapshot]


def _check_indices(el: Element, m_modes: int, k_probes: int) -> None:
    """Raise IndexError unless every mode ``el`` names lies in [0, M) or [0, K)."""
    try:
        sys_idx, probe_idx = el._indices
    except AttributeError:
        raise TypeError(f"unknown element {el!r}") from None
    for idx in sys_idx:
        if not 0 <= idx < m_modes:
            raise IndexError(f"system mode {idx} outside [0, {m_modes}) in {el!r}")
    for idx in probe_idx:
        if not 0 <= idx < k_probes:
            raise IndexError(f"probe mode {idx} outside [0, {k_probes}) in {el!r}")


def _step(state: HybridState, on_columns, on_branches, x, y, z) -> HybridState:
    """One element step on ``state``, merged: ``on_columns(state, x, y, z)`` or ``on_branches``.

    A column state takes the column step, where the element has one (a
    system splitter or a Kerr mark); where it has none or hands over (see
    :mod:`qndmzi.states`), or the state has no columns,
    ``on_branches(state.branches, x, y, z)`` gives the unmerged branches
    and raises any error, and the merge returns a large result to columns.
    """
    if on_columns is not None and state._cols is not None:
        try:
            out = on_columns(state, x, y, z)
        except _HandOver:
            pass
        else:
            return merge_branches(out)
    out = tuple(on_branches(state.branches, x, y, z))
    return merge_branches(_state(state.m_modes, state.k_probes, out))


def apply_beam_splitter(
    state: HybridState, bs: BeamSplitter, dagger: bool = False
) -> HybridState:
    _check_indices(bs, state.m_modes, state.k_probes)
    u = bs._adjoint if dagger else bs._unitary
    if bs.target == SYS:
        return _step(state, _split_columns, _split_branches, bs.mode_a, bs.mode_b, u)
    return _step(state, None, _mix_probes, bs.mode_a, bs.mode_b, u)


def _split_branches(branches, a: int, b: int, u) -> list:
    """``branches`` with the photon split by ``u`` between system modes a and b, unmerged.

    A branch in mode a becomes (a, u00 amp) then (b, u10 amp) in its place,
    one in mode b becomes (a, u01 amp) then (b, u11 amp), and every other
    branch stays.  Unchecked: every entry is real or imaginary with modulus
    <= 1, so each part of u * amp is one part of amp scaled by at most 1
    (plus a zero product) and cannot overflow.
    """
    (u00, u01), (u10, u11) = u
    out = []
    for br in branches:
        if br.mode == a:
            out.append(_branch(a, u00 * br.amp, br.probes))
            out.append(_branch(b, u10 * br.amp, br.probes))
        elif br.mode == b:
            out.append(_branch(a, u01 * br.amp, br.probes))
            out.append(_branch(b, u11 * br.amp, br.probes))
        else:
            out.append(br)
    return out


def _mix_probes(branches, a: int, b: int, u) -> list:
    """``branches`` with probes a and b mixed by ``u``, [[u00, u01], [u10, u11]], unmerged.

    Raises on a non-finite probe amplitude.  A branch whose probe tuple is
    the previous branch's (the same object) shares that branch's new tuple.
    """
    (u00, u01), (u10, u11) = u
    isfinite = cmath.isfinite
    out = []
    old = None
    for br in branches:
        if br.probes is not old:
            old = br.probes
            probes = list(old)
            pa, pb = probes[a], probes[b]
            probes[a], probes[b] = pa, pb = u00 * pa + u01 * pb, u10 * pa + u11 * pb
            probes = tuple(probes)
            if not (isfinite(pa) and isfinite(pb)):
                for p in probes:
                    _check_finite(p, "probe amplitude")
        out.append(_branch(br.mode, br.amp, probes))
    return out


def apply_kerr(
    state: HybridState, coupling: KerrCoupling, dagger: bool = False
) -> HybridState:
    _check_indices(coupling, state.m_modes, state.k_probes)
    forward, back = coupling._factors
    return _step(state, _scale_columns, _scale_branches, back if dagger else forward,
                 coupling.system_modes, coupling.probe_mode)


def _phase_factor(phi: float, dagger: bool = False) -> complex:
    """exp(i phi), or exp(-i phi) with ``dagger``: the factor of a phase shift."""
    return cmath.exp((-1j if dagger else 1j) * phi)


def apply_phase(
    state: HybridState, shift: PhaseShift, dagger: bool = False
) -> HybridState:
    _check_indices(shift, state.m_modes, state.k_probes)
    forward, back = shift._factors
    factor = back if dagger else forward
    if shift.target == SYS:
        return _step(state, None, _scale_branches, factor, shift._indices[0], None)
    return _step(state, None, _scale_branches, factor, None, shift.index)


def apply_element(
    state: HybridState, element: Element, dagger: bool = False
) -> HybridState:
    """Apply one element (or its conjugate transpose) to a state."""
    if isinstance(element, BeamSplitter):
        return apply_beam_splitter(state, element, dagger)
    if isinstance(element, KerrCoupling):
        return apply_kerr(state, element, dagger)
    if isinstance(element, PhaseShift):
        return apply_phase(state, element, dagger)
    if isinstance(element, Snapshot):
        return state
    raise TypeError(f"unknown element {element!r}")
