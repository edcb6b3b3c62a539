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
construction: its factor or matrix, forward and conjugated, the spans of
system and probe modes it names, and their reach (the lowest index and one
past the highest of each kind), which the checker compares in O(1).  They
sit outside the dataclass fields, so ``==``, ``hash``, ``repr`` and
``replace`` ignore them.  An applier reads
them and hands its steps, which live in :mod:`qndmzi.states` with the
layouts they act on, to one dispatcher there, ``_step``: the column step of
a column state, else the per-branch step, then the merge.  Only the two
steps that a chain of branch growth repeats have a column step, a system
splitter that splits every branch and a Kerr mark: deep circuits of those
steps are what reach the column form's size.

A splitter and a coupling check their parameter and form its constants in
one private method, ``_form``; :func:`_retuned` runs it alone to set the
parameter of a checked template, whose modes need no second check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Complex, Real
from typing import Union

from .states import (
    HybridState, _check_mode, _collection, _mix_probes, _new, _scale_branches, _scale_columns,
    _set, _split_branches, _split_columns, _step,
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


def _set_indices(el, sys_idx: tuple[int, ...], probe_idx: tuple[int, ...]) -> None:
    """Store ``el._indices``, (system modes, probe modes), and ``el._reach``.

    The reach is (lowest index, highest system mode + 1, highest probe mode
    + 1), with 0 for a kind the element does not name; it names one at least.
    """
    _set(el, "_indices", (sys_idx, probe_idx))
    _set(el, "_reach", (min(sys_idx + probe_idx), max(sys_idx) + 1 if sys_idx else 0,
                        max(probe_idx) + 1 if probe_idx else 0))


def _set_span(el, span: tuple[int, ...]) -> None:
    """:func:`_set_indices` with ``span`` on ``el.target``."""
    if el.target == SYS:
        _set_indices(el, span, ())
    else:
        _set_indices(el, (), span)


def _retuned(template, field: str, value):
    """``replace(template, **{field: value})`` for the field that ``template._form`` checks.

    The copy keeps the template's other fields and constants, in order, and
    runs only ``_form``: the constructor's checks of ``value`` and its constants.
    """
    el = _new(type(template))
    vars(el).update(vars(template))
    _set(el, field, value)
    el._form()
    return el


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
        self._form()
        _set_span(self, (self.mode_a, self.mode_b))

    def _form(self) -> None:
        """Check the reflectivity; store the matrix and its conjugate transpose."""
        r = _real("reflectivity", self.reflectivity)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"reflectivity {self.reflectivity} outside [0, 1]")
        t = math.sqrt(max(0.0, 1.0 - r * r))
        (u00, u01), (u10, u11) = u = ((-1j * r, t + 0j), (t + 0j, -1j * r))
        _set(self, "_unitary", u)
        _set(self, "_adjoint", (
            (u00.conjugate(), u10.conjugate()), (u01.conjugate(), u11.conjugate())
        ))

    @property
    def transmissivity(self) -> float:
        return self._unitary[0][1].real

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
        self._form()
        _set_indices(self, tuple(sorted(modes)), (self.probe_mode,))

    def _form(self) -> None:
        """Check eps_tau; store the factors exp(-i eps_tau) and exp(i eps_tau) of its float."""
        eps = _real("eps_tau", self.eps_tau)
        if not math.isfinite(eps):
            raise ValueError("eps_tau must be finite")
        _set(self, "_factors", (cmath.exp(-1.0 * 1j * eps), cmath.exp(1.0 * 1j * eps)))


@dataclass(frozen=True)
class PhaseShift:
    """Phase exp(i phi) on one system mode's amplitude or one probe amplitude."""

    target: str
    index: int
    phi: float

    def __post_init__(self) -> None:
        what = _check_target(self.target)
        object.__setattr__(self, "index", _check_mode(what, self.index))
        phi = _real("phi", self.phi)
        if not math.isfinite(phi):
            raise ValueError("phi must be finite")
        _set(self, "_factors", (_phase_factor(phi), _phase_factor(phi, True)))
        _set_span(self, (self.index,))


@dataclass(frozen=True)
class Snapshot:
    """Marker recording the state under ``label``; acts as the identity."""

    label: str

    _indices = ((), ())
    _reach = (0, 0, 0)


Element = Union[BeamSplitter, KerrCoupling, PhaseShift, Snapshot]


def _check_indices(el: Element, m_modes: int, k_probes: int) -> None:
    """Raise IndexError unless every mode ``el`` names lies in [0, M) or [0, K).

    The stored reach decides; only an element out of range loops over its
    indices, to name the first offending one (system modes first).
    """
    try:
        low, sys_reach, probe_reach = el._reach
    except AttributeError:
        raise TypeError(f"unknown element {el!r}") from None
    if low >= 0 and sys_reach <= m_modes and probe_reach <= k_probes:
        return
    sys_idx, probe_idx = el._indices
    for idx in sys_idx:
        if not 0 <= idx < m_modes:
            raise IndexError(f"system mode {idx} outside [0, {m_modes}) in {el!r}")
    for idx in probe_idx:
        if not 0 <= idx < k_probes:
            raise IndexError(f"probe mode {idx} outside [0, {k_probes}) in {el!r}")


def apply_beam_splitter(
    state: HybridState, bs: BeamSplitter, dagger: bool = False
) -> HybridState:
    _check_indices(bs, state.m_modes, state.k_probes)
    u = bs._adjoint if dagger else bs._unitary
    if bs.target == SYS:
        return _step(state, _split_columns, _split_branches, bs.mode_a, bs.mode_b, u)
    return _step(state, None, _mix_probes, bs.mode_a, bs.mode_b, u)


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
