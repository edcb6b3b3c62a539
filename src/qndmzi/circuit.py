"""Circuit assembly, forward evolution with stage snapshots, backward evolution.

A :class:`Circuit` is an ordered element sequence over M system modes and K
probe modes, a source description (which mode holds the photon, the initial
probe amplitudes), the detector mode used for post-selection, and the stage
at which detection statistics are read off.  :func:`build_nested_mzi`
constructs the standard apparatus: an outer interferometer of reflectivity-r
beam splitters, a balanced inner interferometer nested in one arm, and a
balanced probe interferometer whose first arm crosses the Kerr medium
together with both inner arms.  It is checked once, at import, as one
template circuit.  Each call checks only alpha, r and eps_tau, and swaps
them into a copy of the template, whose outer splitter and Kerr coupling it
copies with only the new parameter checked and its constants formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .elements import (
    PROBE,
    SYS,
    BeamSplitter,
    Element,
    KerrCoupling,
    PhaseShift,
    Snapshot,
    _check_indices,
    _retuned,
    apply_element,
)
from .states import (
    HybridState,
    _branch,
    _check_counts,
    _check_finite,
    _check_mode,
    _check_shape,
    _collection,
    _complex,
    _new,
    _set,
    _state,
)

SOURCE_STAGE = "source"
FINAL_STAGE = "final"

_BALANCED = math.sqrt(0.5)


def _check_label(label: str, seen: set[str]) -> None:
    """Reject an unwritable, reserved or repeated snapshot label; add it to ``seen``."""
    if not isinstance(label, str) or label.split() != [label] or "#" in label:
        raise ValueError(f"snapshot label {label!r} must be non-empty, no whitespace or '#'")
    if label in (SOURCE_STAGE, FINAL_STAGE):
        raise ValueError(f"snapshot label {label!r} is reserved")
    if label in seen:
        raise ValueError(f"duplicate snapshot label {label!r}")
    seen.add(label)


@dataclass(frozen=True)
class Circuit:
    m_modes: int
    k_probes: int
    elements: tuple[Element, ...]
    source_mode: int
    source_probes: tuple[complex, ...]
    postselect_mode: int = 0
    detect_stage: str = FINAL_STAGE

    def __post_init__(self) -> None:
        m_modes, k_probes = _check_counts(self.m_modes, self.k_probes)
        object.__setattr__(self, "m_modes", m_modes)
        object.__setattr__(self, "k_probes", k_probes)
        object.__setattr__(self, "elements", _collection("elements", self.elements))
        probes = _collection("source probes", self.source_probes)
        object.__setattr__(self, "source_probes", tuple(
            [_complex("source probe amplitude", p) for p in probes]))
        if len(self.source_probes) != self.k_probes:
            raise ValueError(
                f"{len(self.source_probes)} source probe amplitudes for "
                f"{self.k_probes} probe modes"
            )
        for name in ("source_mode", "postselect_mode"):
            mode = _check_mode(name.replace("_", " "), getattr(self, name), self.m_modes)
            object.__setattr__(self, name, mode)
        for p in self.source_probes:
            _check_finite(p, "source probe amplitude")
        seen: set[str] = set()
        for el in self.elements:
            if isinstance(el, Snapshot):
                _check_label(el.label, seen)
            else:
                _check_indices(el, self.m_modes, self.k_probes)
        if not isinstance(self.detect_stage, str) or self.detect_stage not in seen | {FINAL_STAGE}:
            raise ValueError(f"detection stage {self.detect_stage!r} has no snapshot")

    @property
    def snapshot_labels(self) -> tuple[str, ...]:
        return tuple(el.label for el in self.elements if isinstance(el, Snapshot))

    @property
    def stages(self) -> tuple[str, ...]:
        """All stage labels in evolution order, source first, final last."""
        return (SOURCE_STAGE,) + self.snapshot_labels + (FINAL_STAGE,)

    def source_state(self) -> HybridState:
        return _photon_at(self, self.source_mode)

    def insert(self, index: int, element: Element) -> "Circuit":
        index = _check_mode("element index", index)
        els = self.elements[:index] + (element,) + self.elements[index:]
        return replace(self, elements=els)

    def kerr_free(self) -> "Circuit":
        """Twin circuit with every Kerr coupling switched off."""
        els = tuple(
            replace(el, eps_tau=0.0) if isinstance(el, KerrCoupling) else el
            for el in self.elements
        )
        return replace(self, elements=els)


def _photon_at(circuit: Circuit, mode: int) -> HybridState:
    """The photon in ``mode`` with the source probes; the circuit has checked both."""
    return _state(circuit.m_modes, circuit.k_probes, (_branch(mode, 1 + 0j, circuit.source_probes),))


@dataclass(frozen=True)
class StageTrace:
    """Recorded stage states of one run: label -> state, per direction."""

    circuit: Circuit
    forward: Mapping[str, HybridState] = field(default_factory=dict)
    backward: Mapping[str, HybridState] = field(default_factory=dict)

    @property
    def detect_stage(self) -> str:
        return self.circuit.detect_stage


def _evolve(
    state: HybridState,
    elements: Iterable[Element],
    stages: dict[str, HybridState],
    stop: str | None = None,
    end: str | None = None,
    dagger: bool = False,
) -> HybridState:
    """Apply ``elements`` to ``state`` in order; return the state reached.

    Every snapshot passed records the current state into ``stages``.  The
    loop returns right after recording snapshot ``stop``; when it runs out
    of elements instead, the state is recorded under ``end`` (if given).
    Resuming from a recorded state with the remaining elements performs the
    same operations, in the same order, as one uninterrupted run.
    """
    for el in elements:
        if isinstance(el, Snapshot):
            stages[el.label] = state
            if el.label == stop:
                return state
        else:
            state = apply_element(state, el, dagger)
    if end is not None:
        stages[end] = state
    return state


def _trace(circuit: Circuit, forward: dict, backward: dict) -> StageTrace:
    """A :class:`StageTrace` of stages the engine recorded, set without the dataclass ``__init__``."""
    trace = _new(StageTrace)
    _set(trace, "circuit", circuit)
    _set(trace, "forward", forward)
    _set(trace, "backward", backward)
    return trace


def run_forward(circuit: Circuit) -> StageTrace:
    """Evolve the source state through the circuit, recording every snapshot.

    The fully evolved state is stored under ``"final"`` and the input under
    ``"source"``; branches are merged after every element.
    """
    state = circuit.source_state()
    stages: dict[str, HybridState] = {SOURCE_STAGE: state}
    _evolve(state, circuit.elements, stages, end=FINAL_STAGE)
    return _trace(circuit, stages, {})


def _run_prefix(circuit: Circuit, index: int) -> tuple[HybridState, dict[str, HybridState]]:
    """The forward state ahead of ``circuit.elements[index]``, and the stages it passed."""
    source = circuit.source_state()
    prefix: dict[str, HybridState] = {SOURCE_STAGE: source}
    return _evolve(source, circuit.elements[:index], prefix), prefix


def run_backward(circuit: Circuit, final_bra: HybridState | None = None) -> StageTrace:
    """Evolve a bra backward through the circuit, conjugate-transposing each element.

    ``final_bra`` is a :class:`HybridState` read as a bra.  By default the
    photon sits at the detector mode and the probes hold the source probe
    state carried through the probe optics alone (Kerr couplings skipped):
    the coherent state the probe interferometer emits when nothing
    interacted inside it.  Snapshots are recorded under the same labels
    as the forward run; the starting bra is stored under ``"final"`` and the
    fully back-evolved bra under ``"source"``.
    """
    if final_bra is None:
        final_bra = _photon_at(circuit, circuit.postselect_mode)
        optics = (el for el in circuit.elements if getattr(el, "target", None) == PROBE)
        final_bra = _evolve(final_bra, optics, {})
    _check_shape(final_bra, circuit)
    stages: dict[str, HybridState] = {FINAL_STAGE: final_bra}
    _evolve(final_bra, reversed(circuit.elements), stages, end=SOURCE_STAGE, dagger=True)
    return _trace(circuit, {}, stages)


def run_both(circuit: Circuit) -> StageTrace:
    """Forward and backward traces over the same circuit."""
    return _trace(circuit, run_forward(circuit).forward, run_backward(circuit).backward)


_INNER = BeamSplitter(SYS, 1, 2, _BALANCED)
_PROBE_SPLITTER = BeamSplitter(PROBE, 0, 1, _BALANCED)
#: :func:`build_nested_mzi` at r = alpha = eps_tau = 0, checked once by the public constructor.
_NESTED = Circuit(3, 2, (
    BeamSplitter(SYS, 0, 1, 0.0), Snapshot("L1"), _INNER, PhaseShift(PROBE, 0, math.pi / 2),
    _PROBE_SPLITTER, Snapshot("L2"), KerrCoupling(frozenset({1, 2}), 0, 0.0), Snapshot("L2p"),
    _INNER, Snapshot("L3"), PhaseShift(PROBE, 0, math.pi), _PROBE_SPLITTER, Snapshot("L3p"),
    BeamSplitter(SYS, 0, 1, 0.0),
), 0, (0j, 0j), detect_stage="L3p")
_OUTER, _KERR = _NESTED.elements[0], _NESTED.elements[6]
_NESTED_HEAD, _NESTED_TAIL = _NESTED.elements[1:6], _NESTED.elements[7:13]


def build_nested_mzi(r: float, alpha: complex = 2.0, eps_tau: float = 0.0) -> Circuit:
    """The nested interferometer with a Kerr-coupled probe interferometer.

    System modes: 0 carries arm A of the outer interferometer, 1 and 2 are
    the inner interferometer's arms (mode 1 doubles as its dark output
    toward the detector, mode 2 as the exit that leaves the apparatus).
    Probe modes: 0 crosses the Kerr medium between the two inner arms,
    1 is the reference arm.  The source drives probe 0 with sqrt(2)*alpha.

    Stage labels: L1 after the first outer splitter, L2 inside the inner
    interferometer before the Kerr medium, L2p after it, L3 after the inner
    recombiner, L3p after the probe recombiner (where the detectors sit,
    hence ``detect_stage="L3p"``).

    The two fixed probe phases (pi/2 ahead of the probe splitter, pi ahead
    of the probe recombiner) pin the interferometer's arm and output phases:
    the splitter then feeds the arms with (alpha, i*alpha), and with the
    coupling off the output port 0 receives i*sqrt(2)*alpha while port 1
    stays dark.  No phase-free pair of identical balanced splitters closes
    onto the same port it was fed from.

    The outer splitter and the Kerr coupling are the template's, retuned:
    only r and eps_tau are checked, and their constants formed, by the
    constructors' own code.  Raises what ``Circuit(...)`` of the same
    elements raises, in its order: alpha as a complex number, then r, then
    eps_tau, then sqrt(2)*alpha.
    """
    alpha = _complex("alpha", alpha)
    outer = _retuned(_OUTER, "reflectivity", r)
    kerr = _retuned(_KERR, "eps_tau", eps_tau)
    probe = math.sqrt(2) * alpha
    _check_finite(probe, "source probe amplitude")
    # _NESTED with the three new values, unchecked; its dict keeps the dataclass field order.
    circuit = _new(Circuit)
    vars(circuit).update(vars(_NESTED), elements=(outer, *_NESTED_HEAD, kerr, *_NESTED_TAIL, outer),
                         source_probes=(probe, 0j))
    return circuit
