"""Circuit assembly, forward evolution with stage snapshots, backward evolution.

A :class:`Circuit` is an ordered element sequence over M system modes and K
probe modes, a source description (which mode holds the photon, the initial
probe amplitudes), the detector mode used for post-selection, and the stage
at which detection statistics are read off.  :func:`build_nested_mzi`
constructs the standard apparatus: an outer interferometer of reflectivity-r
beam splitters, a balanced inner interferometer nested in one arm, and a
balanced probe interferometer whose first arm crosses the Kerr medium
together with both inner arms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

from .elements import (
    PROBE,
    SYS,
    BeamSplitter,
    Element,
    KerrCoupling,
    PhaseShift,
    Snapshot,
    _check_indices,
    apply_element,
)
from .states import HybridState, _check_finite, _check_mode, _check_shape

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


def _check_counts(m_modes: int, k_probes: int) -> tuple[int, int]:
    """The mode counts as ints; raises unless M >= 1 and K >= 0 are integers."""
    try:
        counts = operator.index(m_modes), operator.index(k_probes)
    except TypeError:
        raise ValueError("mode counts must be integers") from None
    if counts[0] < 1 or counts[1] < 0:
        raise ValueError("mode counts out of range")
    return counts


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
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(
            self, "source_probes", tuple(complex(p) for p in self.source_probes)
        )
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
        if self.detect_stage != FINAL_STAGE and self.detect_stage not in seen:
            raise ValueError(f"detection stage {self.detect_stage!r} has no snapshot")

    @property
    def snapshot_labels(self) -> tuple[str, ...]:
        return tuple(el.label for el in self.elements if isinstance(el, Snapshot))

    @property
    def stages(self) -> tuple[str, ...]:
        """All stage labels in evolution order, source first, final last."""
        return (SOURCE_STAGE,) + self.snapshot_labels + (FINAL_STAGE,)

    def source_state(self) -> HybridState:
        return HybridState.single_photon(self.m_modes, self.source_mode, self.source_probes)

    def insert(self, index: int, element: Element) -> "Circuit":
        els = self.elements[:index] + (element,) + self.elements[index:]
        return replace(self, elements=els)

    def kerr_free(self) -> "Circuit":
        """Twin circuit with every Kerr coupling switched off."""
        els = tuple(
            replace(el, eps_tau=0.0) if isinstance(el, KerrCoupling) else el
            for el in self.elements
        )
        return replace(self, elements=els)


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
            state = apply_element(state, el, dagger=dagger)
    if end is not None:
        stages[end] = state
    return state


def run_forward(circuit: Circuit) -> StageTrace:
    """Evolve the source state through the circuit, recording every snapshot.

    The fully evolved state is stored under ``"final"`` and the input under
    ``"source"``; branches are merged after every element.
    """
    state = circuit.source_state()
    stages: dict[str, HybridState] = {SOURCE_STAGE: state}
    _evolve(state, circuit.elements, stages, end=FINAL_STAGE)
    return StageTrace(circuit, forward=stages)


def _insertion_runs(
    circuit: Circuit,
    index: int,
    inserted: Iterable[Element],
    stop: str = FINAL_STAGE,
) -> Iterator[dict[str, HybridState]]:
    """Forward stages of ``circuit`` with each of ``inserted`` placed at ``index``.

    Yields, per inserted element, what ``run_forward(circuit.insert(index,
    el)).forward`` holds up to stage ``stop``, with the same floating-point
    operations.  The prefix ``circuit.elements[:index]`` is the same for
    every run, so it is evolved once; each run resumes from it with the
    inserted element and the suffix, and ends at ``stop``.  The caller
    checks the inserted elements' indices.
    """
    source = circuit.source_state()
    prefix: dict[str, HybridState] = {SOURCE_STAGE: source}
    head = _evolve(source, circuit.elements[:index], prefix)
    suffix = circuit.elements[index:]
    for el in inserted:
        stages = dict(prefix)
        _evolve(head, (el,) + suffix, stages, stop=stop, end=FINAL_STAGE)
        yield stages


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
        final_bra = HybridState.single_photon(
            circuit.m_modes, circuit.postselect_mode, circuit.source_probes
        )
        optics = (el for el in circuit.elements if getattr(el, "target", None) == PROBE)
        final_bra = _evolve(final_bra, optics, {})
    _check_shape(final_bra, circuit)
    stages: dict[str, HybridState] = {FINAL_STAGE: final_bra}
    _evolve(final_bra, reversed(circuit.elements), stages, end=SOURCE_STAGE, dagger=True)
    return StageTrace(circuit, backward=stages)


def run_both(circuit: Circuit) -> StageTrace:
    """Forward and backward traces over the same circuit."""
    return StageTrace(
        circuit, run_forward(circuit).forward, run_backward(circuit).backward
    )


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
    """
    alpha = complex(alpha)
    elements: tuple[Element, ...] = (
        BeamSplitter(SYS, 0, 1, r),
        Snapshot("L1"),
        BeamSplitter(SYS, 1, 2, _BALANCED),
        PhaseShift(PROBE, 0, math.pi / 2),
        BeamSplitter(PROBE, 0, 1, _BALANCED),
        Snapshot("L2"),
        KerrCoupling(frozenset({1, 2}), 0, eps_tau),
        Snapshot("L2p"),
        BeamSplitter(SYS, 1, 2, _BALANCED),
        Snapshot("L3"),
        PhaseShift(PROBE, 0, math.pi),
        BeamSplitter(PROBE, 0, 1, _BALANCED),
        Snapshot("L3p"),
        BeamSplitter(SYS, 0, 1, r),
    )
    return Circuit(
        m_modes=3,
        k_probes=2,
        elements=elements,
        source_mode=0,
        source_probes=(math.sqrt(2) * alpha, 0j),
        postselect_mode=0,
        detect_stage="L3p",
    )
