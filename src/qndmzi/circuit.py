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
    apply_element,
)
from .states import Branch, BraState, HybridState, MERGE_TOL

SOURCE_STAGE = "source"
FINAL_STAGE = "final"

_BALANCED = math.sqrt(0.5)


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
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(
            self, "source_probes", tuple(complex(p) for p in self.source_probes)
        )
        if len(self.source_probes) != self.k_probes:
            raise ValueError(
                f"{len(self.source_probes)} source probe amplitudes for "
                f"{self.k_probes} probe modes"
            )
        if not 0 <= self.source_mode < self.m_modes:
            raise IndexError(f"source mode {self.source_mode} outside [0, {self.m_modes})")
        if not 0 <= self.postselect_mode < self.m_modes:
            raise IndexError(
                f"postselect mode {self.postselect_mode} outside [0, {self.m_modes})"
            )
        seen: set[str] = set()
        for el in self.elements:
            if isinstance(el, Snapshot):
                if el.label in (SOURCE_STAGE, FINAL_STAGE):
                    raise ValueError(f"snapshot label {el.label!r} is reserved")
                if el.label in seen:
                    raise ValueError(f"duplicate snapshot label {el.label!r}")
                seen.add(el.label)
            else:
                self._check_element_indices(el)
        if self.detect_stage != FINAL_STAGE and self.detect_stage not in seen:
            raise ValueError(f"detection stage {self.detect_stage!r} has no snapshot")

    def _check_element_indices(self, el: Element) -> None:
        def check(idx: int, bound: int, what: str) -> None:
            if not 0 <= idx < bound:
                raise IndexError(f"{what} {idx} outside [0, {bound}) in {el!r}")

        if isinstance(el, BeamSplitter):
            bound, what = (
                (self.m_modes, "system mode")
                if el.target == SYS
                else (self.k_probes, "probe mode")
            )
            check(el.mode_a, bound, what)
            check(el.mode_b, bound, what)
        elif isinstance(el, KerrCoupling):
            for m in el.system_modes:
                check(m, self.m_modes, "system mode")
            check(el.probe_mode, self.k_probes, "probe mode")
        elif isinstance(el, PhaseShift):
            if el.target == SYS:
                check(el.index, self.m_modes, "system mode")
            else:
                check(el.index, self.k_probes, "probe mode")

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
            replace(el, eps_tau=0.0, eta_tau=0.0, inner_branch_phase=0.0)
            if isinstance(el, KerrCoupling)
            else el
            for el in self.elements
        )
        return replace(self, elements=els)


@dataclass(frozen=True)
class StageTrace:
    """Recorded stage states of one run: label -> state, per direction."""

    circuit: Circuit
    forward: Mapping[str, HybridState] = field(default_factory=dict)
    backward: Mapping[str, BraState] = field(default_factory=dict)

    @property
    def detect_stage(self) -> str:
        return self.circuit.detect_stage

    def merged_with(self, other: "StageTrace") -> "StageTrace":
        return StageTrace(
            self.circuit,
            {**self.forward, **other.forward},
            {**self.backward, **other.backward},
        )


def _evolve(
    state: HybridState,
    elements: Iterable[Element],
    stages: dict[str, HybridState],
    stop: str | None = None,
    end: str | None = None,
    dagger: bool = False,
    tol: float = MERGE_TOL,
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
            state = apply_element(state, el, dagger=dagger, tol=tol)
    if end is not None:
        stages[end] = state
    return state


def run_forward(circuit: Circuit, tol: float = MERGE_TOL) -> StageTrace:
    """Evolve the source state through the circuit, recording every snapshot.

    The fully evolved state is stored under ``"final"`` and the input under
    ``"source"``; branches are merged after every element.
    """
    state = circuit.source_state()
    stages: dict[str, HybridState] = {SOURCE_STAGE: state}
    _evolve(state, circuit.elements, stages, end=FINAL_STAGE, tol=tol)
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


def probe_optics_image(circuit: Circuit, probes: tuple[complex, ...]) -> tuple[complex, ...]:
    """Image of probe amplitudes under the circuit's probe-only optics.

    Folds every probe beam splitter and probe phase over the amplitudes in
    circuit order, skipping Kerr couplings (their action is conditioned on
    the photon's branch).  This is the probe state a branch that never
    enters the Kerr medium ends up carrying.
    """
    carrier = HybridState.single_photon(circuit.m_modes, circuit.source_mode, probes)
    optics = (
        el
        for el in circuit.elements
        if isinstance(el, (BeamSplitter, PhaseShift)) and el.target == PROBE
    )
    return _evolve(carrier, optics, {}).branches[0].probes


def default_final_bra(circuit: Circuit) -> BraState:
    """Post-selection bra: photon at the detector mode, probes unperturbed.

    The probe part is the source probe state carried through the probe
    optics alone, i.e. the coherent state the probe interferometer emits
    when nothing interacted inside it.  Post-selecting on it asks "did the
    probe leave in the no-interaction fringe state".
    """
    probes = probe_optics_image(circuit, circuit.source_probes)
    return BraState(
        circuit.m_modes,
        circuit.k_probes,
        (Branch(circuit.postselect_mode, 1.0, probes),),
    )


def run_backward(
    circuit: Circuit, final_bra: BraState | None = None, tol: float = MERGE_TOL
) -> StageTrace:
    """Evolve a bra backward through the circuit, conjugate-transposing each element.

    Snapshots are recorded under the same labels as the forward run; the
    starting bra is stored under ``"final"`` and the fully back-evolved bra
    under ``"source"``.
    """
    bra = default_final_bra(circuit) if final_bra is None else final_bra
    if bra.m_modes != circuit.m_modes or bra.k_probes != circuit.k_probes:
        raise ValueError("final bra does not match the circuit's dimensions")
    stages: dict[str, BraState] = {FINAL_STAGE: bra}
    _evolve(
        bra, reversed(circuit.elements), stages, end=SOURCE_STAGE, dagger=True, tol=tol
    )
    return StageTrace(circuit, backward=stages)


def run_both(
    circuit: Circuit, final_bra: BraState | None = None, tol: float = MERGE_TOL
) -> StageTrace:
    """Forward and backward traces over the same circuit."""
    return run_forward(circuit, tol).merged_with(run_backward(circuit, final_bra, tol))


def build_nested_mzi(
    r: float,
    alpha: complex = 2.0,
    eps_tau: float = 0.0,
    eta_tau: float = 0.0,
    inner_branch_phase: float = 0.0,
) -> Circuit:
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
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"reflectivity r={r} outside [0, 1]")
    alpha = complex(alpha)
    elements: tuple[Element, ...] = (
        BeamSplitter(SYS, 0, 1, r),
        Snapshot("L1"),
        BeamSplitter(SYS, 1, 2, _BALANCED),
        PhaseShift(PROBE, 0, math.pi / 2),
        BeamSplitter(PROBE, 0, 1, _BALANCED),
        Snapshot("L2"),
        KerrCoupling(frozenset({1, 2}), 0, eps_tau, eta_tau, inner_branch_phase),
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
