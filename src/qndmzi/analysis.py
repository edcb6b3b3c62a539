"""Post-selection statistics, probe fringes, weak-value reports, leakage sweeps.

Everything here consumes the exact branch states produced by the circuit
engine.  Detector intensities are mean photon numbers computed from the
analytic coherent-state matrix elements <b|n|g> = conj(b) g <b|g>, which
stay correct when a conditional state is a superposition of coherent
branches rather than a single product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circuit import (
    FINAL_STAGE,
    SOURCE_STAGE,
    Circuit,
    StageTrace,
    _evolve,
    _insertion_runs,
    run_both,
    run_forward,
)
from .elements import PROBE, SYS, BeamSplitter, KerrCoupling, PhaseShift, Snapshot
from .states import HybridState, _check_mode, _pair_sum, inner_product

#: Weak values with magnitude above this count as a nonzero overlap of the
#: forward and backward waves.  Exposed because the verdict is a judgement
#: call on top of exact amplitudes.
OVERLAP_THRESHOLD = 1e-10

#: Transition amplitudes below this flag the post-selection as impossible.
#: Dark-port cancellations leave O(1e-16) rounding residue at inner stages,
#: which must not be mistaken for a usable weak-value denominator.
_NULL_AMPLITUDE = 1e-12


def mean_probe_photons(state: HybridState) -> tuple[float, ...]:
    """Mean photon number at each probe mode, <n_k> = <S|n_k|S>/<S|S>."""
    norm = state.norm_sq()
    if norm <= 0.0:
        raise ValueError("mean photon number of a null state is undefined")
    return tuple(_pair_sum(state, state, k).real / norm for k in range(state.k_probes))


def state_fidelity(a: HybridState, b: HybridState) -> float:
    """|<a|b>|^2 between two pure states, normalizing both sides."""
    na, nb = a.norm_sq(), b.norm_sq()
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("fidelity with a null state is undefined")
    return abs(inner_product(a, b)) ** 2 / (na * nb)


@dataclass(frozen=True)
class PostSelectionResult:
    """Outcome of projecting the photon onto one mode at one stage."""

    mode: int
    stage: str
    probability: float
    conditional: HybridState | None
    fidelity_vs_reference: float | None
    probe_mean_photons: tuple[float, ...] | None


def postselect(
    trace: StageTrace,
    mode: int,
    at: str | None = None,
    compute_fidelity: bool = True,
) -> PostSelectionResult:
    """Project the forward state at a stage onto photon-in-``mode``.

    ``at`` defaults to the circuit's detection stage.  The probability is
    the squared norm of the projection (coherent cross terms included).
    When the projection is empty the probability is 0 and the conditional
    state is flagged as undefined rather than fabricated.

    The fidelity reference is the same projection taken from a twin run
    with every Kerr coupling switched off: the probe state the apparatus
    emits when nothing interacted.  The twin runs the same elements as the
    traced circuit up to its first Kerr coupling, so it is not re-run from
    the source: it resumes from the last state the trace recorded before
    that coupling and is evolved only from there to the stage read.
    """
    stage = trace.detect_stage if at is None else at
    if stage not in trace.forward:
        raise ValueError(f"stage {stage!r} not present in the forward trace")
    projected = trace.forward[stage].project_mode(mode)
    probability = projected.norm_sq()
    if probability <= 0.0:
        return PostSelectionResult(mode, stage, 0.0, None, None, None)
    conditional = projected.scaled(1.0 / math.sqrt(probability))
    fidelity = None
    if compute_fidelity:
        ref_projected = _kerr_free_state(trace, stage).project_mode(mode)
        if ref_projected.norm_sq() > 0.0:
            fidelity = state_fidelity(ref_projected, conditional)
    return PostSelectionResult(
        mode,
        stage,
        probability,
        conditional,
        fidelity,
        mean_probe_photons(conditional),
    )


def _kerr_free_state(trace: StageTrace, stage: str) -> HybridState:
    """The forward state at ``stage`` of the traced circuit's Kerr-free twin.

    Resumes from the last snapshot before the first coupling and applies
    the circuit's remaining elements with every coupling skipped.
    """
    circuit = trace.circuit
    state, start = circuit.source_state(), 0
    if stage == SOURCE_STAGE:
        return state
    for i, el in enumerate(circuit.elements):
        if isinstance(el, KerrCoupling):
            break
        if isinstance(el, Snapshot) and el.label in trace.forward:
            state, start = trace.forward[el.label], i + 1
            if el.label == stage:
                return state
    rest = (el for el in circuit.elements[start:] if not isinstance(el, KerrCoupling))
    return _evolve(state, rest, {}, stop=stage, end=FINAL_STAGE)


@dataclass(frozen=True)
class FringeScan:
    """Detector intensities versus a scanned probe phase.

    ``extracted_shift`` is the phase the interaction imprinted on the
    scanned interferometer, recovered by fitting A cos(phi - u) + B to the
    port-0 intensity of this scan and of the coupling-off reference scan
    and reporting (u_ref - u) mod 2pi: the displacement that must be undone
    to recover the reference fringe.
    """

    phis: tuple[float, ...]
    intensity_dp1: tuple[float, ...]
    intensity_dp2: tuple[float, ...]
    extracted_shift: float
    visibility: float


def _fit_cosine_phase(phis: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares fit of A cos(phi - u) + B; returns u."""
    phis = np.asarray(phis, dtype=float)
    design = np.column_stack([np.cos(phis), np.sin(phis), np.ones_like(phis)])
    coef, *_ = np.linalg.lstsq(design, np.asarray(values, dtype=float), rcond=None)
    return math.atan2(coef[1], coef[0])


def _scan_intensities(
    circuit: Circuit, mode: int, phis: Sequence[float]
) -> tuple[list[float], list[float]]:
    insert_at = None
    for i in reversed(range(len(circuit.elements))):
        el = circuit.elements[i]
        if isinstance(el, BeamSplitter) and el.target == PROBE:
            insert_at = i
            break
    if insert_at is None:
        raise ValueError("circuit has no probe beam splitter to scan against")
    dp1: list[float] = []
    dp2: list[float] = []
    scans = (PhaseShift(PROBE, 1, phi) for phi in phis)
    for stages in _insertion_runs(circuit, insert_at, scans, stop=circuit.detect_stage):
        result = postselect(StageTrace(circuit, stages), mode, compute_fidelity=False)
        if result.conditional is None:
            raise ValueError(f"post-selection on mode {mode} is impossible; no fringe")
        means = result.probe_mean_photons
        dp1.append(means[0])
        dp2.append(means[1])
    return dp1, dp2


def fringe_scan(circuit: Circuit, mode: int, phis: Iterable[float]) -> FringeScan:
    """Scan a phase on probe mode 1 ahead of the probe recombiner.

    For each phase the photon is post-selected on ``mode`` at the detection
    stage, and the conditional mean photon numbers at both probe outputs
    are recorded.  Everything ahead of the scanned phase is evolved once
    for the scan and once for its Kerr-free reference; per phase only the
    phase and the elements after it up to the detection stage are applied.
    The results equal those of inserting the phase and running each
    scanned circuit forward from the source.
    """
    phis = tuple(float(p) for p in phis)
    if len(phis) < 4:
        raise ValueError("need at least 4 scan points to fit the fringe")
    if circuit.k_probes != 2:
        raise ValueError("fringe scans require exactly two probe modes")
    _check_mode("mode", mode, circuit.m_modes)
    dp1, dp2 = _scan_intensities(circuit, mode, phis)
    ref_dp1, _ = _scan_intensities(circuit.kerr_free(), mode, phis)
    shift = (_fit_cosine_phase(phis, ref_dp1) - _fit_cosine_phase(phis, dp1)) % (
        2.0 * math.pi
    )
    top, bottom = max(dp1), min(dp1)
    visibility = 0.0 if top + bottom == 0.0 else (top - bottom) / (top + bottom)
    return FringeScan(phis, tuple(dp1), tuple(dp2), shift, visibility)


@dataclass(frozen=True)
class TsvfModeReport:
    """Forward/backward content and projector weak value for one mode."""

    forward_amp: complex
    backward_amp: complex
    weak_value: complex | None
    overlap_nonzero: bool


@dataclass(frozen=True)
class TsvfStageReport:
    stage: str
    transition_amplitude: complex
    postselection_possible: bool
    modes: tuple[TsvfModeReport, ...]


@dataclass(frozen=True)
class TsvfReport:
    """Per-stage, per-mode two-state description of the post-selected photon.

    The weak value of the mode-m projector at stage s is
    <bwd(s)| (P_m x 1_probe) |fwd(s)> / <bwd(s)|fwd(s)>, evaluated with the
    full probe overlaps, so probe entanglement suppresses it.  The weak
    values over modes sum to 1 at every stage where the transition
    amplitude is nonzero.
    """

    stages: tuple[TsvfStageReport, ...]
    threshold: float

    def stage(self, label: str) -> TsvfStageReport:
        for s in self.stages:
            if s.stage == label:
                return s
        raise KeyError(label)

    def overlap_modes(self, label: str) -> tuple[int, ...]:
        """Indices of modes whose weak value exceeds the threshold."""
        s = self.stage(label)
        return tuple(
            m for m, rep in enumerate(s.modes) if rep.overlap_nonzero
        )


def tsvf_report(
    circuit: Circuit,
    threshold: float = OVERLAP_THRESHOLD,
    trace: StageTrace | None = None,
) -> TsvfReport:
    """Two-state (forward plus backward) report over every recorded stage.

    ``trace`` defaults to :func:`run_both`; a trace built from
    ``run_backward(circuit, bra)`` reports against a custom final bra.
    ``threshold`` must be finite and nonnegative; a given ``trace`` must
    belong to ``circuit`` and hold both directions at every stage.
    """
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"overlap threshold must be finite and >= 0, got {threshold!r}")
    if trace is None:
        trace = run_both(circuit)
    elif trace.circuit is not circuit and trace.circuit != circuit:
        raise ValueError("trace was recorded on a different circuit")
    stage_reports = []
    for label in circuit.stages:
        if label not in trace.forward or label not in trace.backward:
            raise ValueError(
                f"trace has no forward and backward state at stage {label!r}; "
                "build it with run_both"
            )
        fwd = trace.forward[label]
        bwd = trace.backward[label]
        den = inner_product(bwd, fwd)
        possible = abs(den) > _NULL_AMPLITUDE
        mode_reports = []
        for m in range(circuit.m_modes):
            f_amp = sum((br.amp for br in fwd.branches if br.mode == m), 0j)
            b_amp = sum((br.amp for br in bwd.branches if br.mode == m), 0j)
            if possible:
                weak = inner_product(bwd, fwd.project_mode(m)) / den
                nonzero = abs(weak) > threshold
            else:
                weak = None
                nonzero = False
            mode_reports.append(TsvfModeReport(f_amp, b_amp, weak, nonzero))
        stage_reports.append(
            TsvfStageReport(label, den, possible, tuple(mode_reports))
        )
    return TsvfReport(tuple(stage_reports), threshold)


@dataclass(frozen=True)
class LeakagePoint:
    delta: float
    dark_port_probability: float
    fidelity_deficit: float


def leakage_sweep(
    circuit: Circuit,
    deltas: Iterable[float],
    arm_mode: int = 1,
    dark_stage: str = "L3",
) -> tuple[LeakagePoint, ...]:
    """Perturb one inner arm by a phase delta and watch the dark port leak.

    For each delta a phase on system mode ``arm_mode`` is inserted just
    inside the inner interferometer (after the first beam splitter on
    modes {1, 2}).  Recorded per point: the probability of the photon at
    the ``dark_stage`` output of ``arm_mode``, and the fidelity deficit of
    the detector-conditioned probe state at the fully evolved stage
    relative to the unperturbed circuit (the perturbation leaks Kerr-marked
    amplitude through the dark port into the detector).

    ``arm_mode`` and ``dark_stage`` are checked before anything is evolved.
    The unperturbed circuit is run once, and the elements up to the inner
    splitter once; per delta only the phase and the elements after it are
    applied.  The results equal those of inserting the phase and running
    each perturbed circuit forward from the source.
    """
    insert_at = None
    for i, el in enumerate(circuit.elements):
        if (
            isinstance(el, BeamSplitter)
            and el.target == SYS
            and {el.mode_a, el.mode_b} == {1, 2}
        ):
            insert_at = i + 1
            break
    if insert_at is None:
        raise ValueError("circuit has no inner beam splitter on system modes {1, 2}")
    _check_mode("system mode", arm_mode, circuit.m_modes)
    if dark_stage not in circuit.stages:
        raise ValueError(f"stage {dark_stage!r} is not a stage of the circuit")
    deltas = tuple(float(d) for d in deltas)
    base = postselect(
        run_forward(circuit), circuit.postselect_mode, at=FINAL_STAGE,
        compute_fidelity=False,
    )
    if base.conditional is None:
        raise ValueError("detector-conditioned state of the unperturbed circuit is null")
    points = []
    arm_phases = (PhaseShift(SYS, arm_mode, delta) for delta in deltas)
    for delta, stages in zip(deltas, _insertion_runs(circuit, insert_at, arm_phases)):
        leak = stages[dark_stage].project_mode(arm_mode).norm_sq()
        conditioned = postselect(
            StageTrace(circuit, stages),
            circuit.postselect_mode,
            at=FINAL_STAGE,
            compute_fidelity=False,
        )
        deficit = 1.0 - state_fidelity(base.conditional, conditioned.conditional)
        points.append(LeakagePoint(delta, leak, deficit))
    return tuple(points)


def fringe_csv(scan: FringeScan) -> str:
    """CSV rows ``phi,dp1,dp2`` with 12 significant digits, input order."""
    lines = ["phi,dp1,dp2"]
    for phi, a, b in zip(scan.phis, scan.intensity_dp1, scan.intensity_dp2):
        lines.append(f"{phi:.12g},{a:.12g},{b:.12g}")
    return "\n".join(lines) + "\n"


def leakage_csv(points: Sequence[LeakagePoint]) -> str:
    """CSV rows ``delta,leak_prob,fidelity_deficit`` in input order."""
    lines = ["delta,leak_prob,fidelity_deficit"]
    for p in points:
        lines.append(
            f"{p.delta:.12g},{p.dark_port_probability:.12g},{p.fidelity_deficit:.12g}"
        )
    return "\n".join(lines) + "\n"
