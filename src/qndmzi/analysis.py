"""Post-selection statistics, probe fringes, weak-value reports, leakage sweeps.

Everything here consumes the exact branch states produced by the circuit
engine.  Detector intensities are mean photon numbers computed from the
analytic coherent-state matrix elements <b|n|g> = conj(b) g <b|g>, which
stay correct when a conditional state is a superposition of coherent
branches rather than a single product.

Cost: the sweeps evolve the circuit prefix their points share once (a
fringe scan's Kerr-free reference resumes from it), and read a stage ahead
of the inserted phase once.  Past it, one axis engine runs the suffix once
for all points: each branch is a row whose amplitude and probes are Python
complex values where they are the same at every point and lists of one per
point where they vary (:func:`_axis_stages`), formed by the per-branch
expressions.  Where rows could not share one structure, or a point would
raise, the axis hands over (:mod:`qndmzi.states`) to the per-point run.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .circuit import (
    FINAL_STAGE,
    SOURCE_STAGE,
    Circuit,
    StageTrace,
    _evolve,
    _insertion_runs,
    _run_prefix,
    run_both,
)
from .elements import (
    PROBE, SYS, BeamSplitter, Element, KerrCoupling, PhaseShift, Snapshot, _apply_to_rows,
    _phase_factor, _real,
)
from .states import (
    _GRAM_MIN_PAIRS, Branch, HybridState, _HandOver, _batch_overlaps, _batch_pair_sum,
    _check_finite, _check_mode, _check_shape, _collection, _merge_rows, _pair_sum, _per_point, _require,
    inner_product,
)

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
    return _probe_means(state)[1]


def _probe_means(state: HybridState) -> tuple[float, tuple[float, ...]]:
    """The squared norm of ``state`` and its :func:`mean_probe_photons`, in one pass."""
    moments: list[complex] = []
    norm = _pair_sum(state, state, moments).real
    if norm <= 0.0:
        raise ValueError("mean photon number of a null state is undefined")
    return norm, tuple(m.real / norm for m in moments)


def state_fidelity(a: HybridState, b: HybridState) -> float:
    """|<a|b>|^2 between two pure states, normalizing both sides."""
    return _fidelity(a, b, a.norm_sq(), b.norm_sq())


def _fidelity(a: HybridState, b: HybridState, na: float, nb: float) -> float:
    """:func:`state_fidelity` of states whose squared norms are ``na``, ``nb``."""
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
    emits when nothing interacted.  The twin resumes from the trace ahead
    of the first coupling (:func:`_kerr_free_run`).
    """
    stage = trace.detect_stage if at is None else at
    if not isinstance(stage, str) or stage not in trace.forward:
        raise ValueError(f"stage {stage!r} not present in the forward trace")
    probability, conditional = _condition(trace.forward[stage], mode)
    if conditional is None:
        return PostSelectionResult(mode, stage, 0.0, None, None, None)
    norm, means = _probe_means(conditional)
    fidelity = None
    if compute_fidelity:
        ref_projected = _kerr_free_run(trace.circuit, trace.forward, stop=stage)[0].project_mode(mode)
        ref_norm = ref_projected.norm_sq()
        if ref_norm > 0.0:
            fidelity = _fidelity(ref_projected, conditional, ref_norm, norm)
    return PostSelectionResult(mode, stage, probability, conditional, fidelity, means)


def _condition(state: HybridState, mode: int) -> tuple[float, HybridState | None]:
    """Probability of photon-in-``mode`` and the normalized projection, or (0.0, None)."""
    projected = state.project_mode(mode)
    probability = projected.norm_sq()
    if probability <= 0.0:
        return 0.0, None
    return probability, projected.scaled(1.0 / math.sqrt(probability))


def _kerr_free_run(circuit: Circuit, recorded: Mapping[str, HybridState], end: int | None = None,
                   stop: str | None = None) -> tuple[HybridState, dict[str, HybridState]]:
    """The Kerr-free twin's run of ``circuit.elements[:end]``, as ``_run_prefix`` returns it.

    The twin applies the circuit's elements up to the first Kerr coupling,
    so it resumes from the last snapshot ahead of it that ``recorded`` (the
    circuit's forward stages) holds, else from the source, and skips every
    coupling after it.  The run ends early at snapshot ``stop``.
    """
    elements = circuit.elements[:end]
    state, start = circuit.source_state(), 0
    stages = {SOURCE_STAGE: state}
    for i, el in enumerate(elements):
        if stop in stages or isinstance(el, KerrCoupling):
            break
        if isinstance(el, Snapshot) and el.label in recorded:
            state, start = recorded[el.label], i + 1
            stages[el.label] = state
    if stop not in stages:
        rest = (el for el in elements[start:] if not isinstance(el, KerrCoupling))
        state = _evolve(state, rest, stages, stop=stop)
    return state, stages


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


def _fit_cosine_phase(phis: Sequence[float], values: Sequence[float], mode: int) -> float:
    """Least-squares fit of A cos(phi - u) + B; returns u.

    Raises when the fringe is flat (every value equal, or a fit with
    A == 0), whose u is undefined; ``mode`` is the post-selected mode,
    named in the error.
    """
    phis = np.asarray(phis, dtype=float)
    values = np.asarray(values, dtype=float)
    design = np.column_stack([np.cos(phis), np.sin(phis), np.ones_like(phis)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    if values.min() == values.max() or (coef[0] == 0.0 and coef[1] == 0.0):
        raise ValueError(f"fringe post-selected on mode {mode} is flat; it has no phase")
    return math.atan2(coef[1], coef[0])


def _scan_intensities(
    circuit: Circuit, mode: int, phis: Sequence[float]
) -> tuple[list[float], list[float], list[float]]:
    """Per phase, both probe outputs' conditional intensities, then the Kerr-free reference's first.

    The phase goes on probe mode 1 ahead of the last probe beam splitter.
    Everything ahead of it is evolved once, the reference resumes from that
    run (:func:`_kerr_free_run`), and both take one set of phase factors.
    """
    insert_at = max((i for i, el in enumerate(circuit.elements)
                     if isinstance(el, BeamSplitter) and el.target == PROBE), default=None)
    if insert_at is None:
        raise ValueError("circuit has no probe beam splitter to scan against")
    factors = _phase_factors(phis)
    prefix = _run_prefix(circuit, insert_at)
    suffix = circuit.elements[insert_at:]
    dp1, dp2 = _resumed_scan(circuit, prefix, suffix, mode, phis, factors)
    twin = _kerr_free_run(circuit, prefix[1], insert_at)
    bare = tuple(el for el in suffix if not isinstance(el, KerrCoupling))
    return dp1, dp2, _resumed_scan(circuit, twin, bare, mode, phis, factors)[0]


def _resumed_scan(circuit: Circuit, prefix: tuple, suffix: Sequence[Element], mode: int,
                  phis: Sequence[float], factors: list) -> tuple[list[float], list[float]]:
    """Both probe outputs' intensities per phase inserted between ``prefix`` and ``suffix``.

    ``factors`` are the phases' :func:`_phase_factors`.  The rest runs
    once over all phases where :func:`_phase_axis_intensities` applies (a
    detection stage in ``prefix`` is read once), and else once per phase,
    resuming from ``prefix``.
    """
    stop = circuit.detect_stage
    try:
        return _phase_axis_intensities(suffix, prefix, mode, factors, stop)
    except _HandOver:
        pass
    dp1, dp2 = [], []
    scans = ((PhaseShift(PROBE, 1, phi),) for phi in phis)
    for stages in _insertion_runs(suffix, prefix, scans, stop):
        result = postselect(StageTrace(circuit, stages), mode, compute_fidelity=False)
        if result.conditional is None:
            raise ValueError(f"post-selection on mode {mode} is impossible; no fringe")
        means = result.probe_mean_photons
        dp1.append(means[0])
        dp2.append(means[1])
    return dp1, dp2


def _phase_axis_intensities(
    suffix: Sequence[Element], prefix: tuple, mode: int, factors: list, stop: str
) -> tuple[list[float], list[float]]:
    """:func:`_resumed_scan` past ``prefix`` over a phase axis.

    Runs :func:`_axis_stages` to the detection stage ``stop`` and
    :func:`_axis_condition` with the probe moments, then divides as
    :func:`_probe_means` does.
    """
    rows = _axis_stages(suffix, prefix, PROBE, 1, factors, (stop,))[stop]
    _, (norm, moments) = _axis_condition(rows, mode, moments=True)
    n = len(factors)
    # Each probe's m.real / norm, as _probe_means divides.
    return tuple([m.real / nb for m, nb in zip(_points(moment, n), _points(norm, n))]
                 for moment in moments)


def _branch_rows(branches: Iterable[Branch]) -> list:
    """``branches`` as axis rows (mode, amp, probes) of fixed values."""
    return [(br.mode, br.amp, br.probes) for br in branches]


def _points(value, n: int) -> list:
    """A fixed value or a list over ``n`` points as a list (see :func:`~qndmzi.states._per_point`)."""
    return value if type(value) is list else [value] * n


def _phase_factors(phis: Sequence[float]) -> list[complex]:
    """Each phase's :func:`~qndmzi.elements._phase_factor`, one complex per point."""
    return [_phase_factor(phi) for phi in phis]


def _axis_stages(
    suffix: Sequence[Element], prefix: tuple, target: str, index: int, factors: list,
    reads: tuple[str, ...],
) -> dict[str, list]:
    """The rows at the stages ``reads`` over an axis of phases between ``prefix`` and ``suffix``.

    ``reads`` are stage labels in run order; the last, ``stop``, ends the
    run.  ``prefix`` is what :func:`~qndmzi.circuit._run_prefix` returned;
    the stages of ``reads`` it recorded are read once, as rows of fixed
    values, and the run ends there if ``stop`` is one of them.  Otherwise a
    phase shift on ``target`` mode ``index``, with the per-point ``factors``
    (:func:`_phase_factors`), goes ahead of ``suffix`` and runs with it on
    the rows of the prefix's state, through
    :func:`~qndmzi.elements._apply_to_rows` and
    :func:`~qndmzi.states._merge_rows`; a merge after a probe-only step on
    rows in distinct modes is the identity and is skipped.  Returns the rows
    at each stage of ``reads``, running to the end for :data:`FINAL_STAGE`.
    """
    head, recorded = prefix
    stop = reads[-1]
    stages = {label: _branch_rows(recorded[label].branches) for label in reads if label in recorded}
    if stop in stages:
        return stages
    rows = _branch_rows(head.branches)
    steps = chain([(PhaseShift(target, index, 0.0), factors)], ((el, None) for el in suffix))
    for el, factor in steps:
        if isinstance(el, Snapshot):
            if el.label in reads:
                stages[el.label] = rows
                if el.label == stop:
                    return stages
            continue
        moved = _apply_to_rows(el, rows, factor)
        probe_only = isinstance(el, KerrCoupling) or el.target == PROBE
        rows = moved if probe_only and len({row[0] for row in rows}) == len(rows) else _merge_rows(moved)
    stages[FINAL_STAGE] = rows
    return stages


def _axis_condition(rows: list, mode: int, moments: bool = False):
    """:func:`_condition` and the conditioned norm over an axis.

    Returns the projection's rows scaled to unit norm and their
    :func:`_axis_norm` (with the probe moments if asked); both sums share
    one set of overlaps.  Hands over where, at some point, the projection
    is empty, its probability or norm is not finite and > 0, or a scaled
    amplitude is not finite.
    """
    kept = [row for row in rows if row[0] == mode]
    pairs = _batch_overlaps(kept, kept)
    p, _ = _axis_norm(kept, pairs)
    # The factor 1.0 / math.sqrt(p), as HybridState.scaled takes it.
    scale = (list(map(complex, map(operator.truediv, repeat(1.0), map(math.sqrt, p))))
             if type(p) is list else complex(1.0 / math.sqrt(p)))
    kept = [(m, _require(cmath.isfinite, _per_point(operator.mul, scale, amp)), probes)
            for m, amp, probes in kept]
    return kept, _axis_norm(kept, pairs, moments)


def _axis_norm(rows: list, pairs: list, moments: bool = False):
    """The squared norm of ``rows`` per point (and the probe moments); hands over unless all > 0."""
    total, sums = _batch_pair_sum(rows, rows, pairs, moments)
    reals = [z.real for z in total] if type(total) is list else total.real
    return _require(partial(operator.lt, 0.0), reals), sums


def fringe_scan(circuit: Circuit, mode: int, phis: Iterable[float]) -> FringeScan:
    """Scan a phase on probe mode 1 ahead of the probe recombiner.

    For each phase the photon is post-selected on ``mode`` at the detection
    stage, and the conditional mean photon numbers at both probe outputs
    are recorded.  Every phase must be finite; it is checked, with the
    mode, before anything is evolved.  Everything ahead of the scanned
    phase is evolved once; the Kerr-free reference resumes from that run at
    its last snapshot ahead of the first coupling and skips every coupling.
    A detection stage ahead of the phase is read from there once.  The rest
    runs once over an axis of all phases where every merge keeps one
    structure for all of them (as on :func:`~qndmzi.circuit.build_nested_mzi`
    detected at L3p), and else per phase.  Either way the results equal, bit
    for bit, those of inserting the phase and running each scanned circuit
    forward from the source.
    """
    phis = tuple([_real("phi", p) for p in _collection("phis", phis)])
    if len(phis) < 4:
        raise ValueError("need at least 4 scan points to fit the fringe")
    if circuit.k_probes != 2:
        raise ValueError("fringe scans require exactly two probe modes")
    _check_mode("mode", mode, circuit.m_modes)
    if not all(map(math.isfinite, phis)):
        raise ValueError("phi must be finite")
    dp1, dp2, ref_dp1 = _scan_intensities(circuit, mode, phis)
    ref_phase = _fit_cosine_phase(phis, ref_dp1, mode)
    shift = (ref_phase - _fit_cosine_phase(phis, dp1, mode)) % (2.0 * math.pi)
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
    ``threshold`` must be a finite, nonnegative real number, kept as a
    float; a given ``trace`` must belong to ``circuit`` and hold both
    directions at every stage.
    """
    given, threshold = threshold, _real("overlap threshold", threshold)
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"overlap threshold must be finite and >= 0, got {given!r}")
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
        _check_shape(bwd, fwd)
        nums: dict[int, complex] = {}
        den = _pair_sum(bwd, fwd, parts=nums)
        possible = abs(den) > _NULL_AMPLITUDE
        f_amps, b_amps = _mode_amps(fwd), _mode_amps(bwd)
        mode_reports = []
        for m in range(circuit.m_modes):
            if possible:
                num = nums.get(m, 0j)
                _check_finite(num, "inner product")
                weak = num / den
                nonzero = abs(weak) > threshold
            else:
                weak = None
                nonzero = False
            mode_reports.append(
                TsvfModeReport(f_amps.get(m, 0j), b_amps.get(m, 0j), weak, nonzero)
            )
        stage_reports.append(
            TsvfStageReport(label, den, possible, tuple(mode_reports))
        )
    return TsvfReport(tuple(stage_reports), threshold)


def _mode_amps(state: HybridState) -> dict[int, complex]:
    """Sum of the branch amplitudes per mode, each from 0j in branch order."""
    amps: dict[int, complex] = {}
    for br in state.branches:
        amps[br.mode] = amps.get(br.mode, 0j) + br.amp
    return amps


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

    ``arm_mode``, ``dark_stage`` and every delta (which must be finite) are
    checked before anything is evolved.
    The elements up to the inner splitter are evolved once; the unperturbed
    circuit resumes from there with the elements after it.  The phase and
    the elements after it run once over an axis of all deltas where every
    merge keeps the same branches at every delta (on
    :func:`~qndmzi.circuit.build_nested_mzi`, deltas that leave both inner
    exits lit), and else per delta; a dark stage ahead of the phase is read
    once.  The results equal, bit for bit, those of inserting the phase and
    running each perturbed circuit forward from the source.
    """
    insert_at = next((i + 1 for i, el in enumerate(circuit.elements) if isinstance(el, BeamSplitter)
                      and el.target == SYS and {el.mode_a, el.mode_b} == {1, 2}), None)
    if insert_at is None:
        raise ValueError("circuit has no inner beam splitter on system modes {1, 2}")
    _check_mode("system mode", arm_mode, circuit.m_modes)
    if not isinstance(dark_stage, str) or dark_stage not in circuit.stages:
        raise ValueError(f"stage {dark_stage!r} is not a stage of the circuit")
    deltas = tuple([_real("leakage delta", d) for d in _collection("deltas", deltas)])
    for delta in deltas:
        if not math.isfinite(delta):
            raise ValueError(f"leakage delta {delta!r} is not finite")
    arm_phases = ((PhaseShift(SYS, arm_mode, delta),) for delta in deltas)
    prefix = _run_prefix(circuit, insert_at)
    runs = _insertion_runs(circuit.elements[insert_at:], prefix, chain([()], arm_phases))
    _, base = _condition(next(runs)[FINAL_STAGE], circuit.postselect_mode)
    if base is None:
        raise ValueError("detector-conditioned state of the unperturbed circuit is null")
    base_norm = base.norm_sq()
    try:
        return _delta_axis_points(circuit, insert_at, prefix, deltas, arm_mode, dark_stage,
                                  base, base_norm)
    except _HandOver:
        pass
    ahead = dark_stage in prefix[1]
    points = []
    for i, (delta, stages) in enumerate(zip(deltas, runs)):
        if not (ahead and i):
            # A dark stage ahead of the insertion is the same for every delta.
            leak = stages[dark_stage].project_mode(arm_mode).norm_sq()
        _, conditioned = _condition(stages[FINAL_STAGE], circuit.postselect_mode)
        if conditioned is None:
            raise ValueError(f"detector-conditioned state at delta {delta!r} is null")
        deficit = 1.0 - _fidelity(base, conditioned, base_norm, conditioned.norm_sq())
        points.append(LeakagePoint(delta, leak, deficit))
    return tuple(points)


def _delta_axis_points(
    circuit: Circuit, insert_at: int, prefix: tuple, deltas: tuple[float, ...], arm_mode: int,
    dark_stage: str, base: HybridState, base_norm: float,
) -> tuple[LeakagePoint, ...]:
    """:func:`leakage_sweep`'s points past the shared ``prefix``.

    Runs :func:`_axis_stages` to the end, the leak's pair sum (of fixed
    rows for a dark stage ahead of the phase), :func:`_axis_condition` and
    the overlap with ``base``; the fidelity deficit is formed per point in
    Python, as :func:`_fidelity` forms it.  Hands over before the axis runs
    where the prefix's state holds n rows in ``arm_mode`` or the detector
    mode with n^2 >= ``_GRAM_MIN_PAIRS``, the size at which its pair sums
    would hand over after every axis merge.
    """
    modes = [br.mode for br in prefix[0].branches]
    rows = max(modes.count(arm_mode), modes.count(circuit.postselect_mode))
    if base_norm <= 0.0 or rows * rows >= _GRAM_MIN_PAIRS:
        raise _HandOver
    stages = _axis_stages(circuit.elements[insert_at:], prefix, SYS, arm_mode,
                          _phase_factors(deltas), (dark_stage, FINAL_STAGE))
    kept = [row for row in stages[dark_stage] if row[0] == arm_mode]
    leak, _ = _batch_pair_sum(kept, kept)
    kept, (norm, _) = _axis_condition(stages[FINAL_STAGE], circuit.postselect_mode)
    overlap, _ = _batch_pair_sum(_branch_rows(base.branches), kept)
    columns = [_points(v, len(deltas)) for v in (leak, norm, overlap)]
    return tuple(LeakagePoint(delta, p.real, 1.0 - abs(ov) ** 2 / (base_norm * nb))
                 for delta, p, nb, ov in zip(deltas, *columns))


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
