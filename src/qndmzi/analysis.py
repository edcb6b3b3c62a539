"""Post-selection statistics, probe fringes, weak-value reports, leakage sweeps.

Everything here consumes the exact branch states produced by the circuit
engine.  Detector intensities are mean photon numbers computed from the
analytic coherent-state matrix elements <b|n|g> = conj(b) g <b|g>, which
stay correct when a conditional state is a superposition of coherent
branches rather than a single product.

Cost: the sweeps evolve the circuit prefix their points share once (a
fringe scan's Kerr-free reference resumes from it), and past it they run a
fixed number of times, whatever the number of points.  Every element after
a leakage sweep's phase is linear, so two runs, of the prefix state and of
its part in the perturbed arm, give every delta in closed form
(:func:`leakage_sweep`).  A fringe is a degree-1 trigonometric form in the
scanned phase unless a system splitter follows a Kerr coupling past it, so
three sampled phases give every point (:func:`fringe_scan`); elsewhere the
scan also runs once per phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .circuit import (
    FINAL_STAGE,
    SOURCE_STAGE,
    Circuit,
    StageTrace,
    _evolve,
    _run_prefix,
    run_both,
)
from .elements import (
    PROBE, SYS, BeamSplitter, Element, KerrCoupling, PhaseShift, Snapshot, _phase_factor, _real,
)
from .states import (
    HybridState, _check_finite, _check_mode, _check_shape, _collection, _pair_sum, inner_product,
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
    state = trace.forward[stage]
    mode = _check_mode("mode", mode, state.m_modes)
    probability, conditional = _condition(state, mode)
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
    scanned interferometer.  The port-0 intensity of this scan and of the
    coupling-off reference scan is c0 + 2 Re(c1 e^{i phi}), and the shift
    is arg(c1) - arg(c1_ref) mod 2pi: the displacement that must be undone
    to recover the reference fringe.
    """

    phis: tuple[float, ...]
    intensity_dp1: tuple[float, ...]
    intensity_dp2: tuple[float, ...]
    extracted_shift: float
    visibility: float


def _fringe(circuit: Circuit, prefix: tuple, suffix: Sequence[Element], mode: int,
            phis: Sequence[float], factors: list[complex]) -> tuple[Iterator[list[float]], complex]:
    """Each probe output's intensities at ``phis`` between ``prefix`` and ``suffix``, and port 0's c1.

    Each port's intensity is sampled at phi = 0, 2pi/3 and 4pi/3 by
    :func:`_resumed_scan`, whose three values I0, I1, I2 give
    c1 = ((I0 - I1) + (I0 - I2)) / 6 + i (I2 - I1) / (2 sqrt 3) and
    c0 = I0 - 2 Re c1: three equal samples give c1 = 0 and c0 = I0 exactly.
    Where :func:`_degree_one` holds, the intensity at phi is
    c0 + 2 Re(c1 e^{i phi}), with e^{i phi} from ``factors``, evaluated
    for a port only as the iterator reaches it; elsewhere every phase runs
    through :func:`_resumed_scan`.
    """
    third = 2.0 * math.pi / 3.0
    samples = _resumed_scan(circuit, prefix, suffix, mode, (0.0, third, 2.0 * third))
    coefficients = []
    for i0, i1, i2 in samples:
        c1 = complex(((i0 - i1) + (i0 - i2)) / 6.0, (i2 - i1) / (2.0 * math.sqrt(3.0)))
        coefficients.append((i0 - 2.0 * c1.real, c1))
    if _degree_one(suffix, circuit.detect_stage):
        ports = ([c0 + 2.0 * (c1 * f).real for f in factors] for c0, c1 in coefficients)
    else:
        ports = iter(_resumed_scan(circuit, prefix, suffix, mode, phis))
    return ports, coefficients[0][1]


def _degree_one(suffix: Sequence[Element], stop: str) -> bool:
    """Whether each port's intensity is a degree-1 form in a phase on probe mode 1 ahead of ``suffix``.

    It is unless a system beam splitter follows a Kerr coupling in
    ``suffix`` before snapshot ``stop``.  ``suffix`` starts with the probe
    recombiner, the last probe beam splitter, so probe 1 is mixed there and
    nowhere after.  In the Heisenberg picture back to the phase, the
    detector's mode projector stays diagonal in the photon's modes through
    every element but a system splitter, so it commutes with every Kerr
    coupling it passes, and the probe number operators become bilinear
    forms a_j^dagger a_l times photon operators.  The conditional norm then
    does not depend on phi, and each moment is c0 + 2 Re(c1 e^{i phi}).  A
    system splitter makes the projector off-diagonal, and a Kerr coupling
    ahead of it then adds exp(i eps n_k), which the recombiner turns into
    every power of e^{i phi}.
    """
    marked = False
    for el in suffix:
        if isinstance(el, Snapshot) and el.label == stop:
            break
        if isinstance(el, KerrCoupling):
            marked = True
        elif marked and isinstance(el, BeamSplitter) and el.target == SYS:
            return False
    return True


def _resumed_scan(circuit: Circuit, prefix: tuple, suffix: Sequence[Element], mode: int,
                  phis: Sequence[float]) -> tuple[list[float], list[float]]:
    """Both probe outputs' intensities per phase inserted between ``prefix`` and ``suffix``.

    Each phase resumes from ``prefix`` (a detection stage in ``prefix`` is
    read from there) and runs to the detection stage, with the bits of
    inserting the phase and running the circuit forward from the source.
    It then makes :func:`postselect`'s calls, so each sample keeps its bits.
    """
    head, recorded = prefix
    dp1, dp2 = [], []
    for phi in phis:
        state = recorded.get(circuit.detect_stage)
        if state is None:  # "final" names no snapshot, so a run to it ends with the elements
            state = _evolve(head, (PhaseShift(PROBE, 1, phi), *suffix), {}, stop=circuit.detect_stage)
        conditional = _condition(state, mode)[1]
        if conditional is None:
            raise ValueError(f"post-selection on mode {mode} is impossible; no fringe")
        means = _probe_means(conditional)[1]
        dp1.append(means[0])
        dp2.append(means[1])
    return dp1, dp2


def fringe_scan(circuit: Circuit, mode: int, phis: Iterable[float]) -> FringeScan:
    """Scan a phase on probe mode 1 ahead of the probe recombiner.

    For each phase the photon is post-selected on ``mode`` at the detection
    stage, and the conditional mean photon numbers at both probe outputs
    are recorded.  Every phase must be finite; it is checked, with the
    mode, before anything is evolved.  Everything ahead of the scanned
    phase (placed ahead of the last probe beam splitter) is evolved once;
    the Kerr-free reference resumes from that run at its last snapshot
    ahead of the first coupling and skips every coupling.

    Past the phase, each port's intensity is c0 + 2 Re(c1 e^{i phi}) unless
    a system beam splitter follows a Kerr coupling between the phase and
    the detection stage (:func:`_degree_one`).  So the scan and the
    reference each run three phases, 0, 2pi/3 and 4pi/3, whatever the
    number of points, and every point is evaluated from c0 and c1; where
    that rule fails, every phase also runs, with the bits of inserting it
    and running the circuit forward from the source.  The shift is
    arg(c1) - arg(c1_ref) mod 2pi; a fringe is flat, and raises, where c1
    is 0 or every intensity is equal.
    """
    phis = tuple([_real("phi", p) for p in _collection("phis", phis)])
    if len(phis) < 4:
        raise ValueError("need at least 4 scan points")
    if circuit.k_probes != 2:
        raise ValueError("fringe scans require exactly two probe modes")
    _check_mode("mode", mode, circuit.m_modes)
    if not all(map(math.isfinite, phis)):
        raise ValueError("phi must be finite")
    insert_at = max((i for i, el in enumerate(circuit.elements)
                     if isinstance(el, BeamSplitter) and el.target == PROBE), default=None)
    if insert_at is None:
        raise ValueError("circuit has no probe beam splitter to scan against")
    factors = [_phase_factor(phi) for phi in phis]
    prefix = _run_prefix(circuit, insert_at)
    suffix = circuit.elements[insert_at:]
    (dp1, dp2), c1 = _fringe(circuit, prefix, suffix, mode, phis, factors)
    twin = _kerr_free_run(circuit, prefix[1], insert_at)
    bare = tuple(el for el in suffix if not isinstance(el, KerrCoupling))
    ref_ports, ref_c1 = _fringe(circuit, twin, bare, mode, phis, factors)
    ref_dp1 = next(ref_ports)
    for fringe, first in ((ref_dp1, ref_c1), (dp1, c1)):
        if first == 0j or min(fringe) == max(fringe):
            raise ValueError(f"fringe post-selected on mode {mode} is flat; it has no phase")
    shift = (cmath.phase(c1) - cmath.phase(ref_c1)) % (2.0 * math.pi)
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

    The phase multiplies the part psi_m of the state in ``arm_mode`` by
    e^{i delta}, and every element after it is linear, so the state at
    delta is psi_0 + z psi_m, with z = e^{i delta} - 1 = 2i sin(delta/2)
    e^{i delta/2}, which keeps its digits at small delta.  The elements up
    to the inner splitter run once; the rest runs twice from there, on
    psi_0 and on psi_m, whatever the number of deltas (a dark stage ahead
    of the phase is read once, and psi_m is 0 there).  With P the
    projection on ``arm_mode`` at the dark stage, the leak is
    ||P psi_0||^2 + 2 Re(z <P psi_0|P psi_m>) + |z|^2 ||P psi_m||^2.  With
    F_0 and F_m the detector projections at the end, n00 = ||F_0||^2,
    n0m = <F_0|F_m> and nmm = ||F_m||^2, the conditioned norm is
    N = n00 + 2 Re(z n0m) + |z|^2 nmm, and the deficit is the Gram
    determinant |z|^2 (n00 nmm - |n0m|^2) / (n00 N), which does not cancel
    as delta goes to 0; rounding that takes the determinant below 0 gives 0.
    A null F_0, or N <= 0 at some delta, raises ``ValueError``.
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
    head, recorded = _run_prefix(circuit, insert_at)
    suffix = circuit.elements[insert_at:]
    runs = dict(recorded), {}
    for state, stages in zip((head, head.project_mode(arm_mode)), runs):
        _evolve(state, suffix, stages, end=FINAL_STAGE)
    f0, fm = (stages[FINAL_STAGE].project_mode(circuit.postselect_mode) for stages in runs)
    n00 = _pair_sum(f0, f0).real
    if n00 <= 0.0:
        raise ValueError("detector-conditioned state of the unperturbed circuit is null")
    nmm, n0m = _pair_sum(fm, fm).real, _pair_sum(f0, fm)
    # nmm - |n0m|^2 / n00, in an order that neither overflows nor underflows early.
    gap = max(0.0, nmm - abs(n0m) * (abs(n0m) / n00))
    p0 = runs[0][dark_stage].project_mode(arm_mode)
    l00, l0m, lmm = _pair_sum(p0, p0).real, 0j, 0.0
    if dark_stage not in recorded:
        pm = runs[1][dark_stage].project_mode(arm_mode)
        l0m, lmm = _pair_sum(p0, pm), _pair_sum(pm, pm).real
    points = []
    for delta in deltas:
        s = math.sin(0.5 * delta)
        z, zz = 2j * s * cmath.exp(0.5j * delta), 4.0 * s * s
        norm = n00 + 2.0 * (z * n0m).real + zz * nmm
        if not norm > 0.0:
            raise ValueError(f"detector-conditioned state at delta {delta!r} is null")
        leak = l00 + 2.0 * (z * l0m).real + zz * lmm
        points.append(LeakagePoint(delta, leak, zz * gap / norm))
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
