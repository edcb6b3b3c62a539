"""Naive per-point sweeps: rebuild every scanned circuit and run it from the source.

The engine's fringe scan, leakage sweep and post-selection twin evolve the
circuit prefix they share once and resume from it.  The functions here keep
the straightforward path instead: for every point the element is inserted
with :meth:`Circuit.insert` (which re-validates the whole circuit), the
circuit is run forward from the source, and the post-selection twin is a
full run of :meth:`Circuit.kerr_free`.  Nothing here uses the engine's
resumable evolution; this is the oracle the sweep tests compare against.

The engine's sweeps evaluate most points in closed form, so their values
agree with these within the bounds the tests name; the fringe shift, read
off three phases the engine runs per point as well, and every point of a
scan the engine runs per phase, agree with ``==``.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

from qndmzi import (
    FINAL_STAGE,
    PROBE,
    SYS,
    BeamSplitter,
    Circuit,
    FringeScan,
    LeakagePoint,
    PhaseShift,
    PostSelectionResult,
    StageTrace,
    mean_probe_photons,
    run_forward,
    state_fidelity,
)


def reference_postselect(
    trace: StageTrace, mode: int, at: str | None = None, compute_fidelity: bool = True
) -> PostSelectionResult:
    """Post-selection whose fidelity twin is re-run from the source."""
    stage = trace.detect_stage if at is None else at
    projected = trace.forward[stage].project_mode(mode)
    probability = projected.norm_sq()
    if probability <= 0.0:
        return PostSelectionResult(mode, stage, 0.0, None, None, None)
    conditional = projected.normalized()
    fidelity = None
    if compute_fidelity:
        ref = run_forward(trace.circuit.kerr_free()).forward[stage].project_mode(mode)
        if ref.norm_sq() > 0.0:
            fidelity = state_fidelity(ref, conditional)
    return PostSelectionResult(
        mode, stage, probability, conditional, fidelity, mean_probe_photons(conditional)
    )


def _first_harmonic(circuit: Circuit, mode: int) -> complex:
    """c1 of the port-0 fringe c0 + 2 Re(c1 e^{i phi}), from full runs at phi = 0, 2pi/3 and 4pi/3."""
    i0, i1, i2 = _intensities(circuit, mode, (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0))[0]
    return complex(((i0 - i1) + (i0 - i2)) / 6.0, (i2 - i1) / (2.0 * math.sqrt(3.0)))


def _intensities(circuit: Circuit, mode: int, phis: Sequence[float]):
    insert_at = max(
        i
        for i, el in enumerate(circuit.elements)
        if isinstance(el, BeamSplitter) and el.target == PROBE
    )
    dp1, dp2 = [], []
    for phi in phis:
        scanned = circuit.insert(insert_at, PhaseShift(PROBE, 1, phi))
        result = reference_postselect(run_forward(scanned), mode, compute_fidelity=False)
        if result.conditional is None:
            raise ValueError(f"post-selection on mode {mode} is impossible; no fringe")
        dp1.append(result.probe_mean_photons[0])
        dp2.append(result.probe_mean_photons[1])
    return dp1, dp2


def reference_fringe_scan(circuit: Circuit, mode: int, phis: Iterable[float]) -> FringeScan:
    """Fringe scan with one full forward run per phase and per sampled phase, and the same for the reference."""
    phis = tuple(float(p) for p in phis)
    dp1, dp2 = _intensities(circuit, mode, phis)
    ref_dp1, _ = _intensities(circuit.kerr_free(), mode, phis)
    c1, ref_c1 = _first_harmonic(circuit, mode), _first_harmonic(circuit.kerr_free(), mode)
    for fringe, first in ((ref_dp1, ref_c1), (dp1, c1)):
        if first == 0j or min(fringe) == max(fringe):
            raise ValueError(f"fringe post-selected on mode {mode} is flat; it has no phase")
    shift = (cmath.phase(c1) - cmath.phase(ref_c1)) % (2.0 * math.pi)
    top, bottom = max(dp1), min(dp1)
    visibility = 0.0 if top + bottom == 0.0 else (top - bottom) / (top + bottom)
    return FringeScan(phis, tuple(dp1), tuple(dp2), shift, visibility)


def _perturbed(circuit: Circuit, delta: float, arm_mode: int) -> Circuit:
    """``circuit`` with the phase ``delta`` on ``arm_mode`` just after its inner splitter."""
    insert_at = 1 + min(
        i
        for i, el in enumerate(circuit.elements)
        if isinstance(el, BeamSplitter)
        and el.target == SYS
        and {el.mode_a, el.mode_b} == {1, 2}
    )
    return circuit.insert(insert_at, PhaseShift(SYS, arm_mode, float(delta)))


def reference_leakage_sweep(
    circuit: Circuit, deltas: Iterable[float], arm_mode: int = 1, dark_stage: str = "L3"
) -> tuple[LeakagePoint, ...]:
    """Leakage sweep with one full forward run per perturbed circuit."""
    pm = circuit.postselect_mode
    base = reference_postselect(
        run_forward(circuit), pm, at=FINAL_STAGE, compute_fidelity=False
    )
    if base.conditional is None:
        raise ValueError("detector-conditioned state of the unperturbed circuit is null")
    points = []
    for delta in deltas:
        trace = run_forward(_perturbed(circuit, delta, arm_mode))
        leak = trace.forward[dark_stage].project_mode(arm_mode).norm_sq()
        conditioned = reference_postselect(trace, pm, at=FINAL_STAGE, compute_fidelity=False)
        deficit = 1.0 - state_fidelity(base.conditional, conditioned.conditional)
        points.append(LeakagePoint(float(delta), leak, deficit))
    return tuple(points)


def detector_probabilities(
    circuit: Circuit, deltas: Iterable[float], arm_mode: int = 1
) -> tuple[float, ...]:
    """The detector mode's probability at the end of each perturbed circuit, one full run each."""
    pm = circuit.postselect_mode
    return tuple(run_forward(_perturbed(circuit, delta, arm_mode)).forward[FINAL_STAGE]
                 .project_mode(pm).norm_sq() for delta in deltas)
