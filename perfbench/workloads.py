"""The benchmark's workloads: a seeded input stream, one solve, and its check.

Every workload draws the inputs of solve ``i`` from one ``random.Random``
seeded by the run's ``--seed``, so a seed fixes the whole input sequence and
no input repeats within a run (a cache keyed on inputs gets no free hits;
the ``cli`` workload's pool of eight circuit files is the one exception).
A solve calls only the public ``qndmzi`` API on those inputs; its check then
recomputes the physics invariants from the outputs and returns a list of
failure messages (empty when the solve is correct).

Tolerances scale with |alpha|^2: the coherent overlap exp(-|a|^2/2 - |b|^2/2
+ conj(a) b) cancels terms of size |alpha|^2, so rounding in any probability
or amplitude grows as |alpha|^2 times machine epsilon.  ``1e-12 * |alpha|^2``
leaves a margin of about 1e4 over that rounding.
"""

from __future__ import annotations

import cmath
import math
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import qndmzi as q

ALPHA_MIN, ALPHA_MAX = 0.5, 1e3
R_MIN, R_MAX = 0.05, 0.95
EPS_MIN, EPS_MAX = 0.01, 1.0

FRINGE_PHIS = tuple(2.0 * math.pi * i / 64 for i in range(64))
LEAK_DELTAS = tuple(1e-4 * 100.0 ** (i / 20) for i in range(21))
GRID_R = (0.0, 0.25, 0.5, 0.75, 1.0)
GRID_EPS = (0.0, 0.3, 1.0, 2.0, math.pi)
DEEP_DEPTH = 7
_BALANCED = math.sqrt(0.5)

#: Relative tolerance of the t^2 delta^2 / 4 leakage fit, as in acceptance
#: criterion 7; the fit's own truncation error is ~delta_max^2 / 12 ~ 1e-5.
LEAK_FIT_TOL = 0.01
#: Absolute tolerance on the extracted fringe shift (radians), as in
#: acceptance criterion 8.
SHIFT_TOL = 1e-6


def tolerance(alpha: complex) -> float:
    return 1e-12 * max(1.0, abs(alpha) ** 2)


def draw_alpha(rng: random.Random) -> complex:
    """|alpha| log-uniform in [ALPHA_MIN, ALPHA_MAX], uniform random phase."""
    mag = math.exp(rng.uniform(math.log(ALPHA_MIN), math.log(ALPHA_MAX)))
    return cmath.rect(mag, rng.uniform(0.0, 2.0 * math.pi))


def draw_apparatus(rng: random.Random) -> tuple[float, complex, float]:
    return rng.uniform(R_MIN, R_MAX), draw_alpha(rng), rng.uniform(EPS_MIN, EPS_MAX)


def _angle_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


# --- apparatus ---------------------------------------------------------------
# Latency regime: the paper's 14-element apparatus with at most 3 branches.
# Per-element Python overhead and the Kerr-free twin that postselect re-runs
# dominate, so element-applier and twin-caching changes show here first.


def apparatus_solve(inp):
    r, alpha, eps = inp
    circuit = q.build_nested_mzi(r, alpha, eps)
    trace = q.run_both(circuit)
    detector = q.postselect(trace, 0)
    exit_port = q.postselect(trace, 2, compute_fidelity=False)
    dark = q.postselect(trace, 1, at="L3", compute_fidelity=False)
    report = q.tsvf_report(circuit, trace=trace)
    return detector, exit_port, dark, report


def apparatus_check(inp, out) -> list[str]:
    r, alpha, _ = inp
    detector, exit_port, dark, report = out
    tol = tolerance(alpha)
    bad = []
    if abs(detector.probability - r * r) > tol:
        bad.append(f"P(D)={detector.probability!r} != r^2={r * r!r}")
    if abs(detector.probability + exit_port.probability - 1.0) > tol:
        bad.append(f"P(D)+P(exit)={detector.probability + exit_port.probability!r} != 1")
    if dark.probability > tol:
        bad.append(f"dark port at L3 carries {dark.probability!r}")
    fid = detector.fidelity_vs_reference
    if fid is None or abs(fid - 1.0) > tol:
        bad.append(f"detector fidelity {fid!r} != 1")
    amp0 = report.stages[0].transition_amplitude
    for stage in report.stages:
        if abs(stage.transition_amplitude - amp0) > tol:
            bad.append(
                f"<bwd|fwd> at {stage.stage} is {stage.transition_amplitude!r}, "
                f"at source {amp0!r}"
            )
        if not stage.postselection_possible:
            bad.append(f"post-selection impossible at {stage.stage}")
            continue
        total = sum(m.weak_value for m in stage.modes)
        if abs(total - 1.0) > tol / abs(stage.transition_amplitude):
            bad.append(f"weak values at {stage.stage} sum to {total!r}")
    return bad


# --- sweep -------------------------------------------------------------------
# Throughput regime: every scan point rebuilds, re-validates and re-runs
# nearly the same circuit, so prefix reuse or a batch axis shows here and
# not on apparatus.  Points per solve: 64 phases + 21 deltas + 25 cells.

SWEEP_POINTS = len(FRINGE_PHIS) + len(LEAK_DELTAS) + len(GRID_R) * len(GRID_EPS)


def sweep_solve(inp):
    r, alpha, eps = inp
    circuit = q.build_nested_mzi(r, alpha, eps)
    scan = q.fringe_scan(circuit, 2, FRINGE_PHIS)
    leaks = q.leakage_sweep(circuit, LEAK_DELTAS)
    grid = [
        q.run_forward(q.build_nested_mzi(gr, alpha, ge)).forward["L3"].project_mode(1).norm_sq()
        for gr in GRID_R
        for ge in GRID_EPS
    ]
    return scan, leaks, grid


def sweep_check(inp, out) -> list[str]:
    r, alpha, eps = inp
    scan, leaks, grid = out
    bad = []
    if _angle_gap(scan.extracted_shift, eps) > SHIFT_TOL:
        bad.append(f"extracted shift {scan.extracted_shift!r} != eps_tau {eps!r}")
    t_sq = 1.0 - r * r
    coef = sum(p.dark_port_probability * p.delta**2 for p in leaks) / sum(
        p.delta**4 for p in leaks
    )
    if abs(coef / (t_sq / 4.0) - 1.0) > LEAK_FIT_TOL:
        bad.append(f"leakage coefficient {coef!r} != t^2/4 = {t_sq / 4.0!r}")
    worst = max(grid)
    if worst > tolerance(alpha):
        bad.append(f"dark port leaks {worst!r} on the r x eps grid")
    return bad


# --- deep --------------------------------------------------------------------
# Branch growth: a Kerr-marked chain where every layer doubles the branches
# and merges never succeed, so O(n^2) merge_branches and inner_product
# dominate.  Shares the circuit/elements/states path with apparatus, where
# merges do succeed; a merge or engine rewrite that helps one and costs the
# other shows on the pair.


def draw_deep(rng: random.Random) -> tuple[complex, tuple[float, ...]]:
    # Distinct generic eps per layer: every subset of marked layers gives a
    # distinct probe phase, so exactly 2**DEEP_DEPTH branches survive.
    return draw_alpha(rng), tuple(rng.uniform(0.05, 1.0) for _ in range(DEEP_DEPTH))


def deep_circuit(alpha: complex, eps: tuple[float, ...]) -> q.Circuit:
    elements = []
    for layer, e in enumerate(eps):
        elements += [
            q.BeamSplitter(q.SYS, 0, 1, _BALANCED),
            q.KerrCoupling(frozenset({0}), 0, e),
            q.Snapshot(f"d{layer + 1}"),
        ]
    return q.Circuit(
        m_modes=2, k_probes=1, elements=elements, source_mode=0, source_probes=(alpha,)
    )


def deep_solve(inp):
    circuit = deep_circuit(*inp)
    trace = q.run_both(circuit)
    final = trace.forward[q.FINAL_STAGE]
    norm = final.norm_sq()
    amps = [q.inner_product(trace.backward[s], trace.forward[s]) for s in circuit.stages]
    return len(final.branches), norm, amps


def deep_check(inp, out) -> list[str]:
    alpha, _ = inp
    n_branches, norm, amps = out
    tol = tolerance(alpha)
    bad = []
    if n_branches != 2**DEEP_DEPTH:
        bad.append(f"{n_branches} branches, expected {2**DEEP_DEPTH}")
    if abs(norm - 1.0) > tol:
        bad.append(f"norm {norm!r} != 1")
    if any(abs(a - amps[0]) > tol for a in amps):
        bad.append(f"transition amplitude not constant: {amps!r}")
    return bad


# --- cli ---------------------------------------------------------------------
# Cold start: fresh `python -m qndmzi.cli` processes, where import (numpy
# above all) dominates.  The only workload that covers cli and fileformat.

CLI_FILES = 8


def cli_args(rng: random.Random, index: int, circuit_files: list[str]) -> list[str]:
    """Arguments of cli solve ``index``: the three commands in rotation."""
    kind = index % 3
    if kind == 2:
        path = circuit_files[rng.randrange(len(circuit_files))]
        return ["circuit", path, "run", "--backward", "--format", "record"]
    r, alpha, eps = draw_apparatus(rng)
    head = ["nested-mzi", "--r", repr(r), f"--alpha={q.format_complex(alpha)}",
            "--eps-tau", repr(eps)]
    if kind == 0:
        return head + ["postselect", "--mode", "0", "--format", "record"]
    return head + ["tsvf", "--format", "record"]


def write_circuit_files(rng: random.Random, out_dir: Path) -> list[Path]:
    """Serialize CLI_FILES seeded apparatus circuits; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(CLI_FILES):
        path = out_dir / f"circuit{i}.txt"
        path.write_text(q.serialize_circuit(q.build_nested_mzi(*draw_apparatus(rng))))
        paths.append(path)
    return paths


def cli_in_process(args: list[str]) -> tuple[int, str]:
    """The same call made inside this process: (exit code, stdout)."""
    from click.testing import CliRunner

    from qndmzi.cli import main

    result = CliRunner().invoke(main, args)
    return result.exit_code, result.stdout


def cli_check(args: list[str], out: tuple[int, str]) -> list[str]:
    code, stdout = out
    if code != 0:
        return [f"exit code {code} for {args!r}"]
    ref_code, ref_stdout = cli_in_process(args)
    if ref_code != 0 or stdout != ref_stdout or not stdout.strip():
        return [f"output of {args!r} differs from the in-process call"]
    return []


@dataclass
class Workload:
    """Inputs, one solve and its check; ``points`` user-visible results per solve."""

    name: str
    draw: Callable[[int], Any]
    solve: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    points: int = 1


def make_workload(
    name: str, seed: int, root: Path, cli_command: list[str], env: dict[str, str]
) -> Workload:
    """Workload ``name`` with its inputs seeded by ``seed``.

    ``root`` is the checkout (circuit files for ``cli`` go under it);
    ``cli_command`` is the argv prefix that starts a fresh CLI process in
    environment ``env``.
    """
    rng = random.Random(seed)
    if name == "apparatus":
        return Workload(name, lambda _i: draw_apparatus(rng), apparatus_solve,
                        apparatus_check)
    if name == "sweep":
        return Workload(name, lambda _i: draw_apparatus(rng), sweep_solve,
                        sweep_check, SWEEP_POINTS)
    if name == "deep":
        return Workload(name, lambda _i: draw_deep(rng), deep_solve, deep_check)
    if name == "cli":
        out_dir = root / "perfbench" / "out" / f"cli-seed{seed}"
        files = [str(p.relative_to(root)) for p in write_circuit_files(rng, out_dir)]

        def solve(args: list[str]) -> tuple[int, str]:
            proc = subprocess.run(cli_command + args, capture_output=True, text=True,
                                  cwd=root, env=env)
            return proc.returncode, proc.stdout

        return Workload(name, lambda i: cli_args(rng, i, files), solve, cli_check)
    raise ValueError(f"unknown workload {name!r}")
