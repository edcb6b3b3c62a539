"""Benchmark of the qndmzi simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload apparatus --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``apparatus``
(latency of the paper's 14-element apparatus), ``sweep`` (fringe scan,
leakage sweep and r x eps grid), ``deep`` (branch growth on a depth-7
Kerr-marked chain) and ``cli`` (cold start of ``python -m qndmzi.cli``).

``--trace 0`` runs one client in a closed loop for ``--seconds`` seconds
(and for at least ``--min-solves`` solves, so the 90th percentile has ten
samples beyond it), checks every solve, and prints the end-to-end metrics.
Times are scaled to a reference machine speed measured between calls (see
``speed.py``), and the process and its children are pinned to one core;
the raw times are printed as ``raw.*`` lines.  ``setup_s`` is the raw
median wall time of nine fresh processes that import qndmzi and draw the
inputs.
``--trace 1`` runs a fixed, seeded list of solves three times (untraced,
then traced twice with wrappers around every public ``qndmzi`` function),
checks that both traced passes count exactly the same work and that tracing
changes no output, and prints the per-layer metrics, per solve.  Spans are
written to ``perfbench/out/``.

Every metric is printed as ``name=value unit`` after ``env.*`` lines that
record the seed, interpreter, numpy and click versions and the CPU count.
The last line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every check passed, and 2
when the checkout holds no ``src/qndmzi`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: (name, unit) of the end-to-end metrics, printed with --trace 0.
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("solves_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, printed with --trace 1.  Counts
#: and self times are per solve; a layer a workload never calls reads 0.
PER_LAYER = (
    *(
        (f"elements.apply_{kind}.{m}", unit)
        for kind in ("beam_splitter", "kerr", "phase")
        for m, unit in (("calls", "count/solve"), ("self_s", "s/solve"))
    ),
    ("circuit.Circuit.init.calls", "count/solve"),
    ("circuit.Circuit.init.self_s", "s/solve"),
    ("circuit.Circuit.kerr_free.calls", "count/solve"),
    ("circuit.run_forward.calls", "count/solve"),
    ("circuit.run_backward.calls", "count/solve"),
    ("analysis.postselect.self_s", "s/solve"),
    ("analysis.tsvf_report.self_s", "s/solve"),
    ("analysis.fringe_scan.self_s", "s/solve"),
    ("analysis.leakage_sweep.self_s", "s/solve"),
    ("analysis.mean_probe_photons.self_s", "s/solve"),
    ("states.merge_branches.calls", "count/solve"),
    ("states.merge_branches.self_s", "s/solve"),
    ("states.merge_branches.branches_in", "count/solve"),
    ("states.merge_branches.branches_out", "count/solve"),
    ("states.merge_branches.useful_ratio", "ratio"),
    ("states.inner_product.calls", "count/solve"),
    ("states.inner_product.self_s", "s/solve"),
    ("states.inner_product.pairs", "count/solve"),
    ("states.coherent_overlap.calls", "count/solve"),
    ("states.HybridState.norm_sq.self_s", "s/solve"),
    ("fileformat.parse_circuit.self_s", "s/solve"),
    ("cli.interpreter_s", "s"),
    ("cli.import.qndmzi_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("cli.import.click_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

SETUP_REPEATS = 9
WARMUP_SECONDS = 1.0
#: Fixed solve counts of a traced run; each pass takes well under 10 s.
TRACE_SOLVES = {"apparatus": 200, "sweep": 3, "deep": 4, "cli": 12}
COLD_REPEATS = 3


def child_env() -> dict[str, str]:
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=child_env())


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import qndmzi and draw the
    workload's inputs.  Unscaled: a child's start-up (exec, dynamic loading,
    unmarshalling) does not follow the speed kernel, and scaling it by the
    kernel did not narrow its spread between runs."""
    argv = [sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS + 1):  # the first may compile bytecode
        t0 = perf_counter()
        proc = run_child(argv)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return statistics.median(walls[1:])


def env_lines(args) -> list[str]:
    import numpy

    return [
        f"env.workload={args.workload}",
        f"env.seed={args.seed}",
        f"env.trace={args.trace}",
        f"env.python={platform.python_version()}",
        f"env.numpy={numpy.__version__}",
        f"env.click={version('click')}",
        f"env.nproc={os.cpu_count()}",
        f"env.pinned_cpus={sorted(os.sched_getaffinity(0))}",
    ]


def report(args, lines, metrics, units, attempted, failed, correct) -> int:
    for line in env_lines(args) + lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name}={value!r} {units[name]}")
    print(f"failed_ratio={failed / attempted!r} ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def check_solve(wl, inp, out) -> bool:
    bad = wl.check(inp, out)
    for msg in bad:
        print(f"check failed on {wl.name} input {inp!r}: {msg}", file=sys.stderr)
    return not bad


def quantile_metrics(durations: list[float], points: int) -> dict[str, float]:
    busy = sum(durations)
    return {
        "latency_p50_ms": statistics.median(durations) * 1e3,
        "latency_p90_ms": statistics.quantiles(durations, n=10)[8] * 1e3,
        "solves_per_s": len(durations) / busy,
        "points_per_s": len(durations) * points / busy,
    }


def run_untraced(args, make_workload) -> int:
    setup_s = measure_setup(args.workload, args.seed)
    wl = make_workload(args.workload, args.seed)
    index = attempted = failed = 0
    start = perf_counter()
    while perf_counter() - start < WARMUP_SECONDS or index < 3:
        inp = wl.draw(index)
        index += 1
        attempted += 1
        failed += not check_solve(wl, inp, wl.solve(inp))
    probe = speed.SpeedProbe()
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(probe.raw) < args.min_solves:
        inp = wl.draw(index)
        index += 1
        out = probe.time(wl.solve, inp)
        attempted += 1
        failed += not check_solve(wl, inp, out)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = quantile_metrics(probe.scaled(), wl.points)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    units = dict(END_TO_END)
    lines = [
        f"samples={len(probe.raw)} timed solves, {wl.points} points per solve",
        f"speed.kernel_median_s={statistics.median(probe.kernel)!r} "
        f"(reference {speed.REFERENCE_S!r})",
        *(f"raw.{name}={value!r} {units[name]}"
          for name, value in quantile_metrics(probe.raw, wl.points).items()),
    ]
    return report(args, lines, metrics, units, attempted, failed, failed == 0)


def import_times() -> dict[str, float]:
    """Cumulative -X importtime of qndmzi.cli (all of it), numpy and click, in s."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import qndmzi.cli"])
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    return {
        "cli.import.qndmzi_s": cumulative["qndmzi.cli"],
        "cli.import.numpy_s": cumulative["numpy"],
        "cli.import.click_s": cumulative["click"],
    }


def cold_start() -> dict[str, float]:
    interp = []
    for _ in range(COLD_REPEATS):
        t0 = perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interp.append(perf_counter() - t0)
    runs = [import_times() for _ in range(COLD_REPEATS)]
    out = {"cli.interpreter_s": statistics.median(interp)}
    for key in runs[0]:
        out[key] = statistics.median(r[key] for r in runs)
    return out


def run_traced(args, make_workload) -> int:
    import tracing
    import workloads

    wl = make_workload(args.workload, args.seed)
    n = TRACE_SOLVES[wl.name]
    inputs = [wl.draw(i) for i in range(n)]
    # The cli layer is traced in-process: wrappers cannot reach a child.
    solve = workloads.cli_in_process if wl.name == "cli" else wl.solve
    solve(inputs[0])  # warm-up
    t0 = perf_counter()
    plain = [solve(inp) for inp in inputs]
    untraced_s = perf_counter() - t0

    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            t0 = perf_counter()
            outs = []
            for k, inp in enumerate(inputs):
                tracer.solve = k
                outs.append(tracer.span("bench.solve", solve, inp))
            wall = perf_counter() - t0
        finally:
            restore()
        passes.append((tracer, outs, wall))

    failed = 0
    for k, (inp, out) in enumerate(zip(inputs, plain)):
        same = all(traced[k] == out for _, traced, _ in passes)
        if not same:
            print(f"tracing changed the output of {inp!r}", file=sys.stderr)
        failed += not (check_solve(wl, inp, out) and same)
    tracer, _, traced_s = passes[0]
    counts_repeat = tracer.counts == passes[1][0].counts
    if not counts_repeat:
        print("traced passes with one seed counted different work", file=sys.stderr)
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")

    self_s = tracer.self_times()
    metrics = {}
    for name, _unit in PER_LAYER:
        base, _, measure = name.rpartition(".")
        if measure == "self_s":
            metrics[name] = self_s.get(base, 0.0) / n
        elif name.startswith(("cli.", "trace.")) or measure == "useful_ratio":
            continue
        else:
            metrics[name] = tracer.counts[name] / n
    merged_in = tracer.counts["states.merge_branches.branches_in"]
    merged_out = tracer.counts["states.merge_branches.branches_out"]
    metrics["states.merge_branches.useful_ratio"] = (
        1.0 - merged_out / merged_in if merged_in else 0.0
    )
    metrics.update(cold_start())
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics = {name: metrics[name] for name, _unit in PER_LAYER}
    lines = [
        f"traced_solves={n}",
        f"counts_repeat={str(counts_repeat).lower()}",
        f"spans={len(tracer.spans)}",
    ]
    return report(args, lines, metrics, dict(PER_LAYER), n, failed,
                  failed == 0 and counts_repeat)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("apparatus", "sweep", "deep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-solves", type=int, default=100,
                        help="lower bound on timed solves (default: 100)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import qndmzi, draw the inputs and exit (times set-up)")
    args = parser.parse_args(argv)

    if not (SRC / "qndmzi" / "__init__.py").is_file():
        print(f"no qndmzi sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qndmzi

    if Path(qndmzi.__file__).resolve().parent != SRC / "qndmzi":
        print(f"imported qndmzi from {qndmzi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    def make_workload(name: str, seed: int):
        cli_command = [sys.executable, "-m", "qndmzi.cli"]
        return workloads.make_workload(name, seed, ROOT, cli_command, child_env())

    if args.setup_only:
        wl = make_workload(args.workload, args.seed)
        for i in range(3):
            wl.draw(i)
        return 0
    # One core for this process and every child it starts, so that the speed
    # kernel samples the core each timed call (a child included) ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        return run_traced(args, make_workload)
    return run_untraced(args, make_workload)


if __name__ == "__main__":
    sys.exit(main())
