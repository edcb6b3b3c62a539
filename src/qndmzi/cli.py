"""Command-line front end.

Two input sources, one shared command set::

    qndmzi nested-mzi --r 0.6 --alpha 2 --eps-tau 0.3 postselect --mode 0
    qndmzi circuit my_setup.txt run
    qndmzi nested-mzi --r 0.6 --alpha 2 --eps-tau 0.3 fringes --mode 2 --points 64

Commands: ``run`` (print every stage's branches), ``postselect``
(probability, conditional probe state, fidelity), ``fringes`` and
``leakage`` (CSV output), ``tsvf`` (per-stage overlap verdict table).
``QNDMZI_OUT_DIR`` sets the default directory for CSV files.
"""

from __future__ import annotations

import cmath
import math
import sys
from pathlib import Path

import click
# Unused here, but kept: perfbench/run.py::import_times reads numpy's import
# time under the CLI and raises KeyError if the CLI stops importing numpy, as
# tests/test_benchmark_layers.py::test_cli_imports_numpy_while_the_runner_times_it
# pins.
import numpy as np  # noqa: F401

from .analysis import (
    OVERLAP_THRESHOLD,
    fringe_csv,
    fringe_scan,
    leakage_csv,
    leakage_sweep,
    postselect,
    tsvf_report,
)
from .circuit import build_nested_mzi, run_both, run_forward
from .fileformat import CircuitFormatError, format_complex, parse_circuit, parse_complex
from .states import HybridState


class ComplexParam(click.ParamType):
    name = "complex"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        try:
            return parse_complex(str(value))
        except ValueError:
            self.fail(f"{value!r} is not a complex literal (a+bi)", param, ctx)


COMPLEX = ComplexParam()


def _fmt_amp(z: complex) -> str:
    mag = abs(z)
    deg = math.degrees(cmath.phase(z)) if mag > 0 else 0.0
    return f"{format_complex(z)}  (|.|={mag:.12g}, arg={deg:.6g} deg)"


def _print_state(label: str, state: HybridState, direction: str) -> None:
    click.echo(f"{direction} {label}:")
    for br in state.branches:
        probes = "  ".join(
            f"p{k}={format_complex(p)}" for k, p in enumerate(br.probes)
        )
        click.echo(f"  mode {br.mode}  amp {_fmt_amp(br.amp)}")
        click.echo(f"         probes {probes}")


def _record_state(prefix: str, state: HybridState) -> list[str]:
    lines = []
    seen: dict[int, int] = {}
    for br in state.branches:
        # several branches can share a mode (distinct probe content); the
        # first keeps the plain key, later ones get a counter suffix
        n = seen.get(br.mode, 0)
        seen[br.mode] = n + 1
        key = f"{prefix}.m{br.mode}" if n == 0 else f"{prefix}.m{br.mode}.{n}"
        lines.append(f"{key}.amp={format_complex(br.amp)}")
        for k, p in enumerate(br.probes):
            lines.append(f"{key}.probe{k}={format_complex(p)}")
    return lines


def _write_csv(ctx: click.Context, out: str | None, default_name: str, text: str) -> None:
    """Write CSV ``text`` to ``out`` ('-': stdout; default: the output directory)."""
    if out == "-":
        click.echo(text, nl=False)
        return
    path = Path(out) if out is not None else Path(ctx.obj["out_dir"]) / default_name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}") from None
    click.echo(f"wrote {path}")


class _ErrorBoundary(click.Group):
    """Root group: any command's ValueError or IndexError exits 1 with ``Error:``."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, IndexError) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_ErrorBoundary)
@click.option(
    "--out-dir",
    envvar="QNDMZI_OUT_DIR",
    default=".",
    show_default=True,
    help="Default directory for CSV output (env: QNDMZI_OUT_DIR).",
)
@click.pass_context
def main(ctx: click.Context, out_dir: str) -> None:
    """Single-photon nested interferometer simulator with coherent probes."""
    ctx.ensure_object(dict)
    ctx.obj["out_dir"] = out_dir


@main.group("nested-mzi", chain=False)
@click.option("--r", type=float, required=True, help="Outer beam-splitter reflectivity.")
@click.option("--alpha", type=COMPLEX, default="2", show_default=True, help="Probe arm amplitude.")
@click.option("--eps-tau", type=float, default=0.0, show_default=True, help="Kerr cross-phase (radians).")
@click.pass_context
def nested_mzi(ctx, r: float, alpha: complex, eps_tau: float) -> None:
    """Built-in nested interferometer with the Kerr-coupled probe."""
    ctx.obj["circuit"] = build_nested_mzi(r, alpha, eps_tau)


@main.group("circuit")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def circuit_group(ctx, path: str) -> None:
    """Load a circuit from a text description file."""
    try:
        ctx.obj["circuit"] = parse_circuit(Path(path).read_text())
    except CircuitFormatError as exc:
        raise click.ClickException(f"{path}: {exc}")


@click.command("run")
@click.option("--backward/--no-backward", default=False, help="Also print the back-evolved bra.")
@click.option("--format", "fmt", type=click.Choice(["human", "record"]), default="human")
@click.pass_context
def run_cmd(ctx, backward: bool, fmt: str) -> None:
    """Evolve the photon and print every stage's branches."""
    circuit = ctx.obj["circuit"]
    trace = run_both(circuit) if backward else run_forward(circuit)
    if fmt == "record":
        lines = []
        for label in circuit.stages:
            lines += _record_state(f"forward.{label}", trace.forward[label])
        if backward:
            for label in circuit.stages:
                lines += _record_state(f"backward.{label}", trace.backward[label])
        click.echo("\n".join(lines))
        return
    for label in circuit.stages:
        _print_state(label, trace.forward[label], "forward")
    if backward:
        for label in reversed(circuit.stages):
            _print_state(label, trace.backward[label], "backward")


@click.command("postselect")
@click.option("--mode", type=int, required=True, help="Detector's system mode.")
@click.option("--at", "stage", default=None, help="Stage label (default: the circuit's detection stage).")
@click.option("--format", "fmt", type=click.Choice(["human", "record"]), default="human")
@click.pass_context
def postselect_cmd(ctx, mode: int, stage: str | None, fmt: str) -> None:
    """Project onto photon-in-mode; print probability and conditional probe."""
    result = postselect(run_forward(ctx.obj["circuit"]), mode, at=stage)
    if fmt == "record":
        lines = [
            f"postselect.mode={result.mode}",
            f"postselect.stage={result.stage}",
            f"postselect.probability={result.probability:.12g}",
        ]
        if result.fidelity_vs_reference is not None:
            lines.append(f"postselect.fidelity={result.fidelity_vs_reference:.12f}")
        if result.probe_mean_photons is not None:
            for k, n in enumerate(result.probe_mean_photons):
                lines.append(f"postselect.mean_photons.dp{k + 1}={n:.12g}")
        if result.conditional is not None:
            lines += _record_state("postselect.conditional", result.conditional)
        click.echo("\n".join(lines))
        return
    click.echo(f"stage {result.stage}, mode {result.mode}")
    click.echo(f"probability {result.probability:.12g}")
    if result.conditional is None:
        click.echo("conditional state undefined (empty projection)")
        return
    if result.fidelity_vs_reference is not None:
        click.echo(f"fidelity vs no-interaction reference {result.fidelity_vs_reference:.12f}")
    for k, n in enumerate(result.probe_mean_photons):
        click.echo(f"mean photons at Dp{k + 1}: {n:.12g}")
    _print_state("conditional", result.conditional, "probe state,")


@click.command("fringes")
@click.option("--mode", type=int, required=True, help="System mode to condition on.")
@click.option("--points", type=int, default=64, show_default=True, help="Scan points over [0, 2pi).")
@click.option("--out", default=None, help="CSV path ('-' for stdout).")
@click.pass_context
def fringes_cmd(ctx, mode: int, points: int, out: str | None) -> None:
    """Scan a probe phase and record both detector intensities as CSV."""
    phis = [2.0 * math.pi * i / points for i in range(points)]
    scan = fringe_scan(ctx.obj["circuit"], mode, phis)
    _write_csv(ctx, out, "fringes.csv", fringe_csv(scan))
    click.echo(f"extracted shift {scan.extracted_shift:.12g}")
    click.echo(f"visibility {scan.visibility:.12g}")


def _compact_complex(z: complex) -> str:
    return f"{z.real:.6g}{'+' if z.imag >= 0 else '-'}{abs(z.imag):.6g}i"


@click.command("tsvf")
@click.option("--threshold", type=float, default=OVERLAP_THRESHOLD, show_default=True,
              help="Weak-value magnitude counting as overlap.")
@click.option("--format", "fmt", type=click.Choice(["human", "record"]), default="human")
@click.pass_context
def tsvf_cmd(ctx, threshold: float, fmt: str) -> None:
    """Print the forward/backward overlap verdict per stage and mode."""
    report = tsvf_report(ctx.obj["circuit"], threshold=threshold)
    if fmt == "record":
        lines = []
        for stage in report.stages:
            prefix = f"tsvf.{stage.stage}"
            lines.append(f"{prefix}.possible={str(stage.postselection_possible).lower()}")
            for m, rep in enumerate(stage.modes):
                if rep.weak_value is not None:
                    lines.append(f"{prefix}.m{m}.weak_value={format_complex(rep.weak_value)}")
                verdict = "OVERLAP" if rep.overlap_nonzero else "NO-OVERLAP"
                lines.append(f"{prefix}.m{m}.verdict={verdict}")
        click.echo("\n".join(lines))
        return
    header = f"{'stage':8s} {'mode':4s} {'forward':>20s} {'backward':>20s} {'weak value':>22s}  verdict"
    click.echo(header)
    for stage in report.stages:
        if not stage.postselection_possible:
            click.echo(f"{stage.stage:8s} post-selection impossible (null transition amplitude)")
            continue
        for m, rep in enumerate(stage.modes):
            verdict = "OVERLAP" if rep.overlap_nonzero else "NO-OVERLAP"
            click.echo(
                f"{stage.stage:8s} {m:<4d} {_compact_complex(rep.forward_amp):>20s} "
                f"{_compact_complex(rep.backward_amp):>20s} "
                f"{_compact_complex(rep.weak_value):>22s}  {verdict}"
            )


@click.command("leakage")
@click.option("--delta-min", type=float, default=1e-4, show_default=True)
@click.option("--delta-max", type=float, default=1e-2, show_default=True)
@click.option("--points", type=int, default=21, show_default=True)
@click.option("--out", default=None, help="CSV path ('-' for stdout).")
@click.pass_context
def leakage_cmd(ctx, delta_min: float, delta_max: float, points: int, out: str | None) -> None:
    """Sweep an inner-arm phase perturbation; record dark-port leakage as CSV."""
    finite = math.isfinite(delta_min) and math.isfinite(delta_max)
    if points < 2 or not finite or delta_min <= 0 or delta_max <= delta_min:
        raise click.ClickException("need points >= 2 and finite 0 < delta-min < delta-max")
    ratio = delta_max / delta_min
    if not math.isfinite(ratio):
        raise click.ClickException(f"delta-max / delta-min overflows: {delta_max!r} / {delta_min!r}")
    deltas = [delta_min * ratio ** (i / (points - 1)) for i in range(points)]
    rows = leakage_sweep(ctx.obj["circuit"], deltas)
    _write_csv(ctx, out, "leakage.csv", leakage_csv(rows))


for _cmd in (run_cmd, postselect_cmd, fringes_cmd, tsvf_cmd, leakage_cmd):
    nested_mzi.add_command(_cmd)
    circuit_group.add_command(_cmd)


if __name__ == "__main__":
    sys.exit(main())
