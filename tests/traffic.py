"""Which package functions and lines each benchmark workload runs.

Runs seeded in-process solves of each workload of ``perfbench/workloads.py``
under ``sys.settrace``, limited to the package source, and prints, per
workload, every function that ran (as ``module.qualname``), its number of
``call`` events (a generator counts one per resume) and the lines it ran.
The inputs are drawn before tracing starts, so only the solves are traced.
``cli`` runs in process through ``workloads.cli_in_process``, as the
benchmark's traced mode does, on circuit files written to a temporary
directory.  The workload file is run from its source, so nothing under
``perfbench/`` is written.  Usage::

    PYTHONPATH=src python tests/traffic.py [--solves N] [--seed S] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import types
from pathlib import Path

import qndmzi
import qndmzi.cli  # noqa: F401  (imported ahead of tracing, as a solve finds it)

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
WORKLOADS = ("apparatus", "sweep", "deep", "cli")
PACKAGE = str(Path(qndmzi.__file__).resolve().parent) + os.sep


def load_workloads() -> types.ModuleType:
    """``perfbench/workloads.py`` run from its source as a module, writing no bytecode."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    sys.modules[module.__name__] = module  # dataclasses look their module up here
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), vars(module))
    return module


def traffic(workload: str, solves: int, seed: int = 7) -> dict[str, tuple[int, set[int]]]:
    """``module.qualname`` -> (call events, line numbers run) over ``solves`` solves of ``workload``."""
    workloads = load_workloads()
    seen: dict[str, list] = {}

    def on_line(frame, event, _arg):
        if event == "line":
            seen[_name(frame.f_code)][1].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, _arg):
        if event != "call" or not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        seen.setdefault(_name(frame.f_code), [0, set()])[0] += 1
        return on_line

    with tempfile.TemporaryDirectory() as root:
        wl = workloads.make_workload(workload, seed, Path(root), [], {})
        inputs = [wl.draw(i) for i in range(solves)]
        solve = workloads.cli_in_process if workload == "cli" else wl.solve
        cwd = os.getcwd()
        os.chdir(root)  # the cli inputs name their circuit files relative to it
        sys.settrace(on_call)
        try:
            for inp in inputs:
                solve(inp)
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    return {name: (calls, lines) for name, (calls, lines) in seen.items()}


def _name(code: types.CodeType) -> str:
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"of {', '.join(WORKLOADS)}")
    parser.add_argument("--solves", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for workload in args.workloads or WORKLOADS:
        print(f"== {workload}: {args.solves} solves, seed {args.seed}")
        for name, (calls, lines) in sorted(traffic(workload, args.solves, args.seed).items()):
            print(f"{name} calls={calls} lines={','.join(map(str, sorted(lines)))}")


if __name__ == "__main__":
    main()
