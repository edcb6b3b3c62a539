"""Which package functions and lines each benchmark workload runs.

Runs seeded in-process solves of each workload of ``perfbench/workloads.py``
under ``sys.settrace``, limited to the package source, and prints, per
workload, every function that ran (as ``module.qualname``), its number of
``call`` events (a generator counts one per resume) and the lines it ran.
The inputs are drawn before tracing starts, so only the solves are traced.
``cli`` runs in process through ``workloads.cli_in_process``, as the
benchmark's traced mode does, on circuit files written to a temporary
directory.  The workload file is run from its source, so nothing under
``perfbench/`` is written.

``--tests [PYTEST ARGS]`` instead runs pytest in process under the same
kind of trace (``sys.settrace`` and ``threading.settrace``) and prints
``file:line: source`` for each line of a package function body that no
test ran.  Module and class bodies run at import, before tracing starts,
so they are not listed; tests that start the CLI in a subprocess are not
seen, so lines only they run are listed.  A run of the whole suite takes
a few minutes.  Usage::

    PYTHONPATH=src python tests/traffic.py [--solves N] [--seed S] [WORKLOAD ...]
    PYTHONPATH=src python tests/traffic.py --tests [PYTEST ARGS]
"""

from __future__ import annotations

import argparse
import dis
import inspect
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

import qndmzi
import qndmzi.cli  # noqa: F401  (imported ahead of tracing, as a solve finds it)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
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


def untested(pytest_args: list[str]) -> tuple[int, list[str]]:
    """pytest's exit code, and ``file:line: source`` for each function-body line no test ran."""
    import pytest

    ran: set[tuple[str, int]] = set()

    def on_line(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, _arg):
        return on_line if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        exit_code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = []
    for path in sorted(Path(PACKAGE).glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        missed = _body_lines(compile(source, str(path), "exec")) - {n for f, n in ran if f == str(path)}
        report += [f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}" for n in sorted(missed)]
    return int(exit_code), report


def _body_lines(code: types.CodeType) -> set[int]:
    """Lines holding an instruction of a function body in ``code``, nested ones included.

    A function's prologue, up to its first ``RESUME``, sits on the ``def``
    line, which the module body runs and which a call does not trace.
    """
    lines: set[int] = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _body_lines(const)
    if code.co_flags & inspect.CO_NEWLOCALS:
        body = next((ins.offset + 2 for ins in dis.get_instructions(code) if ins.opname == "RESUME"), 0)
        lines |= {line for _, end, line in code.co_lines() if line is not None and end > body}
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"of {', '.join(WORKLOADS)}")
    parser.add_argument("--solves", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tests", nargs=argparse.REMAINDER, metavar="PYTEST ARGS",
                        help="list the function-body lines that these tests never run")
    args = parser.parse_args(argv)
    if args.tests is not None:
        exit_code, report = untested(args.tests)
        print(f"== lines that no test ran: {len(report)}")
        print("\n".join(report))
        return exit_code
    for workload in args.workloads or WORKLOADS:
        print(f"== {workload}: {args.solves} solves, seed {args.seed}")
        for name, (calls, lines) in sorted(traffic(workload, args.solves, args.seed).items()):
            print(f"{name} calls={calls} lines={','.join(map(str, sorted(lines)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
