"""Where each benchmark workload runs: the column code on ``deep`` alone.

Three seeded in-process solves of each workload run under ``tests/traffic.py``'s
line trace.  ``deep``, a chain of splitters and Kerr marks that doubles its
branches at every layer, reaches every column step, the column merge and
both pair sums on columns; ``apparatus``, ``sweep`` and ``cli`` never form a
column state.  A column path that no workload reaches belongs on the
per-branch code until one does.

``tests/traffic.py --tests`` lists the package lines a set of tests never
runs; one small test module checks its report.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from traffic import ROOT, traffic


@pytest.fixture(scope="module")
def runs():
    return {workload: traffic(workload, 3) for workload in ("apparatus", "sweep", "deep", "cli")}


@pytest.mark.parametrize("name", ["_split_columns", "_scale_columns", "_column_merge",
                                  "_column_pair_sum", "_gram_pair_sum"])
def test_deep_reaches_the_column_code(runs, name):
    assert f"states.{name}" in runs["deep"]


@pytest.mark.parametrize("workload", ["apparatus", "sweep", "cli"])
def test_other_workloads_form_no_column_state(runs, workload):
    assert "states._column_state" not in runs[workload]
    assert "states.merge_branches" in runs[workload]


def _line(module: str, text: str) -> str:
    """``file:line: source`` of the one package line of ``module`` that is ``text``."""
    path = Path("src") / "qndmzi" / module
    [n] = [n for n, line in enumerate((ROOT / path).read_text().splitlines(), 1) if line.strip() == text]
    return f"{path}:{n}: {text}"


def test_untested_lines_of_one_module():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "traffic.py"), "--tests", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_states.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    listed = set(run.stdout.splitlines())
    # test_states.py runs no fringe scan, and normalizes a null state.
    assert _line("analysis.py", 'raise ValueError("need at least 4 scan points")') in listed
    assert _line("states.py", 'raise ValueError("cannot normalize a null state")') not in listed
    assert _line("states.py", "n = self.norm_sq()") not in listed
