"""Where each benchmark workload runs: the column code on ``deep`` alone.

Three seeded in-process solves of each workload run under ``tests/traffic.py``'s
line trace.  ``deep``, a chain of splitters and Kerr marks that doubles its
branches at every layer, reaches every column step, the column merge and
both pair sums on columns, the Gram with and without its underflow skip;
``apparatus``, ``sweep`` and ``cli`` never form a column state.  A column
path that no workload reaches belongs on the per-branch code until one does.

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


def _number(module: str, text: str) -> int:
    """The number of the one package line of ``module`` that is ``text``."""
    lines = (ROOT / "src" / "qndmzi" / module).read_text().splitlines()
    [n] = [n for n, line in enumerate(lines, 1) if line.strip() == text]
    return n


def _line(module: str, text: str) -> str:
    """``file:line: source`` of the one package line of ``module`` that is ``text``."""
    return f"{Path('src') / 'qndmzi' / module}:{_number(module, text)}: {text}"


def test_deep_runs_both_branches_of_the_gram_underflow_skip(runs):
    # At seed 7 the three solves draw |alpha| = 5.9, 13.5 and 40.2.  The first alone
    # skips nothing, so each of its Gram pair sums takes the plain exp.
    first = traffic("deep", 1)["states._exp"][1]
    ran = runs["deep"]["states._exp"][1]
    assert _number("states.py", "low = E.real < _EXP_UNDERFLOW") in ran - first
    assert _number("states.py", "np.exp(E, out=E)") in ran & first


def _untested(tests: str) -> set[str]:
    """The lines that ``tests/traffic.py --tests`` lists as unrun by ``tests``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "traffic.py"), "--tests", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / tests)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    return set(run.stdout.splitlines())


def test_untested_lines_of_one_module():
    listed = _untested("test_states.py")
    # test_states.py runs no fringe scan, and normalizes a null state.
    assert _line("analysis.py", 'raise ValueError("need at least 4 scan points")') in listed
    assert _line("states.py", 'raise ValueError("cannot normalize a null state")') not in listed
    assert _line("states.py", "n = self.norm_sq()") not in listed


def test_parse_complex_tests_run_both_branches():
    # Both reads and the except run; the non-str raise is test_input_contract.py's.
    listed = _untested("test_fileformat.py::TestParseComplex")
    start = _number("fileformat.py", "def parse_complex(token: str) -> complex:")
    end = _number("fileformat.py", "def format_complex(z: complex) -> str:")
    prefix = f"{Path('src') / 'qndmzi' / 'fileformat.py'}:"
    in_parse = {line for line in listed
                if line.startswith(prefix) and start < int(line[len(prefix):].split(":")[0]) < end}
    assert in_parse == {_line("fileformat.py", 'raise ValueError(f"complex literal {token!r} is not a str")')}
