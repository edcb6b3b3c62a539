"""Where each benchmark workload runs: the column code on ``deep`` alone.

Three seeded in-process solves of each workload run under ``tests/traffic.py``'s
line trace.  ``deep``, a chain of splitters and Kerr marks that doubles its
branches at every layer, reaches every column step, the column merge and
both pair sums on columns; ``apparatus``, ``sweep`` and ``cli`` never form a
column state.  A column path that no workload reaches belongs on the
per-branch code until one does.
"""

import pytest

from traffic import traffic


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
