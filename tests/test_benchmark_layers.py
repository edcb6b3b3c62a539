"""Every per-layer metric the benchmark declares names a live package attribute.

The benchmark's tracer reads a layer it cannot find as zero, so a traced
function that is renamed or deleted would silently zero its metric.  Each
``per_layer`` name of ``BENCHMARK.json`` in a package module is
``<module>.<attribute path>.<measure>``; the attribute path must resolve to
a public attribute defined in ``qndmzi.<module>`` (``init`` stands for
``__init__``), since the tracer names a function after the module that
defines it.  The tracer also wraps the methods its ``METHODS`` table names
through ``vars(cls)[attr]``, so each must still be defined in its class,
and every package metric must name a span that the tracer's ``_targets``
wraps, or ``--trace 1`` would fail on it or read it as zero.
The benchmark's runner reads numpy's import time from ``python -X
importtime -c "import qndmzi.cli"`` and fails where numpy is not imported,
so the CLI must import numpy while the runner reads it.  These files are
only read.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qndmzi

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
TRACING = ROOT / "perfbench" / "tracing.py"
RUN = ROOT / "perfbench" / "run.py"
MODULES = ("states", "elements", "circuit", "analysis", "fileformat")


def layer_names():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return [n for n in names if n.split(".")[0] in MODULES]


def test_package_layers_are_declared():
    assert layer_names()


@pytest.mark.parametrize("name", layer_names())
def test_layer_resolves(name):
    module, *path, _measure = name.split(".")
    owner = importlib.import_module(f"qndmzi.{module}")
    defined_in = owner.__name__
    for attr in path:
        attr = "__init__" if attr == "init" else attr
        assert attr == "__init__" or not attr.startswith("_"), name
        assert attr in vars(owner), name
        owner = vars(owner)[attr]
    assert callable(owner) and owner.__module__ == defined_in, name


def traced_methods():
    """The ``METHODS`` table of the tracer, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["METHODS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no METHODS table in {TRACING}")


@pytest.mark.parametrize("module,cls,attr,name", traced_methods())
def test_traced_method_exists(module, cls, attr, name):
    owner = vars(importlib.import_module(f"qndmzi.{module}"))[cls]
    assert callable(vars(owner).get(attr)), name


def reads_numpy_import_time() -> bool:
    """Whether the runner's ``import_times`` indexes ``cumulative["numpy"]``, read without importing it."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == "import_times":
            return any(
                isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                and sub.value.id == "cumulative" and isinstance(sub.slice, ast.Constant)
                and sub.slice.value == "numpy"
                for sub in ast.walk(node)
            )
    raise AssertionError(f"no import_times in {RUN}")


def test_cli_imports_numpy_while_the_runner_times_it():
    if not reads_numpy_import_time():
        pytest.skip("the runner no longer reads numpy's import time")
    src = str(Path(qndmzi.__file__).resolve().parent.parent)
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    proc = subprocess.run(
        [sys.executable, "-c", "import qndmzi.cli, sys; assert 'numpy' in sys.modules"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def traced_spans() -> set[str]:
    """The span names of the tracer's ``_targets()``, run from its source, writing no bytecode."""
    tracing = types.ModuleType("perfbench_tracing")
    tracing.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(tracing))
    return {name for name, *_ in tracing._targets()}


def test_every_package_metric_names_a_traced_span():
    spans = traced_spans()
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    untraced = [n for n in names
                if not n.startswith(("cli.", "trace.")) and n.rsplit(".", 1)[0] not in spans]
    assert untraced == []
