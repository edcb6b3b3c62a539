"""numpy stays off the library's import and its per-branch solves.

The paper's apparatus never holds more than 3 branches and never calls
numpy, so ``import qndmzi`` must not import it (about 60 ms and 12 MB of
every fresh process).  Only the column form and the Gram pair sum of
:mod:`qndmzi.states` use numpy, and they import it on first use; the CLI
imports it at module level (see ``tests/test_benchmark_layers.py``).  Each
check runs in a fresh interpreter with ``PYTHONPATH`` set to this tree's
``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qndmzi

SRC = Path(qndmzi.__file__).resolve().parent.parent

#: Imports the package under test and checks that it came from ``SRC``.
PRELUDE = f"""
import math, sys
import qndmzi as q
from pathlib import Path
assert Path(q.__file__).resolve().parent.parent == Path({str(SRC)!r})
"""

APPARATUS = """
circuit = q.build_nested_mzi(0.6, 2 + 1j, 0.3)
trace = q.run_both(circuit)
q.postselect(trace, 0)
q.postselect(trace, 2, compute_fidelity=False)
q.postselect(trace, 1, at="L3", compute_fidelity=False)
"""

SWEEP = """
circuit = q.build_nested_mzi(0.35, 40 - 7j, 0.8)
q.fringe_scan(circuit, 2, [2 * math.pi * i / 64 for i in range(64)])
q.leakage_sweep(circuit, [1e-4 * 100 ** (i / 20) for i in range(21)])
q.run_forward(q.build_nested_mzi(0.5, 40 - 7j, 1.0)).forward["L3"].project_mode(1).norm_sq()
"""

TSVF = """
q.tsvf_report(q.build_nested_mzi(0.6, 2, 0.3))
"""

FILEFORMAT = """
for circuit in (q.build_nested_mzi(0.6, 2 + 1j, 0.3), q.build_nested_mzi(0.2, -1e3j, 3.0)):
    assert q.parse_circuit(q.serialize_circuit(circuit)) == circuit
for z in (2 + 1j, -0.0 - 1e-300j, complex(math.inf, -2.5)):
    assert q.parse_complex(q.format_complex(z)) == z
"""

#: The ``deep`` workload's chain: 7 balanced splitters, each followed by a
#: Kerr mark on probe 0 with a seeded generic angle, ending in 128 branches
#: that never merge.
DEEP = """
import random
rng = random.Random(7)
elements = []
for layer in range(7):
    eps = rng.uniform(0.05, 1.0)
    elements += [q.BeamSplitter(q.SYS, 0, 1, math.sqrt(0.5)),
                 q.KerrCoupling({0}, 0, eps), q.Snapshot(f"d{layer + 1}")]
circuit = q.Circuit(2, 1, elements, 0, (3 - 4j,))
trace = q.run_both(circuit)
final = trace.forward[q.FINAL_STAGE]
assert len(final.branches) == 128
print(repr((final, final.norm_sq(),
            [q.inner_product(trace.backward[s], trace.forward[s]) for s in circuit.stages])))
"""

NUMPY_LOADED = "print('numpy' in sys.modules)\n"


def run_fresh(code: str) -> list[str]:
    """The lines that ``code`` prints in a fresh interpreter importing this tree's qndmzi."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_leaves_numpy_out():
    assert run_fresh(PRELUDE + NUMPY_LOADED) == ["False"]


@pytest.mark.parametrize("solve", [APPARATUS, SWEEP, TSVF, FILEFORMAT],
                         ids=["apparatus", "sweep", "tsvf", "fileformat"])
def test_per_branch_solves_leave_numpy_out(solve):
    assert run_fresh(PRELUDE + solve + NUMPY_LOADED) == ["False"]


def test_deep_solve_loads_numpy_with_the_same_bits():
    lazy = run_fresh(PRELUDE + DEEP + NUMPY_LOADED)
    eager = run_fresh("import numpy\n" + PRELUDE + DEEP + NUMPY_LOADED)
    assert lazy[-1] == "True"
    assert lazy == eager
