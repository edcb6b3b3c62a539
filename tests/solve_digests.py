"""SHA-256 digests of seeded benchmark solves: the bit-identity check of a change.

Runs seeded in-process solves of each workload of ``perfbench/workloads.py``
at seed 4242 (300 ``apparatus``, 30 ``sweep``, 100 ``deep`` and 30
``cli``) and prints, per workload, the SHA-256 over the ``repr`` of each
solve's result, in order.  ``cli`` runs through ``workloads.cli_in_process``
on circuit files written to a temporary directory.  The workload file is
run from its source, as ``tests/traffic.py`` runs it, so nothing under
``perfbench/`` is written.  Two trees whose digests are equal give every
benchmark output the same bits.  Usage::

    PYTHONPATH=<tree>/src python tests/solve_digests.py [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import tempfile
from pathlib import Path

from traffic import WORKLOADS, load_workloads

SEED = 4242
SOLVES = {"apparatus": 300, "sweep": 30, "deep": 100, "cli": 30}


def digest(workload: str) -> str:
    """The SHA-256 hex digest over the reprs of ``workload``'s seeded solves, in order."""
    workloads = load_workloads()
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as root:
        wl = workloads.make_workload(workload, SEED, Path(root), [], {})
        inputs = [wl.draw(i) for i in range(SOLVES[workload])]
        solve = workloads.cli_in_process if workload == "cli" else wl.solve
        cwd = os.getcwd()
        os.chdir(root)  # the cli inputs name their circuit files relative to it
        try:
            for inp in inputs:
                sha.update(repr(solve(inp)).encode())
        finally:
            os.chdir(cwd)
    return sha.hexdigest()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"of {', '.join(WORKLOADS)}")
    args = parser.parse_args(argv)
    for workload in args.workloads or WORKLOADS:
        print(f"{workload} {digest(workload)}")


if __name__ == "__main__":
    main()
