"""Fast self-check of the benchmark itself; not part of the tier-1 tests.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` briefly, untraced once and traced
twice, and fails unless each run exits 0, reports ``correct`` with no failed
solve, and prints exactly the metrics and units ``BENCHMARK.json`` lists,
and unless both traced runs report the same counts.  Then checks
that the benchmark refuses to run, with a non-zero exit code and no result
line, in a directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Wall-clock figures are printed, never asserted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Per-layer metrics that count work; they must repeat exactly for one seed.
COUNTS = (".calls", ".pairs", ".branches_in", ".branches_out", ".useful_ratio")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace), "--min-solves", "3")
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: checks failed: {result}")
            elif units != expected[trace]:
                problems.append(f"{tag}: metrics {units} != BENCHMARK.json {expected[trace]}")
            else:
                print(f"ok {tag}: {result['attempted']} solves checked")
            if trace:
                counts.append({k: v for k, v in result["metrics"].items()
                               if k.endswith(COUNTS)})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: two traced runs counted different work")

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "--workload", "apparatus", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok bare directory refused with exit code {proc.returncode}")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
