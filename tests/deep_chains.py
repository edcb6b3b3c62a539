"""Seeded deep Kerr-marked chains and the lines of ``golden/deep_chain.txt``.

Each chain stacks, per layer, a system splitter on modes 0 and 1, a Kerr
mark on mode 0 and a snapshot, as the benchmark's ``deep`` workload does,
so its branch count doubles at every layer unless marks coincide.  Its
golden line is the ``repr`` of (branches at ``final``, the final norm, and
<bwd|fwd> at every stage).  To record the file again::

    PYTHONPATH=src python tests/deep_chains.py > tests/golden/deep_chain.txt
"""

from __future__ import annotations

import math
import random

from qndmzi import (
    FINAL_STAGE,
    SYS,
    BeamSplitter,
    Circuit,
    KerrCoupling,
    Snapshot,
    inner_product,
    run_both,
)


def deep_chain(eps, alpha: complex, k_probes: int = 1, reflectivity: float = math.sqrt(0.5)):
    """One layer per eps: splitter on modes 0 and 1, Kerr mark on mode 0, snapshot.

    Layer j marks probe ``j % k_probes``; probe 1 (if any) starts at 0.6i alpha.
    """
    elements = []
    for layer, e in enumerate(eps):
        elements += [
            BeamSplitter(SYS, 0, 1, reflectivity),
            KerrCoupling(frozenset({0}), layer % k_probes, e),
            Snapshot(f"d{layer + 1}"),
        ]
    probes = (complex(alpha), 0.6j * alpha)[:k_probes]
    return Circuit(2, k_probes, tuple(elements), 0, probes)


def golden_chains() -> list[Circuit]:
    """19 seeded chains of depth 5 to 8 with K = 1 or 2, then two chains that merge.

    The first merging chain repeats one eps, so its branches merge down to
    16; in the second, some subset sums of the eps coincide
    (0.31 + 0.58 = 0.77 + 0.12), so part of its 256 paths merge.
    """
    chains = []
    for i in range(19):
        rng = random.Random(f"deep chain {i}")
        depth = 5 + i % 4
        k = 1 + (i // 4) % 2
        alpha = math.exp(rng.uniform(math.log(1e-3), math.log(1e3))) * complex(
            math.cos(rng.uniform(0, 2 * math.pi)), math.sin(rng.uniform(0, 2 * math.pi))
        )
        r = math.sqrt(0.5) if i % 3 else rng.uniform(0.2, 0.8)
        chains.append(deep_chain([rng.uniform(0.05, 1.0) for _ in range(depth)], alpha, k, r))
    chains.append(deep_chain([0.5] * 8, 2.0))
    chains.append(deep_chain([0.31, 0.77, 0.12, 0.95, 0.58, 0.43, 0.66, 0.21], 2.0))
    return chains


def chain_line(circuit: Circuit) -> str:
    trace = run_both(circuit)
    final = trace.forward[FINAL_STAGE]
    amps = [inner_product(trace.backward[s], trace.forward[s]) for s in circuit.stages]
    return repr((len(final.branches), final.norm_sq(), amps))


if __name__ == "__main__":
    for chain in golden_chains():
        print(chain_line(chain))
