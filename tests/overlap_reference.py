"""The two branch-pair loops the engine had before they shared one.

``inner_product`` and ``mean_probe_photons`` each summed over mode-matched
branch pairs with their own copy of the loop.  The engine now runs both
through ``states._pair_sum``; these copies keep the old loops, operation for
operation, as the oracle the overlap equality tests compare against with
``==``.
"""

from __future__ import annotations

from qndmzi import HybridState, coherent_overlap


def reference_inner_product(bra: HybridState, ket: HybridState) -> complex:
    total = 0j
    for u in bra.branches:
        for v in ket.branches:
            if u.mode != v.mode:
                continue
            term = u.amp.conjugate() * v.amp
            for pu, pv in zip(u.probes, v.probes):
                term *= coherent_overlap(pu, pv)
            total += term
    return total


def reference_mean_probe_photons(state: HybridState) -> tuple[float, ...]:
    norm = reference_inner_product(state, state).real
    means = []
    for k in range(state.k_probes):
        acc = 0j
        for u in state.branches:
            for v in state.branches:
                if u.mode != v.mode:
                    continue
                term = u.amp.conjugate() * v.amp * u.probes[k].conjugate() * v.probes[k]
                for pu, pv in zip(u.probes, v.probes):
                    term *= coherent_overlap(pu, pv)
                acc += term
        means.append(acc.real / norm)
    return tuple(means)
