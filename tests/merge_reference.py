"""The plain greedy O(n^2) merge loop, as an oracle.

``states.merge_branches`` compares a branch only with the earlier groups of
its mode, or, from ``_COLUMN_MIN`` branches on, of its run of sorted
neighbours within ``MERGE_TOL`` along Re(probes[0]).  This copy keeps the
plain loop, operation for operation (scan every earlier group, first match
wins), as the oracle the merge equality tests compare against bit for bit.
Where a modulus overflows the float range, it reads the way
``merge_branches`` documents: a probe difference lies outside the
tolerance, and an amplitude is kept.
"""

from __future__ import annotations

from qndmzi import MERGE_TOL, Branch, HybridState


def _within(a: complex, b: complex) -> bool:
    try:
        return abs(a - b) <= MERGE_TOL
    except OverflowError:
        return False


def _kept(amp: complex) -> bool:
    try:
        return abs(amp) >= MERGE_TOL
    except OverflowError:
        return True


def reference_merge_branches(state: HybridState) -> HybridState:
    groups: list[Branch] = []
    for br in state.branches:
        for i, g in enumerate(groups):
            if g.mode == br.mode and all(_within(a, b) for a, b in zip(g.probes, br.probes)):
                groups[i] = Branch(g.mode, g.amp + br.amp, g.probes)
                break
        else:
            groups.append(br)
    kept = [g for g in groups if _kept(g.amp)]
    kept.sort(key=lambda b: (b.mode, tuple((p.real, p.imag) for p in b.probes)))
    return HybridState(state.m_modes, state.k_probes, tuple(kept))
