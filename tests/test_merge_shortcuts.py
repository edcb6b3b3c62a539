"""Small-state merges: the canonical return and the group scan keep the reference's bits.

``merge_branches`` hands back its input state itself when one pass finds it
canonical (distinct modes in increasing order, every |amp| >= MERGE_TOL),
and below ``_MERGE_SCAN_MAX`` branches scans the earlier groups of each
branch's mode.  A seeded property over states of 0 to 8 branches holds
every path to ``merge_reference.reference_merge_branches`` bit for bit,
raised errors included, and a probe ladder of 0 to 18 branches crosses
the bound into the sorted pass.  The draws aim at the edges: distinct modes out of order,
amplitudes one ulp around MERGE_TOL, signed zeros, amplitudes whose
modulus overflows, probe pairs one ulp around the tolerance, and probe
pairs whose difference overflows.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndmzi.states
from qndmzi import MERGE_TOL, Branch, HybridState, merge_branches
from merge_reference import reference_merge_branches
from test_merge_index import state_bits

BELOW, ABOVE = math.nextafter(MERGE_TOL, 0.0), math.nextafter(MERGE_TOL, 1.0)
HUGE = 1e308 + 1e308j  # finite parts, abs() overflows

AMPS = (
    1.0, -0.5j, 0.3 - 0.1j, complex(-0.0, 0.25), complex(0.75, -0.0), complex(-0.0, -0.0),
    MERGE_TOL, BELOW, ABOVE, complex(-0.0, -MERGE_TOL), complex(BELOW, -0.0),
    HUGE, -HUGE, complex(-1e308, 1e308),
)
# 8e307 + 8e307j and its negation differ by a finite step whose modulus overflows.
BASES = (0j, complex(-0.0, -0.0), 0.37 - 1.25j, 8e307 + 8e307j, -8e307 - 8e307j)
OFFSETS = (0.0, -0.0, BELOW, MERGE_TOL, ABOVE, -BELOW, -MERGE_TOL, -ABOVE)


@st.composite
def probe(draw):
    """A base probe moved by 0 or about MERGE_TOL along Re or Im (exact at the zero bases)."""
    base = draw(st.sampled_from(BASES))
    step = draw(st.sampled_from(OFFSETS))
    if draw(st.booleans()):
        return complex(base.real + step, base.imag)
    return complex(base.real, base.imag + step)


@st.composite
def small_states(draw):
    m_modes, k_probes = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    if draw(st.booleans()):
        # Distinct modes, sorted or not: the canonical pass and the distinct-mode path.
        modes = draw(st.permutations(range(m_modes)))[: draw(st.integers(0, m_modes))]
        if draw(st.booleans()):
            modes = sorted(modes)
    else:
        modes = draw(st.lists(st.integers(0, m_modes - 1), max_size=8))
    branches = tuple(
        Branch(mode, draw(st.sampled_from(AMPS)), tuple(draw(probe()) for _ in range(k_probes)))
        for mode in modes
    )
    return HybridState(m_modes, k_probes, branches)


def outcome(merge, state):
    try:
        return state_bits(merge(state))
    except ValueError as exc:
        return type(exc), str(exc)


def canonical(state: HybridState) -> bool:
    """Distinct modes in increasing order, every |amp| >= MERGE_TOL.

    An amplitude whose modulus overflows is not read as canonical: the
    pass cannot take its modulus, so the state takes the full path.
    """
    modes = [br.mode for br in state.branches]
    try:
        kept = all(abs(br.amp) >= MERGE_TOL for br in state.branches)
    except OverflowError:
        return False
    return kept and all(a < b for a, b in zip(modes, modes[1:]))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(small_states())
@example(HybridState(2, 1, ()))
@example(HybridState(3, 1, (Branch(2, 1.0, (0j,)), Branch(0, 1.0, (0j,)))))
@example(HybridState(1, 1, (Branch(0, 1.0, (0j,)), Branch(0, 2.0, (complex(MERGE_TOL),)))))
@example(HybridState(1, 1, (Branch(0, 1.0, (0j,)), Branch(0, 2.0, (complex(ABOVE),)))))
@example(HybridState(1, 1, (Branch(0, 1.0, (8e307 + 8e307j,)), Branch(0, 1.0, (-8e307 - 8e307j,)))))
@example(HybridState(1, 0, (Branch(0, HUGE, ()), Branch(0, HUGE, ()))))
def test_small_merge_matches_reference(state):
    assert outcome(merge_branches, state) == outcome(reference_merge_branches, state)
    if outcome(merge_branches, state)[0] is not ValueError:
        assert (merge_branches(state) is state) == canonical(state)


@pytest.mark.parametrize("n", range(qndmzi.states._MERGE_SCAN_MAX + 3))
def test_scan_and_index_group_alike(n):
    # n same-mode branches on a ladder of probes about MERGE_TOL apart, in
    # steps of one ulp below, at and above it: one sorted run from the bound
    # on, scanned by mode below it.
    steps = (MERGE_TOL, ABOVE, BELOW)
    probes, x = [], 0.0
    for i in range(n):
        probes.append(complex(x, -0.0))
        x += steps[i % 3]
    branches = tuple(Branch(0, 1.0 + i, (p,)) for i, p in enumerate(reversed(probes)))
    state = HybridState(1, 1, branches)
    assert outcome(merge_branches, state) == outcome(reference_merge_branches, state)


def test_probes_whose_difference_overflows_do_not_merge():
    # |a - b| overflows the float range.
    branches = tuple(
        Branch(0, 1.0, (p,)) for p in (1e308 + 1e308j, -7e307 - 7e307j, 1e308 + 1e308j)
    )
    for n in range(2, 12):
        state = HybridState(1, 1, (branches * 4)[:n])
        at_b = (n + 1) // 3  # the -7e307 branches sort first
        assert [br.amp for br in merge_branches(state).branches] == [at_b, n - at_b]
        assert outcome(merge_branches, state) == outcome(reference_merge_branches, state)
