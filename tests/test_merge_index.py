"""The cell-indexed merge gives exactly the greedy merge's result.

``merge_branches`` looks up candidate groups by mode and by the cell of
Re(probes[0]) instead of scanning every earlier group.  On every input here
its result must equal ``merge_reference.reference_merge_branches`` bit for
bit: same branches, same order, same float bits (signed zeros included).
The inputs aim at the index's edges: offsets of 0.5, 0.99, 1.0 and 1.01
times ``MERGE_TOL``, cell boundaries, negative and signed-zero reals, many
groups in one cell, several modes, and probes from subnormal to 1.7e308.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndmzi.elements
import qndmzi.states
from qndmzi import (
    MERGE_TOL,
    SYS,
    BeamSplitter,
    Branch,
    Circuit,
    HybridState,
    KerrCoupling,
    Snapshot,
    build_nested_mzi,
    inner_product,
    merge_branches,
    run_backward,
    run_forward,
)
from helpers import random_circuit, random_complex
from merge_reference import reference_merge_branches
from overlap_reference import reference_inner_product

CELL = 4 * MERGE_TOL
FRACTIONS = (0.0, 0.5, 0.99, 1.0, 1.01)
ANCHORS = (
    0.0,
    -0.0,
    CELL,
    -CELL,
    3 * CELL,
    -7 * CELL,
    0.5 * CELL,
    -2.5 * CELL,
    0.37,
    -1.25,
    4500.0,
    1e3,
)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def state_bits(state: HybridState):
    return (
        state.m_modes,
        state.k_probes,
        [(b.mode, _bits(b.amp), [_bits(p) for p in b.probes]) for b in state.branches],
    )


def assert_same_merge(state: HybridState) -> None:
    assert state_bits(merge_branches(state)) == state_bits(reference_merge_branches(state))


def near(rng: random.Random, x: float) -> float:
    """``x`` moved by a tolerance fraction or a few ulps, either way."""
    if rng.random() < 0.2:
        for _ in range(rng.randint(1, 3)):
            x = math.nextafter(x, rng.choice((math.inf, -math.inf)))
        return x
    return x + rng.choice((1.0, -1.0)) * rng.choice(FRACTIONS) * MERGE_TOL


def adversarial_state(rng: random.Random, m_modes: int, k_probes: int, n: int) -> HybridState:
    anchors = [complex(rng.choice(ANCHORS), rng.choice(ANCHORS)) for _ in range(4)]
    branches = []
    for _ in range(n):
        a = rng.choice(anchors)
        probes = [complex(near(rng, a.real), near(rng, a.imag))]
        probes += [
            complex(near(rng, 0.25), rng.choice((0.0, -0.0))) for _ in range(k_probes - 1)
        ]
        # Amplitudes: generic, below the drop tolerance, or cancelling the
        # previous branch (a group that merges to zero is dropped).
        cancel = -branches[-1].amp if branches else 1.0
        amp = rng.choice((random_complex(rng), 0.5 * MERGE_TOL, cancel))
        branches.append(Branch(rng.randrange(m_modes), amp, tuple(probes[:k_probes])))
    return HybridState(m_modes, k_probes, tuple(branches))


class TestAdversarialStates:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_clusters(self, seed):
        rng = random.Random(4100 + seed)
        for _ in range(40):
            k = rng.choice((0, 1, 2))
            assert_same_merge(adversarial_state(rng, rng.randint(1, 3), k, rng.randint(1, 60)))

    @pytest.mark.parametrize("edge", [-3, -1, 0, 1, 2])
    def test_tolerance_fractions_across_a_cell_edge(self, edge):
        x0 = edge * CELL
        xs = [x0 + s * f * MERGE_TOL for f in FRACTIONS for s in (1.0, -1.0)]
        for order in (xs, xs[::-1], sorted(xs), sorted(xs, reverse=True)):
            branches = tuple(Branch(0, 1.0 + i, (complex(x, 0.0),)) for i, x in enumerate(order))
            assert_same_merge(HybridState(1, 1, branches))

    def test_signed_zeros(self):
        zeros = (0.0, -0.0, 0.5 * MERGE_TOL, -0.5 * MERGE_TOL, 5e-324, -5e-324)
        branches = tuple(
            Branch(i % 2, 0.1 * (i + 1), (complex(re, im),))
            for i, (re, im) in enumerate((a, b) for a in zeros for b in zeros)
        )
        assert_same_merge(HybridState(2, 1, branches))

    def test_many_groups_in_one_cell(self):
        # Same Re(probes[0]), so one cell, but Im apart by more than the
        # tolerance: every candidate is scanned and most fail.
        rng = random.Random(7)
        x = 0.5 * CELL
        branches = [
            Branch(m, 1.0, (complex(x, 3 * MERGE_TOL * j),)) for j in range(40) for m in (0, 1)
        ]
        rng.shuffle(branches)
        branches += [
            Branch(0, 2.0, (complex(x, 3 * MERGE_TOL * j + 0.9 * MERGE_TOL),)) for j in range(40)
        ]
        assert_same_merge(HybridState(2, 1, tuple(branches)))

    def test_earliest_group_wins(self):
        # The third branch lies within tolerance of both earlier groups, one
        # on each side of a cell edge; the greedy rule puts it in the first.
        a, b, c = CELL - 0.6 * MERGE_TOL, CELL + 0.6 * MERGE_TOL, CELL + 0.1 * MERGE_TOL
        for first, second in ((a, b), (b, a)):
            branches = ((1, first), (2, second), (4, c))
            state = HybridState(1, 1, tuple(Branch(0, amp, (complex(x),)) for amp, x in branches))
            merged = merge_branches(state)
            assert {br.probes[0].real: br.amp for br in merged.branches} == {first: 5, second: 2}
            assert_same_merge(state)


class TestDistinctModeShortcut:
    """States of at most M branches in distinct modes skip the index.

    They cannot merge, so they are only filtered and sorted by mode.  The
    index path sorts by ``_canonical_key``; counting its calls tells which
    path a state took.
    """

    AMPS = (0.99 * MERGE_TOL, MERGE_TOL, 1.01 * MERGE_TOL, 1.0, -0.5j, -0.99 * MERGE_TOL)

    @staticmethod
    def canonical_keys(monkeypatch):
        calls = []
        key = qndmzi.states._canonical_key

        def counted(br):
            calls.append(br)
            return key(br)

        monkeypatch.setattr(qndmzi.states, "_canonical_key", counted)
        return calls

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_reference(self, monkeypatch, seed):
        keys = self.canonical_keys(monkeypatch)
        rng = random.Random(6100 + seed)
        for _ in range(60):
            m_modes = rng.randint(1, 5)
            k = rng.choice((0, 1, 2))
            modes = rng.sample(range(m_modes), rng.randint(0, m_modes))
            if rng.random() < 0.5:
                modes.sort(reverse=True)
            branches = tuple(
                Branch(m, rng.choice(self.AMPS), tuple(random_complex(rng) for _ in range(k)))
                for m in modes
            )
            assert_same_merge(HybridState(m_modes, k, branches))
        assert keys == []

    @pytest.mark.parametrize("m_modes", [1, 2, 3, 4])
    def test_as_many_branches_as_modes(self, monkeypatch, m_modes):
        keys = self.canonical_keys(monkeypatch)
        for amp in self.AMPS:
            for order in (range(m_modes)[::-1], (*range(1, m_modes), 0)):
                branches = tuple(Branch(m, amp * (m + 1), (complex(m, -m),)) for m in order)
                assert_same_merge(HybridState(m_modes, 1, branches))
        assert keys == []

    def test_overflowing_modulus_is_kept(self, monkeypatch):
        # abs() of the amplitude overflows, so the reference cannot take it;
        # the rest of the state must still match it bit for bit.
        keys = self.canonical_keys(monkeypatch)
        huge = Branch(1, 1e308 + 1e308j, (0.5j,))
        rest = (Branch(2, 1.01 * MERGE_TOL, (1j,)), Branch(0, 0.99 * MERGE_TOL, (0j,)))
        merged = merge_branches(HybridState(3, 1, (rest[0], huge, rest[1])))
        want = reference_merge_branches(HybridState(3, 1, rest))
        assert state_bits(merged) == state_bits(
            HybridState(3, 1, (huge, *want.branches))
        )
        assert keys == []

    def test_two_branches_in_one_mode_use_the_index(self, monkeypatch):
        keys = self.canonical_keys(monkeypatch)
        branches = (
            Branch(2, 1.0, (0.5j,)),
            Branch(0, 0.25, (1.0,)),
            Branch(2, 0.5, (0.5j + 0.99 * MERGE_TOL,)),
        )
        state = HybridState(3, 1, branches)
        assert [br.amp for br in merge_branches(state).branches] == [0.25, 1.5]
        assert keys
        assert_same_merge(state)


class TestMagnitudeRange:
    # 7e296 and 7.5e296 straddle the point where Re / cell width overflows.
    MAGNITUDES = (
        5e-324, 2.2e-308, 1e-300, 1e-12, 1.0, 4500.0, 1e15, 1e100, 7e296, 7.5e296, 1e308, 1.7e308
    )

    @pytest.mark.parametrize("x", MAGNITUDES)
    def test_from_subnormal_to_max(self, x):
        rng = random.Random(repr(x))
        values = [x, -x, math.nextafter(x, math.inf), math.nextafter(x, 0.0)]
        values += [x + 0.5 * MERGE_TOL, -x - MERGE_TOL]
        values = [v for v in values if math.isfinite(v)]
        branches = tuple(
            Branch(rng.randrange(2), 1.0 + i, (complex(rng.choice(values), rng.choice(values)),))
            for i in range(30)
        )
        assert_same_merge(HybridState(2, 1, branches))

    def test_huge_and_finite_cells_in_one_state(self):
        xs = (-1.7e308, 1.7e308, 7e296, -1.7e308, 1.0, 1.7e308, -7e296)
        branches = tuple(Branch(0, 1.0, (complex(x),)) for x in xs)
        merged = merge_branches(HybridState(1, 1, branches))
        assert [br.amp for br in merged.branches] == [2.0, 1.0, 1.0, 1.0, 2.0]
        assert_same_merge(HybridState(1, 1, branches))

    def test_huge_probe_circuit_runs(self, monkeypatch):
        assert_same_runs(monkeypatch, build_nested_mzi(0.6, 1e300, 0.3))


def kerr_chain(depth: int, eps: list[float], alpha: complex) -> Circuit:
    elements = []
    for layer, e in enumerate(eps[:depth]):
        elements += [
            BeamSplitter(SYS, 0, 1, math.sqrt(0.5)),
            KerrCoupling(frozenset({0}), 0, e),
            Snapshot(f"d{layer + 1}"),
        ]
    return Circuit(
        m_modes=2, k_probes=1, elements=tuple(elements), source_mode=0, source_probes=(alpha,)
    )


def with_reference_merge(monkeypatch, run, *args):
    with monkeypatch.context() as m:
        m.setattr(qndmzi.elements, "merge_branches", reference_merge_branches)
        return run(*args)


def assert_same_runs(monkeypatch, circuit: Circuit) -> None:
    for run in (run_forward, run_backward):
        got = run(circuit)
        want = with_reference_merge(monkeypatch, run, circuit)
        stages = got.forward if run is run_forward else got.backward
        ref_stages = want.forward if run is run_forward else want.backward
        assert stages.keys() == ref_stages.keys()
        for label in stages:
            assert state_bits(stages[label]) == state_bits(ref_stages[label])


class TestEvolution:
    EPS = {
        "generic": [0.31, 0.77, 0.12, 0.95, 0.58, 0.43, 0.66, 0.21, 0.89],
        "equal": [0.5] * 9,
        "third_turn": [2 * math.pi / 3] * 9,
    }

    @pytest.mark.parametrize("depth", range(1, 10))
    @pytest.mark.parametrize("kind", sorted(EPS))
    def test_kerr_chain_stages(self, monkeypatch, depth, kind):
        alpha = 2.0 if depth % 2 else 1e3 - 2j
        assert_same_runs(monkeypatch, kerr_chain(depth, self.EPS[kind], alpha))

    @pytest.mark.parametrize("depth", range(1, 6))
    def test_kerr_chain_inner_products_bit_equal(self, depth):
        circuit = kerr_chain(depth, self.EPS["generic"], 0.7 + 0.2j)
        fwd, bwd = run_forward(circuit).forward, run_backward(circuit).backward
        for label in fwd:
            for bra, ket in ((bwd[label], fwd[label]), (fwd[label], fwd[label])):
                assert _bits(inner_product(bra, ket)) == _bits(reference_inner_product(bra, ket))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuit_stages(self, monkeypatch, seed):
        rng = random.Random(5200 + seed)
        for _ in range(10):
            circuit = random_circuit(rng, m_modes=rng.randint(2, 4), max_elements=14)
            assert_same_runs(monkeypatch, circuit)


_offsets = st.sampled_from([0.0, 0.5, -0.5, 0.99, -0.99, 1.0, -1.0, 1.01, -1.01, 2.0, -3.0])
_probe = st.builds(
    lambda re, dre, im, dim: complex(re + dre * MERGE_TOL, im + dim * MERGE_TOL),
    st.sampled_from(ANCHORS),
    _offsets,
    st.sampled_from((0.0, -0.0, CELL, -0.37)),
    _offsets,
)
_branch = st.builds(
    Branch,
    st.integers(0, 2),
    st.sampled_from((1.0, -1.0, 0.5j, 0.3 - 0.1j, 0.25 * MERGE_TOL)),
    st.tuples(_probe, _probe),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_branch, min_size=1, max_size=40))
def test_merge_matches_reference_property(branches):
    assert_same_merge(HybridState(3, 2, tuple(branches)))
