"""The grouped merge gives exactly the greedy merge's result.

``merge_branches`` compares a branch only with the earlier groups of its
bucket: its mode below ``_COLUMN_MIN`` branches, its run of sorted
neighbours within ``MERGE_TOL`` along Re(probes[0]) from there on (K > 0).  On
every input here its result must equal
``merge_reference.reference_merge_branches`` bit for bit: same branches,
same order, same float bits (signed zeros included).  The inputs aim at the
edges of the tolerance: offsets of 0.5, 0.99, 1.0 and 1.01 times
``MERGE_TOL``, multiples of ``CELL`` (4 * ``MERGE_TOL``), negative and
signed-zero reals, many groups at one Re(probes[0]), several modes, and
probes from subnormal to 1.7e308.  ``TestSortedMerge`` checks the sorted
pass on states of every size around ``_COLUMN_MIN``, from which its result
keeps the column form, and on larger ones.  Engine-built
small states whose branches share probe tuples by identity (as the element
steps leave them) merge and step as the same states with a tuple of their
own per branch.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import qndmzi.states
from qndmzi import (
    MERGE_TOL,
    PROBE,
    SYS,
    BeamSplitter,
    Branch,
    Circuit,
    HybridState,
    KerrCoupling,
    PhaseShift,
    Snapshot,
    apply_element,
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
        # Same Re(probes[0]), so one sorted run per mode, but Im apart by more
        # than the tolerance: every earlier group is scanned and most fail.
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
        # on each side of it; the greedy rule puts it in the first.
        a, b, c = CELL - 0.6 * MERGE_TOL, CELL + 0.6 * MERGE_TOL, CELL + 0.1 * MERGE_TOL
        for first, second in ((a, b), (b, a)):
            branches = ((1, first), (2, second), (4, c))
            state = HybridState(1, 1, tuple(Branch(0, amp, (complex(x),)) for amp, x in branches))
            merged = merge_branches(state)
            assert {br.probes[0].real: br.amp for br in merged.branches} == {first: 5, second: 2}
            assert_same_merge(state)


class TestDistinctModeShortcut:
    """States of at most M branches in distinct modes cannot merge.

    The group scan leaves each branch a group of its own, so they are only
    filtered and sorted by mode; groups left in distinct modes sort by mode
    alone.  Counting the calls of ``_merge_groups`` tells whether a state
    took the scan rather than the canonical return.
    """

    AMPS = (0.99 * MERGE_TOL, MERGE_TOL, 1.01 * MERGE_TOL, 1.0, -0.5j, -0.99 * MERGE_TOL)

    @staticmethod
    def group_scans(monkeypatch):
        calls = []
        groups = qndmzi.states._merge_groups

        def counted(branches, buckets=None):
            calls.append(branches)
            return groups(branches, buckets)

        monkeypatch.setattr(qndmzi.states, "_merge_groups", counted)
        return calls

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_reference(self, seed):
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

    @pytest.mark.parametrize("m_modes", [1, 2, 3, 4])
    def test_as_many_branches_as_modes(self, m_modes):
        for amp in self.AMPS:
            for order in (range(m_modes)[::-1], (*range(1, m_modes), 0)):
                branches = tuple(Branch(m, amp * (m + 1), (complex(m, -m),)) for m in order)
                assert_same_merge(HybridState(m_modes, 1, branches))

    def test_overflowing_modulus_is_kept(self):
        # abs() of the amplitude overflows, so the reference cannot take it;
        # the rest of the state must still match it bit for bit.
        huge = Branch(1, 1e308 + 1e308j, (0.5j,))
        rest = (Branch(2, 1.01 * MERGE_TOL, (1j,)), Branch(0, 0.99 * MERGE_TOL, (0j,)))
        merged = merge_branches(HybridState(3, 1, (rest[0], huge, rest[1])))
        want = reference_merge_branches(HybridState(3, 1, rest))
        assert state_bits(merged) == state_bits(
            HybridState(3, 1, (huge, *want.branches))
        )

    def test_two_branches_in_one_mode_use_the_index(self, monkeypatch):
        scans = self.group_scans(monkeypatch)
        branches = (
            Branch(2, 1.0, (0.5j,)),
            Branch(0, 0.25, (1.0,)),
            Branch(2, 0.5, (0.5j + 0.99 * MERGE_TOL,)),
        )
        state = HybridState(3, 1, branches)
        assert [br.amp for br in merge_branches(state).branches] == [0.25, 1.5]
        assert scans
        assert_same_merge(state)


class TestMagnitudeRange:
    # 7e296 and 7.5e296 straddle the point where Re / CELL overflows.
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
        m.setattr(qndmzi.states, "merge_branches", reference_merge_branches)
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


@st.composite
def _shared_probe_states(draw):
    """Small engine-built states whose branches hold one tuple of a pool, or its copy or neighbour.

    Built unchecked, as the element steps build them: the public
    constructor would give every branch a tuple of its own.
    """
    k = draw(st.integers(1, 2))
    pool = [tuple(draw(_probe) for _ in range(k)) for _ in range(draw(st.integers(1, 3)))]
    branches = []
    for _ in range(draw(st.integers(1, qndmzi.states._COLUMN_MIN - 1))):
        probes = draw(st.sampled_from(pool))
        how = draw(st.sampled_from(("shared", "copied", "nudged")))
        if how == "copied":
            probes = tuple(list(probes))
        elif how == "nudged":
            probes = tuple(
                complex(p.real + draw(_offsets) * MERGE_TOL, p.imag + draw(_offsets) * MERGE_TOL)
                for p in probes
            )
        amp = draw(st.sampled_from((1.0, -1.0, 0.5j, 0.3 - 0.1j, 0.25 * MERGE_TOL, -0.0)))
        branches.append(qndmzi.states._branch(draw(st.integers(0, 2)), amp, probes))
    return qndmzi.states._state(3, k, tuple(branches))


def _unshared(state: HybridState, branches=None) -> HybridState:
    """``state`` (or ``branches`` over its M and K) with a probe tuple of its own per branch."""
    return HybridState(state.m_modes, state.k_probes, tuple(branches or state.branches))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_shared_probe_states())
def test_shared_probe_tuples_merge_as_the_reference(state):
    assert state_bits(merge_branches(state)) == state_bits(reference_merge_branches(state))
    assert state_bits(merge_branches(state)) == state_bits(merge_branches(_unshared(state)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_shared_probe_states(), st.booleans())
def test_shared_probe_tuples_step_as_copies(state, dagger):
    elements = [
        BeamSplitter(SYS, 0, 1, 0.6),
        PhaseShift(SYS, 1, 0.7),
        PhaseShift(PROBE, 0, -2.1),
        KerrCoupling(frozenset({1, 2}), 0, 0.4),
        KerrCoupling(frozenset({0}), state.k_probes - 1, math.pi),
    ]
    if state.k_probes == 2:
        elements.append(BeamSplitter(PROBE, 1, 0, math.sqrt(0.5)))
    for el in elements:
        got = apply_element(state, el, dagger)
        assert state_bits(got) == state_bits(apply_element(_unshared(state), el, dagger))
    # Each unmerged probe step equals the step on every branch alone.
    k = state.k_probes - 1
    steps = [
        (qndmzi.states._scale_branches, (1j, None, k)),
        (qndmzi.states._scale_branches, (-0.6 + 0.8j, (1,), 0)),
        (qndmzi.states._scale_branches, (0.5, frozenset({0, 2}), k)),
    ]
    if k:
        steps.append((qndmzi.states._mix_probes, (0, 1, BeamSplitter(PROBE, 0, 1, 0.6)._adjoint)))
    for step, args in steps:
        alone = [br for b in state.branches for br in step([b], *args)]
        whole = step(state.branches, *args)
        assert state_bits(_unshared(state, whole)) == state_bits(_unshared(state, alone))


def test_steps_give_branches_of_one_probe_tuple_one_new_tuple():
    probes = (0.5 + 1j, -0.25j)
    branches = [qndmzi.states._branch(m, 1.0, probes) for m in (0, 1, 2)]
    u = BeamSplitter(PROBE, 0, 1, 0.6).unitary()
    a, b, c = qndmzi.states._mix_probes(branches, 0, 1, u)
    assert a.probes is b.probes is c.probes != probes
    a, b, c = qndmzi.states._scale_branches(branches, 1j, None, 1)
    assert a.probes is b.probes is c.probes != probes
    # A branch the step leaves alone keeps the old tuple in between.
    a, b, c = qndmzi.states._scale_branches(branches, 1j, (0, 2), 0)
    assert a.probes is c.probes != probes and b.probes is probes


THRESHOLD = qndmzi.states._COLUMN_MIN
#: A size well past the bound, whose merged results keep the column form too.
COLUMNS = 2 * THRESHOLD
SIZES = (THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, COLUMNS - 1, COLUMNS, COLUMNS + 1, 64, 500)


def sorted_merge_calls():
    """Patch that counts the calls of the sorted (numpy) merge path."""
    return mock.patch.object(
        qndmzi.states, "_column_merge", wraps=qndmzi.states._column_merge
    )


def assert_same_merge_and_path(state: HybridState) -> None:
    """The merge equals the reference; states of ``THRESHOLD`` on sort first."""
    with sorted_merge_calls() as calls:
        assert_same_merge(state)
    assert calls.call_count == (len(state.branches) >= THRESHOLD)


def far_probes(rng: random.Random, n: int, k: int) -> list[tuple[complex, ...]]:
    """``n`` probe tuples whose Re(probes[0]) lie at least 0.01 apart, shuffled."""
    res = rng.sample(range(-5 * n, 5 * n), n)
    return [
        (complex(0.01 * x, rng.uniform(-1, 1)),)
        + tuple(random_complex(rng) for _ in range(k - 1))
        for x in res
    ]


def state_of(m_modes: int, k: int, probes, rng: random.Random, amps=None) -> HybridState:
    amps = amps or [random_complex(rng) + 0.1 for _ in probes]
    return HybridState(
        m_modes,
        k,
        tuple(Branch(rng.randrange(m_modes), a, p) for a, p in zip(amps, probes)),
    )


class TestSortedMerge:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_no_candidates(self, n, k):
        rng = random.Random(f"none {n} {k}")
        probes = far_probes(rng, n, k)
        state = state_of(2, k, probes, rng)
        with sorted_merge_calls() as calls:
            merged = merge_branches(state)
        assert len(merged.branches) == n
        assert calls.call_count == (n >= THRESHOLD)
        assert_same_merge(state)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_isolated_merging_pairs(self, n, k):
        # Every fifth branch gets a partner within tolerance somewhere later
        # in the input; some pairs cancel and are dropped.
        rng = random.Random(f"pairs {n} {k}")
        probes = far_probes(rng, n, k)
        m = 2
        branches = [Branch(rng.randrange(m), random_complex(rng) + 0.1, p) for p in probes]
        for i in range(0, n, 5):
            b = branches[i]
            twin = tuple(p + rng.choice((0.5, -0.99, 1.0)) * MERGE_TOL for p in b.probes)
            amp = -b.amp if i % 3 == 0 else random_complex(rng)
            branches.insert(rng.randrange(i + 1, len(branches) + 1), Branch(b.mode, amp, twin))
        assert_same_merge_and_path(HybridState(m, k, tuple(branches[:n])))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_one_dense_run_across_cells(self, n, k):
        # Re(probes[0]) steps by 0.3 * MERGE_TOL over many multiples of CELL,
        # so all branches form one run of candidates; the rest sit far away.
        rng = random.Random(f"dense {n} {k}")
        run = n // 2
        probes = [
            (complex(CELL + 0.3 * MERGE_TOL * j, 0.0),) + (0.25 + 0j,) * (k - 1)
            for j in range(run)
        ]
        probes += far_probes(rng, n - run, k)
        rng.shuffle(probes)
        assert_same_merge_and_path(state_of(1, k, probes, rng))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_tolerance_offsets_across_a_cell_edge(self, n, k):
        rng = random.Random(f"edge {n} {k}")
        probes = []
        for edge in (-3, 0, 1, 2):
            x0 = edge * CELL
            for f in (0.99, 1.0, 1.01):
                for s in (1.0, -1.0):
                    probes.append((complex(x0 + s * f * MERGE_TOL, 0.0),) + (1j,) * (k - 1))
                probes.append((complex(x0, 0.0),) + (1j + f * MERGE_TOL,) * (k - 1))
        probes = (probes + far_probes(rng, n, k))[:n]
        rng.shuffle(probes)
        assert_same_merge_and_path(state_of(2, k, probes, rng))

    @pytest.mark.parametrize("n", SIZES)
    def test_infinite_cells_beside_finite_ones(self, n):
        rng = random.Random(f"inf {n}")
        xs = (-1.7e308, 1.7e308, 7.5e296, -7.5e296, 7e296, 1e308, 1.0, 0.0, -0.0, 5e-324)
        probes = [(complex(rng.choice(xs), rng.choice((0.0, 1.0))),) for _ in range(n // 2)]
        probes += far_probes(rng, n - len(probes), 1)
        rng.shuffle(probes)
        assert_same_merge_and_path(state_of(2, 1, probes, rng))

    @pytest.mark.parametrize("n", SIZES)
    def test_overflowing_amplitude_modulus(self, n):
        # abs() of two kept amplitudes overflows, so the reference cannot
        # take them: it sees stand-in amplitudes, swapped back afterwards.
        # Branch 5 sorts next to branch 3 (and 7, its duplicate) within
        # tolerance along Re(probes[0]) but does not merge; branch 11 has
        # no neighbour near it.
        rng = random.Random(f"huge {n}")
        probes = far_probes(rng, n, 2)
        near5 = (probes[5][0] + complex(0.5, 3.0) * MERGE_TOL, probes[5][1])
        probes[3] = probes[7] = near5
        branches = [
            Branch(i % 2, random_complex(rng) + 0.1, p) for i, p in enumerate(probes)
        ]
        huge = {5: 1e308 + 1e308j, 11: -1e308 + 1e308j}
        stand_in = {5: 7.0, 11: 9.0}
        for i, amp in stand_in.items():
            branches[i] = Branch(1, amp, probes[i])
        back = {_bits(stand_in[i]): _bits(huge[i]) for i in huge}
        want = state_bits(reference_merge_branches(HybridState(2, 2, tuple(branches))))
        want[2][:] = [(m, back.get(amp, amp), p) for m, amp, p in want[2]]
        for i, amp in huge.items():
            branches[i] = Branch(1, amp, probes[i])
        with sorted_merge_calls() as calls:
            got = state_bits(merge_branches(HybridState(2, 2, tuple(branches))))
        assert calls.call_count == (n >= THRESHOLD)
        assert got == want
        assert sum(amp in back.values() for _, amp, _ in got[2]) == 2

    def test_overflowing_merge_raises_like_the_index(self):
        rng = random.Random(5)
        probes = far_probes(rng, 2 * COLUMNS, 1)
        probes[9] = (probes[4][0] + 0.5 * MERGE_TOL,)
        branches = [Branch(0, 1.0, p) for p in probes]
        branches[4] = Branch(0, 1e308, probes[4])
        branches[9] = Branch(0, 1e308, probes[9])
        with pytest.raises(ValueError, match="non-finite branch amplitude"):
            merge_branches(HybridState(1, 1, tuple(branches)))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_clusters(self, seed):
        rng = random.Random(7300 + seed)
        for _ in range(10):
            k = rng.choice((1, 2, 3))
            n = rng.randint(COLUMNS, 200)
            assert_same_merge_and_path(adversarial_state(rng, rng.randint(1, 3), k, n))

    @pytest.mark.parametrize("far", [THRESHOLD, 2 * COLUMNS])
    def test_two_runs_interleaved(self, far):
        # Two runs in one mode, each a chain of probes 0.6 * MERGE_TOL apart
        # along Re(probes[0]) that the greedy rule splits into 3 groups,
        # alternate in input order; ``far`` branches lie far from both.
        rng = random.Random(f"runs {far}")
        runs = [
            [(complex(x0 + 0.6 * MERGE_TOL * j, 0.0),) for j in range(6)] for x0 in (0.255, -0.505)
        ]
        probes = [p for pair in zip(runs[0], runs[1][::-1]) for p in pair]
        probes += far_probes(rng, far, 1)
        state = HybridState(1, 1, tuple(Branch(0, 1.0 + i, p) for i, p in enumerate(probes)))
        assert_same_merge_and_path(state)
        assert len(merge_branches(state).branches) == far + 2 * 3

    def test_no_probes_keep_the_index(self):
        branches = tuple(Branch(i % 2, 1.0 + i, ()) for i in range(2 * COLUMNS))
        with sorted_merge_calls() as calls:
            assert_same_merge(HybridState(2, 0, branches))
        assert calls.call_count == 0


_spread_probe = st.builds(
    lambda x, dre, im: complex(0.37 * x + dre * MERGE_TOL, im),
    st.integers(-60, 60),
    _offsets,
    st.sampled_from((0.0, -0.0, 1.0, -1e-300)),
)
_large_branch = st.builds(
    Branch,
    st.integers(0, 2),
    st.sampled_from((1.0, -1.0, 0.5j, 0.3 - 0.1j, 0.25 * MERGE_TOL)),
    st.tuples(_spread_probe, st.one_of(_probe, _spread_probe)),
)


# No shrinking: a failure among 32 to 128 branches is reported as drawn,
# since shrinking lists that long takes minutes and gigabytes.
@settings(
    derandomize=True, max_examples=100, deadline=None, phases=(Phase.explicit, Phase.generate)
)
@given(st.lists(_large_branch, min_size=COLUMNS, max_size=4 * COLUMNS))
def test_large_merge_matches_reference_property(branches):
    assert_same_merge_and_path(HybridState(3, 2, tuple(branches)))
