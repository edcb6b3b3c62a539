"""States of ``_COLUMN_MIN`` branches or more run on a column form, with the branch path's bits.

A state the engine builds with at least ``_COLUMN_MIN`` branches and K > 0
keeps its modes, amplitudes and probes as numpy columns, and its
``branches`` are built on first read.  Two element steps act on the
columns, the two that a chain of branch growth repeats: a system splitter
that splits every branch, and a Kerr mark.  So do ``merge_branches`` and
the pair sums.  Every other step (a splitter that leaves a branch in place,
a phase shift, a probe splitter), projections and scaled copies run on the
built branches, and the merge after them returns a large result to
columns.  Raising ``_COLUMN_MIN`` past every state's size turns the column
form and the sorted merge off, so every state runs the per-branch code and
the plain mode scan; both runs must agree bit for bit, compared by
``repr``, raised errors included.
"""

from __future__ import annotations

import contextlib
import copy
import math
import pickle
import random
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import qndmzi.elements
import qndmzi.states
from qndmzi import (
    FINAL_STAGE,
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
    inner_product,
    mean_probe_photons,
    merge_branches,
    postselect,
    run_both,
    run_forward,
    tsvf_report,
)
from qndmzi.states import _HandOver, _pair_sum
from deep_chains import deep_chain
from test_merge_index import kerr_chain
from test_preset import _count_builds


@contextlib.contextmanager
def branch_path():
    """Patch under which no state takes the column form; one that forms fails the test."""
    def no_columns(*_):
        raise AssertionError("a column state formed on the branch path")

    with mock.patch.object(qndmzi.states, "_COLUMN_MIN", 1 << 62), \
            mock.patch.object(qndmzi.states, "_column_state", no_columns):
        yield


def outcome(circuit: Circuit) -> list[str]:
    """``repr`` of every stage state, the sums over them and the analyses, or of the error raised.

    The analyses are ``postselect`` on every mode, fidelity included, and
    ``tsvf_report``: they take projections and scaled copies of the
    column states.
    """
    out: list[str] = []
    try:
        trace = run_both(circuit)
        for stages in (trace.forward, trace.backward):
            out += [f"{label} {stages[label]!r}" for label in stages]
        final = trace.forward[FINAL_STAGE]
        out.append(repr(final.norm_sq()))
        for label in circuit.stages:
            bwd, fwd = trace.backward[label], trace.forward[label]
            out.append(repr(inner_product(bwd, fwd)))
            moments: list[complex] = []
            parts: dict[int, complex] = {}
            out.append(repr((_pair_sum(bwd, fwd, moments, parts), moments, parts)))
        out.append(repr(mean_probe_photons(final)))
        out += [repr(postselect(trace, mode)) for mode in range(circuit.m_modes)]
        out.append(repr(tsvf_report(circuit, trace=trace)))
    except (ValueError, OverflowError) as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return out


def assert_same_paths(circuit: Circuit) -> None:
    got = outcome(circuit)
    with branch_path():
        want = outcome(circuit)
    assert got == want


def chain(layers, alpha: complex, k_probes: int) -> Circuit:
    """A splitter on modes 0 and 1, a Kerr mark on mode 0 and extras per layer, then a snapshot."""
    elements = []
    for i, (r, eps, extra) in enumerate(layers):
        elements += [BeamSplitter(SYS, 0, 1, r), KerrCoupling(frozenset({0}), i % k_probes, eps)]
        if extra == "phase":
            elements.append(PhaseShift(SYS, 1, 0.3 + eps))
        elif extra == "probe" and k_probes == 2:
            elements += [BeamSplitter(PROBE, 0, 1, 0.6), PhaseShift(PROBE, 1, eps)]
        elements.append(Snapshot(f"d{i + 1}"))
    probes = (complex(alpha), 0.6j * alpha)[:k_probes]
    return Circuit(2, k_probes, tuple(elements), 0, probes)


_BALANCED = math.sqrt(0.5)
_alpha = st.builds(
    lambda e, phase: 10.0**e * complex(math.cos(phase), math.sin(phase)),
    st.floats(-3.0, 6.0),
    st.floats(0.0, 2 * math.pi),
)
# A reflectivity of a few 1e-12 gives branches of amplitude 0.1 to 0.2
# reflected copies within a factor 2 of MERGE_TOL.
_reflectivity = st.one_of(
    st.just(_BALANCED), st.floats(0.2, 0.8), st.floats(2.5e-12, 2e-11)
)
_layer = st.tuples(_reflectivity, st.floats(0.05, 1.0), st.sampled_from((None, "phase", "probe")))


# No shrinking: a failure is reported as drawn, since each example runs
# chains of up to 256 branches twice.
@settings(
    derandomize=True, max_examples=60, deadline=None, phases=(Phase.explicit, Phase.generate)
)
@given(st.lists(_layer, min_size=5, max_size=8), _alpha, st.sampled_from((1, 2)))
def test_column_path_matches_the_branch_path_property(layers, alpha, k_probes):
    assert_same_paths(chain(layers, alpha, k_probes))


@settings(
    derandomize=True, max_examples=20, deadline=None, phases=(Phase.explicit, Phase.generate)
)
@given(st.integers(5, 8), st.sampled_from((0.5, 0.25, math.pi / 4)), _alpha)
def test_equal_marks_merge_alike_property(depth, eps, alpha):
    # Equal eps: paths with the same number of marks merge, in columns too.
    assert_same_paths(deep_chain([eps] * depth, alpha))


def three_mode_chain(depth: int) -> Circuit:
    """Per layer: splitters on modes (0, 1) and (1, 2), then a Kerr mark of its own eps on 1, 2."""
    elements = []
    for i, eps in enumerate((0.11, 0.23, 0.37, 0.41, 0.53, 0.67, 0.79)[:depth]):
        elements += [BeamSplitter(SYS, 0, 1, 0.6), BeamSplitter(SYS, 1, 2, 0.6),
                     KerrCoupling(frozenset({1, 2}), 0, eps), Snapshot(f"d{i + 1}")]
    return Circuit(3, 1, tuple(elements), 0, (2.0,))


def test_marks_on_two_modes():
    # The Kerr steps take the multi-mode mask on columns and the ``mode in
    # modes`` test on branches, each at 16+ branches.
    circuit = three_mode_chain(6)
    trace = run_both(circuit)
    for stages, labels in ((trace.forward, ["d4", "d5", "d6", FINAL_STAGE]),
                           (trace.backward, ["d2", "d1", "source"])):
        assert [label for label in stages if stages[label]._cols is not None] == labels
    assert len(trace.forward["d4"].branches) == 24
    assert len(trace.forward["d5"].branches) == 48
    assert len(trace.forward[FINAL_STAGE].branches) == 90
    assert_same_paths(circuit)


@pytest.mark.parametrize("circuit", [
    pytest.param(kerr_chain(9, [0.5] * 9, 2.0), id="equal-eps-chain"),
    *(pytest.param(three_mode_chain(depth), id=f"three-modes-{depth}") for depth in (5, 6, 7)),
])
def test_states_that_merge_in_the_column_band(circuit):
    # 16 to 31 branches, many of which merge, take columns at every merge.
    assert_same_paths(circuit)


@pytest.mark.parametrize("extra", ["phase", "probe"])
@pytest.mark.parametrize("depth", [6, 7, 8])
def test_steps_without_a_column_form_on_every_layer(extra, depth):
    # A phase shift, or a probe splitter and a probe phase, after every Kerr
    # mark: each runs on the built branches and its merge returns to columns.
    rng = random.Random(f"{extra} {depth}")
    layers = [(_BALANCED, rng.uniform(0.05, 1.0), extra) for _ in range(depth)]
    circuit = chain(layers, 2.0 - 0.5j, 2)
    assert run_forward(circuit).forward[FINAL_STAGE]._cols is not None
    assert_same_paths(circuit)


@contextlib.contextmanager
def column_steps():
    """Patch under which the column steps log (name, the state's branch count, outcome) per call."""
    calls: list[tuple[str, int, str]] = []

    def spy(name):
        step = getattr(qndmzi.elements, name)

        def logged(state, *args):
            try:
                out = step(state, *args)
            except _HandOver:
                calls.append((name, qndmzi.states._count(state), "hand-over"))
                raise
            calls.append((name, qndmzi.states._count(state), "columns"))
            return out
        return mock.patch.object(qndmzi.elements, name, logged)

    with spy("_split_columns"), spy("_scale_columns"):
        yield calls


def test_partial_split_hands_over():
    # At d4 the three-mode chain holds 24 branches in all three modes, so a
    # splitter on modes 0 and 1 leaves the mode-2 branches in place.
    state = run_forward(three_mode_chain(4)).forward["d4"]
    assert state._cols is not None and not built(state)
    for el in (BeamSplitter(SYS, 0, 1, 0.6), BeamSplitter(SYS, 2, 1, 0.3)):
        with column_steps() as calls:
            got = apply_element(state, el)
        assert calls == [("_split_columns", 24, "hand-over")]
        assert got._cols is not None
        assert repr(got) == repr(apply_element(twin(state), el))


def test_full_split_and_kerr_mark_stay_on_columns(column_state):
    steps = [BeamSplitter(SYS, 1, 0, 0.3), KerrCoupling(frozenset({1}), 0, 0.4)]
    for el, name in zip(steps, ("_split_columns", "_scale_columns")):
        for dagger in (False, True):
            with column_steps() as calls:
                got = apply_element(column_state, el, dagger)
            assert calls == [(name, 128, "columns")]
            assert repr(got) == repr(apply_element(twin(column_state), el, dagger))


@pytest.mark.parametrize("shift", [PhaseShift(SYS, 0, 0.7), PhaseShift(SYS, 1, -2.1),
                                   PhaseShift(PROBE, 0, 0.7)], ids=repr)
def test_phase_shifts_take_no_column_step(column_state, shift):
    for dagger in (False, True):
        with column_steps() as calls:
            got = apply_element(column_state, shift, dagger)
        assert calls == []
        assert got._cols is not None
        assert repr(got) == repr(apply_element(twin(column_state), shift, dagger))


def test_column_steps_run_only_in_branch_growth():
    # Forward and backward over the depth-7 chain: every splitter from 16
    # branches splits them all, and every Kerr mark from 16 runs on columns.
    rng = random.Random(29)
    with column_steps() as calls:
        run_both(deep_chain([rng.uniform(0.05, 1.0) for _ in range(7)], 2.0))
    assert {outcome for *_, outcome in calls} == {"columns"}
    assert [name for name, *_ in calls].count("_split_columns") == 3 + 3
    assert [name for name, *_ in calls].count("_scale_columns") == 4 + 3


@pytest.mark.parametrize("alpha", [1e154, 1e160, 1.2e308, 1e308 + 1e308j])
@pytest.mark.parametrize("k_probes", [1, 2])
def test_overflow_raises_alike(alpha, k_probes):
    rng = random.Random(f"overflow {alpha} {k_probes}")
    circuit = deep_chain([rng.uniform(0.05, 1.0) for _ in range(7)], alpha, k_probes)
    got = outcome(circuit)
    assert got[-1].startswith(("ValueError: non-finite", "OverflowError"))
    with branch_path():
        assert got == outcome(circuit)


def merged_columns(probes) -> HybridState:
    """The column state ``merge_branches`` makes of one mode-0 branch per probe, none merging."""
    state = merge_branches(HybridState(1, 1, tuple(Branch(0, 0.25, (p,)) for p in probes)))
    assert state._cols is not None and len(state.branches) == len(probes)
    return state


def test_kerr_mark_whose_probes_overflow_hands_over():
    # Finite parts, modulus past the float range: a quarter turn writes inf,
    # so the column step hands over and the per-branch step raises.  The
    # merge sorts the rows, so the error is compared on the same order.
    col = merged_columns([complex(1.5e308 - k * 1e300, 1.5e308) for k in range(16)])
    mark = KerrCoupling({0}, 0, math.pi / 4)
    with pytest.raises(ValueError) as got:
        apply_element(col, mark)
    with pytest.raises(ValueError) as want:
        apply_element(twin(col), mark)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("non-finite probe amplitude: (inf")


def test_column_pair_sum_whose_exponent_overflows():
    # |u|^2 = 1e24 rounds, so the overlap exponent is of order 1e8.
    col = merged_columns([1e12 + k * 1e-3 for k in range(16)])
    one = HybridState(1, 1, (Branch(0, 1.0, (1e12 + 0.5e-3,)),))
    for bra, ket in ((col, one), (one, col), (twin(col), one), (one, twin(col))):
        with pytest.raises(ValueError, match="^non-finite inner product: a coherent overlap overflows$"):
            inner_product(bra, ket)


@pytest.mark.parametrize("f", [0.4, 0.6, 0.9, 1.0, 1.1, 1.9, 2.2])
def test_amplitudes_near_the_drop_tolerance(f):
    # Five balanced layers leave 32 branches of amplitude 2^-2.5; the next
    # splitter reflects copies of amplitude f * MERGE_TOL into the column
    # merge, which drops those below the tolerance and keeps the others.
    rng = random.Random(41)
    layers = [(_BALANCED, rng.uniform(0.05, 1.0), None) for _ in range(5)]
    circuit = chain(layers + [(f * MERGE_TOL * 2**2.5, 0.77, None)], 2.0, 1)
    final = run_forward(circuit).forward[FINAL_STAGE]
    small = [abs(br.amp) / MERGE_TOL for br in final.branches if abs(br.amp) < 0.1]
    assert len(final.branches) == 32 + len(small)
    assert all(abs(size - f) < 1e-9 for size in small)
    if f != 1.0:  # At f = 1 rounding keeps some and drops others.
        assert len(small) == (32 if f > 1.0 else 0)
    assert_same_paths(circuit)


@pytest.fixture
def column_state() -> HybridState:
    rng = random.Random(17)
    state = run_forward(deep_chain([rng.uniform(0.05, 1.0) for _ in range(7)], 1.5 - 0.5j))
    state = state.forward[FINAL_STAGE]
    assert state._cols is not None and not built(state)
    return state


def built(state: HybridState) -> bool:
    """Whether the ``branches`` slot of ``state`` is set; reading it so skips ``__getattr__``."""
    try:
        HybridState.branches.__get__(state)
    except AttributeError:
        return False
    return True


def twin(state: HybridState) -> HybridState:
    """``state`` rebuilt by the public constructor from its branches."""
    return HybridState(state.m_modes, state.k_probes, tuple(state.branches))


class TestColumnState:
    def test_equality_and_hash(self, column_state):
        same = twin(column_state)
        assert same._cols is None and len(same.branches) == 2**7
        assert column_state == same and same == column_state
        assert not column_state != same and hash(column_state) == hash(same)
        assert repr(column_state) == repr(same)

    def test_pickle_and_copy_round_trips(self, column_state):
        for back in (
            pickle.loads(pickle.dumps(column_state)),
            copy.copy(column_state),
            copy.deepcopy(column_state),
        ):
            assert back == column_state
            assert repr(back) == repr(twin(column_state))

    def test_branches_are_built_once(self, column_state):
        assert column_state.branches is column_state.branches
        assert built(column_state)

    def test_comparison_with_a_non_state(self, column_state):
        assert not column_state == 5 and column_state != 5

    def test_unknown_attribute(self, column_state):
        with pytest.raises(AttributeError, match="nothing"):
            column_state.nothing  # noqa: B018

    @pytest.mark.parametrize("mode", [0, 1])
    def test_project_mode(self, column_state, mode):
        got = column_state.project_mode(mode)
        assert repr(got) == repr(twin(column_state).project_mode(mode))

    def test_project_mode_of_a_missing_mode(self):
        rng = random.Random(3)
        circuit = deep_chain([rng.uniform(0.05, 1.0) for _ in range(6)], 2.0)
        state = run_forward(circuit).forward[FINAL_STAGE]
        wide = HybridState(3, 1, state.branches)
        assert repr(state.project_mode(0)) == repr(twin(state).project_mode(0))
        assert wide.project_mode(2).branches == ()

    @pytest.mark.parametrize("factor", [0.5, -1j, 3 - 4j, 1e-300])
    def test_scaled(self, column_state, factor):
        got = column_state.scaled(factor)
        assert repr(got) == repr(twin(column_state).scaled(factor))

    def test_scaled_overflow_raises_alike(self, column_state):
        big = column_state.scaled(1e308)
        with pytest.raises(ValueError) as got:
            big.scaled(1e10)
        with pytest.raises(ValueError) as want:
            twin(big).scaled(1e10)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("non-finite branch amplitude")


def test_run_both_builds_branches_only_below_the_column_size(monkeypatch):
    """``_branch`` calls of a depth-7 chain: only steps on states below 16 branches build any.

    Forward, the source builds 1 branch; a splitter from n < 8 branches
    builds 2n and the Kerr mark after it n (its mode-0 half); the splitter
    from 8 builds 16 on the per-branch code, whose merge moves them to
    columns.  Backward, the final bra builds 1, each Kerr mark rotates its
    one mode-0 half, and the splitters build as forward.  Nothing after
    that builds a branch until one is read.
    """
    rng = random.Random(29)
    circuit = deep_chain([rng.uniform(0.05, 1.0) for _ in range(7)], 2.0)
    counts = _count_builds(monkeypatch)
    trace = run_both(circuit)
    forward = 1 + sum(2 * n + n for n in (1, 2, 4)) + 16
    backward = 1 + (1 + 1 + 2 + 4) + (2 + 4 + 8 + 16)
    assert counts["_branch"] == forward + backward == 77
    # d4 to d7 and final forward (final is d7), d3, d2, d1 and source backward.
    columns = [s for s in (*trace.forward.values(), *trace.backward.values()) if s._cols is not None]
    assert len(columns) == 9 and not any(map(built, columns))
    final = trace.forward[FINAL_STAGE]
    assert len(final.branches) == 2**7 and counts["_branch"] == 77 + 2**7
    assert len(final.branches) == 2**7 and counts["_branch"] == 77 + 2**7
