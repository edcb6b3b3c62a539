"""The trust boundary of the state types.

The public ``Branch`` and ``HybridState`` constructors coerce and check
every value; the engine builds the states it derives from checked states
without either.  These tests pin both sides: every state the engine yields
is one the public constructors accept unchanged, and each place where the
engine's arithmetic can overflow still raises the public constructors'
error.  They also pin the one-pass stage sums of ``tsvf_report`` against
the per-mode inner products they replace, bit for bit.
"""

import cmath
import math
import random

import numpy as np
import pytest

import qndmzi.analysis
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
    StageTrace,
    apply_element,
    build_nested_mzi,
    inner_product,
    merge_branches,
    run_backward,
    run_both,
    run_forward,
    tsvf_report,
)
from qndmzi.states import _GRAM_MIN_PAIRS, _pair_sum

from helpers import random_circuit

HUGE = 1.7e308 + 1.7e308j


def with_snapshots(circuit: Circuit) -> Circuit:
    """``circuit`` with a snapshot after every element, so each step is a stage."""
    elements = []
    for i, el in enumerate(circuit.elements):
        elements += [el, Snapshot(f"s{i}")]
    return Circuit(
        circuit.m_modes,
        circuit.k_probes,
        elements,
        circuit.source_mode,
        circuit.source_probes,
        circuit.postselect_mode,
    )


def stage_states(circuit: Circuit):
    trace = run_both(circuit)
    for label in circuit.stages:
        yield trace.forward[label]
        yield trace.backward[label]


def engine_circuits():
    for alpha in (1e-3, 2.0, 1e3 - 2j):
        yield build_nested_mzi(0.6, alpha, 0.3)
    for seed in range(48):
        rng = random.Random(seed)
        yield with_snapshots(
            random_circuit(rng, max_elements=12, probe_radius=[0.5, 2.0, 30.0][seed % 3])
        )


class TestEngineStatesConform:
    @pytest.mark.parametrize("circuit", list(engine_circuits()))
    def test_every_stage_state_is_its_public_rebuild(self, circuit):
        for state in stage_states(circuit):
            for s in [state] + [state.project_mode(m) for m in range(state.m_modes)]:
                rebuilt = HybridState(
                    s.m_modes,
                    s.k_probes,
                    tuple(Branch(b.mode, b.amp, b.probes) for b in s.branches),
                )
                assert rebuilt == s
                assert repr(rebuilt) == repr(s)
                assert type(s.branches) is tuple
                for b in s.branches:
                    assert type(b.mode) is int
                    assert type(b.amp) is complex
                    assert type(b.probes) is tuple
                    assert all(type(p) is complex for p in b.probes)


class TestScaled:
    FACTORS = (0.5, -1j, 1.0 / math.sqrt(3.0), 2 - 3j, np.float64(0.3), np.complex128(0.1j), 7)

    @pytest.mark.parametrize("circuit", list(engine_circuits())[:12])
    def test_is_its_public_rebuild(self, circuit):
        for state in stage_states(circuit):
            for factor in self.FACTORS:
                got = state.scaled(factor)
                rebuilt = HybridState(
                    state.m_modes,
                    state.k_probes,
                    tuple(Branch(b.mode, factor * b.amp, b.probes) for b in state.branches),
                )
                assert repr(got) == repr(rebuilt)
                assert type(got.branches) is tuple
                assert all(type(b.amp) is complex for b in got.branches)

    def test_numpy_factor_gives_python_complex(self):
        state = HybridState(2, 1, (Branch(0, 1.0, (2j,)), Branch(1, 0.5j, (1.0,))))
        for b in state.scaled(np.float64(0.25)).branches:
            assert type(b.amp) is complex
        assert [b.amp for b in state.scaled(np.float64(0.25)).branches] == [0.25, 0.125j]

    def test_overflow_raises(self):
        state = HybridState(2, 0, (Branch(0, 1.0, ()), Branch(1, 1e10, ())))
        with pytest.raises(ValueError, match=r"^non-finite branch amplitude: \(inf"):
            state.scaled(1e300)


class TestOverflowSitesRaise:
    def test_probe_beam_splitter_mixing(self):
        state = HybridState.single_photon(1, 0, (1.5e308, 1.5e308j))
        with pytest.raises(ValueError, match=r"^non-finite probe amplitude: \(inf"):
            apply_element(state, BeamSplitter(PROBE, 0, 1, math.sqrt(0.5)))
        with pytest.raises(ValueError, match=r"^non-finite probe amplitude: \(inf"):
            apply_element(state, BeamSplitter(PROBE, 1, 0, math.sqrt(0.5)))

    @pytest.mark.parametrize(
        "element",
        [KerrCoupling(frozenset({0}), 0, math.pi / 4), PhaseShift(PROBE, 0, math.pi / 4)],
    )
    def test_probe_rotation(self, element):
        state = HybridState(1, 1, (Branch(0, 1.0, (HUGE,)),))
        with pytest.raises(ValueError, match=r"^non-finite probe amplitude: \("):
            apply_element(state, element)

    def test_system_phase(self):
        state = HybridState(1, 0, (Branch(0, HUGE, ()),))
        with pytest.raises(ValueError, match=r"^non-finite branch amplitude: \("):
            apply_element(state, PhaseShift(SYS, 0, math.pi / 4))

    def test_backward_run_of_a_custom_bra(self):
        circuit = Circuit(2, 0, (PhaseShift(SYS, 0, math.pi / 4),), 0, ())
        bra = HybridState(2, 0, (Branch(0, HUGE, ()),))
        with pytest.raises(ValueError, match=r"^non-finite branch amplitude: \(inf"):
            run_backward(circuit, bra)

    def test_merged_amplitude(self):
        twins = HybridState(1, 1, (Branch(0, 1.7e308, (0j,)), Branch(0, 1.7e308, (0j,))))
        with pytest.raises(ValueError, match=r"^non-finite branch amplitude: \(inf"):
            merge_branches(twins)


class TestMergeOfAnOverflowingModulus:
    def test_beam_splitter_output_is_kept(self):
        state = HybridState(2, 0, (Branch(0, HUGE, ()),))
        out = apply_element(state, BeamSplitter(SYS, 0, 1, 0.3))
        assert [b.mode for b in out.branches] == [0, 1]
        assert all(cmath.isfinite(b.amp) for b in out.branches)
        with pytest.raises(ValueError, match="^non-finite inner product"):
            out.norm_sq()

    @pytest.mark.parametrize("n", [1, 2])
    def test_merge_keeps_the_branch(self, n):
        branches = tuple(Branch(m, HUGE, ()) for m in range(n))
        state = HybridState(2, 0, branches)
        assert merge_branches(state) == state

    def test_tiny_states_still_drop_empty_branches(self):
        empty = HybridState(2, 1, ())
        assert merge_branches(empty) == empty
        faint = HybridState(2, 1, (Branch(1, 0.5 * MERGE_TOL, (1j,)),))
        assert merge_branches(faint) == empty
        kept = HybridState(2, 1, (Branch(1, MERGE_TOL, (1j,)),))
        assert merge_branches(kept) == kept


class TestOnePassStageSums:
    @staticmethod
    def assert_stage_sums(bra, ket):
        parts = {}
        assert _pair_sum(bra, ket, parts=parts) == inner_product(bra, ket)
        for m in range(ket.m_modes):
            want = inner_product(bra, ket.project_mode(m))
            got = parts.get(m, 0j)
            assert (got.real, got.imag) == (want.real, want.imag)
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("circuit", list(engine_circuits()))
    def test_numerators_equal_the_projected_inner_products(self, circuit):
        trace = run_both(circuit)
        for label in circuit.stages:
            self.assert_stage_sums(trace.backward[label], trace.forward[label])

    def test_gram_sized_stages_keep_their_bits(self):
        rng = random.Random(3)
        elements = []
        for layer in range(7):
            elements += [
                BeamSplitter(SYS, 0, 1, math.sqrt(0.5)),
                KerrCoupling(frozenset({0}), 0, rng.uniform(0.05, 1.0)),
                Snapshot(f"d{layer}"),
            ]
        circuit = Circuit(2, 1, elements, 0, (1.5 - 0.5j,))
        forward = run_forward(circuit).forward
        # The forward final state read as the bra: 128 x 128 pairs there.
        backward = run_backward(circuit, forward[FINAL_STAGE]).backward
        sizes = [
            len(forward[s].branches) * len(backward[s].branches) for s in circuit.stages
        ]
        assert sum(n >= _GRAM_MIN_PAIRS for n in sizes) >= 2
        for label in circuit.stages:
            self.assert_stage_sums(backward[label], forward[label])

    @staticmethod
    def report(bra, ket):
        """``tsvf_report`` of a bare circuit whose every stage holds ``bra``, ``ket``."""
        circuit = Circuit(bra.m_modes, bra.k_probes, (), 0, (0j,) * bra.k_probes)
        stages = circuit.stages
        trace = StageTrace(circuit, dict.fromkeys(stages, ket), dict.fromkeys(stages, bra))
        return tsvf_report(circuit, trace=trace)

    def test_null_transition_amplitude_gives_no_numerators(self):
        bra = HybridState(2, 0, (Branch(1, 1.0, ()),))
        ket = HybridState(2, 0, (Branch(0, 1.0, ()),))
        for stage in self.report(bra, ket).stages:
            assert stage.transition_amplitude == 0j
            assert not stage.postselection_possible
            assert [rep.weak_value for rep in stage.modes] == [None, None]

    def test_overflowed_numerator_raises_only_when_needed(self):
        # Terms +1e308 (mode 0) and -1e308 (mode 1) alternate: the running
        # total stays finite, while the mode-0 partial sum overflows.
        bra = HybridState(2, 0, tuple(Branch(m, 1e154, ()) for m in (0, 1, 0, 1)))
        ket = HybridState(2, 0, (Branch(0, 1e154, ()), Branch(1, -1e154, ())))
        for stage in self.report(bra, ket).stages:
            assert stage.transition_amplitude == 0j
            assert [rep.weak_value for rep in stage.modes] == [None, None]
        with pytest.raises(ValueError, match="^non-finite inner product"):
            inner_product(bra, ket.project_mode(0))
        # Mode-1 terms of -0.5e308 leave a possible total of 1e308.
        ket = HybridState(2, 0, (Branch(0, 1e154, ()), Branch(1, -0.5e154, ())))
        with pytest.raises(ValueError, match="^non-finite inner product"):
            self.report(bra, ket)

    def test_tsvf_report_sums_each_stage_once(self, monkeypatch):
        circuit = build_nested_mzi(0.6, 2.0, 0.3)
        trace = run_both(circuit)
        want = tsvf_report(circuit, trace=trace)
        sums, products = [], []
        pair_sum = qndmzi.analysis._pair_sum

        def counted_sum(*args, **kwargs):
            sums.append(args)
            return pair_sum(*args, **kwargs)

        def counted_product(bra, ket):
            products.append((bra, ket))
            return inner_product(bra, ket)

        monkeypatch.setattr(qndmzi.analysis, "_pair_sum", counted_sum)
        monkeypatch.setattr(qndmzi.analysis, "inner_product", counted_product)
        assert tsvf_report(circuit, trace=trace) == want
        # One pair sum per stage; the per-mode numerators were three more.
        assert len(sums) == len(circuit.stages)
        assert products == []
