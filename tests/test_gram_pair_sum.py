"""The numpy Gram behind large pair sums agrees with the branch-pair loop.

``states._pair_sum`` hands a sum of at least ``_GRAM_MIN_PAIRS`` branch
pairs to ``states._gram_pair_sum``, which sums the same terms in another
order and takes one ``exp`` per pair instead of one per probe, once for the
total, every probe moment and every per-mode part.  Its results must agree with
``overlap_reference`` within 1e-12 max(1, |alpha|^2) times the size of the
quantity, on deep Kerr chains, on bra != ket pairs and on spliced random
states.  Below the threshold the loop, and so every bit, stays; an
overflow must raise as it does in the loop, without a warning.
"""

import cmath
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndmzi.states
from qndmzi import (
    FINAL_STAGE,
    SOURCE_STAGE,
    SYS,
    BeamSplitter,
    Branch,
    Circuit,
    HybridState,
    KerrCoupling,
    inner_product,
    mean_probe_photons,
    run_both,
    tsvf_report,
)
from qndmzi.states import _GRAM_MIN_PAIRS, _gram_pair_sum, _pair_sum
from deep_chains import self_bra_trace
from helpers import random_complex
from overlap_reference import reference_inner_product, reference_mean_probe_photons

ALPHAS = [1e-3, 0.7 + 0.2j, 30.0, 1e3 - 2j]


def kerr_chain(depth: int, alpha: complex) -> Circuit:
    """A balanced splitter then a Kerr mark per layer, alternating two probes.

    Every layer's eps differs, so no branches merge: 2**depth branches.
    """
    rng = random.Random(depth)
    elements = []
    for layer in range(depth):
        elements += [
            BeamSplitter(SYS, 0, 1, math.sqrt(0.5)),
            KerrCoupling(frozenset({0}), layer % 2, rng.uniform(0.05, 1.0)),
        ]
    return Circuit(2, 2, tuple(elements), 0, (alpha, 0.6j * alpha))


def assert_close(got, want, alpha: complex = 1.0) -> None:
    scale = max(1.0, abs(alpha) ** 2) * max(1.0, abs(want))
    assert abs(got - want) <= 1e-12 * scale, (got, want)


def assert_means_close(state: HybridState, alpha: complex) -> None:
    for got, want in zip(mean_probe_photons(state), reference_mean_probe_photons(state)):
        assert_close(got, want, alpha)


@pytest.fixture
def gram_calls(monkeypatch):
    """Record the (bra, ket) sizes of every pair sum the Gram takes."""
    calls = []

    def counted(bra, ket, moments=None, parts=None):
        calls.append((len(bra.branches), len(ket.branches)))
        return _gram_pair_sum(bra, ket, moments, parts)

    monkeypatch.setattr(qndmzi.states, "_gram_pair_sum", counted)
    return calls


class TestKerrChains:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("depth", range(6, 10))
    def test_forward_and_backward_norms(self, gram_calls, depth, alpha):
        trace = run_both(kerr_chain(depth, alpha))
        fwd, bwd = trace.forward[FINAL_STAGE], trace.backward[SOURCE_STAGE]
        assert len(fwd.branches) == len(bwd.branches) == 2**depth
        for state in (fwd, bwd):
            assert_close(state.norm_sq(), reference_inner_product(state, state).real, alpha)
        assert gram_calls == [(2**depth, 2**depth)] * 2

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("depth", (6, 7))
    def test_bra_ket_pairs_and_every_mean(self, gram_calls, depth, alpha):
        trace = run_both(kerr_chain(depth, alpha))
        other = run_both(kerr_chain(depth, alpha * cmath.rect(1.001, 0.01)))
        fwd, bwd = trace.forward[FINAL_STAGE], trace.backward[SOURCE_STAGE]
        other_fwd, other_bwd = other.forward[FINAL_STAGE], other.backward[SOURCE_STAGE]
        # Mode 1 of ``fwd`` has no partner in the mode-0 projection.
        pairs = ((fwd, other_fwd), (other_bwd, bwd), (fwd, other_fwd.project_mode(0)))
        for bra, ket in pairs:
            assert_close(inner_product(bra, ket), reference_inner_product(bra, ket), alpha)
        for state in (fwd, bwd):
            assert_means_close(state, alpha)
        large = sum(len(bra.branches) * len(ket.branches) >= _GRAM_MIN_PAIRS
                    for bra, ket in pairs)
        # Each mean takes the norm and every probe's moment in one sum.
        assert large >= 2 and len(gram_calls) == large + 2


def test_tsvf_report_takes_one_gram_pass_per_stage(gram_calls):
    """Each Gram-sized stage sums its transition amplitude and every part in one pass."""
    trace = self_bra_trace(7)
    sizes = [(len(trace.backward[s].branches), len(trace.forward[s].branches))
             for s in trace.circuit.stages]
    tsvf_report(trace.circuit, trace=trace)
    # d6 (64 x 64), d7 and final (128 x 128); each mode at d7 holds 64 branches.
    assert gram_calls == [(nb, nk) for nb, nk in sizes if nb * nk >= _GRAM_MIN_PAIRS]
    assert len(gram_calls) == 3


def spliced_state(rng: random.Random, radius: float, n_sets: int) -> HybridState:
    """Random sets of 20 branches over 3 modes and 2 probes, spliced into one."""
    branches = []
    for _ in range(n_sets):
        probes = [random_complex(rng, radius) for _ in range(4)]
        for _ in range(20):
            pair = (rng.choice(probes), rng.choice(probes) + random_complex(rng, 0.1))
            branches.append(Branch(rng.randrange(3), random_complex(rng) + 0.1, pair))
    return HybridState(3, 2, tuple(branches))


class TestSplicedStates:
    @pytest.mark.parametrize("radius", (0.5, 3.0, 40.0))
    @pytest.mark.parametrize("seed", range(3))
    def test_inner_products_norms_and_means(self, gram_calls, seed, radius):
        rng = random.Random(7100 + seed)
        bra, ket = spliced_state(rng, radius, 4), spliced_state(rng, radius, 5)
        spliced = HybridState(3, 2, bra.branches + ket.branches)
        assert_close(inner_product(bra, ket), reference_inner_product(bra, ket), radius)
        assert_close(inner_product(ket, bra), reference_inner_product(ket, bra), radius)
        for state in (bra, ket, spliced):
            want = reference_inner_product(state, state).real
            assert_close(state.norm_sq(), want, radius)
            assert_means_close(state, radius)
        assert len(gram_calls) == 2 + 3 * (1 + 1)


class TestThreshold:
    def test_just_below_keeps_the_loop_bits(self, gram_calls):
        rng = random.Random(7200)
        bra, ket = spliced_state(rng, 1.0, 4), spliced_state(rng, 1.0, 4)
        bra = HybridState(3, 2, bra.branches[:63])
        ket = HybridState(3, 2, ket.branches[:65])
        assert len(bra.branches) * len(ket.branches) == _GRAM_MIN_PAIRS - 1
        assert inner_product(bra, ket) == reference_inner_product(bra, ket)
        assert inner_product(ket, bra) == reference_inner_product(ket, bra)
        assert bra.norm_sq() == reference_inner_product(bra, bra).real
        assert mean_probe_photons(bra) == reference_mean_probe_photons(bra)
        assert gram_calls == []

    def test_from_the_threshold_on_the_gram_sums(self, gram_calls):
        rng = random.Random(7201)
        state = HybridState(3, 2, spliced_state(rng, 1.0, 4).branches[:64])
        assert len(state.branches) ** 2 == _GRAM_MIN_PAIRS
        assert_close(state.norm_sq(), reference_inner_product(state, state).real)
        assert gram_calls == [(64, 64)]

    def test_probe_free_states(self):
        rng = random.Random(7202)
        branches = [Branch(rng.randrange(2), random_complex(rng), ()) for _ in range(70)]
        state = HybridState(2, 0, tuple(branches))
        assert_close(state.norm_sq(), reference_inner_product(state, state).real)


def test_overflow_raises_without_a_warning():
    fwd = run_both(kerr_chain(7, 1e160)).forward[FINAL_STAGE]
    assert len(fwd.branches) == 128
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (fwd.norm_sq, lambda: inner_product(fwd, fwd),
                     lambda: mean_probe_photons(fwd)):
            with pytest.raises(ValueError, match="^non-finite inner product"):
                call()


_complex = st.builds(
    complex,
    st.floats(-8.0, 8.0, allow_nan=False),
    st.floats(-8.0, 8.0, allow_nan=False),
)
_branches = st.lists(
    st.builds(Branch, st.integers(0, 2), _complex, st.tuples(_complex, _complex)),
    min_size=1,
    max_size=40,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_branches, _branches)
def test_gram_matches_the_loop_property(bra_branches, ket_branches):
    bra, ket = HybridState(3, 2, tuple(bra_branches)), HybridState(3, 2, tuple(ket_branches))
    assert len(bra.branches) * len(ket.branches) < _GRAM_MIN_PAIRS
    probe = max(abs(p) for br in bra.branches + ket.branches for p in br.probes)
    amps = sum(abs(u.amp) for u in bra.branches) * sum(abs(v.amp) for v in ket.branches)
    sums = {}
    for name, pair_sum in (("loop", _pair_sum), ("gram", _gram_pair_sum)):
        moments = []
        sums[name] = {None: pair_sum(bra, ket, moments)}
        sums[name].update(enumerate(moments))
    for k in (None, 0, 1):
        scale = amps * max(1.0, probe**2) ** (1 if k is None else 2)
        got, want = sums["gram"][k], sums["loop"][k]
        assert abs(got - want) <= 1e-12 * scale, (k, got, want)
