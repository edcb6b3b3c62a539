import copy
import math
import pickle
import random

import pytest

from qndmzi import (
    Branch,
    DimensionMismatchError,
    HybridState,
    KerrCoupling,
    apply_element,
    build_nested_mzi,
    coherent_overlap,
    inner_product,
    merge_branches,
    run_forward,
)
from qndmzi.states import _branch, _state

from helpers import random_complex, random_state


class TestCoherentOverlap:
    def test_identical_states_give_unity(self):
        for alpha in (0j, 1 + 0j, 0.5 - 2j, 3j):
            assert coherent_overlap(alpha, alpha) == pytest.approx(1.0, abs=1e-15)

    def test_vacuum_with_itself(self):
        assert coherent_overlap(0, 0) == 1.0

    def test_vacuum_against_unit_amplitude(self):
        # Independent route: sum_n conj(c_n(0)) c_n(1) over the Fock expansion
        # c_n(a) = e^(-|a|^2/2) a^n / sqrt(n!), truncated at n = 40.
        brute = 0.0
        for n in range(41):
            c0 = 1.0 if n == 0 else 0.0
            c1 = math.exp(-0.5) / math.sqrt(math.factorial(n))
            brute += c0 * c1
        got = coherent_overlap(0, 1)
        assert got.real == pytest.approx(brute, abs=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-15)
        assert got.real == pytest.approx(0.60653, abs=1e-5)

    def test_magnitude_is_gaussian_in_separation(self):
        rng = random.Random(11)
        for _ in range(100):
            a = random_complex(rng, 3.0)
            b = random_complex(rng, 3.0)
            expected = math.exp(-0.5 * abs(a - b) ** 2)
            assert abs(coherent_overlap(a, b)) == pytest.approx(expected, abs=1e-12)
            assert abs(coherent_overlap(a, b)) <= 1.0 + 1e-15


class TestInnerProduct:
    def test_normalized_single_branch(self):
        s = HybridState.single_photon(3, 0, (0.7 + 0.1j,))
        assert inner_product(s, s) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_photon_modes(self):
        a = HybridState.single_photon(3, 0, (1 + 0j,))
        b = HybridState.single_photon(3, 1, (1 + 0j,))
        assert inner_product(a, b) == 0.0

    def test_exit_stage_state_is_normalized(self):
        # The branch in the detector mode contributes r^2, the exit branch
        # t^2; the two are mode-orthogonal so no coherent cross terms arise.
        trace = run_forward(build_nested_mzi(0.6, 2.0, 0.3))
        state = trace.forward["L3p"]
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)
        detector = state.project_mode(0).norm_sq()
        exit_port = state.project_mode(2).norm_sq()
        assert detector == pytest.approx(0.36, abs=1e-12)
        assert exit_port == pytest.approx(0.64, abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_state(rng)
            b = random_state(rng)
            lhs = inner_product(a, b)
            rhs = inner_product(b, a)
            assert lhs == pytest.approx(rhs.conjugate(), abs=1e-13)

    def test_dimension_mismatch_rejected(self):
        a = HybridState.single_photon(3, 0, (0j, 0j))
        b = HybridState.single_photon(2, 0, (0j, 0j))
        c = HybridState.single_photon(3, 0, (0j,))
        with pytest.raises(DimensionMismatchError):
            inner_product(a, b)
        with pytest.raises(DimensionMismatchError):
            inner_product(a, c)


class TestMergeBranches:
    def test_duplicate_branches_sum(self):
        probes = (0.3 + 0j, 1j)
        s = HybridState(
            3, 2, (Branch(1, 0.3, probes), Branch(1, 0.2, probes))
        )
        merged = merge_branches(s)
        assert len(merged.branches) == 1
        assert merged.branches[0].amp == pytest.approx(0.5)

    def test_null_branch_removed(self):
        s = HybridState(2, 1, (Branch(0, 0.0, (1j,)), Branch(1, 0.5, (1j,))))
        merged = merge_branches(s)
        assert len(merged.branches) == 1
        assert merged.branches[0].mode == 1

    def test_dark_port_cancellation_leaves_two_branches(self):
        # The inner recombiner cancels the mode-1 amplitude entirely; after
        # merging, only the outer-arm and exit branches survive.
        trace = run_forward(build_nested_mzi(0.6, 2.0, 0.3))
        state = trace.forward["L3"]
        assert len(state.branches) == 2
        assert {br.mode for br in state.branches} == {0, 2}

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(25):
            s = random_state(rng)
            once = merge_branches(s)
            twice = merge_branches(once)
            assert once.branches == twice.branches

    def test_canonical_ordering(self):
        s = HybridState(
            3,
            1,
            (
                Branch(2, 0.5, (1j,)),
                Branch(0, 0.5, (2 + 0j,)),
                Branch(0, 0.5, (1 + 0j,)),
            ),
        )
        merged = merge_branches(s)
        assert [br.mode for br in merged.branches] == [0, 0, 2]
        assert merged.branches[0].probes[0].real < merged.branches[1].probes[0].real


class TestStateValidation:
    def test_null_state_does_not_normalize(self):
        with pytest.raises(ValueError, match="^cannot normalize a null state$"):
            HybridState(2, 1, ()).normalized()

    def test_kerr_mark_whose_probe_overflows(self):
        # Finite parts, modulus past the float range: a quarter turn writes inf.
        state = HybridState(2, 1, (Branch(0, 1.0, (1.5e308 + 1.5e308j,)),))
        with pytest.raises(ValueError, match=r"^non-finite probe amplitude: \(inf"):
            apply_element(state, KerrCoupling({0}, 0, math.pi / 4))

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            HybridState(2, 1, (Branch(2, 1.0, (0j,)),))

    def test_probe_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            HybridState(2, 2, (Branch(0, 1.0, (0j,)),))

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError):
            Branch(0, complex("nan"), (0j,))
        with pytest.raises(ValueError):
            Branch(0, 1.0, (complex("inf"),))


class TestSlots:
    """``Branch`` and ``HybridState`` store their fields in slots, not in a ``__dict__``."""

    BRANCHES = (Branch(0, 0.6, (0.5j, -1.0)), Branch(2, -0.8j, (0j, 2.0)))

    def objects(self):
        return (*self.BRANCHES, HybridState(3, 2, self.BRANCHES), HybridState(1, 0, ()))

    def test_no_instance_dict(self):
        for obj in self.objects():
            assert not hasattr(obj, "__dict__")
            with pytest.raises(TypeError):
                vars(obj)

    def test_trusted_constructors_build_the_public_objects(self):
        built = [_branch(br.mode, br.amp, br.probes) for br in self.BRANCHES]
        built += [_state(3, 2, tuple(built)), _state(1, 0, ())]
        for got, want in zip(built, self.objects()):
            assert type(got) is type(want)
            assert got == want and want == got and hash(got) == hash(want)
            assert repr(got) == repr(want)

    def test_frozen(self):
        for obj, name in zip(self.objects(), ("mode", "amp", "branches", "m_modes")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)

    def test_copy_and_pickle_round_trips(self):
        for obj in self.objects():
            for back in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert type(back) is type(obj) and back == obj
                assert hash(back) == hash(obj) and repr(back) == repr(obj)
