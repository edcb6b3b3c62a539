"""Element constants, norm preservation, merge idempotence and overlap overflow.

Every element forms its constants once, at construction: a beam splitter
its matrix and that matrix's conjugate transpose, a phase shift or Kerr
coupling its factor forward and conjugated, and each element the spans of
modes it names.  These tests hold them to the expressions the appliers
formed per call, bit for bit, and check that they leave the dataclass
identity (fields, ``repr``, ``==``, ``hash``) as it was; a numpy
reflectivity gives the Python floats of ``float(r)``.  Two seeded
hypothesis properties cover small states over |alpha| from 1e-3 to 1e6:
every element keeps the norm, forward and conjugated, and merging twice
changes nothing, one-branch states included.
"""

from __future__ import annotations

import cmath
import copy
import dataclasses
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndmzi import (
    MERGE_TOL,
    PROBE,
    SYS,
    BeamSplitter,
    Branch,
    HybridState,
    KerrCoupling,
    PhaseShift,
    Snapshot,
    apply_element,
    build_nested_mzi,
    coherent_overlap,
    merge_branches,
    postselect,
    run_both,
)

REFLECTIVITIES = [0.0, 5e-324, 0.6, math.sqrt(0.5), 1 - 1e-16, 1.0]


def formula(r):
    t = math.sqrt(max(0.0, 1.0 - r * r))
    return ((-1j * r, t + 0j), (t + 0j, -1j * r))


def bits(matrix):
    return [(z.real.hex(), z.imag.hex()) for row in matrix for z in row]


def dagger(matrix):
    (u00, u01), (u10, u11) = matrix
    return ((u00.conjugate(), u10.conjugate()), (u01.conjugate(), u11.conjugate()))


class TestSplitterUnitary:
    @pytest.mark.parametrize("target", [SYS, PROBE])
    @pytest.mark.parametrize("r", REFLECTIVITIES)
    def test_bit_equal_to_formula(self, target, r):
        bs = BeamSplitter(target, 0, 1, r)
        assert bits(bs.unitary()) == bits(formula(r))
        for other in REFLECTIVITIES:
            moved = dataclasses.replace(bs, reflectivity=other)
            assert bits(moved.unitary()) == bits(formula(other))
            assert bits(bs.unitary()) == bits(formula(r))

    @pytest.mark.parametrize("target", [SYS, PROBE])
    @pytest.mark.parametrize("r", REFLECTIVITIES)
    def test_adjoint_bit_equal_to_conjugate_transpose(self, target, r):
        bs = BeamSplitter(target, 0, 1, r)
        assert bits(bs._adjoint) == bits(dagger(bs.unitary())) == bits(dagger(formula(r)))
        for other in REFLECTIVITIES:
            moved = dataclasses.replace(bs, reflectivity=other)
            assert bits(moved._adjoint) == bits(dagger(formula(other)))
            assert bits(bs._adjoint) == bits(dagger(formula(r)))

    def test_copies_keep_the_matrix(self):
        bs = BeamSplitter(PROBE, 1, 0, 0.37)
        for twin in (copy.copy(bs), copy.deepcopy(bs), pickle.loads(pickle.dumps(bs))):
            assert twin == bs
            assert bits(twin.unitary()) == bits(formula(0.37))
            assert bits(twin._adjoint) == bits(dagger(formula(0.37)))

    def test_dataclass_identity_unchanged(self):
        assert [f.name for f in dataclasses.fields(BeamSplitter)] == [
            "target", "mode_a", "mode_b", "reflectivity"
        ]
        bs = BeamSplitter(SYS, 0, 2, 0.6)
        assert sorted(vars(bs)) == sorted(["target", "mode_a", "mode_b", "reflectivity",
                                           "_unitary", "_adjoint", "_indices", "_reach"])
        assert repr(bs) == "BeamSplitter(target='sys', mode_a=0, mode_b=2, reflectivity=0.6)"
        assert bs == BeamSplitter(SYS, 0, 2, 0.6)
        assert bs != BeamSplitter(SYS, 0, 2, 0.8)
        assert bs != BeamSplitter(PROBE, 0, 2, 0.6)
        assert hash(bs) == hash(BeamSplitter(SYS, 0, 2, 0.6))
        assert hash(bs) == hash(("sys", 0, 2, 0.6))
        assert dataclasses.astuple(bs) == ("sys", 0, 2, 0.6)
        assert dataclasses.replace(bs) == bs
        with pytest.raises(dataclasses.FrozenInstanceError):
            bs.reflectivity = 0.2

    # A reflectivity that is not a real number raises ValueError, not the
    # range test's bare TypeError ('<=' not supported between ...).
    @pytest.mark.parametrize("r", [-0.1, 1.1, math.nan, "0.5", 0.5 + 0j, None,
                                   np.complex128(0.5), np.complex64(0.5 + 0.25j)])
    def test_invalid_reflectivity_still_raises(self, r):
        match = "outside" if isinstance(r, float) else r"^reflectivity .* is not a real number$"
        with pytest.raises(ValueError, match=match):
            BeamSplitter(SYS, 0, 1, r)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(BeamSplitter(SYS, 0, 1, 0.5), reflectivity=r)

    @pytest.mark.parametrize("r", [0, 1, False, True, np.float64(0.6), np.float32(0.5),
                                   np.int64(1), Fraction(3, 5), Decimal("0.6")])
    def test_real_reflectivity_types_are_accepted(self, r):
        bs = BeamSplitter(SYS, 0, 1, r)
        assert bs.reflectivity is r
        assert bs.unitary() == BeamSplitter(SYS, 0, 1, float(r)).unitary()


def old_factor(el, dagger=False):
    """The factor the appliers formed per call before it was stored at construction."""
    if isinstance(el, PhaseShift):
        return cmath.exp((-1j if dagger else 1j) * el.phi)
    return cmath.exp((1.0 if dagger else -1.0) * 1j * el.eps_tau)


def old_spans(el):
    """The (system, probe) index spans the index checker formed per call."""
    if isinstance(el, BeamSplitter):
        pair = (el.mode_a, el.mode_b)
        return (pair, ()) if el.target == SYS else ((), pair)
    if isinstance(el, PhaseShift):
        return ((el.index,), ()) if el.target == SYS else ((), (el.index,))
    if isinstance(el, KerrCoupling):
        return tuple(sorted(el.system_modes)), (el.probe_mode,)
    return (), ()


def old_reach(el):
    """(lowest index, highest system mode + 1, highest probe mode + 1) of the spans."""
    sys_idx, probe_idx = old_spans(el)
    return (min(sys_idx + probe_idx, default=0), max(sys_idx, default=-1) + 1,
            max(probe_idx, default=-1) + 1)


def assert_constants_match_fields(el):
    assert el._indices == old_spans(el)
    assert el._reach == old_reach(el)
    if isinstance(el, BeamSplitter):
        assert bits(el.unitary()) == bits(formula(el.reflectivity))
        assert bits(el._adjoint) == bits(dagger(formula(el.reflectivity)))
    elif not isinstance(el, Snapshot):
        assert repr(el._factors) == repr((old_factor(el), old_factor(el, True)))


_rng = random.Random(2201)
ANGLES = [0.0, -0.0, math.pi, -math.pi, 1e300, -1e300, 2, 5e-324, -2.5e-16] + [
    _rng.choice((1.0, -1.0)) * 10.0 ** _rng.uniform(-8.0, 8.0) for _ in range(24)
]


def every_kind(angle=0.3):
    return [
        BeamSplitter(SYS, 2, 0, 0.6), BeamSplitter(PROBE, 0, 1, 0.25),
        PhaseShift(SYS, 1, angle), PhaseShift(PROBE, 0, angle),
        KerrCoupling(frozenset({3, 1, 2}), 1, angle), Snapshot("L2"),
    ]


class TestStoredConstants:
    """Each element's factors and index spans are formed once, at construction.

    They must equal, under ``repr`` (signed zeros included), what the
    appliers and the index checker formed on every call before, and stay
    out of the dataclass identity as the splitter's matrix does.
    """

    @pytest.mark.parametrize("angle", ANGLES, ids=repr)
    def test_factors_equal_the_per_call_expressions(self, angle):
        for el in every_kind(angle):
            assert_constants_match_fields(el)

    def test_signed_zero_factors(self):
        # At -0.0 the conjugated factor is not the forward factor's conjugate.
        assert repr(PhaseShift(SYS, 0, 0.0)._factors) == "((1+0j), (1-0j))"
        assert repr(PhaseShift(SYS, 0, -0.0)._factors) == "((1+0j), (1+0j))"
        assert repr(KerrCoupling(frozenset({0}), 0, 0.0)._factors) == "((1-0j), (1+0j))"
        assert repr(KerrCoupling(frozenset({0}), 0, -0.0)._factors) == "((1+0j), (1+0j))"

    def test_copies_and_replacements_stay_consistent(self):
        for el in every_kind():
            for twin in (copy.copy(el), copy.deepcopy(el), pickle.loads(pickle.dumps(el)),
                         dataclasses.replace(el)):
                assert twin == el
                assert_constants_match_fields(twin)
        moved = [
            dataclasses.replace(BeamSplitter(SYS, 2, 0, 0.6), mode_a=1, target=PROBE),
            dataclasses.replace(PhaseShift(SYS, 1, 0.3), phi=-math.pi, index=2),
            dataclasses.replace(PhaseShift(PROBE, 0, 0.3), target=SYS),
            dataclasses.replace(KerrCoupling(frozenset({1}), 0, 0.3),
                                system_modes=frozenset({4, 0}), eps_tau=1e300),
        ]
        for el in moved:
            assert_constants_match_fields(el)

    def test_dataclass_identity_ignores_the_constants(self):
        names = {
            BeamSplitter: ["target", "mode_a", "mode_b", "reflectivity"],
            PhaseShift: ["target", "index", "phi"],
            KerrCoupling: ["system_modes", "probe_mode", "eps_tau"],
            Snapshot: ["label"],
        }
        for el in every_kind():
            fields = [f.name for f in dataclasses.fields(el)]
            assert fields == names[type(el)]
            assert dataclasses.astuple(el) == tuple(getattr(el, f) for f in fields)
            assert hash(el) == hash(dataclasses.astuple(el))
            shown = ", ".join(f"{f}={getattr(el, f)!r}" for f in fields)
            assert repr(el) == f"{type(el).__name__}({shown})"
            # Constants overwritten behind the element's back change neither == nor hash.
            twin = copy.copy(el)
            for name in ("_indices", "_reach", "_factors", "_unitary", "_adjoint"):
                if name in vars(twin):
                    object.__setattr__(twin, name, None)
            assert twin == el and hash(twin) == hash(el) and repr(twin) == repr(el)
        assert vars(Snapshot("a")) == {"label": "a"}


class TestNumpyReflectivity:
    """A numpy reflectivity leaves no numpy value in the matrix or the run."""

    @pytest.mark.parametrize("r", [np.float32(0.6), np.float64(0.6), np.array(0.6),
                                   np.float16(0.3), np.float32(1.0), np.int64(0)], ids=repr)
    def test_python_values_bit_equal_to_float(self, r):
        bs, plain = BeamSplitter(PROBE, 0, 1, r), BeamSplitter(PROBE, 0, 1, float(r))
        assert bs.reflectivity is r
        values = [z for m in (bs.unitary(), bs._adjoint) for row in m for z in row]
        assert {type(z) for z in values} == {complex}
        assert type(bs.transmissivity) is float
        assert bs.transmissivity.hex() == plain.transmissivity.hex()
        assert bits(bs.unitary()) == bits(plain.unitary())
        assert bits(bs._adjoint) == bits(plain._adjoint)

    @pytest.mark.parametrize("r", [np.float32(0.6), np.array(0.6), np.float64(0.35)], ids=repr)
    def test_runs_bit_equal_to_float(self, r):
        got = run_both(build_nested_mzi(r, 1.3 - 0.4j, 0.7))
        want = run_both(build_nested_mzi(float(r), 1.3 - 0.4j, 0.7))
        # repr shows every bit of a Python complex and names any numpy type.
        assert repr(got.forward) == repr(want.forward)
        assert repr(got.backward) == repr(want.backward)
        for mode in (0, 1, 2):
            a, b = postselect(got, mode), postselect(want, mode)
            assert type(a.probability) is float
            assert repr(dataclasses.astuple(a)) == repr(dataclasses.astuple(b))


class TestRealAngles:
    """eps_tau and phi must be real numbers, as a reflectivity must.

    A complex angle, numpy's included, formed a factor that is not of unit
    modulus: ``apply_phase`` with phi = 0.3+0.5j left a norm of 0.3679, and
    ``serialize_circuit`` wrote the real part alone.  None or a string
    raised a bare ``TypeError``.
    """

    NOT_REAL = [0.3 + 0.5j, 0.3 + 0j, np.complex128(0.3 + 0.5j), np.complex64(0.5 + 0.25j),
                None, "0.3"]

    @pytest.mark.parametrize("angle", NOT_REAL, ids=repr)
    def test_non_real_angles_raise(self, angle):
        for el in every_kind():
            if isinstance(el, (KerrCoupling, PhaseShift)):
                name = "eps_tau" if isinstance(el, KerrCoupling) else "phi"
                with pytest.raises(ValueError, match=rf"^{name} .* is not a real number$"):
                    dataclasses.replace(el, **{name: angle})
        with pytest.raises(ValueError, match=r"^eps_tau .* is not a real number$"):
            build_nested_mzi(0.6, 2, angle)

    def test_int_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(ValueError, match="phi must be finite"):
            PhaseShift(SYS, 0, 10**400)
        with pytest.raises(ValueError, match="eps_tau must be finite"):
            KerrCoupling(frozenset({0}), 0, -10**400)

    #: Every real type an angle may come as; each factor is formed from its float.
    REAL_TYPES = [0, 2, False, True, 0.3, -0.0, np.float16(0.3), np.float32(0.5), np.float64(0.3),
                  np.int64(-3), Fraction(1, 3), Fraction(-7, 2), Decimal("0.3"), Decimal("-1e-9")]

    @pytest.mark.parametrize("angle", REAL_TYPES, ids=repr)
    def test_factors_are_formed_from_the_float(self, angle):
        # A Decimal angle once raised a bare TypeError: the factor multiplied
        # a complex by the field as given.
        x = float(angle)
        shift, coupling = PhaseShift(SYS, 1, angle), KerrCoupling(frozenset({1}), 0, angle)
        assert repr(shift._factors) == repr((cmath.exp(1j * x), cmath.exp(-1j * x)))
        assert repr(coupling._factors) == repr((cmath.exp(-1.0 * 1j * x), cmath.exp(1.0 * 1j * x)))
        assert shift.phi is angle and coupling.eps_tau is angle
        preset = build_nested_mzi(0.6, 2, angle)
        assert repr(preset.elements[6]._factors) == repr(coupling._factors)
        assert repr(run_both(preset).forward) == repr(run_both(build_nested_mzi(0.6, 2, x)).forward)

    @pytest.mark.parametrize("angle", [0, 2, False, True, np.float64(0.3), np.float32(0.5),
                                       np.int64(-3), Fraction(1, 3)], ids=repr)
    def test_real_angle_types_keep_their_bits(self, angle):
        for el in every_kind(angle):
            assert_constants_match_fields(el)
        assert PhaseShift(SYS, 1, angle).phi is angle
        assert KerrCoupling(frozenset({1}), 0, angle).eps_tau is angle


class TestOverlapOverflow:
    @pytest.mark.parametrize("a,b", [
        # Bra and ket source probes of run_both(build_nested_mzi(0.6,
        # cmath.rect(1e50, 1.0), 0.0)): equal up to rounding, so the
        # exponent is a cancellation of terms of size 1e100.
        (7.641028487401797e49 + 1.1900196790587719e50j,
         7.641028487401797e49 + 1.190019679058772e50j),
        # |a|^2 and |b|^2 overflow to inf, so the exponent is NaN.
        (1.4e154, 1.4e154),
        (1e200, 1e200),
        (1e300 + 1e300j, 1e300 + 1e300j),
    ])
    def test_overflowing_exponent_raises_value_error(self, a, b):
        with pytest.raises(ValueError, match=r"^non-finite inner product: a coherent "
                                             r"overlap overflows$"):
            coherent_overlap(a, b)

    @pytest.mark.parametrize(
        "a,b", [(0j, 0j), (1 + 2j, 1 + 2j), (0.3 - 1j, 2.5j), (1e5, 1e5 + 1e-11j), (3.0, -3.0)]
    )
    def test_finite_values_unchanged(self, a, b):
        want = cmath.exp(
            -0.5 * (a.real * a.real + a.imag * a.imag)
            - 0.5 * (b.real * b.real + b.imag * b.imag)
            + complex(a).conjugate() * b
        )
        got = coherent_overlap(a, b)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def _probe(draw, scale):
    return cmath.rect(scale * draw(st.floats(0.0, 1.0)), draw(st.floats(-math.pi, math.pi)))


@st.composite
def small_states(draw, max_branches=3, amp_decades=(-1.0, 0.0), nudge=False):
    """A state of 1 to ``max_branches`` branches, probes up to |alpha| in [1e-3, 1e6].

    Branches draw their probes from a pool of two, so same-mode branches
    often share probes and merge; with ``nudge``, a probe may move by a
    fraction of MERGE_TOL or past it.
    """
    m_modes, k_probes = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    scale = 10.0 ** draw(st.floats(-3.0, 6.0))
    pool = [tuple(_probe(draw, scale) for _ in range(k_probes)) for _ in range(2)]
    branches = []
    for _ in range(draw(st.integers(1, max_branches))):
        probes = draw(st.sampled_from(pool))
        if nudge and draw(st.booleans()):
            step = draw(st.sampled_from([0.4, 0.9, 1.5])) * MERGE_TOL
            probes = (probes[0] + step,) + probes[1:]
        amp = cmath.rect(10.0 ** draw(st.floats(*amp_decades)), draw(st.floats(-math.pi, math.pi)))
        branches.append(Branch(draw(st.integers(0, m_modes - 1)), amp, probes))
    return HybridState(m_modes, k_probes, tuple(branches))


@st.composite
def elements(draw, m_modes, k_probes):
    kinds = ["bs_sys", "phase_sys", "phase_probe", "kerr"] + (["bs_probe"] * (k_probes > 1))
    kind = draw(st.sampled_from(kinds))
    angle = draw(st.floats(-10.0, 10.0))
    if kind in ("bs_sys", "bs_probe"):
        target, n = (SYS, m_modes) if kind == "bs_sys" else (PROBE, k_probes)
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        return BeamSplitter(target, a, b, draw(st.floats(0.0, 1.0)))
    if kind == "phase_sys":
        return PhaseShift(SYS, draw(st.integers(0, m_modes - 1)), angle)
    if kind == "phase_probe":
        return PhaseShift(PROBE, draw(st.integers(0, k_probes - 1)), angle)
    modes = draw(st.frozensets(st.integers(0, m_modes - 1), min_size=1))
    return KerrCoupling(modes, draw(st.integers(0, k_probes - 1)), angle)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_every_element_keeps_the_norm(data):
    state = merge_branches(data.draw(small_states()))
    norm = state.norm_sq()
    if norm < 1e-6:  # same-probe branches that cancel leave no state to normalize
        return
    state = state.normalized()
    alpha = max(abs(p) for br in state.branches for p in br.probes)
    tol = 1e-12 * max(1.0, alpha * alpha)
    element = data.draw(elements(state.m_modes, state.k_probes))
    for dagger in (False, True):
        assert abs(apply_element(state, element, dagger=dagger).norm_sq() - 1.0) <= tol


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_states(max_branches=4, amp_decades=(-14.0, 0.0), nudge=True))
def test_merging_is_idempotent(state):
    merged = merge_branches(state)
    assert merge_branches(merged) == merged
    if len(state.branches) == 1:
        (br,) = state.branches
        assert merged == (state if abs(br.amp) >= MERGE_TOL else HybridState(
            state.m_modes, state.k_probes, ()))


@pytest.mark.parametrize("amp", [1.0, MERGE_TOL, 0.999 * MERGE_TOL, 0j])
def test_one_branch_merge(amp):
    state = HybridState(3, 2, (Branch(2, amp, (1 + 1j, -2.0)),))
    merged = merge_branches(state)
    assert merged == (state if abs(amp) >= MERGE_TOL else HybridState(3, 2, ()))
    assert merge_branches(merged) == merged
    assert merge_branches(HybridState(3, 2, ())) == HybridState(3, 2, ())
