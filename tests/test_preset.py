"""The nested-MZI preset: the same circuit, the same errors and the same work as its literal form.

``build_nested_mzi`` shares its parameter-free elements between calls,
retunes copies of the template's outer splitter and Kerr coupling, and
assembles its circuit without the public constructor, whose checks the
template circuit passed once, at import; these tests hold it to the circuit
written out element by element, constants included, and pin how many
elements, merges and circuits each public run performs on it, and how many
branches and states it builds.
"""

from __future__ import annotations

import cmath
import importlib
import math
import pickle
from collections import Counter
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import qndmzi
from qndmzi import (
    PROBE,
    SYS,
    BeamSplitter,
    Circuit,
    HybridState,
    KerrCoupling,
    PhaseShift,
    Snapshot,
    apply_element,
    build_nested_mzi,
    postselect,
    run_backward,
    run_both,
    run_forward,
    serialize_circuit,
    tsvf_report,
)
from qndmzi.states import _complex

_BALANCED = math.sqrt(0.5)


def literal_nested_mzi(r, alpha=2.0, eps_tau=0.0) -> Circuit:
    """The preset with every element constructed in place, in circuit order, alpha coerced first."""
    alpha = _complex("alpha", alpha)
    elements = (
        BeamSplitter(SYS, 0, 1, r),
        Snapshot("L1"),
        BeamSplitter(SYS, 1, 2, _BALANCED),
        PhaseShift(PROBE, 0, math.pi / 2),
        BeamSplitter(PROBE, 0, 1, _BALANCED),
        Snapshot("L2"),
        KerrCoupling(frozenset({1, 2}), 0, eps_tau),
        Snapshot("L2p"),
        BeamSplitter(SYS, 1, 2, _BALANCED),
        Snapshot("L3"),
        PhaseShift(PROBE, 0, math.pi),
        BeamSplitter(PROBE, 0, 1, _BALANCED),
        Snapshot("L3p"),
        BeamSplitter(SYS, 0, 1, r),
    )
    return Circuit(
        m_modes=3,
        k_probes=2,
        elements=elements,
        source_mode=0,
        source_probes=(math.sqrt(2) * alpha, 0j),
        postselect_mode=0,
        detect_stage="L3p",
    )


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


ALPHAS = [
    mag * phase for mag in (1e-3, 2.0, 1e150) for phase in (1.0, cmath.exp(1j))
]


#: The constants an element forms at construction, outside its dataclass fields.
CONSTANTS = ("_unitary", "_adjoint", "_factors", "_indices", "_reach")

#: r and eps_tau of every real type the constructors take, beside the float grid.
TYPED_R = [np.float64(0.6), np.float32(0.6), np.float16(0.3), np.int64(1), 0, 1, False, True,
           Fraction(3, 5), Decimal("0.6")]
TYPED_EPS = [np.float64(0.3), np.float32(0.3), np.float16(0.3), np.int64(2), 0, 3, False, True,
             Fraction(1, 3), Decimal("0.3")]


def assert_same_constants(got: Circuit, want: Circuit) -> None:
    """Each element's instance attributes, in order, and its constants under ``repr``."""
    for mine, theirs in zip(got.elements, want.elements, strict=True):
        assert list(vars(mine)) == list(vars(theirs))
        for name in CONSTANTS:
            assert repr(getattr(mine, name, None)) == repr(getattr(theirs, name, None)), name


class TestPresetEqualsLiteral:
    @pytest.mark.parametrize("r", [0.0, 0.37, 0.6, 1.0])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("eps", [0.0, 1e-13, math.pi])
    def test_equal_and_same_bytes(self, r, alpha, eps):
        got, want = build_nested_mzi(r, alpha, eps), literal_nested_mzi(r, alpha, eps)
        # The outer splitter and the coupling are retuned templates.
        assert_same_constants(got, want)
        # Every field in the instance dict, in order: a missing one would
        # read the class default and pass the fields() round trip below.
        assert list(vars(got)) == list(vars(want))
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert serialize_circuit(got).encode() == serialize_circuit(want).encode()
        # The public constructor accepts the preset and leaves it as it is.
        assert Circuit(**{f.name: getattr(got, f.name) for f in fields(got)}) == got
        assert repr(Circuit(**{f.name: getattr(got, f.name) for f in fields(got)})) == repr(got)
        assert pickle.loads(pickle.dumps(got)) == want
        assert [el.unitary() for el in got.elements if isinstance(el, BeamSplitter)] == [
            el.unitary() for el in want.elements if isinstance(el, BeamSplitter)
        ]

    @pytest.mark.parametrize("r", TYPED_R, ids=repr)
    @pytest.mark.parametrize("eps", TYPED_EPS, ids=repr)
    def test_typed_parameters_keep_the_constants(self, r, eps):
        got, want = build_nested_mzi(r, 2.0, eps), literal_nested_mzi(r, 2.0, eps)
        assert got == want and repr(got) == repr(want)
        assert got.elements[0].reflectivity is r and got.elements[6].eps_tau is eps
        assert_same_constants(got, want)

    def test_integer_and_default_arguments(self):
        assert build_nested_mzi(1) == literal_nested_mzi(1)
        assert repr(build_nested_mzi(1, 2)) == repr(literal_nested_mzi(1, 2))

    @pytest.mark.parametrize(
        "args",
        [
            (-0.1, 2.0, 0.3),
            (1.1, 2.0, 0.3),
            (math.nan, 2.0, 0.3),
            (0.6, 2.0, math.inf),
            (0.6, 2.0, math.nan),
            (0.6, math.nan, 0.3),
            (0.6, complex(math.inf, 0.0), 0.3),
            (0.6, "not a number", 0.3),
            (1.1, math.nan, math.inf),
            (0.6, math.nan, math.inf),
            (0.6, 1.3e308, 0.3),  # sqrt(2) * alpha overflows
            (0.6, None, 0.3),
            ("0.6", 2.0, 0.3),
            (0.6 + 0j, math.nan, math.inf),
        ],
    )
    def test_same_errors(self, args):
        want = _outcome(literal_nested_mzi, *args)
        assert isinstance(want, tuple) and issubclass(want[0], Exception)
        assert _outcome(build_nested_mzi, *args) == want

    def test_calls_share_no_state(self):
        a = build_nested_mzi(0.6, 2.0, 0.3)
        b = build_nested_mzi(0.2, 5.0, 1.1)
        assert a == literal_nested_mzi(0.6, 2.0, 0.3)
        assert b == literal_nested_mzi(0.2, 5.0, 1.1)
        assert a.kerr_free().elements[6] == KerrCoupling(frozenset({1, 2}), 0, 0.0)
        assert a == literal_nested_mzi(0.6, 2.0, 0.3)


class TestTrustedStartStates:
    """The source state and the default final bra match the checked constructors."""

    @pytest.mark.parametrize("circuit", [
        build_nested_mzi(0.6, 2.0, 0.3),
        build_nested_mzi(1, cmath.rect(1e3, -2.0), 1),
        Circuit(2, 1, (PhaseShift(PROBE, 0, 0.4),), 1, (3,), postselect_mode=0),
        Circuit(4, 0, (BeamSplitter(SYS, 0, 3, 0.5),), 3, (), postselect_mode=2),
    ])
    def test_same_values_and_types(self, circuit):
        source = HybridState.single_photon(
            circuit.m_modes, circuit.source_mode, circuit.source_probes
        )
        assert repr(circuit.source_state()) == repr(source)
        assert repr(run_forward(circuit).forward["source"]) == repr(source)
        bra = HybridState.single_photon(
            circuit.m_modes, circuit.postselect_mode, circuit.source_probes
        )
        for el in circuit.elements:
            if getattr(el, "target", None) == PROBE:
                bra = apply_element(bra, el)
        assert repr(run_backward(circuit).backward["final"]) == repr(bra)
        assert repr(run_backward(circuit).backward) == repr(run_backward(circuit, bra).backward)


COUNTED = [
    ("elements", "apply_element"),
    ("elements", "apply_beam_splitter"),
    ("elements", "apply_kerr"),
    ("elements", "apply_phase"),
    ("states", "merge_branches"),
]


def _count_work(monkeypatch) -> Counter:
    """Count the public appliers, merges and circuit constructions run from now on.

    Every module attribute bound to a counted function is rebound, since the
    package's modules import those names from each other.
    """
    counts: Counter = Counter()
    modules = [importlib.import_module(f"qndmzi.{name}") for name in
               ("states", "elements", "circuit", "analysis", "fileformat")]
    for owner, name in COUNTED:
        original = getattr(getattr(qndmzi, owner), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules + [qndmzi]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    init = Circuit.__init__

    def counted_init(self, *args, **kwargs):
        counts["Circuit.__init__"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "__init__", counted_init)
    return counts


#: Counted per call, in this order, in the pins below.
WORK = tuple(name for _, name in COUNTED) + ("Circuit.__init__",)


class TestWorkCounts:
    """Per-call work on the preset, pinned so the traced per-layer counts stay comparable."""

    @pytest.fixture
    def circuit(self):
        return build_nested_mzi(0.6, 2.0, 0.3)

    def _counts(self, monkeypatch, fn, *args, **kwargs):
        counts = _count_work(monkeypatch)
        fn(*args, **kwargs)
        return tuple(counts[name] for name in WORK)

    def test_build(self, monkeypatch):
        # The preset assembles its circuit without Circuit.__init__.
        got = self._counts(monkeypatch, build_nested_mzi, 0.6, 2.0, 0.3)
        assert got == (0, 0, 0, 0, 0, 0)

    def test_run_forward(self, monkeypatch, circuit):
        got = self._counts(monkeypatch, run_forward, circuit)
        assert got == (9, 6, 1, 2, 9, 0)

    def test_run_both(self, monkeypatch, circuit):
        got = self._counts(monkeypatch, run_both, circuit)
        assert got == (22, 14, 2, 6, 22, 0)

    def test_postselect_with_fidelity(self, monkeypatch, circuit):
        trace = run_both(circuit)
        got = self._counts(monkeypatch, postselect, trace, 0)
        assert got == (3, 2, 0, 1, 3, 0)

    def test_postselect_without_fidelity(self, monkeypatch, circuit):
        trace = run_both(circuit)
        got = self._counts(monkeypatch, postselect, trace, 2, compute_fidelity=False)
        assert got == (0, 0, 0, 0, 0, 0)

    def test_tsvf_report(self, monkeypatch, circuit):
        got = self._counts(monkeypatch, tsvf_report, circuit)
        assert got == (22, 14, 2, 6, 22, 0)

    def test_tsvf_report_of_a_trace(self, monkeypatch, circuit):
        trace = run_both(circuit)
        got = self._counts(monkeypatch, tsvf_report, circuit, trace=trace)
        assert got == (0, 0, 0, 0, 0, 0)


#: The engine's trusted constructors, counted in the allocation pins.
BUILT = ("_branch", "_state")


def _count_builds(monkeypatch) -> Counter:
    """Count the branches and states the engine builds from now on, as ``_count_work`` counts."""
    counts: Counter = Counter()
    modules = [importlib.import_module(f"qndmzi.{name}") for name in
               ("states", "elements", "circuit", "analysis", "fileformat")]
    for name in BUILT:
        original = getattr(qndmzi.states, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestAllocationCounts:
    """Branches and states built per call on the preset, as (``_branch``, ``_state``) calls.

    Before merges handed canonical states back as they are, these read
    (25, 19) for ``run_forward``, (54, 42) for ``run_both`` and (13, 13)
    for the four analyses of an ``apparatus`` solve; a count that rises
    again means a step copies what it did not change.
    """

    @pytest.fixture
    def circuit(self):
        return build_nested_mzi(0.6, 2.0, 0.3)

    def _counts(self, monkeypatch, fn, *args, **kwargs):
        counts = _count_builds(monkeypatch)
        fn(*args, **kwargs)
        return tuple(counts[name] for name in BUILT)

    def test_run_forward(self, monkeypatch, circuit):
        assert self._counts(monkeypatch, run_forward, circuit) == (25, 11)

    def test_run_both(self, monkeypatch, circuit):
        assert self._counts(monkeypatch, run_both, circuit) == (54, 26)

    def test_apparatus_analyses(self, monkeypatch, circuit):
        trace = run_both(circuit)

        def analyses():
            postselect(trace, 0)
            postselect(trace, 2, compute_fidelity=False)
            postselect(trace, 1, at="L3", compute_fidelity=False)
            tsvf_report(circuit, trace=trace)

        assert self._counts(monkeypatch, analyses) == (13, 11)
