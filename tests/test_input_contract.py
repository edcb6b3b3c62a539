"""One input contract for every public entry: return, or raise ``ValueError``/``IndexError``.

Each scalar or collection argument of each public constructor, method and
function is drawn from one grammar of awkward values: None, str, bytes and
bool; complex where a real is expected; numpy int, float and complex
scalars; ``Decimal`` (NaNs and infinities included) and ``Fraction``;
+-0.0, +-inf and nan; ints beyond the float range and magnitudes
near overflow and underflow; a scalar where a collection is expected and a
list where a label is expected.  The other arguments of a call keep a valid
value, or draw too.  Whatever the draw, the call returns or raises
``ValueError`` or ``IndexError`` (the package's own errors subclass
``ValueError``): no bare ``TypeError``, ``AttributeError``,
``OverflowError`` or ``ZeroDivisionError`` escapes.  A mode index or
mode count that is no integer is named in the message by its ``repr``, so
the string "0" does not read like the int 0.

One alternative among many is drawn too rarely to reach each argument of
each entry, so a deterministic sweep also puts one fixed value per
alternative into each argument (and into the first item of each collection
argument) in turn, the others kept valid.  Where a number is accepted, the
call's output must have the bits of the same call with the number
converted by hand, by ``float``, ``complex`` or ``operator.index``.

Arguments that take engine objects (states, circuits, traces, elements)
keep a valid one; their contract is the element and state checks'.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qndmzi import (
    FINAL_STAGE,
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
    coherent_overlap,
    format_complex,
    fringe_scan,
    leakage_sweep,
    parse_circuit,
    parse_complex,
    postselect,
    run_both,
    run_forward,
    serialize_circuit,
    tsvf_report,
)

_MAX = 1.7976931348623157e308


def _numpy(kinds, values):
    """A numpy scalar of one of ``kinds``, from ``values(kind)``."""
    return st.sampled_from(kinds).flatmap(lambda kind: values(kind).map(kind))


def _bits(kind) -> int:
    return np.dtype(kind).itemsize * 8


SCALARS = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                     1e-200, 1e154, 1e200, _MAX, -_MAX]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.integers(2**1024, 2**1100),
    st.integers(-(2**1100), -(2**1024)),
    _numpy([np.int8, np.int64, np.uint64],
           lambda kind: st.integers(int(np.iinfo(kind).min), int(np.iinfo(kind).max))),
    _numpy([np.float16, np.float32, np.float64],
           lambda kind: st.floats(width=_bits(kind), allow_nan=True, allow_infinity=True)),
    _numpy([np.complex64, np.complex128],
           lambda kind: st.complex_numbers(width=_bits(kind), allow_nan=True, allow_infinity=True)),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.fractions(),
)
#: Any awkward value: a scalar, or a list of them where a scalar or label is expected.
AWKWARD = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))


class Spec(NamedTuple):
    """One positional argument: a valid value, how a number given for it is read, and its draws.

    ``read`` converts a number given for the argument (for a collection,
    for each item) as the entry reads it: ``float``, ``complex``,
    ``operator.index``, or ``bool`` for a flag; None for a label, text or
    engine object.
    """

    valid: object
    read: Callable | None
    collection: bool
    strategy: st.SearchStrategy


def arg(valid, read=None) -> Spec:
    """A scalar or label argument: ``valid`` or an awkward value."""
    return Spec(valid, read, False, st.one_of(st.just(valid), AWKWARD))


def items(valid: tuple, read=None, min_size: int = 0, max_size: int = 4) -> Spec:
    """A collection argument: a non-collection, or a list or tuple of ``valid[0]`` and awkward items."""
    values = st.lists(st.one_of(st.just(valid[0]), SCALARS), min_size=min_size, max_size=max_size)
    return Spec(valid, read, True, st.one_of(SCALARS, values, values.map(tuple)))


PRESET = build_nested_mzi(0.6, 2.0, 0.3)
TRACE = run_both(PRESET)
STATE = PRESET.source_state()
REPORT = tsvf_report(PRESET, trace=TRACE)
#: A valid, engine-object-only collection argument, or a value that is no collection.
ELEMENTS = Spec((), None, False, st.one_of(st.just(()), st.just((Snapshot("s"),)), SCALARS))


def index(valid: int) -> Spec:
    """A mode index, count or position: an ``int`` read by ``operator.index``."""
    return arg(valid, operator.index)


def real(valid: float) -> Spec:
    return arg(valid, float)


def number(valid: complex) -> Spec:
    return arg(valid, complex)


#: Public entry -> (callable, one spec per positional argument).
ENTRIES = {
    "Branch": (Branch, [index(0), number(1.0), items((0.5,), complex)]),
    "HybridState": (HybridState, [index(1), index(0), items((Branch(0, 1.0, ()),))]),
    "HybridState.single_photon": (HybridState.single_photon, [index(2), index(0), items((0.5,), complex)]),
    "HybridState.project_mode": (STATE.project_mode, [index(0)]),
    "HybridState.scaled": (STATE.scaled, [number(0.5)]),
    "BeamSplitter": (BeamSplitter, [arg(SYS), index(0), index(1), real(0.6)]),
    "KerrCoupling": (KerrCoupling, [items((0,), operator.index, min_size=1), index(0), real(0.3)]),
    "PhaseShift": (PhaseShift, [arg(SYS), index(0), real(0.3)]),
    "Snapshot": (Snapshot, [arg("x")]),
    "Circuit": (Circuit, [index(1), index(1), ELEMENTS, index(0), items((0.5,), complex), index(0),
                          arg(FINAL_STAGE)]),
    "Circuit.insert": (lambda i: PRESET.insert(i, Snapshot("x")), [index(1)]),
    "build_nested_mzi": (build_nested_mzi, [real(0.6), number(2.0), real(0.3)]),
    "coherent_overlap": (coherent_overlap, [number(0.5), number(0.5j)]),
    "postselect": (lambda *a: postselect(TRACE, *a), [index(0), arg("L3"), arg(True, bool)]),
    "tsvf_report": (lambda t: tsvf_report(PRESET, t, TRACE), [real(1e-10)]),
    "TsvfReport.stage": (REPORT.stage, [arg("L3")]),
    "TsvfReport.overlap_modes": (REPORT.overlap_modes, [arg("L3")]),
    "fringe_scan": (lambda *a: fringe_scan(PRESET, *a),
                    [index(0), items((1.0, 2.0, 3.0, 4.0), float, max_size=6)]),
    "leakage_sweep": (lambda *a: leakage_sweep(PRESET, *a), [items((1e-3,), float), index(1), arg("L3")]),
    "parse_complex": (parse_complex, [arg("1-2i")]),
    "parse_circuit": (parse_circuit, [arg(serialize_circuit(PRESET))]),
    "format_complex": (format_complex, [number(1 - 2j)]),
    "apply_element": (lambda dagger: apply_element(STATE, PRESET.elements[0], dagger), [arg(True, bool)]),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_entry_returns_or_raises_value_error(entry, data):
    call, specs = ENTRIES[entry]
    args = data.draw(st.tuples(*[spec.strategy for spec in specs]), label="args")
    try:
        call(*args)
    except (ValueError, IndexError):
        pass


class _Index:
    """An integer only through ``__index__``; with no ``__eq__``, it equals no int."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"_Index({self.value})"


#: One fixed value per alternative of ``SCALARS``, an ``__index__``-only integer, and a list
#: where a scalar is expected.
VALUES = (None, "x", b"x", True, 0, -0.0, math.inf, math.nan, 5e-324, 1 + 2j, 2**1100, np.int64(1),
          np.float16(0.5), np.float32(0.3), np.complex64(1), Decimal("0.3"), Decimal("NaN"),
          Fraction(1, 3), _Index(0), _Index(1), [0.5])

#: What of a result is compared, where its dataclass fields keep an argument as given.
OUTPUTS = {
    "BeamSplitter": lambda el: apply_element(STATE, el),
    "KerrCoupling": lambda el: apply_element(STATE, el),
    "PhaseShift": lambda el: apply_element(STATE, el),
    "build_nested_mzi": lambda circuit: run_forward(circuit).forward,
}


def _sweep():
    """(entry, argument position, whether the value replaces the first item, value) per case."""
    for entry, (_, specs) in sorted(ENTRIES.items()):
        for position, spec in enumerate(specs):
            for value in VALUES:
                if spec is ELEMENTS and isinstance(value, list):
                    continue  # a non-element in the elements is the element checks' (a TypeError)
                yield pytest.param(entry, position, False, value, id=f"{entry}-{position}-{value!r}")
                if spec.collection:
                    yield pytest.param(entry, position, True, value, id=f"{entry}-{position}[0]-{value!r}")


def _valid_but(specs, position, item, value) -> list:
    """Every argument valid but the one at ``position``, or its first item, which is ``value``."""
    args = [spec.valid for spec in specs]
    args[position] = (value,) + args[position][1:] if item else value
    return args


@pytest.mark.parametrize("entry, position, item, value", list(_sweep()))
def test_each_argument_takes_each_type(entry, position, item, value):
    # The drawn grammar reaches some argument/type pairs too rarely; this
    # puts each fixed value into each argument in turn.  An accepted number
    # must give the bits of the same call with it converted by hand.
    call, specs = ENTRIES[entry]
    output = OUTPUTS.get(entry, lambda result: result)
    try:
        got = output(call(*_valid_but(specs, position, item, value)))
    except (ValueError, IndexError):
        return
    read = specs[position].read
    if read is None or item != specs[position].collection:
        return
    try:
        value = read(value)
    except (TypeError, ValueError, OverflowError):
        return  # no number of the argument's kind, as an accepted flag may be
    assert repr(got) == repr(output(call(*_valid_but(specs, position, item, value))))


#: Calls that once raised a bare error or read a value wrongly without one.
REJECTED = {
    "Branch probes 5": lambda: Branch(0, 1.0, 5),
    "Branch probes bytes": lambda: Branch(0, 1.0, b"1"),
    "single_photon probes 5": lambda: HybridState.single_photon(2, 0, 5),
    "HybridState branches 5": lambda: HybridState(1, 1, 5),
    "HybridState branch 5": lambda: HybridState(1, 1, (5,)),
    "Circuit source probes 5": lambda: Circuit(1, 1, (), 0, 5),
    "Circuit elements 5": lambda: Circuit(1, 0, 5, 0, ()),
    "Circuit detect_stage list": lambda: Circuit(1, 0, (), 0, (), detect_stage=[]),
    "Circuit.insert index 1.5": lambda: PRESET.insert(1.5, Snapshot("x")),
    "fringe_scan phis 5": lambda: fringe_scan(PRESET, 2, 5),
    "fringe_scan phis bytes": lambda: fringe_scan(PRESET, 2, b"\x00\x01\x02\x03"),
    "leakage_sweep deltas 5": lambda: leakage_sweep(PRESET, 5),
    "KerrCoupling modes bytes": lambda: KerrCoupling(b"\x00", 0, 0.3),
    "format_complex None": lambda: format_complex(None),
    "format_complex 1e400": lambda: format_complex(10**400),
    "format_complex str": lambda: format_complex("1"),
    "parse_complex None": lambda: parse_complex(None),
    "parse_circuit None": lambda: parse_circuit(None),
    "postselect at list": lambda: postselect(TRACE, 0, at=[]),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_known_cases_raise_value_error(case):
    with pytest.raises(ValueError):
        REJECTED[case]()


def _integer(value) -> bool:
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


PHIS = (0.0, 1.0, 2.0, 3.0)

#: One mode index or mode count per call: entry -> call on the drawn value.
MODE_ARGUMENTS = {
    "Branch mode": lambda v: Branch(v, 1.0, ()),
    "HybridState m_modes": lambda v: HybridState(v, 0, ()),
    "HybridState k_probes": lambda v: HybridState(1, v, ()),
    "HybridState.single_photon mode": lambda v: HybridState.single_photon(2, v, ()),
    "HybridState.project_mode": STATE.project_mode,
    "BeamSplitter mode_a": lambda v: BeamSplitter(SYS, v, 1, 0.6),
    "BeamSplitter mode_b": lambda v: BeamSplitter(SYS, 0, v, 0.6),
    "KerrCoupling system mode": lambda v: KerrCoupling((v,), 0, 0.3),
    "KerrCoupling probe_mode": lambda v: KerrCoupling((1,), v, 0.3),
    "PhaseShift index": lambda v: PhaseShift(SYS, v, 0.3),
    "Circuit m_modes": lambda v: Circuit(v, 0, (), 0, ()),
    "Circuit source_mode": lambda v: Circuit(1, 0, (), v, ()),
    "Circuit postselect_mode": lambda v: Circuit(1, 0, (), 0, (), v),
    "Circuit.insert": lambda v: PRESET.insert(v, Snapshot("x")),
    "postselect mode": lambda v: postselect(TRACE, v),
    "fringe_scan mode": lambda v: fringe_scan(PRESET, v, PHIS),
    "leakage_sweep arm_mode": lambda v: leakage_sweep(PRESET, (), v),
}


@pytest.mark.parametrize("entry", sorted(MODE_ARGUMENTS))
@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=AWKWARD.filter(lambda v: not _integer(v)))
def test_a_non_integer_mode_is_named_by_its_repr(entry, value):
    # The string "0" and the int 0 must not read alike in the message.
    with pytest.raises(ValueError) as raised:
        MODE_ARGUMENTS[entry](value)
    assert repr(value) in str(raised.value)


#: Calls on one mode whose result or error must not depend on how the mode is given.
MODE_CALLS = {
    "HybridState.project_mode": TRACE.forward["L3p"].project_mode,
    "postselect": lambda m: postselect(TRACE, m),
    "fringe_scan": lambda m: fringe_scan(PRESET, m, PHIS),
    "leakage_sweep": lambda m: leakage_sweep(PRESET, [0.01], arm_mode=m),
}


def _outcome(call, value) -> str:
    try:
        return repr(call(value))
    except (ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("entry", sorted(MODE_CALLS))
@pytest.mark.parametrize("m", [0, 1, 2])
def test_an_index_only_mode_reads_as_its_int(entry, m):
    # A mode compared as given, not as checked, matched no branch and read as empty.
    assert _outcome(MODE_CALLS[entry], _Index(m)) == _outcome(MODE_CALLS[entry], m)
