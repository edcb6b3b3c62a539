"""One index checker behind the circuit, the element appliers and the parser.

A bad label, a non-integer index or mode count, or a coupling without a
system mode is rejected with the same text whether it is built in Python or
read from a file.  Out-of-range modes raise what the per-call checker that
formed each element's index spans on every call raised, in its order:
system modes (a coupling's in increasing order), then probe modes.
"""

import random
import re

import numpy as np
import pytest

from qndmzi import (
    PROBE,
    SYS,
    BeamSplitter,
    Branch,
    Circuit,
    CircuitFormatError,
    HybridState,
    KerrCoupling,
    PhaseShift,
    Snapshot,
    apply_beam_splitter,
    apply_element,
    apply_kerr,
    apply_phase,
    parse_circuit,
    run_backward,
    serialize_circuit,
)

M_MODES, K_PROBES = 3, 2
HEADER = "modes 3 probes 2\nsource mode=0 probe0=1+0i probe1=0+0i\n"

#: (element, its file line, expected diagnostic)
CASES = [
    case
    for bad_sys, bad_probe in ((3, 2), (-1, -1))
    for case in (
        (BeamSplitter(SYS, 0, bad_sys, 0.5), f"bs sys 0 {bad_sys} r=0.5",
         f"system mode {bad_sys} outside [0, 3)"),
        (BeamSplitter(PROBE, 0, bad_probe, 0.5), f"bs probe 0 {bad_probe} r=0.5",
         f"probe mode {bad_probe} outside [0, 2)"),
        (PhaseShift(SYS, bad_sys, 0.1), f"phase sys {bad_sys} phi=0.1",
         f"system mode {bad_sys} outside [0, 3)"),
        (PhaseShift(PROBE, bad_probe, 0.1), f"phase probe {bad_probe} phi=0.1",
         f"probe mode {bad_probe} outside [0, 2)"),
        (KerrCoupling(frozenset({1, bad_sys}), 0, 0.1),
         f"kerr sys=1,{bad_sys} probe=0 eps_tau=0.1",
         f"system mode {bad_sys} outside [0, 3)"),
        (KerrCoupling(frozenset({1, 2}), bad_probe, 0.1),
         f"kerr sys=1,2 probe={bad_probe} eps_tau=0.1",
         f"probe mode {bad_probe} outside [0, 2)"),
    )
]


@pytest.mark.parametrize("element,line,message", CASES, ids=[c[1] for c in CASES])
def test_every_caller_rejects_with_the_same_diagnostic(element, line, message):
    with pytest.raises(IndexError) as built:
        Circuit(M_MODES, K_PROBES, (element,), 0, (1.0, 0j))
    assert message in str(built.value)

    state = HybridState.single_photon(M_MODES, 0, (1.0, 0.5j))
    for dagger in (False, True):
        with pytest.raises(IndexError) as applied:
            apply_element(state, element, dagger=dagger)
        assert str(applied.value) == str(built.value)

    with pytest.raises(CircuitFormatError) as parsed:
        parse_circuit(HEADER + "snapshot A\n" + line + "\n")
    assert parsed.value.line_no == 4
    assert str(parsed.value) == f"line 4: {built.value}"


def _circuit(*elements, source_mode=0, postselect_mode=0):
    return Circuit(M_MODES, K_PROBES, elements, source_mode, (1.0, 0j), postselect_mode)


SOURCE = "source mode=0 probe0=1+0i probe1=0+0i"

#: (the bad input built in Python, the file body that carries it or None
#: where no file can, expected diagnostic)
BAD_INPUT = [
    (lambda: _circuit(Snapshot("a b")), f"{SOURCE}\nsnapshot a b",
     "snapshot label 'a b' must be non-empty, no whitespace or '#'"),
    (lambda: _circuit(Snapshot("a\tb")), f"{SOURCE}\nsnapshot a\tb",
     "snapshot label 'a\\tb' must be non-empty, no whitespace or '#'"),
    (lambda: _circuit(Snapshot("")), f"{SOURCE}\nsnapshot",
     "snapshot label '' must be non-empty, no whitespace or '#'"),
    # A file reads `snapshot x#y` as label x, with a comment.
    (lambda: _circuit(Snapshot("x#y")), None,
     "snapshot label 'x#y' must be non-empty, no whitespace or '#'"),
    (lambda: _circuit(BeamSplitter(SYS, 0, 1.5, 0.5)), f"{SOURCE}\nbs sys 0 1.5 r=0.5",
     "system mode 1.5 is not an integer"),
    (lambda: _circuit(BeamSplitter(SYS, 0.0, 1, 0.5)), f"{SOURCE}\nbs sys 0.0 1 r=0.5",
     "system mode 0.0 is not an integer"),
    (lambda: _circuit(BeamSplitter(PROBE, 0, 1e0, 0.5)), f"{SOURCE}\nbs probe 0 1e0 r=0.5",
     "probe mode 1.0 is not an integer"),
    (lambda: _circuit(PhaseShift(SYS, 1.0, 0.1)), f"{SOURCE}\nphase sys 1.0 phi=0.1",
     "system mode 1.0 is not an integer"),
    (lambda: _circuit(PhaseShift(PROBE, 0.5, 0.1)), f"{SOURCE}\nphase probe 0.5 phi=0.1",
     "probe mode 0.5 is not an integer"),
    (lambda: _circuit(KerrCoupling(frozenset({1, 2.5}), 0, 0.3)),
     f"{SOURCE}\nkerr sys=1,2.5 probe=0 eps_tau=0.3", "system mode 2.5 is not an integer"),
    (lambda: _circuit(KerrCoupling(frozenset({1}), 0.0, 0.3)),
     f"{SOURCE}\nkerr sys=1 probe=0.0 eps_tau=0.3", "probe mode 0.0 is not an integer"),
    (lambda: _circuit(KerrCoupling(frozenset(), 0, 0.3)),
     f"{SOURCE}\nkerr sys= probe=0 eps_tau=0.3", "Kerr coupling names no system mode"),
    (lambda: _circuit(source_mode=1.0), "source mode=1.0 probe0=1+0i probe1=0+0i",
     "source mode 1.0 is not an integer"),
    (lambda: _circuit(postselect_mode=2.5), f"{SOURCE}\npostselect mode=2.5",
     "postselect mode 2.5 is not an integer"),
]


@pytest.mark.parametrize(
    "build,body,message", BAD_INPUT, ids=[c[2] for c in BAD_INPUT]
)
def test_bad_labels_indices_and_couplings_fail_alike(build, body, message):
    with pytest.raises(ValueError) as built:
        build()
    assert str(built.value) == message
    if body is not None:
        with pytest.raises(CircuitFormatError) as parsed:
            parse_circuit(f"modes 3 probes 2\n{body}\n")
        line_no = body.count("\n") + 2
        assert str(parsed.value) == f"line {line_no}: {message}"


def test_branch_takes_integer_modes_only():
    for mode in (None, "0", 1.5):
        with pytest.raises(ValueError, match=f"^branch mode {re.escape(repr(mode))} is not an integer$"):
            Branch(mode, 1.0, (0j,))
    with pytest.raises(ValueError, match="^branch mode 1.0 is not an integer$"):
        HybridState.single_photon(M_MODES, 1.0, (1.0, 0j))


@pytest.mark.parametrize("index", [True, np.int64(1)])
def test_integer_like_indices_are_stored_as_int(index):
    elements = (
        BeamSplitter(SYS, 0, index, 0.5),
        PhaseShift(PROBE, index, 0.1),
        KerrCoupling(frozenset({index}), index, 0.3),
    )
    circuit = _circuit(*elements, source_mode=index, postselect_mode=index)
    bs, phase, kerr = elements
    stored = (bs.mode_b, phase.index, kerr.probe_mode, *kerr.system_modes,
              circuit.source_mode, circuit.postselect_mode)
    assert [type(v) for v in stored] == [int] * 6
    assert parse_circuit(serialize_circuit(circuit)) == circuit


#: (M, K built in Python, the modes line that carries them, expected diagnostic)
BAD_COUNTS = [
    (3.0, 2, "modes 3.0 probes 2", "mode counts 3.0 and 2 must be integers"),
    (3, 2.0, "modes 3 probes 2.0", "mode counts 3 and 2.0 must be integers"),
    (3, "two", "modes 3 probes two", "mode counts 3 and 'two' must be integers"),
    (0, 2, "modes 0 probes 2", "mode counts 0 and 2 out of range"),
    (False, 0, "modes 0 probes 0", "mode counts 0 and 0 out of range"),
    (3, -1, "modes 3 probes -1", "mode counts 3 and -1 out of range"),
]


@pytest.mark.parametrize("m_modes,k_probes,line,message", BAD_COUNTS,
                         ids=[c[2] for c in BAD_COUNTS])
def test_bad_mode_counts_fail_alike(m_modes, k_probes, line, message):
    with pytest.raises(ValueError) as built:
        Circuit(m_modes, k_probes, (), 0, ())
    assert str(built.value) == message
    with pytest.raises(CircuitFormatError) as parsed:
        parse_circuit(f"{line}\nsource mode=0\n")
    assert str(parsed.value) == f"line 1: {message}"
    with pytest.raises(ValueError) as state:
        HybridState(m_modes, k_probes, ())
    assert str(state.value) == message


@pytest.mark.parametrize("m_modes,k_probes,message", [
    (None, 1, "mode counts None and 1 must be integers"),
    ("2", 1, "mode counts '2' and 1 must be integers"),
    (2, -1, "mode counts 2 and -1 out of range"),
    (0, 0, "mode counts 0 and 0 out of range"),
    (0, 1, "mode counts 0 and 1 out of range"),
])
def test_state_checks_its_mode_counts_before_its_branches(m_modes, k_probes, message):
    branches = (Branch(0, 1.0, (0j,)),)
    for given in (branches, ()):
        with pytest.raises(ValueError) as got:
            HybridState(m_modes, k_probes, given)
        assert type(got.value) is ValueError and str(got.value) == message


def test_backward_run_rejects_a_non_integer_bra_count():
    circuit = Circuit(3, 2, (BeamSplitter(SYS, 0, 1, 0.5),), 0, (1j, 0j))
    with pytest.raises(ValueError, match="^mode counts 3.0 and 2 must be integers$"):
        run_backward(circuit, HybridState(3.0, 2, (Branch(0, 1.0, (0j, 0j)),)))


@pytest.mark.parametrize("m_modes,k_probes", [(True, True), (np.int64(3), np.int64(2))])
def test_integer_like_mode_counts_are_stored_as_int(m_modes, k_probes):
    circuit = Circuit(m_modes, k_probes, (), 0, (0.5j,) * int(k_probes))
    assert (type(circuit.m_modes), type(circuit.k_probes)) == (int, int)
    text = serialize_circuit(circuit)
    assert text.startswith(f"modes {int(m_modes)} probes {int(k_probes)}\n")
    assert parse_circuit(text) == circuit
    branches = (Branch(0, 1.0, (0.5j,) * int(k_probes)),)
    state = HybridState(m_modes, k_probes, branches)
    assert (type(state.m_modes), type(state.k_probes)) == (int, int)
    same = HybridState(int(m_modes), int(k_probes), branches)
    assert state == same and hash(state) == hash(same) and repr(state) == repr(same)


@pytest.mark.parametrize("thing", [5, "bs sys 0 1 r=0.5", None, (SYS, 0, 1, 0.5), BeamSplitter,
                                   object()])
def test_circuit_rejects_a_non_element_as_the_applier_does(thing):
    state = HybridState.single_photon(2, 0, (1.0,))
    with pytest.raises(TypeError) as want:
        reference_check(thing, 2, 1)
    for apply in (apply_element, apply_beam_splitter, apply_phase, apply_kerr):
        with pytest.raises(TypeError) as applied:
            apply(state, thing)
        assert str(applied.value) == str(want.value)
    with pytest.raises(TypeError) as built:
        Circuit(2, 1, (Snapshot("a"), thing), 0, (1.0,))
    assert str(built.value) == str(want.value) == f"unknown element {thing!r}"


def reference_check(el, m_modes, k_probes):
    """The index checker as it formed each element's spans on every call."""
    if isinstance(el, BeamSplitter):
        pair = (el.mode_a, el.mode_b)
        sys_idx, probe_idx = (pair, ()) if el.target == SYS else ((), pair)
    elif isinstance(el, PhaseShift):
        sys_idx, probe_idx = ((el.index,), ()) if el.target == SYS else ((), (el.index,))
    elif isinstance(el, KerrCoupling):
        sys_idx, probe_idx = sorted(el.system_modes), (el.probe_mode,)
    elif isinstance(el, Snapshot):
        return
    else:
        raise TypeError(f"unknown element {el!r}")
    for idx in sys_idx:
        if not 0 <= idx < m_modes:
            raise IndexError(f"system mode {idx} outside [0, {m_modes}) in {el!r}")
    for idx in probe_idx:
        if not 0 <= idx < k_probes:
            raise IndexError(f"probe mode {idx} outside [0, {k_probes}) in {el!r}")


def element_line(el) -> str:
    if isinstance(el, BeamSplitter):
        return f"bs {el.target} {el.mode_a} {el.mode_b} r={el.reflectivity}"
    if isinstance(el, PhaseShift):
        return f"phase {el.target} {el.index} phi={el.phi}"
    modes = ",".join(map(str, el.system_modes))
    return f"kerr sys={modes} probe={el.probe_mode} eps_tau={el.eps_tau}"


def parity_elements():
    """Elements over modes -3..5 of a 3-mode, 2-probe circuit, many out of range."""
    rng = random.Random(2202)
    out = [
        KerrCoupling(frozenset({7, 4, -2, 1, 3}), 5, 0.1),
        KerrCoupling(frozenset({2, 9, 5}), -1, 0.1),
        KerrCoupling(frozenset({0, 1, 2}), 2, 0.1),
        BeamSplitter(SYS, 4, -1, 0.5),
        BeamSplitter(PROBE, 3, 2, 0.5),
        PhaseShift(PROBE, 2, 0.1),
    ]
    modes = range(-3, 6)
    for _ in range(150):
        target = rng.choice((SYS, PROBE))
        a, b = rng.sample(modes, 2)
        out += [
            BeamSplitter(target, a, b, 0.5),
            PhaseShift(target, a, -0.2),
            KerrCoupling(frozenset(rng.sample(modes, rng.randint(1, 4))), b, 0.3),
        ]
    return out


def test_out_of_range_modes_raise_as_the_per_call_checker():
    state = HybridState.single_photon(M_MODES, 0, (1.0, 0.5j))
    appliers = {BeamSplitter: apply_beam_splitter, PhaseShift: apply_phase,
                KerrCoupling: apply_kerr}
    bad = 0
    for el in parity_elements():
        try:
            reference_check(el, M_MODES, K_PROBES)
        except IndexError as exc:
            want = str(exc)
        else:
            want = None
        bad += want is not None
        for apply in (apply_element, appliers[type(el)]):
            for dagger in (False, True):
                if want is None:
                    apply(state, el, dagger)
                    continue
                with pytest.raises(IndexError) as applied:
                    apply(state, el, dagger)
                assert str(applied.value) == want
        if want is None:
            Circuit(M_MODES, K_PROBES, (el,), 0, (1.0, 0j))
            assert parse_circuit(HEADER + element_line(el) + "\n").elements == (el,)
            continue
        with pytest.raises(IndexError) as built:
            Circuit(M_MODES, K_PROBES, (el,), 0, (1.0, 0j))
        assert str(built.value) == want
        with pytest.raises(CircuitFormatError) as parsed:
            parse_circuit(HEADER + element_line(el) + "\n")
        assert str(parsed.value) == f"line 3: {want}"
    assert bad > 300

