"""One index checker behind the circuit, the element appliers and the parser.

A bad label, a non-integer index or mode count, or a coupling without a
system mode is rejected with the same text whether it is built in Python or
read from a file.
"""

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
    apply_element,
    parse_circuit,
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
    with pytest.raises(TypeError):
        Branch(1.5, 1.0, (0j,))
    with pytest.raises(TypeError):
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
    (3.0, 2, "modes 3.0 probes 2", "mode counts must be integers"),
    (3, 2.0, "modes 3 probes 2.0", "mode counts must be integers"),
    (3, "2", "modes 3 probes two", "mode counts must be integers"),
    (0, 2, "modes 0 probes 2", "mode counts out of range"),
    (False, 0, "modes 0 probes 0", "mode counts out of range"),
    (3, -1, "modes 3 probes -1", "mode counts out of range"),
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


@pytest.mark.parametrize("m_modes,k_probes", [(True, True), (np.int64(3), np.int64(2))])
def test_integer_like_mode_counts_are_stored_as_int(m_modes, k_probes):
    circuit = Circuit(m_modes, k_probes, (), 0, (0.5j,) * int(k_probes))
    assert (type(circuit.m_modes), type(circuit.k_probes)) == (int, int)
    text = serialize_circuit(circuit)
    assert text.startswith(f"modes {int(m_modes)} probes {int(k_probes)}\n")
    assert parse_circuit(text) == circuit
