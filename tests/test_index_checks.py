"""One index checker behind the circuit, the element appliers and the parser."""

import pytest

from qndmzi import (
    PROBE,
    SYS,
    BeamSplitter,
    Circuit,
    CircuitFormatError,
    HybridState,
    KerrCoupling,
    PhaseShift,
    apply_element,
    parse_circuit,
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
