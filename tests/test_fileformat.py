import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qndmzi import (
    FINAL_STAGE,
    PROBE,
    SYS,
    BeamSplitter,
    Circuit,
    CircuitFormatError,
    KerrCoupling,
    PhaseShift,
    Snapshot,
    build_nested_mzi,
    parse_circuit,
    run_both,
    parse_complex,
    format_complex,
    serialize_circuit,
)
from qndmzi.cli import main
from helpers import random_circuit, random_complex, random_element

EXAMPLE = """\
modes 3 probes 2
source mode=0 probe0=2.8284+0i probe1=0+0i
bs sys 0 1 r=0.6
snapshot L1
bs sys 1 2 r=0.70710678
bs probe 0 1 r=0.70710678
snapshot L2
kerr sys=1,2 probe=0 eps_tau=0.3 eta_tau=0.0
snapshot L2p
bs sys 1 2 r=0.70710678
snapshot L3
bs probe 0 1 r=0.70710678
snapshot L3p
bs sys 0 1 r=0.6
postselect mode=0
"""


def _grammar_literals() -> list[str]:
    """``real + sign + magnitude + "i"``; the sign may be empty only where the real part is."""
    reals = ["", "0", "-0", "+1", "2.5", "-1.5e-3", "1e5", "nan", "-inf", "7E+2"]
    magnitudes = ["", "1", "2e4", "0.5", "inf", "nan", "3E-2"]
    return [real + sign + mag + "i" for real in reals
            for sign in (("+", "-") if real else ("+", "-", "")) for mag in magnitudes]


#: A line with ``{}`` for a mode index, and the element or circuit that Python builds from its value.
INDEX_LINES = [
    ("bs sys {} 1 r=0.5", lambda v: BeamSplitter(SYS, v, 1, 0.5)),
    ("bs probe 0 {} r=0.5", lambda v: BeamSplitter(PROBE, 0, v, 0.5)),
    ("phase sys {} phi=0.1", lambda v: PhaseShift(SYS, v, 0.1)),
    ("kerr sys=1,{},2 probe=0 eps_tau=0.1", lambda v: KerrCoupling({1, v, 2}, 0, 0.1)),
    ("kerr sys=1 probe={} eps_tau=0.1", lambda v: KerrCoupling({1}, v, 0.1)),
    ("source mode={} probe0=1+0i", lambda v: Circuit(3, 1, (), v, (1,))),
    ("postselect mode={}", lambda v: Circuit(3, 1, (), 0, (1,), v)),
]


def _index_cases():
    """Each index line with each token that is no integer, and the value the token reads as.

    A token that is no number stays a str; the empty one, as in ``sys=1,,2``,
    only fits where a key or comma comes before the index.
    """
    tokens = [("x", "x"), ("0x1", "0x1"), ("", ""), ("1.5", 1.5), ("1e400", math.inf)]
    for line, build in INDEX_LINES:
        for token, value in tokens:
            if token or line[line.index("{}") - 1] != " ":
                yield pytest.param(line, build, token, value, id=line.format(token))


def _reading(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except ValueError:
        return "ValueError"


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2.8284+0i", 2.8284 + 0j),
            ("0+0i", 0j),
            ("1-2i", 1 - 2j),
            ("-1.5e-3+2e4i", -1.5e-3 + 2e4j),
            ("3", 3 + 0j),
            ("-0.25", -0.25 + 0j),
            ("2i", 2j),
            ("-i", -1j),
            ("i", 1j),
            ("2+i", 2 + 1j),
            ("2-i", 2 - 1j),
            ("-1.5e-3-i", -1.5e-3 - 1j),
        ],
    )
    def test_literals(self, text, value):
        assert parse_complex(text) == value

    def test_grammar_has_147_literals(self):
        assert len(set(_grammar_literals())) == 147

    @pytest.mark.parametrize("text", _grammar_literals())
    def test_reads_as_python_complex(self, text):
        # Signed zeros and NaNs included: repr tells them apart.
        assert _reading(parse_complex, text) == _reading(complex, text[:-1] + "j")

    @pytest.mark.parametrize("space", [" ", "\t", "\n", "\u00a0"])
    def test_whitespace_reads_as_python_complex(self, space):
        # Around a literal it is stripped; anywhere inside it, the literal is malformed.
        for literal in _grammar_literals():
            for k in range(len(literal) + 1):
                text = literal[:k] + space + literal[k:]
                head, _, tail = text.rpartition("i")
                assert _reading(parse_complex, text) == _reading(complex, head + "j" + tail), text

    def test_cli_rejects_alpha_with_inner_whitespace(self):
        result = CliRunner().invoke(main, ["nested-mzi", "--r", "0.6", "--alpha", "1 +2i", "run"])
        assert result.exit_code == 2
        assert "'1 +2i' is not a complex literal (a+bi)" in result.output

    def test_cli_alpha_reads_unit_imaginary(self):
        runner = CliRunner()
        outputs = [
            runner.invoke(main, ["nested-mzi", "--r", "0.6", f"--alpha={alpha}", "--eps-tau", "0.3",
                                 "postselect", "--mode", "0"])
            for alpha in ("2+i", "2+1i")
        ]
        assert [result.exit_code for result in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout

    @pytest.mark.parametrize("bad", ["abc", "1+i2", "2.3.4+0i", "1+nope", "1e+i", "+-i", "2++i"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_complex(bad)

    def test_format_round_trips(self):
        rng = random.Random(13)
        for _ in range(100):
            z = random_complex(rng, 5.0)
            assert parse_complex(format_complex(z)) == z


class TestParseCircuit:
    def test_reference_file(self):
        circuit = parse_circuit(EXAMPLE)
        assert circuit.m_modes == 3
        assert circuit.k_probes == 2
        assert len(circuit.elements) == 12
        assert circuit.source_mode == 0
        assert circuit.source_probes[0] == pytest.approx(2.8284)
        assert circuit.postselect_mode == 0
        assert circuit.snapshot_labels == ("L1", "L2", "L2p", "L3", "L3p")
        kinds = [type(el) for el in circuit.elements]
        assert kinds.count(BeamSplitter) == 6
        assert kinds.count(KerrCoupling) == 1
        assert kinds.count(Snapshot) == 5

    def test_comments_and_blank_lines_ignored(self):
        text = "# setup\nmodes 2 probes 1\n\nsource mode=0 probe0=1+0i  # the field\n"
        circuit = parse_circuit(text)
        assert circuit.m_modes == 2

    def test_system_index_out_of_range_names_line(self):
        text = "modes 3 probes 2\nsource mode=0 probe0=0+0i probe1=0+0i\nbs sys 0 5 r=0.5\n"
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert err.value.line_no == 3
        assert "line 3" in str(err.value)
        assert "5" in str(err.value)

    def test_probe_index_out_of_range(self):
        text = "modes 3 probes 2\nsource mode=0 probe0=0+0i probe1=0+0i\nphase probe 2 phi=0.1\n"
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert err.value.line_no == 3

    def test_comments_only_means_missing_source(self):
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit("# nothing\nmodes 3 probes 2\n# still nothing\n")
        assert "source" in str(err.value)

    def test_unknown_keyword(self):
        text = "modes 2 probes 1\nsource mode=0 probe0=0+0i\nwiggle 3\n"
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert "wiggle" in str(err.value)
        assert err.value.line_no == 3

    def test_malformed_complex_literal(self):
        text = "modes 2 probes 1\nsource mode=0 probe0=zap\n"
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert err.value.line_no == 2
        assert "complex" in str(err.value)

    def test_duplicate_snapshot_label(self):
        text = (
            "modes 2 probes 1\nsource mode=0 probe0=0+0i\n"
            "snapshot A\nsnapshot A\n"
        )
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert err.value.line_no == 4
        assert "duplicate" in str(err.value)

    def test_element_before_modes_declaration(self):
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit("bs sys 0 1 r=0.5\n")
        assert err.value.line_no == 1

    def test_empty_input(self):
        with pytest.raises(CircuitFormatError):
            parse_circuit("")

    def test_detection_stage_error_is_circuits(self):
        text = "modes 2 probes 1\nsource mode=0 probe0=0+0i\npostselect mode=0 at=L9\n"
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert err.value.line_no is None
        assert str(err.value) == "detection stage 'L9' has no snapshot"
        # The snapshot may come after the postselect line.
        assert parse_circuit(text + "snapshot L9\n").detect_stage == "L9"

    def test_detect_stage_must_name_a_snapshot(self):
        text = "modes 2 probes 1\nsource mode=0 probe0=0+0i\npostselect mode=0 at=L9\n"
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert "L9" in str(err.value)

    def test_kerr_with_branch_phase(self):
        text = (
            "modes 3 probes 1\nsource mode=0 probe0=1+0i\n"
            "kerr sys=2,1 probe=0 eps_tau=0.2 eta_tau=0.1 branch_phase=0.4\n"
        )
        assert parse_circuit(text).elements == (
            KerrCoupling(frozenset({1, 2}), 0, 0.2),
            PhaseShift(SYS, 1, -0.4),
            PhaseShift(SYS, 2, -0.4),
        )

    @pytest.mark.parametrize(
        "line",
        [
            "snapshot final",
            "snapshot source",
            "phase sys 0 phi=nan",
            "kerr sys=1 probe=0 eps_tau=inf",
            "bs beam 0 1 r=0.5",
            "kerr sys=1 probe=0 eps_tau=0.1 branch_phase=0.2 eta_tau=0.0",
            "kerr sys=1 probe=0 eps_tau=0.1 eta_tau=0.0 branch_phase=inf",
            "postselect mode=3",
        ],
    )
    def test_bad_element_line_is_tagged(self, line):
        text = "modes 3 probes 1\nsource mode=0 probe0=1+0i\n" + line + "\n"
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("line, build, token, value", _index_cases())
    def test_index_that_is_no_integer_gives_python_text(self, line, build, token, value):
        with pytest.raises(ValueError) as python:
            build(value)
        head = "modes 3 probes 1\n" + ("" if line.startswith("source") else "source mode=0 probe0=1+0i\n")
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(head + line.format(token) + "\n")
        assert str(err.value) == f"line {len(head.splitlines()) + 1}: {python.value}"

    def test_non_number_index_text(self):
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit("modes 3 probes 1\nsource mode=0 probe0=1+0i\nbs sys x 1 r=0.5\n")
        assert str(err.value) == "line 3: system mode 'x' is not an integer"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("modes 3 probes 1\nsource mode=0 probe0=1+0i\nbs sys 0 1 x=0.5\n",
             "line 3: expected r=..., got 'x=0.5'"),
            ("modes 3 probes 1\nsource mode=0 probe0=1+0i\nkerr sys=1 probe=0\n",
             "line 3: expected: kerr sys=I,J probe=P eps_tau=F [eta_tau=F] [branch_phase=F]"),
            ("modes 3 probes 1\nmodes 3 probes 1\n", "line 2: duplicate modes declaration"),
            ("modes 3 probe 1\n", "line 1: expected: modes M probes K"),
            ("modes 3 probes 1\nsource mode=0 probe0=1+0i\nsource mode=0 probe0=1+0i\n",
             "line 3: duplicate source line"),
            ("modes 3 probes 1\nsource mode=0 probe0=1+0i\nbs sys 0 1\n",
             "line 3: expected: bs sys|probe A B r=R"),
            ("modes 3 probes 1\nsource mode=0 probe0=1+0i\nphase sys 0\n",
             "line 3: expected: phase sys|probe I phi=F"),
            ("modes 3 probes 1\nsource mode=0 probe0=1+0i\npostselect\n",
             "line 3: expected: postselect mode=I [at=LABEL]"),
        ],
    )
    def test_parser_errors(self, text, message):
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("source", ["mode=0 probe0=nan+0i", "mode=0 probe0=1+infi", "mode=3 probe0=1"])
    def test_bad_source_line_is_tagged(self, source):
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(f"modes 3 probes 1\nsource {source}\n")
        assert err.value.line_no == 2

    def test_probe_free_source_needs_the_mode_only(self):
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit("modes 2 probes 0\nsource mode=0 probe0=1\n")
        assert str(err.value) == "line 2: source needs mode= only"
        assert parse_circuit("modes 2 probes 0\nsource mode=1\n").source_mode == 1

    def test_bad_reflectivity_names_line(self):
        text = "modes 2 probes 1\nsource mode=0 probe0=0+0i\nbs sys 0 1 r=1.4\n"
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(text)
        assert err.value.line_no == 3


class TestRoundTrip:
    def test_readme_example_is_the_serialized_preset(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        intro = "One element per line, whitespace-separated, `#` starts a comment:\n\n```\n"
        example = readme.split(intro)[1].split("```")[0]
        assert example == serialize_circuit(build_nested_mzi(0.6, 2, 0.3))

    def test_preset_serialization_round_trips(self):
        cases = [
            (0.6, 0.3), (0.25, 2.0), (1.0, 0.0),
            # numpy scalars and bools are written as the floats they equal.
            (np.float64(0.6), np.float64(0.3)), (np.float32(0.6), np.float32(0.3)), (True, 0.0),
        ]
        circuits = [build_nested_mzi(r, 2.0, eps) for r, eps in cases]
        circuits.append(Circuit(2, 1, (PhaseShift(SYS, 1, np.float64(0.7)),), 0, (1j,)))
        # Signed zeros in the source probes, which == does not tell apart.
        circuits.append(replace(circuits[0], source_probes=(complex(2.0, -0.0), complex(-0.0, -0.0))))
        for circuit in circuits:
            text = serialize_circuit(circuit)
            again = parse_circuit(text)
            assert again == circuit
            assert repr(again.source_probes) == repr(circuit.source_probes)
            assert serialize_circuit(again) == text

    def test_reference_file_round_trips(self):
        circuit = parse_circuit(EXAMPLE)
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    def test_random_circuits_round_trip(self):
        rng = random.Random(19)
        for _ in range(20):
            circuit = random_circuit(rng)
            again = parse_circuit(serialize_circuit(circuit))
            assert again == circuit


_finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def _circuit_args(draw):
    """Seeded elements, arbitrary-text snapshot labels, random modes and stage."""
    rng = draw(st.randoms(use_true_random=False))
    labels = draw(st.lists(st.text(max_size=6), max_size=3, unique=True))
    elements = [random_element(rng) for _ in range(rng.randint(0, 6))]
    for label in labels:
        elements.insert(rng.randint(0, len(elements)), Snapshot(label))
    probes = (draw(_finite_complex), draw(_finite_complex))
    stage = rng.choice(labels + [FINAL_STAGE])
    return elements, rng.randrange(3), probes, rng.randrange(3), stage


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_circuit_args())
def test_every_accepted_circuit_round_trips(args):
    try:
        circuit = Circuit(3, 2, *args)
    except ValueError:
        reject()
    assert parse_circuit(serialize_circuit(circuit)) == circuit


class TestOlderFiles:
    """Files that still carry the removed ``eta_tau=`` and ``branch_phase=`` tokens."""

    APPARATUS = serialize_circuit(build_nested_mzi(0.45, 1.5 - 0.5j, 0.8))
    KERR = "kerr sys=1,2 probe=0 eps_tau=0.8"

    @pytest.mark.parametrize("eta", ["0.0", "2.2", "-1e-3"])
    def test_eta_tau_is_read_and_dropped(self, eta):
        old = self.APPARATUS.replace(self.KERR, f"{self.KERR} eta_tau={eta}")
        assert old != self.APPARATUS
        assert parse_circuit(old) == parse_circuit(self.APPARATUS)

    def test_malformed_eta_tau_names_line(self):
        old = self.APPARATUS.replace(self.KERR, f"{self.KERR} eta_tau=abc")
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(old)
        assert err.value.line_no == self.APPARATUS.splitlines().index(self.KERR) + 1
        assert "abc" in str(err.value)

    def test_branch_phase_evolves_like_explicit_phase_lines(self):
        old = self.APPARATUS.replace(self.KERR, f"{self.KERR} eta_tau=0.7 branch_phase=0.45")
        explicit = self.APPARATUS.replace(
            self.KERR, f"{self.KERR}\nphase sys 1 phi=-0.45\nphase sys 2 phi=-0.45"
        )
        a, b = run_both(parse_circuit(old)), run_both(parse_circuit(explicit))
        for label in a.circuit.stages:
            assert a.forward[label] == b.forward[label]
            assert a.backward[label] == b.backward[label]

    def test_serializer_writes_no_eta_tau(self):
        assert "eta_tau" not in self.APPARATUS
        assert f"{self.KERR}\n" in self.APPARATUS
