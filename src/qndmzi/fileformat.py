"""Line-oriented text format for circuits.

One element per line, whitespace-separated tokens, ``#`` starts a comment::

    modes 3 probes 2
    source mode=0 probe0=2.8284271247461903+0i probe1=0+0i
    bs sys 0 1 r=0.6
    snapshot L1
    phase probe 0 phi=1.5707963267948966
    kerr sys=1,2 probe=0 eps_tau=0.3
    postselect mode=0 at=L3p

Complex literals are written ``a+bi``; input reads as ``complex()`` reads
the same text with ``j`` (``a-i``, ``-i``), and a bare real is accepted.
``postselect`` takes an optional ``at=LABEL`` naming the snapshot at which
detection statistics are evaluated (default: the fully evolved state).
Unknown keywords are errors; a diagnostic about a line carries its number.

Files from older versions may give ``kerr`` two more tokens, in this order:
``eta_tau=F``, a photon-photon strength that is inert for one photon (it
must be a number and is then dropped), and ``branch_phase=F``, which reads
as ``phase sys M phi=-F`` for each threaded mode M, in ascending order,
right after the coupling.
"""

from __future__ import annotations

import math

from .circuit import FINAL_STAGE, Circuit, _check_label
from .elements import (
    SYS,
    BeamSplitter,
    Element,
    KerrCoupling,
    PhaseShift,
    Snapshot,
    _check_indices,
)
from .states import _check_counts, _check_finite, _check_mode, _complex


class CircuitFormatError(ValueError):
    """Parse failure; carries the 1-based line number of the offence."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


def parse_complex(token: str) -> complex:
    """Parse ``a+bi`` / ``a-bi`` / bare-real literals: the final ``i`` becomes ``j``,
    then ``complex()`` reads the text (so ``j``, ``1+2j`` and ``(1+2i)`` stay
    malformed); a bare real goes through ``float()``."""
    if not isinstance(token, str):
        raise ValueError(f"complex literal {token!r} is not a str")
    head = token.rstrip()
    try:
        if head.endswith("i"):
            return complex(head[:-1] + "j" + token[len(head):])
        return complex(float(token), 0.0)
    except ValueError:
        raise ValueError(f"malformed complex literal {token!r}") from None


def format_complex(z: complex) -> str:
    """``z`` as ``a+bi`` or ``a-bi``, each part its ``repr``.  An imaginary part of
    -0.0 is written ``+0.0``: ``parse_complex`` reads back a value equal to ``z``
    but loses that sign, which ``serialize_circuit`` keeps."""
    z = _complex("value", z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{repr(z.real)}{sign}{repr(abs(z.imag))}i"


def _kv(token: str, key: str) -> str:
    if not token.startswith(key + "="):
        raise ValueError(f"expected {key}=..., got {token!r}")
    return token[len(key) + 1 :]


def _index(token: str) -> int | float | str:
    """A mode index.  A non-integer number reads as a float and any other token
    stays a str, which the element and circuit checks then reject with the
    text they give in Python."""
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def _float_field(token: str, key: str) -> float:
    raw = _kv(token, key)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"malformed number in {token!r}") from None


def _kerr_line(tokens: list[str]) -> list[Element]:
    """The coupling a ``kerr`` line declares, then any ``branch_phase`` phases."""
    if not 4 <= len(tokens) <= 6:
        raise ValueError(
            "expected: kerr sys=I,J probe=P eps_tau=F [eta_tau=F] [branch_phase=F]"
        )
    raw_sys = _kv(tokens[1], "sys")
    sys_modes = frozenset(map(_index, raw_sys.split(","))) if raw_sys else frozenset()
    probe = _index(_kv(tokens[2], "probe"))
    out: list[Element] = [KerrCoupling(sys_modes, probe, _float_field(tokens[3], "eps_tau"))]
    rest = tokens[4:]
    if rest and rest[0].startswith("eta_tau="):
        _float_field(rest.pop(0), "eta_tau")
    if rest:
        phi = -_float_field(rest.pop(0), "branch_phase")
        out += [PhaseShift(SYS, m, phi) for m in sorted(sys_modes)]
    if rest:
        raise ValueError(f"unexpected token {rest[0]!r}")
    return out


def parse_circuit(text: str) -> Circuit:
    """Parse the line format into a :class:`Circuit`.

    Raises :class:`CircuitFormatError` naming the line for: unknown
    keywords, malformed or non-finite numbers, non-integer indices or ones
    outside the declared ranges, and bad, reserved or duplicate snapshot
    labels.  Each line is checked as it is read, by the same checks, with
    the same text, that :class:`Circuit` makes.  A missing source line and
    a detection stage with no snapshot (which may follow ``postselect``)
    name no line.
    """
    if not isinstance(text, str):
        raise CircuitFormatError(None, f"circuit text {text!r} is not a str")
    m_modes: int | None = None
    k_probes: int | None = None
    source_mode: int | None = None
    source_probes: tuple[complex, ...] | None = None
    postselect_mode = 0
    detect_stage = FINAL_STAGE
    elements: list[Element] = []
    labels: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        first_new = len(elements)
        try:
            if keyword == "modes":
                if m_modes is not None:
                    raise ValueError("duplicate modes declaration")
                if len(tokens) != 4 or tokens[2] != "probes":
                    raise ValueError("expected: modes M probes K")
                m_modes, k_probes = _check_counts(_index(tokens[1]), _index(tokens[3]))
                continue
            if m_modes is None:
                raise ValueError(f"{keyword!r} before the modes declaration")
            if keyword == "source":
                if source_probes is not None:
                    raise ValueError("duplicate source line")
                if len(tokens) != 2 + k_probes:
                    probes = f"and probe0=..probe{k_probes - 1}=" if k_probes else "only"
                    raise ValueError(f"source needs mode= {probes}")
                source_mode = _index(_kv(tokens[1], "mode"))
                _check_mode("source mode", source_mode, m_modes)
                source_probes = tuple(
                    parse_complex(_kv(tokens[2 + k], f"probe{k}")) for k in range(k_probes)
                )
                for p in source_probes:
                    _check_finite(p, "source probe amplitude")
            elif keyword == "bs":
                if len(tokens) != 5:
                    raise ValueError("expected: bs sys|probe A B r=R")
                a, b = _index(tokens[2]), _index(tokens[3])
                elements.append(BeamSplitter(tokens[1], a, b, _float_field(tokens[4], "r")))
            elif keyword == "phase":
                if len(tokens) != 4:
                    raise ValueError("expected: phase sys|probe I phi=F")
                idx = _index(tokens[2])
                elements.append(PhaseShift(tokens[1], idx, _float_field(tokens[3], "phi")))
            elif keyword == "kerr":
                elements += _kerr_line(tokens)
            elif keyword == "snapshot":
                label = line[len(keyword) :].strip()
                _check_label(label, labels)
                elements.append(Snapshot(label))
            elif keyword == "postselect":
                if len(tokens) not in (2, 3):
                    raise ValueError("expected: postselect mode=I [at=LABEL]")
                postselect_mode = _index(_kv(tokens[1], "mode"))
                _check_mode("postselect mode", postselect_mode, m_modes)
                if len(tokens) == 3:
                    detect_stage = _kv(tokens[2], "at")
            else:
                raise ValueError(f"unknown keyword {keyword!r}")
            for el in elements[first_new:]:
                _check_indices(el, m_modes, k_probes)
        except (ValueError, IndexError) as exc:
            raise CircuitFormatError(line_no, str(exc)) from None

    if m_modes is None:
        raise CircuitFormatError(None, "empty circuit: no modes declaration")
    if source_probes is None or source_mode is None:
        raise CircuitFormatError(None, "missing source line")
    try:  # every other rule was checked on its line; the detection stage may name a later one
        return Circuit(m_modes, k_probes, tuple(elements), source_mode, source_probes,
                       postselect_mode, detect_stage)
    except ValueError as exc:
        raise CircuitFormatError(None, str(exc)) from None


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the line format; round-trips through ``parse_circuit``."""
    lines = [f"modes {circuit.m_modes} probes {circuit.k_probes}"]
    # Signed by math.copysign, so that an imaginary part of -0.0 round-trips.
    probes = " ".join(f"probe{k}={p.real!r}{'+-'[math.copysign(1.0, p.imag) < 0]}{abs(p.imag)!r}i"
                      for k, p in enumerate(circuit.source_probes))
    lines.append(f"source mode={circuit.source_mode} {probes}".rstrip())
    for el in circuit.elements:
        if isinstance(el, BeamSplitter):
            lines.append(
                f"bs {el.target} {el.mode_a} {el.mode_b} r={repr(float(el.reflectivity))}"
            )
        elif isinstance(el, PhaseShift):
            lines.append(f"phase {el.target} {el.index} phi={repr(float(el.phi))}")
        elif isinstance(el, KerrCoupling):
            sys_modes = ",".join(str(m) for m in sorted(el.system_modes))
            lines.append(
                f"kerr sys={sys_modes} probe={el.probe_mode} eps_tau={repr(float(el.eps_tau))}"
            )
        elif isinstance(el, Snapshot):
            lines.append(f"snapshot {el.label}")
        else:
            raise TypeError(f"cannot serialize {el!r}")
    ps = f"postselect mode={circuit.postselect_mode}"
    if circuit.detect_stage != FINAL_STAGE:
        ps += f" at={circuit.detect_stage}"
    lines.append(ps)
    return "\n".join(lines) + "\n"
