"""Equal Kerr histories in another order must recombine at every |alpha|.

In a balanced Mach-Zehnder interferometer, arm 0 takes Kerr marks 0.3 then
0.7 on the one probe, and arm 1 takes 0.7 then 0.3.  Both arms end with
the probe rotated by exp(-i 1.0), so the second splitter recombines the
state into one branch, with the photon in mode 1: P(mode 1) = 1 in closed
form, and no oracle is needed.

Probes are stored as absolute amplitudes, so each rotation rounds a probe
by about |alpha| * 1e-16.  From |alpha| = 1e6 on, the two arms' probes no
longer agree within ``MERGE_TOL``, and their overlap phase carries an error
of about |alpha|^2 * 1e-16: the state keeps 4 branches, and P(mode 1)
reads 0.9999999990686774, 0.2919265817264288 and 0.9899485636893957 at
1e6, 1e8 and 1e150.  Those cases are strict xfails until probe histories
are kept exactly.  At 1e160 the overlap itself overflows; the strict
xfail of ``test_apparatus_closed_form.py`` covers that magnitude.
"""

from __future__ import annotations

import math

import pytest

from qndmzi import FINAL_STAGE, SYS, BeamSplitter, Circuit, KerrCoupling, run_forward

_DEFECT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="probe rotations round apart at large |alpha|, so equal histories do not merge",
)


def commuting_mzi(alpha: float) -> Circuit:
    balanced = BeamSplitter(SYS, 0, 1, math.sqrt(0.5))
    order = ((0, 0.3), (1, 0.7), (0, 0.7), (1, 0.3))
    marks = [KerrCoupling(frozenset({mode}), 0, eps) for mode, eps in order]
    return Circuit(2, 1, (balanced, *marks, balanced), 0, (complex(alpha),))


@pytest.mark.parametrize("alpha", [
    2.0, 1e4,
    pytest.param(1e6, marks=_DEFECT),
    pytest.param(1e8, marks=_DEFECT),
    pytest.param(1e150, marks=_DEFECT),
])
def test_commuting_marks_recombine(alpha):
    final = run_forward(commuting_mzi(alpha)).forward[FINAL_STAGE]
    probability = final.project_mode(1).norm_sq()
    assert len(final.branches) == 1
    assert abs(probability - 1.0) <= 1e-12
