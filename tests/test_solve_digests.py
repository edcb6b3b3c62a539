"""The benchmark's seeded solves keep their bits: SHA-256 digests per workload.

``solve_digests.py`` hashes the ``repr`` of every result of 300
``apparatus``, 30 ``sweep``, 100 ``deep`` and 30 ``cli`` solves at seed
4242, which cover the preset's runs, post-selections, reports and sweeps,
the Kerr-marked chain and the CLI's output.  A change that moves bits
re-records the digests (``PYTHONPATH=src python tests/solve_digests.py``)
and says so in CHANGES.md, as a change to a golden file does.  ``deep``'s
digest includes Gram (einsum) sums, as ``tests/golden/deep_chain.txt``
does, so a numpy whose einsum adds in another order can move it.
"""

import pytest

from solve_digests import digest

DIGESTS = {
    "apparatus": "287e088112c313240c96147b8ae51733e804735449731efbcb803512ccd31d44",
    "sweep": "20514afa9afc03d304c5199af1b127c9605a2e4e508b12141d7ae8a1f628eb85",
    "deep": "d6763514cd0550550166d9e6439fa184b8c001b5527262fdd8f5400a1a31c766",
    "cli": "33bc4b1f59f87fc235f0d2f87f67eb66eb2919eab543af68ec455df9282295db",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seeded_solves_keep_their_bits(workload):
    assert digest(workload) == DIGESTS[workload]
