"""Byte-for-byte CLI output: the README's ``nested-mzi`` examples and an old file.

Each case's stdout (and the CSV it writes, where it writes one) is kept
under ``tests/golden/``.  The ``old_format`` cases read ``old_format.txt``,
a file in the older ``kerr`` syntax with ``eta_tau=`` and ``branch_phase=``
tokens; their outputs were recorded while the Kerr coupling still carried
both parameters, so they pin that such files still evolve the same way.
To record a case again, run its arguments with ``python -m qndmzi.cli``
from an empty directory with ``QNDMZI_OUT_DIR`` unset, and copy stdout to
``<name>.stdout`` and the CSV to ``<name>.csv``.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from qndmzi.cli import main
from deep_chains import chain_line, golden_chains

GOLDEN = Path(__file__).parent / "golden"

PRESET = ["nested-mzi", "--r", "0.6", "--alpha", "2", "--eps-tau", "0.3"]

#: name -> (arguments, CSV file the command writes or None)
CASES = {
    "postselect_detector": (PRESET + ["postselect", "--mode", "0"], None),
    "postselect_dark_port": (PRESET + ["postselect", "--mode", "1", "--at", "L3"], None),
    "fringes_exit": (PRESET + ["fringes", "--mode", "2", "--points", "64"], "fringes.csv"),
    "run_backward": (PRESET + ["run", "--backward"], None),
    "tsvf": (["nested-mzi", "--r", "0.6", "--alpha", "2", "--eps-tau", "0", "tsvf"], None),
    "leakage": (PRESET + ["leakage", "--out", "leakage.csv"], "leakage.csv"),
}

OLD_FILE = ["circuit", str(GOLDEN / "old_format.txt")]
CASES.update({
    "old_format_run": (OLD_FILE + ["run", "--backward", "--format", "record"], None),
    "old_format_postselect": (OLD_FILE + ["postselect", "--mode", "0"], None),
    "old_format_exit": (OLD_FILE + ["postselect", "--mode", "2", "--format", "record"], None),
    "old_format_tsvf": (OLD_FILE + ["tsvf", "--format", "record"], None),
    "old_format_fringes": (OLD_FILE + ["fringes", "--mode", "2", "--points", "16", "--out", "-"], None),
    "old_format_leakage": (OLD_FILE + ["leakage", "--points", "5", "--out", "-"], None),
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, tmp_path, monkeypatch):
    args, csv_name = CASES[name]
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, args, env={"QNDMZI_OUT_DIR": None})
    assert result.exit_code == 0, result.output
    assert result.stdout == (GOLDEN / f"{name}.stdout").read_text()
    if csv_name is not None:
        assert (tmp_path / csv_name).read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_deep_chains_are_unchanged():
    # Branch counts, norms and stage transition amplitudes of seeded deep
    # chains, from 32 to 256 branches, recorded before large states moved
    # to the column form; see deep_chains.py for how to record them again.
    want = (GOLDEN / "deep_chain.txt").read_text().splitlines()
    assert [chain_line(c) for c in golden_chains()] == want
