from dataclasses import replace

import pytest
from click.testing import CliRunner

from qndmzi import build_nested_mzi, serialize_circuit
from qndmzi.cli import main

PRESET = ["nested-mzi", "--r", "0.6", "--alpha", "2", "--eps-tau", "0.3"]


@pytest.fixture
def runner():
    return CliRunner()


class TestPostselectCommand:
    def test_detector_click(self, runner):
        result = runner.invoke(main, PRESET + ["postselect", "--mode", "0"])
        assert result.exit_code == 0
        assert "probability 0.36" in result.output
        assert "1.000000000000" in result.output

    def test_dark_output_at_inner_stage(self, runner):
        result = runner.invoke(
            main, PRESET + ["postselect", "--mode", "1", "--at", "L3"]
        )
        assert result.exit_code == 0
        assert "probability 0" in result.output
        assert "undefined" in result.output

    def test_record_format(self, runner):
        result = runner.invoke(
            main, PRESET + ["postselect", "--mode", "0", "--format", "record"]
        )
        assert result.exit_code == 0
        assert "postselect.probability=0.36" in result.output
        assert "postselect.fidelity=1.000000000000" in result.output
        assert "postselect.stage=L3p" in result.output

    def test_invalid_mode_fails_cleanly(self, runner):
        result = runner.invoke(main, PRESET + ["postselect", "--mode", "9"])
        assert result.exit_code != 0
        assert "9" in result.output

    def test_unknown_stage_fails_cleanly(self, runner):
        result = runner.invoke(
            main, PRESET + ["postselect", "--mode", "0", "--at", "L9"]
        )
        assert result.exit_code != 0


class TestRunCommand:
    def test_prints_every_stage(self, runner):
        result = runner.invoke(main, PRESET + ["run"])
        assert result.exit_code == 0
        for label in ("source", "L1", "L2", "L2p", "L3", "L3p", "final"):
            assert f"forward {label}:" in result.output
        assert "arg=" in result.output  # polar form alongside rectangular

    def test_backward_flag(self, runner):
        result = runner.invoke(main, PRESET + ["run", "--backward"])
        assert result.exit_code == 0
        assert "backward L1:" in result.output

    def test_record_format_is_dot_namespaced(self, runner):
        result = runner.invoke(main, PRESET + ["run", "--format", "record"])
        assert result.exit_code == 0
        assert "forward.L1.m0.amp=" in result.output
        assert "forward.L1.m1.probe0=" in result.output


class TestFringesCommand:
    def test_exit_shift_equals_coupling(self, runner, tmp_path):
        out = tmp_path / "fr.csv"
        result = runner.invoke(
            main,
            PRESET + ["fringes", "--mode", "2", "--points", "64", "--out", str(out)],
        )
        assert result.exit_code == 0
        shift_line = [l for l in result.output.splitlines() if l.startswith("extracted shift")][0]
        assert abs(float(shift_line.split()[-1]) - 0.3) < 1e-6
        body = out.read_text()
        assert body.splitlines()[0] == "phi,dp1,dp2"
        assert len(body.splitlines()) == 65

    def test_csv_to_stdout_and_determinism(self, runner):
        args = PRESET + ["fringes", "--mode", "0", "--points", "16", "--out", "-"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_out_dir_env_variable(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("QNDMZI_OUT_DIR", str(tmp_path))
        result = runner.invoke(
            main, PRESET + ["fringes", "--mode", "0", "--points", "8"]
        )
        assert result.exit_code == 0
        assert (tmp_path / "fringes.csv").exists()


class TestTsvfCommand:
    def test_verdict_table(self, runner):
        result = runner.invoke(
            main,
            ["nested-mzi", "--r", "0.6", "--alpha", "2", "--eps-tau", "0", "tsvf"],
        )
        assert result.exit_code == 0
        assert "OVERLAP" in result.output
        assert "NO-OVERLAP" in result.output
        l1_rows = [l for l in result.output.splitlines() if l.startswith("L1 ")]
        assert any("NO-OVERLAP" in row for row in l1_rows)

    def test_impossible_post_selection_at_every_stage(self, runner):
        # At r = 0 the photon never reaches the detector mode.
        result = runner.invoke(main, ["nested-mzi", "--r", "0", "tsvf"])
        assert result.exit_code == 0, result.output
        rows = result.output.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["source", "L1", "L2", "L2p", "L3", "L3p", "final"]
        assert all(row.endswith(" post-selection impossible (null transition amplitude)") for row in rows)

    def test_record_format(self, runner):
        result = runner.invoke(
            main,
            ["nested-mzi", "--r", "0.6", "--alpha", "2", "--eps-tau", "0",
             "tsvf", "--format", "record"],
        )
        assert result.exit_code == 0
        assert "tsvf.L1.m1.verdict=NO-OVERLAP" in result.output
        assert "tsvf.L2.m1.verdict=OVERLAP" in result.output


class TestRuntime:
    def test_preset_commands_finish_quickly(self, runner):
        import time

        start = time.monotonic()
        result = runner.invoke(main, PRESET + ["run"])
        elapsed = time.monotonic() - start
        assert result.exit_code == 0
        assert elapsed < 1.0


class TestLeakageCommand:
    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "leak.csv"
        result = runner.invoke(
            main,
            PRESET
            + ["leakage", "--delta-min", "1e-4", "--delta-max", "1e-2",
               "--points", "5", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,leak_prob,fidelity_deficit"
        assert len(lines) == 6

    def test_bad_range_rejected(self, runner):
        result = runner.invoke(
            main, PRESET + ["leakage", "--delta-min", "0.1", "--delta-max", "0.01"]
        )
        assert result.exit_code != 0


class TestCircuitFileInput:
    def test_file_runs_like_the_preset(self, runner, tmp_path):
        path = tmp_path / "circuit.txt"
        path.write_text(serialize_circuit(build_nested_mzi(0.6, 2.0, 0.3)))
        result = runner.invoke(
            main, ["circuit", str(path), "postselect", "--mode", "0"]
        )
        assert result.exit_code == 0
        assert "probability 0.36" in result.output

    def test_parse_error_names_line(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("modes 3 probes 2\nsource mode=0 probe0=0+0i probe1=0+0i\nbs sys 0 5 r=0.5\n")
        result = runner.invoke(main, ["circuit", str(path), "run"])
        assert result.exit_code != 0
        assert "line 3" in result.output

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["circuit", "/nonexistent.txt", "run"])
        assert result.exit_code != 0


class TestBadInputFailsCleanly:
    HEADER = "modes 3 probes 2\nsource mode=0 probe0=1+0i probe1=0+0i\n"
    # The probe splitter's output overflows: an engine failure, not a parse error.
    OVERFLOW = (
        "modes 2 probes 2\n"
        "source mode=0 probe0=1.5e308+0i probe1=0+1.5e308i\n"
        "bs probe 0 1 r=0.7071067811865476\n"
        "postselect mode=0\n"
    )

    @staticmethod
    def assert_clean_error(result, *expected):
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Error:" in result.output
        assert "Traceback" not in result.output
        for text in expected:
            assert text in result.output

    @pytest.mark.parametrize(
        "line",
        [
            "snapshot final",
            "snapshot source",
            "phase sys 0 phi=nan",
            "kerr sys=1 probe=0 eps_tau=inf",
            "kerr sys=1 probe=0 eps_tau=inf eta_tau=0.0",
        ],
    )
    def test_bad_element_line(self, runner, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(self.HEADER + "snapshot A\n" + line + "\n")
        result = runner.invoke(main, ["circuit", str(path), "run"])
        self.assert_clean_error(result, f"{path}: line 4: ")

    def test_non_finite_source_probe_in_file(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("modes 3 probes 2\nsource mode=0 probe0=nan+0i probe1=0+0i\n")
        result = runner.invoke(main, ["circuit", str(path), "run"])
        self.assert_clean_error(result, f"{path}: line 2: ", "non-finite")

    def test_alpha_that_is_no_complex_literal(self, runner):
        result = runner.invoke(main, ["nested-mzi", "--r", "0.6", "--alpha", "x", "run"])
        assert result.exit_code == 2
        self.assert_clean_error(result, "'x' is not a complex literal (a+bi)")

    def test_alpha_default_that_is_complex_already(self, runner):
        # A default from the default map reaches the parameter type as a complex.
        args = ["nested-mzi", "--r", "0.6", "postselect", "--mode", "0"]
        given = runner.invoke(main, args, default_map={"nested-mzi": {"alpha": 2 + 1j}})
        typed = runner.invoke(main, args[:3] + ["--alpha", "2+1i"] + args[3:])
        assert given.exit_code == typed.exit_code == 0
        assert given.output == typed.output

    @pytest.mark.parametrize("command", ["run", "tsvf"])
    def test_non_finite_alpha(self, runner, command):
        result = runner.invoke(main, ["nested-mzi", "--r", "0.6", "--alpha", "nan", command])
        self.assert_clean_error(result, "non-finite")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_bad_tsvf_threshold(self, runner, threshold):
        result = runner.invoke(main, PRESET + ["tsvf", "--threshold", threshold])
        self.assert_clean_error(result, "threshold")

    def test_zero_tsvf_threshold_accepted(self, runner):
        result = runner.invoke(main, PRESET + ["tsvf", "--threshold", "0"])
        assert result.exit_code == 0, result.output
        assert "OVERLAP" in result.output

    @pytest.mark.parametrize(
        "alpha, command",
        [("1e160", ["tsvf"]), ("1e200", ["postselect", "--mode", "0"])],
    )
    def test_overflowed_overlap(self, runner, alpha, command):
        result = runner.invoke(main, ["nested-mzi", "--r", "0.6", "--alpha", alpha] + command)
        self.assert_clean_error(result, "non-finite inner product")

    def test_overflowing_overlap_exponent(self, runner):
        alpha = "--alpha=5.403023058681398e+49+8.414709848078966e+49i"
        result = runner.invoke(main, ["nested-mzi", "--r", "0.6", alpha, "--eps-tau", "0", "tsvf"])
        assert result.exit_code == 1
        self.assert_clean_error(result, "non-finite inner product")

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--delta-min", "nan"],
            ["--delta-max", "nan"],
            ["--delta-max", "inf"],
            ["--delta-min", "-inf"],
        ],
    )
    def test_non_finite_leakage_bound(self, runner, bounds):
        result = runner.invoke(main, PRESET + ["leakage", *bounds, "--points", "3"])
        assert result.exit_code == 1
        self.assert_clean_error(result, "finite 0 < delta-min < delta-max")

    def test_leakage_bounds_whose_ratio_overflows(self, runner):
        result = runner.invoke(
            main,
            PRESET + ["leakage", "--delta-min", "1e-300", "--delta-max", "1e300",
                      "--points", "3"],
        )
        assert result.exit_code == 1
        # The bounds are finite, their ratio is not: the error names the
        # bounds the user typed, not a delta derived from them.
        self.assert_clean_error(result, "delta-max / delta-min overflows: 1e+300 / 1e-300")
        assert "inf" not in result.output

    @pytest.mark.parametrize(
        "command", [["fringes", "--mode", "0", "--points", "8"], ["leakage", "--points", "2"]]
    )
    def test_csv_path_that_is_a_directory(self, runner, tmp_path, command):
        result = runner.invoke(main, PRESET + [*command, "--out", str(tmp_path)])
        assert result.exit_code == 1
        self.assert_clean_error(result, f"cannot write {tmp_path}: ")

    @pytest.mark.parametrize(
        "command", [["fringes", "--mode", "0", "--points", "8"], ["leakage", "--points", "2"]]
    )
    def test_out_dir_that_is_a_file(self, runner, tmp_path, monkeypatch, command):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        monkeypatch.setenv("QNDMZI_OUT_DIR", str(blocker))
        result = runner.invoke(main, PRESET + command)
        assert result.exit_code == 1
        self.assert_clean_error(result, f"cannot write {blocker / command[0]}.csv: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "command",
        [
            ["run"],
            ["run", "--backward"],
            ["postselect", "--mode", "0"],
            ["tsvf"],
            ["fringes", "--mode", "0", "--out", "-"],
            ["leakage", "--out", "-"],
        ],
    )
    def test_engine_overflow_in_every_command(self, runner, tmp_path, command):
        path = tmp_path / "overflow.txt"
        path.write_text(self.OVERFLOW)
        result = runner.invoke(main, ["circuit", str(path), *command])
        assert result.exit_code == 1
        self.assert_clean_error(result)

    def test_null_detector_state_at_a_leakage_delta(self, runner):
        result = runner.invoke(
            main,
            ["nested-mzi", "--r", "0.7071067811865476", "--eps-tau", "0", "leakage",
             "--delta-min", "1", "--delta-max", "3.141592653589793", "--points", "2",
             "--out", "-"],
        )
        assert result.exit_code == 1
        self.assert_clean_error(result, "at delta 3.141592653589793 is null")

    def test_flat_fringe_reports_no_shift(self, runner):
        result = runner.invoke(
            main,
            ["nested-mzi", "--r", "0.6", "--alpha", "0", "--eps-tau", "0.3",
             "fringes", "--mode", "2", "--out", "-"],
        )
        assert result.exit_code == 1
        self.assert_clean_error(result, "mode 2 is flat")
        assert "extracted shift" not in result.output

    def test_fringe_detected_ahead_of_the_scanned_phase(self, runner, tmp_path):
        # Detected at L2, ahead of the scanned phase: every intensity is
        # the same, so the fringe has no phase to extract.
        path = tmp_path / "circuit.txt"
        circuit = replace(build_nested_mzi(0.6, 2.0, 0.3), detect_stage="L2")
        path.write_text(serialize_circuit(circuit))
        assert "postselect mode=0 at=L2" in path.read_text()
        result = runner.invoke(
            main, ["circuit", str(path), "fringes", "--mode", "0", "--out", "-"]
        )
        assert result.exit_code == 1
        self.assert_clean_error(result, "mode 0 is flat")
        assert "extracted shift" not in result.output

    def test_eta_tau_option_is_gone(self, runner):
        result = runner.invoke(main, PRESET + ["--eta-tau", "0.1", "run"])
        assert result.exit_code == 2
        assert "--eta-tau" in result.output
