"""Tests for the command line runner: formats, determinism, frozen demos."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import polymra
from polymra.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestVerifyProjectors:
    def test_haar_checks_pass(self, capsys):
        code, out = run(capsys, "verify-projectors", "--d", "1", "--l", "0", "--K", "5")
        assert code == 0
        rows = csv_rows(out)
        assert {r["check"] for r in rows} == {
            "parseval",
            "reconstruction",
            "telescoping",
            "orthogonality",
        }
        assert all(r["status"] == "pass" for r in rows)
        assert all(float(r["max_error"]) <= 1e-10 for r in rows)

    def test_degree_one_two_dimensional(self, capsys):
        code, out = run(
            capsys, "verify-projectors", "--d", "2", "--l", "1", "--K", "3", "--trials", "3"
        )
        assert code == 0
        assert all(r["status"] == "pass" for r in csv_rows(out))


class TestCzd:
    def test_unit_interval_demo_frozen_cubes(self, capsys):
        code, out = run(capsys, "czd", "--d", "1", "--demo", "bump", "--alpha", "0.5")
        assert code == 0
        assert "# k0=3" in out
        rows = csv_rows(out)
        first = [(r["level"], r["pos"]) for r in rows[:4]]
        assert first == [("3", "2"), ("3", "3"), ("3", "4"), ("3", "5")]
        assert "# residual=0.0625" in out
        assert "# identity_error" in out

    def test_identity_error_small(self, capsys):
        _, out = run(capsys, "czd", "--d", "1", "--demo", "step", "--alpha", "1.0", "--K", "5")
        line = next(ln for ln in out.splitlines() if ln.startswith("# identity_error="))
        assert float(line.split("=")[1]) <= 1e-12

    def test_bad_threshold_rejected(self, capsys):
        code = main(["czd", "--d", "1", "--alpha", "-0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err


class TestLpSweep:
    def test_p_two_ratios_are_unit(self, capsys):
        code, out = run(
            capsys, "lp-sweep", "--d", "1", "--K", "3", "--p", "2", "--trials", "5"
        )
        assert code == 0
        rows = csv_rows(out)
        sq = next(r for r in rows if r["statistic"] == "square_ratio")
        assert float(sq["min"]) == pytest.approx(1.0, abs=1e-10)
        assert float(sq["max"]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", ["1", "inf", "2.0,1.0"])
    def test_p_outside_the_open_range_rejected(self, capsys, p):
        # the square-function equivalence holds only for 1 < p < infinity
        code = main(["lp-sweep", "--d", "1", "--K", "3", "--p", p, "--trials", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_rows_of_one_p_do_not_depend_on_the_others(self, capsys):
        # every p is measured on the same ensemble, so adding exponents to
        # the sweep leaves each exponent's rows as they are
        argv = ("lp-sweep", "--d", "1", "--K", "4", "--trials", "3", "--seed", "5")
        _, both = run(capsys, *argv, "--p", "1.5,3.0")
        _, alone = run(capsys, *argv, "--p", "3.0")

        def rows_at_three(text):
            lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
            return [ln for ln in lines[1:] if ln.split(",")[1] == "3.0"]

        assert len(rows_at_three(alone)) == 3
        assert rows_at_three(both) == rows_at_three(alone)

    def test_baselines_written(self, capsys, tmp_path):
        path = tmp_path / "empirical.json"
        code, _ = run(
            capsys,
            "lp-sweep",
            "--d",
            "1",
            "--K",
            "3",
            "--p",
            "1.5,3.0",
            "--trials",
            "4",
            "--update-baselines",
            "--baselines",
            str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert "lp_square_d1_p1.5" in data
        assert "pstar_d1_p3.0" in data
        lo, hi = data["lp_square_d1_p1.5"]
        assert 0.0 < lo <= hi


class TestSmoothness:
    def test_extremal_profile_report(self, capsys):
        code, out = run(capsys, "smoothness", "--d", "1", "--alpha", "1", "--K", "4")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 4
        # normalized profile keeps one flat ratio per block
        vals = [float(r["ratio"]) for r in rows]
        assert max(vals) == pytest.approx(min(vals), rel=1e-9)
        assert "# seminorm=" in out


class TestWidths:
    def test_one_dimensional_slope_reported(self, capsys):
        code, out = run(capsys, "widths", "--d", "1", "--alpha", "1", "--K", "5", "--r", "4..8")
        assert code == 0
        line = next(ln for ln in out.splitlines() if ln.startswith("# slope="))
        assert float(line.split("=")[1]) == pytest.approx(-1.0, abs=1e-6)
        rows = csv_rows(out)
        assert [int(r["n"]) for r in rows] == [2 ** (k + 1) for k in range(4, 9)]

    def test_budget_hypothesis_warning_is_structured(self, capsys):
        # q below 2 breaks the budget case but not the truncation run
        code, out = run(
            capsys, "widths", "--d", "1", "--alpha", "1", "--K", "8", "--r", "3..6",
            "--q", "1.5",
        )
        assert code == 0
        assert "# warning=budget skipped:" in out
        assert "# slope=" in out

    def test_rate_condition_failure_exits_nonzero(self, capsys):
        code = main(
            ["widths", "--d", "1", "--alpha", "0.4", "--p", "1", "--q", "inf",
             "--K", "3", "--r", "2..5"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_baseline_update(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        code, _ = run(
            capsys, "widths", "--d", "1", "--alpha", "1", "--K", "4", "--r", "3..6",
            "--update-baselines", "--baselines", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["width_slope_d1"] == pytest.approx(-1.0, abs=1e-5)


class TestCrossCount:
    def test_counting_table(self, capsys):
        code, out = run(capsys, "cross-count", "--beta", "1,1.5", "--alpha", "1,1", "--r-max", "5")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 5
        assert all(float(r["growth_ratio"]) > 0 for r in rows)

    def test_mismatched_weights_rejected(self, capsys):
        code = main(["cross-count", "--beta", "1,1", "--alpha", "1", "--r-max", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestNonFiniteInput:
    # nan and inf are rejected before any work: exit 2 and no report
    @pytest.mark.parametrize("argv", [
        ["smoothness", "--d", "1", "--alpha", "1", "--K", "3", "--q", "nan"],
        ["widths", "--d", "1", "--alpha", "1", "--K", "3", "--r", "2..5", "--q", "nan"],
        ["smoothness", "--d", "1", "--alpha", "inf", "--K", "3"],
    ], ids=["smoothness-q-nan", "widths-q-nan", "smoothness-alpha-inf"])
    def test_exits_2_without_a_report(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestRejectedBeforeWork:
    # each names the bad value, and no numpy warning comes before the error
    @pytest.mark.parametrize("argv, message", [
        (["smoothness", "--d", "1", "--alpha", "1", "--K", "0"], "K must be >= 1, got 0"),
        (["smoothness", "--d", "1", "--alpha", "1", "--K", "3", "--q", "0.5"],
         "q must be >= 1, got 0.5"),
        (["lp-sweep", "--d", "1", "--K", "3", "--sign-trials", "0"],
         "sign_trials must be >= 1, got 0"),
    ], ids=["smoothness-K-0", "smoothness-q-half", "lp-sweep-sign-trials-0"])
    def test_exits_2_naming_the_value(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err


class TestOutputPlumbing:
    def test_json_mirrors_csv(self, capsys):
        _, csv_text = run(capsys, "czd", "--d", "1", "--K", "4")
        _, json_text = run(capsys, "czd", "--d", "1", "--K", "4", "--format", "json")
        doc = json.loads(json_text)
        assert doc["version"]
        assert doc["config"]["command"] == "czd"
        assert len(doc["rows"]) == len(csv_rows(csv_text))
        assert doc["summary"]["k0"] == 3

    def test_reports_are_byte_identical(self, capsys):
        _, first = run(capsys, "widths", "--d", "1", "--alpha", "1", "--K", "4", "--r", "3..6")
        _, second = run(capsys, "widths", "--d", "1", "--alpha", "1", "--K", "4", "--r", "3..6")
        assert first == second

    def test_out_file_and_env_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYMRA_OUT", str(tmp_path))
        code = main(["czd", "--d", "1", "--K", "4", "--out", "report.csv"])
        assert code == 0
        assert capsys.readouterr().out == ""
        text = (tmp_path / "report.csv").read_text()
        assert text.startswith("# polymra ")
        # absolute paths ignore the environment directory
        target = tmp_path / "abs.csv"
        main(["czd", "--d", "1", "--K", "4", "--out", str(target)])
        assert target.read_text() == text

    def test_infinite_exponent_survives_json(self, capsys):
        _, out = run(
            capsys, "smoothness", "--d", "1", "--alpha", "1", "--K", "3",
            "--theta", "inf", "--p", "inf", "--q", "inf", "--format", "json",
        )
        config = json.loads(out)["config"]
        assert config["theta"] == "inf"
        assert config["p"] == "inf"
        assert config["q"] == "inf"

    def test_parser_is_built_once_and_reused(self, capsys):
        argv = ["widths", "--d", "1", "--alpha", "1", "--K", "4", "--r", "3..6", "--seed", "7"]
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["widths", "--q", "nan"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, reused = run(capsys, *argv)
        assert code == 0
        assert build_parser.cache_info().misses == 1
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polymra.__file__)))
        fresh = subprocess.run([sys.executable, "-m", "polymra.cli", *argv], env=env,
                               capture_output=True, text=True, check=True).stdout
        assert reused == fresh

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("polymra ")
