"""Regression tests against the committed baselines and golden report."""

import json
import os
import subprocess
import sys

import pytest

from polymra.cli import main
from polymra.grid import grid_for
from polymra.lp_analysis import lp_report
from polymra.smoothness import SmoothnessParams
from polymra.widths import WidthExperimentConfig, rate_fit, width_experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = os.path.join(ROOT, "baselines", "empirical.json")
GOLDEN_CZD = os.path.join(ROOT, "baselines", "golden_czd_demo.csv")
GOLDEN_CZD_2D = os.path.join(ROOT, "baselines", "golden_czd_d2.csv")
GOLDEN_CZD_WEDGE_2D = os.path.join(ROOT, "baselines", "golden_czd_wedge_d2.csv")
GOLDEN_SMOOTHNESS = os.path.join(ROOT, "baselines", "golden_smoothness_demo.csv")
GOLDEN_SMOOTHNESS_3D = os.path.join(ROOT, "baselines", "golden_smoothness_d3.csv")
REFERENCE_CZD_2D = os.path.join(ROOT, "perfbench", "reference", "czd.csv")
PERFBENCH = os.path.join(ROOT, "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import report  # noqa: E402  (perfbench's report checker, read only)
import spec  # noqa: E402  (perfbench's workload argv)


@pytest.fixture(scope="module")
def stored():
    with open(BASELINES) as fh:
        return json.load(fh)


def in_band(fresh, old, factor=1.1):
    lo, hi = sorted((old / factor, old * factor))
    return lo <= fresh <= hi


class TestEmpiricalConstants:
    def test_lp_square_bands(self, stored):
        grid = grid_for(1, degree=1, level=5)
        ps = (1.5, 3.0, 4.0)
        reports = lp_report(grid, (5,), (1,), ps, trials=40, sign_trials=5, seed=7)
        for p, rep in zip(ps, reports):
            lo, hi = stored[f"lp_square_d1_p{p!r}"]
            assert in_band(rep.square_ratio["min"], lo)
            assert in_band(rep.square_ratio["max"], hi)
            assert in_band(rep.pstar["max"], stored[f"pstar_d1_p{p!r}"])

    def test_width_slopes(self, stored):
        for d, key in ((1, "width_slope_d1"), (2, "width_slope_d2")):
            cfg = WidthExperimentConfig(
                params=SmoothnessParams(alpha=(1.0,) * d, p=2.0, theta=2.0),
                q=2.0,
                level=6,
                r_values=tuple(range(4, 11)),
                seed=5,
            )
            rows = width_experiment(cfg)
            slope, _ = rate_fit([(row["n"], row["error"]) for row in rows])
            assert slope == pytest.approx(stored[key], abs=0.05)


class TestGoldenReport:
    @pytest.mark.parametrize("argv, golden", [
        (["--d", "1", "--demo", "bump", "--alpha", "0.5", "--K", "6"], GOLDEN_CZD),
        # 116 Whitney cubes on two levels
        (["--d", "2", "--demo", "bump", "--alpha", "0.5", "--K", "5"], GOLDEN_CZD_2D),
        # weak11 here hangs on the order of equidistant nodes in the ball
        (["--d", "2", "--demo", "wedge", "--alpha", "2.0", "--K", "4"], GOLDEN_CZD_WEDGE_2D),
    ], ids=["demo", "square", "wedge"])
    def test_czd_matches_byte_for_byte(self, capsys, tmp_path, argv, golden):
        code = main(["czd", *argv, "--out", str(tmp_path / "fresh.csv")])
        assert code == 0
        with open(golden) as fh:
            want = fh.read()
        assert (tmp_path / "fresh.csv").read_text() == want

    @pytest.mark.parametrize("argv, golden", [
        # the benchmark's smoothness argv at its default seed
        (["--d", "2", "--alpha", "0.5,1.0", "--K", "6", "--seed", "7"], GOLDEN_SMOOTHNESS),
        # every nonempty axis subset of a d = 3 grid, order 2 on each axis
        (["--d", "3", "--alpha", "1,1,1", "--K", "3", "--seed", "7"], GOLDEN_SMOOTHNESS_3D),
    ], ids=["bench", "d3"])
    def test_smoothness_matches_byte_for_byte(self, capsys, tmp_path, argv, golden):
        code = main(["smoothness", *argv, "--out", str(tmp_path / "fresh.csv")])
        assert code == 0
        with open(golden) as fh:
            want = fh.read()
        assert (tmp_path / "fresh.csv").read_text() == want

    def test_czd_square_demo_matches_reference(self, capsys, tmp_path):
        # the benchmark's czd report: the only d=2 Whitney/maximal-function report
        code = main(
            ["czd", "--d", "2", "--demo", "bump", "--alpha", "0.5", "--K", "4",
             "--out", str(tmp_path / "fresh.csv")]
        )
        assert code == 0
        with open(REFERENCE_CZD_2D) as fh:
            reference = fh.read()
        assert (tmp_path / "fresh.csv").read_text() == reference

    @pytest.mark.parametrize("workload, seed", [
        # bare-seed ids for widths, the workload the test is named after
        pytest.param(w, s, id=str(s) if w == "widths" else f"{w}-{s}")
        for w in ("widths", "lp-sweep", "smoothness") for s in (7, 11)
    ])
    def test_widths_reports_match_references(self, capsys, workload, seed):
        # the benchmark's argv of each workload that runs through analyze,
        # checked the way the benchmark checks it
        code = main(spec.argv(workload, seed))
        assert code == 0
        assert report.check(workload, seed, capsys.readouterr().out) == []
