"""The A/B benchmark tool's summary, on canned harness output (no timing runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)


def harness_line(p50, rss=37.6, failed=0, attempted=100):
    metrics = {"run_s.p50": {"value": p50, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def canned(base_p50, change_p50, **change):
    return [{"base": json.loads(harness_line(b)), "change": json.loads(harness_line(c, **change))}
            for b, c in zip(base_p50, change_p50)]


def test_last_json_line_is_the_result():
    stdout = "workload widths: polymra widths\nrun_s.p50  0.002 s\n" + harness_line(0.002) + "\n"
    assert bench_ab.last_json(stdout)["metrics"]["run_s.p50"]["value"] == 0.002
    with pytest.raises(ValueError):
        bench_ab.last_json("\n")


def test_env_line_keeps_values_with_spaces():
    stdout = ("workload czd: polymra czd\n"
              "env nproc=2 cpu=Intel(R) Xeon(R) Processor python=3.11.7 numpy=2.4.6 "
              "blas=scipy-openblas 0.3.31 blas_threads=2 omp_threads=2\n")
    assert bench_ab.parse_env(stdout) == {
        "nproc": "2", "cpu": "Intel(R) Xeon(R) Processor", "python": "3.11.7",
        "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31", "blas_threads": "2",
        "omp_threads": "2"}
    assert bench_ab.parse_env("no env line\n") == {}


def test_ratios_wins_and_quartiles():
    base = [2.0, 1.6, 1.7, 2.5, 2.1]
    change = [1.4, 1.2, 1.8, 1.5, 1.3]
    summary = bench_ab.summarize(canned(base, change), {"run_s.p50": "lower"})
    p50 = summary["run_s.p50"]
    assert p50["ratios"] == pytest.approx([0.7, 0.75, 1.8 / 1.7, 0.6, 1.3 / 2.1])
    assert p50["wins"] == {"change": 4, "base": 1, "tie": 0}
    # inclusive quartiles of 1.6, 1.7, 2.0, 2.1, 2.5
    assert p50["base"] == pytest.approx({"q1": 1.7, "median": 2.0, "q3": 2.1, "iqr": 0.4})
    assert p50["change"]["median"] == pytest.approx(1.4)
    assert p50["median_ratio"] == pytest.approx(0.7)
    assert p50["clears_base_iqr"] is True
    # equal values tie; fail_frac is added from the failure counts
    assert summary["peak_rss_mb"]["wins"] == {"change": 0, "base": 0, "tie": 5}
    assert summary["peak_rss_mb"]["clears_base_iqr"] is False
    assert summary["fail_frac"]["ratios"] == [None] * 5


def test_a_gain_inside_the_base_spread_does_not_clear():
    summary = bench_ab.summarize(canned([1.0, 2.0, 3.0, 4.0], [0.9, 1.9, 2.9, 3.9]), {})
    p50 = summary["run_s.p50"]
    assert p50["wins"]["change"] == 4
    assert p50["clears_base_iqr"] is False


def test_higher_is_better_flips_the_wins():
    summary = bench_ab.summarize(canned([1.0, 1.0], [1.5, 0.5]), {"run_s.p50": "higher"})
    assert summary["run_s.p50"]["wins"] == {"change": 1, "base": 1, "tie": 0}


def test_failures_count_in_fail_frac():
    runs = canned([1.0], [1.0], failed=3, attempted=60)
    assert bench_ab.summarize(runs, {})["fail_frac"]["change"]["median"] == 0.05


def test_series_argument():
    assert bench_ab.parse_series("widths:7:10") == ("widths", 7, 10)
    with pytest.raises(bench_ab.argparse.ArgumentTypeError):
        bench_ab.parse_series("widths:7")
