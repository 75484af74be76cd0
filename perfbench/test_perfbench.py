"""Tests of the benchmark itself: correctness gate, tracer, counts and metric names.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import sys

import pytest

import report
import spec

if str(spec.ROOT / "src") not in sys.path:
    sys.path.insert(0, str(spec.ROOT / "src"))

import polymra.cli  # noqa: E402
import polymra.czd  # noqa: E402
import polymra.indexing  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

CZD_REFERENCE = report.reference_path("czd", None).read_text()


def fake_main(text, rc=0):
    def main(argv):
        sys.stdout.write(text)
        return rc
    return main


def test_seed_reaches_only_seeded_workloads():
    assert spec.argv("widths", 5)[-2:] == ["--seed", "5"]
    assert "5" not in spec.argv("czd", 5)
    assert spec.reference_seed("czd", 5) is None


def test_reference_reports_pass_their_own_check():
    for workload in spec.WORKLOADS:
        for seed in (spec.SPEC["default_seed"], spec.SPEC["recheck_seed"]):
            ref_seed = spec.reference_seed(workload, seed)
            text = report.reference_path(workload, ref_seed).read_text()
            assert report.check(workload, ref_seed, text) == []


def test_float_tolerance_is_relative_and_integers_are_exact():
    assert report.field_matches("0.5035762292966409", "0.5035762292966414")
    assert not report.field_matches("0.5035762", "0.5035763")
    assert report.field_matches("1.1e-16", "0.0")
    assert not report.field_matches("25", "24")
    assert not report.field_matches("4:7", "4:8")


def test_corrupted_report_counts_as_failed():
    corrupted = CZD_REFERENCE.replace("4,5:7", "4,5:6", 1)
    assert corrupted != CZD_REFERENCE
    good = worker.Caller(fake_main(CZD_REFERENCE), "czd", 7)
    good.invoke()
    bad = worker.Caller(fake_main(corrupted), "czd", 7)
    bad.invoke()
    bad.invoke()
    assert (good.attempted, good.failed) == (1, 0)
    assert (bad.attempted, bad.failed) == (2, 2)


def test_nonzero_exit_and_exceptions_count_as_failed():
    def raising(argv):
        raise RuntimeError("boom")

    for main in (fake_main(CZD_REFERENCE, rc=2), raising):
        caller = worker.Caller(main, "czd", 7)
        caller.invoke()
        assert caller.failed == 1


def test_invariants_catch_a_wrong_report_at_any_seed():
    broken = CZD_REFERENCE.replace("# identity_error=0.0", "# identity_error=1e-3")
    assert any("identity_error" in p for p in report.invariants("czd", report.parse(broken)))
    widths = report.reference_path("widths", 7).read_text().replace(",832,", ",300,")
    assert report.check("widths", 12345, widths)  # no reference at this seed


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 41)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 75.0


def test_patched_restores_every_binding():
    originals = {
        "cli.cz_split": polymra.cli.cz_split,
        "package.lp_norm": polymra.lp_norm,
        "widths.cross_contains": sys.modules["polymra.widths"].cross_contains,
    }
    seen = tracer.SpanTracer()
    with tracer.patched(seen.wrap):
        assert polymra.cli.cz_split is not originals["cli.cz_split"]
        assert polymra.lp_norm is not originals["package.lp_norm"]
    assert polymra.cli.cz_split is originals["cli.cz_split"]
    assert polymra.lp_norm is originals["package.lp_norm"]
    assert sys.modules["polymra.widths"].cross_contains is originals["widths.cross_contains"]


def test_whitney_pairs_match_the_distance_pairs_formed(monkeypatch, capsys):
    formed = []
    original = polymra.czd._scaled_dist2

    def counting(lo, hi, cells, side, surround):
        if len(cells):
            formed.append(len(lo) * len(cells))
        return original(lo, hi, cells, side, surround)

    monkeypatch.setattr(polymra.czd, "_scaled_dist2", counting)
    for argv in (["czd", "--d", "2", "--K", "4"], ["czd", "--d", "1", "--demo", "step",
                                                      "--alpha", "1.0", "--K", "5"]):
        formed.clear()
        seen = tracer.SpanTracer()
        with tracer.patched(seen.wrap):
            assert polymra.cli.main(argv) == 0
        assert seen.counts["czd.whitney.pairs"] == sum(formed) > 0


def test_enum_cross_scanned_matches_the_box_enumerated(monkeypatch):
    enumerated = []
    original = polymra.indexing.enum_box
    monkeypatch.setattr(polymra.indexing, "enum_box",
                        lambda k: enumerated.append(len(original(k))) or original(k))
    seen = tracer.SpanTracer()
    with tracer.patched(seen.wrap):
        for beta, r in (((1.0, 1.5), 7), ((1.0, 1.0, 1.0), 5), ((0.3,), 2.0)):
            polymra.indexing.enum_cross(beta, r)
    assert seen.counts["indexing.enum_cross.scanned"] == sum(enumerated)


@pytest.fixture(scope="module")
def czd_traces(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(worker, "OUT_DIR", tmp_path_factory.mktemp("spans"))
        return [worker.run_trace(worker.Caller(polymra.cli.main, "czd", 7), 0.0, 0.0, 2)
                for _ in range(2)]


def test_two_traced_runs_give_identical_exact_counts(czd_traces):
    first, second = czd_traces
    exact = [k for k in first["metrics"] if k.endswith(("calls", "pairs", "nodes", "blocks",
                                                        "scanned", "norms", "ratio"))]
    assert len(exact) == len(tracer.TRACED) + len(tracer.COUNTS) + len(tracer.RATIOS)
    assert first["unstable"] == [] and second["unstable"] == []
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}
    assert first["metrics"]["czd.maximal_function.useful_ratio"] == 1 / 3
    assert first["failed"] == 0


def test_every_printed_metric_is_in_benchmark_json(czd_traces, monkeypatch, capsys):
    bench = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    loop = {"setup_s": 0.2, "cold_run_s": 0.5, "samples": [0.4 + i / 100 for i in range(5)],
            "peak_rss_mb": 100.0, "env": {}, "attempted": 6, "failed": 0, "problems": [],
            "digest": "x"}
    canned = {"run": loop, "trace": czd_traces[0]}
    monkeypatch.setattr(run, "run_worker", lambda mode, *a: canned[mode])
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "czd", "--trace", str(trace)]) == 0
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(printed["metrics"]) == {m["name"] for m in bench[key]}
        for m in bench[key]:
            assert printed["metrics"][m["name"]]["unit"] == m["unit"]
    assert {w["name"] for w in bench["workloads"]} == set(spec.WORKLOADS)
