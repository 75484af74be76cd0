"""polymra benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; polymra is imported from its src/.
Workloads, their argv and the layer-to-metric predictions are defined in
perfbench/workloads.json; BENCHMARK.json lists the metrics.

--trace 0 measures for S seconds, in PROCESSES fresh processes one after
  another, each owning an equal slice of the S seconds.  Each process times
  `import polymra.cli` plus building the parser (setup_s) and its first
  invocation (cold_run_s, also the warm-up), then runs a closed loop of
  warm invocations to the end of its slice.  Spreading the fresh processes
  over the run keeps the medians of setup_s and cold_run_s from resting on
  one stretch of machine noise.  run_s.p50 and run_s.tail (the highest
  nearest-rank percentile with ten samples beyond it) pool the warm
  samples; peak_rss_mb is the median ru_maxrss of the processes.
--trace 1 alternates untraced and traced invocations in one process for S
  seconds and prints the per-layer metrics (see tracer.py); spans of the
  last traced invocation go to perfbench/out/.

Every workload process gets OPENBLAS_NUM_THREADS = OMP_NUM_THREADS =
min(2, nproc): the BLAS thread count changes the timings (smoothness runs
about twice as long with one thread on a 2-core machine), so it is part of
the benchmark's definition.  Every report is checked (report.py); failures
count in `failed` and fail_frac.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spec
import tracer

HARD_LIMIT_S = 170.0  # every run, children included, ends within this
TAIL_BEYOND = 10
PROCESSES = spec.SPEC["processes"]


def pinned_env() -> dict:
    threads = str(min(2, os.cpu_count() or 1))
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        PYTHONPATH=str(spec.ROOT / "src"),
    )
    return env


class BenchError(RuntimeError):
    pass


def run_worker(mode: str, workload: str, seed: int, until: float, at_least: int,
               deadline: float) -> dict:
    """Run one workload process that measures until the monotonic time `until`."""
    cmd = [sys.executable, str(spec.HERE / "worker.py"), mode, workload, str(seed),
           repr(until), str(at_least)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, env=pinned_env(), cwd=spec.ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise BenchError(f"{len(ordered)} samples leave no {TAIL_BEYOND} beyond any percentile")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    start = time.monotonic()
    runs = []
    for i in range(PROCESSES):
        # the last process makes up the samples the tail percentile needs
        pooled = sum(len(r["samples"]) for r in runs)
        at_least = max(1, TAIL_BEYOND + 1 - pooled) if i == PROCESSES - 1 else 1
        until = start + seconds * (i + 1) / PROCESSES
        runs.append(run_worker("run", workload, seed, until, at_least, deadline))
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    digests = {r["digest"] for r in runs if r["digest"]}
    problems = [p for r in runs for p in r["problems"]]
    if len(digests) > 1:
        failed += len(digests) - 1
        problems.append("reports differ between processes")
    samples = [t for r in runs for t in r["samples"]]
    p_tail, q_tail = tail(samples)
    n = len(samples)
    rows = [
        ("run_s.p50", statistics.median(samples), "s",
         f"median of {n} warm invocations"),
        ("run_s.tail", p_tail, "s",
         f"p{q_tail:.1f} of {n} warm invocations, {TAIL_BEYOND} beyond it"),
        ("cold_run_s", statistics.median(r["cold_run_s"] for r in runs), "s",
         f"median of {PROCESSES} fresh processes"),
        ("setup_s", statistics.median(r["setup_s"] for r in runs), "s",
         f"median of {PROCESSES} fresh processes"),
        ("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in runs), "MB",
         f"median ru_maxrss of {PROCESSES} processes"),
    ]
    return {"rows": rows, "attempted": attempted, "failed": failed,
            "problems": problems, "env": runs[0]["env"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    if not (spec.ROOT / "src" / "polymra" / "cli.py").is_file():
        print(f"error: no polymra sources under {spec.ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}: polymra {' '.join(spec.argv(args.workload, args.seed))}")
    try:
        if args.trace:
            until = time.monotonic() + args.seconds
            res = run_worker("trace", args.workload, args.seed, until, 2, deadline)
            names = tracer.per_layer_names()
            if set(names) != set(res["metrics"]):
                raise BenchError(f"traced metrics differ from {names}")
            rows = [(k, res["metrics"][k], unit_of(k), "") for k in names]
            print(f"traced {res['traced']} invocations, untraced {res['plain']}")
            if res["unstable"]:
                print(f"warning: counts differ between traced invocations: {res['unstable']}")
        else:
            res = measure(args.workload, args.seed, args.seconds, deadline)
            rows = res["rows"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + " ".join(f"{k}={v}" for k, v in res["env"].items()))
    for name, value, unit, note in rows:
        print(f"{name:48s} {value:14.6g} {unit:6s} {note}")
    print(f"{'fail_frac':48s} {res['failed'] / res['attempted']:14.6g} {'':6s} "
          f"{res['failed']} of {res['attempted']} invocations failed")
    for problem in res["problems"]:
        print(f"failure: {problem}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
