"""A/B benchmark of two commits with the unchanged perfbench harness.

    python3 tools/bench_ab.py --base REV --change REV --series widths:7:10 \
        [--series widths:11:3 ...] [--out BENCH_<n>.json]

Each --series WORKLOAD:SEED:PAIRS runs PAIRS pairs of

    perfbench/run.py --workload WORKLOAD --seed SEED --seconds T --trace 0

with T the benchmark's run_seconds from BENCHMARK.json, once in each
tree, alternating: the base goes first in even pairs and the change first
in odd ones, so a drift of the machine over the run weighs on both sides
alike.  The two trees are the committed files of the two
revisions, extracted with `git archive` into a temporary directory, with
`python -m compileall -q src` run in both before any timing, so setup_s
never times bytecode compilation.  The temporary directory is removed, and
no child process is left running, also when a run fails or is interrupted.

The result, written to BENCH_<n>.json (the next free n at the repository
root unless --out is given), holds both commits and the tree ids of their
src/, the machine (the `env` line of the harness: nproc, cpu, Python,
numpy, BLAS and its thread counts), every run's last JSON line, and per
series and end-to-end metric (plus fail_frac): the per-pair ratios
change / base, the pairs each side won, and the quartiles of each side.
A metric's better direction is read from BENCHMARK.json too.  Uses only the
standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 240.0  # the harness ends every run within 170 s
_ENV_FIELD = re.compile(r"(\w+)=(.*?)(?= \w+=|$)")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The committed files of rev in dest, with src/ compiled to bytecode."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=dest, check=True)


def last_json(stdout: str) -> dict:
    """The harness result: the last stdout line, one JSON object."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the harness printed nothing")
    return json.loads(lines[-1])


def parse_env(stdout: str) -> dict:
    """The harness's `env k=v ...` line as a dict of strings (values may hold spaces)."""
    for line in stdout.splitlines():
        if line.startswith("env "):
            return dict(_ENV_FIELD.findall(line[4:]))
    return {}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One harness run in tree: (its JSON result, its env line).

    The harness runs in its own session, and the whole process group is
    killed if the run fails, times out or is interrupted.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    return last_json(out), parse_env(out)


def metric_values(result: dict) -> dict:
    """Each end-to-end metric of one harness result, plus fail_frac."""
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["fail_frac"] = result["failed"] / result["attempted"]
    return values


def quartiles(values: list[float]) -> dict:
    """q1, median and q3 (inclusive method), and the interquartile range."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict) -> dict:
    """Per metric: ratios change / base per pair, wins per side, quartiles per side.

    runs holds one {"base": result, "change": result} per pair; better maps
    a metric name to "lower" or "higher" (default lower).  clears_base_iqr
    says whether the change's median is better than the base's by more
    than the base's interquartile range.
    """
    sides = {side: [metric_values(run[side]) for run in runs] for side in ("base", "change")}
    out = {}
    for name in sides["base"][0]:
        base = [v[name] for v in sides["base"]]
        change = [v[name] for v in sides["change"]]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = {"change": 0, "base": 0, "tie": 0}
        for b, c in zip(base, change):
            wins["tie" if b == c else "change" if sign * (c - b) < 0 else "base"] += 1
        qb, qc = quartiles(base), quartiles(change)
        out[name] = {
            "ratios": [c / b if b else None for b, c in zip(base, change)],
            "median_ratio": qc["median"] / qb["median"] if qb["median"] else None,
            "wins": wins,
            "base": qb,
            "change": qc,
            "clears_base_iqr": sign * (qb["median"] - qc["median"]) > qb["iqr"],
        }
    return out


def run_series(trees: dict, workload: str, seed: int, pairs: int,
               seconds: float) -> tuple[list[dict], dict]:
    """pairs alternating pairs of runs: (the runs, the env line of the first run)."""
    runs, env = [], {}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        run = {"pair": i, "first": order[0]}
        for side in order:
            run[side], env_i = run_once(trees[side], workload, seed, seconds)
            env = env or env_i
            print(f"{workload} seed {seed} pair {i} {side}: "
                f"run_s.p50 {run[side]['metrics']['run_s.p50']['value']:.6g}")
        runs.append(run)
    return runs, env


def next_bench_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def parse_series(text: str) -> tuple[str, int, int]:
    try:
        workload, seed, pairs = text.split(":")
        return workload, int(seed), int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS, got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision measured as the base")
    parser.add_argument("--change", default="HEAD", help="revision measured as the change")
    parser.add_argument("--series", type=parse_series, action="append", required=True,
                        metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    # on SIGTERM, SystemExit runs the finally blocks, so the cleanup still happens
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(benchmark["run_seconds"])
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    sides = {}
    for side, rev in (("base", args.base), ("change", args.change)):
        sides[side] = {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}"),
                       "src_tree": git("rev-parse", f"{rev}:src")}
    out = args.out or next_bench_path()
    series, machine = [], {}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, tree in trees.items():
            extract(sides[side]["commit"], tree)
        for workload, seed, pairs in args.series:
            runs, env = run_series(trees, workload, seed, pairs, seconds)
            machine = machine or env
            series.append({"workload": workload, "seed": seed, "seconds": seconds,
                           "pairs": pairs, "summary": summarize(runs, better), "runs": runs})
    report = {"harness": "perfbench/run.py --trace 0", **sides, "machine": machine,
              "series": series}
    out.write_text(json.dumps(report, indent=1) + "\n")
    for s in series:
        m = s["summary"]["run_s.p50"]
        print(f"{s['workload']} seed {s['seed']}: run_s.p50 median ratio "
              f"{m['median_ratio']:.3f}, change won {m['wins']['change']} of {s['pairs']}, "
              f"clears base IQR: {m['clears_base_iqr']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
