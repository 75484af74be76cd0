"""One workload process of the benchmark: calls polymra.cli.main(argv) in-process.

run.py starts it with the pinned environment, as

    python3 perfbench/worker.py MODE WORKLOAD SEED DEADLINE MIN_SAMPLES

DEADLINE is a time.monotonic() value (the clock is shared by all processes
of the machine).  MODE is one of
  run    time `import polymra.cli` plus building the parser (setup_s) and
         the first invocation of the process (cold_run_s, which doubles as
         the warm-up), then a closed loop of timed warm invocations until
         DEADLINE, at least MIN_SAMPLES of them;
  trace  one untimed warm-up, then untraced and traced invocations
         alternate, at least MIN_SAMPLES pairs of them, then one invocation
         under tracemalloc, all until about DEADLINE;
         reports per-layer metrics.

Every invocation is checked (exit code, exceptions, report contents, and
byte-identical reports within the process).  The last stdout line is one
JSON object with the results.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import report
import spec

OUT_DIR = spec.HERE / "out"


class Caller:
    """Closed-loop caller of polymra.cli.main that checks every report."""

    def __init__(self, main, workload: str, seed: int):
        self.main = main
        self.workload = workload
        self.seed = seed
        self.argv = spec.argv(workload, seed)
        self.ref_seed = spec.reference_seed(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None

    def invoke(self) -> float:
        """Run one invocation; returns its wall seconds and records whether it failed."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(list(self.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising invocation is a failed one, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        text = out.getvalue()
        if rc != 0:
            problems = [f"exit {rc}: {err.getvalue().strip()}"]
        else:
            problems = report.check(self.workload, self.ref_seed, text)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("report differs from the first one of this process")
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return elapsed

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:10], "digest": self.digest}


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(caller: Caller, setup_s: float, deadline: float, min_samples: int) -> dict:
    cold = caller.invoke()
    samples = []
    while len(samples) < min_samples or time.monotonic() < deadline:
        samples.append(caller.invoke())
    return {"setup_s": setup_s, "cold_run_s": cold, "samples": samples,
            "peak_rss_mb": _peak_rss_mb(), "env": environment(), **caller.result()}


def _write_spans(tracer, path: Path) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {"names": names, "columns": ["name", "start_s", "end_s", "parent"],
           "spans": [[index[n], round(a - t0, 9), round(b - t0, 9), p]
                     for n, a, b, p in tracer.spans]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")))


def run_trace(caller: Caller, setup_s: float, deadline: float, min_samples: int) -> dict:
    import tracemalloc

    import tracer as tr

    caller.invoke()
    plain, traced, per_call = [], [], []
    last = None
    # the tracemalloc pass runs about four times as long as a plain invocation
    while len(traced) < min_samples or (
            time.monotonic() + 4 * statistics.median(plain) < deadline):
        plain.append(caller.invoke())
        last = tr.SpanTracer()
        with tr.patched(last.wrap):
            wall = caller.invoke()
        traced.append(wall)
        per_call.append(last.metrics(wall))
    peaks = tr.PeakTracer()
    tracemalloc.start()
    try:
        with tr.patched(peaks.wrap, tr.MEMORY):
            caller.invoke()
    finally:
        tracemalloc.stop()

    exact = [k for k in per_call[0] if not k.endswith("_s") and k != "trace.coverage"]
    unstable = [k for k in exact if any(m[k] != per_call[0][k] for m in per_call)]
    metrics = {k: per_call[0][k] for k in exact}
    for k in per_call[0]:
        if k not in metrics:
            metrics[k] = statistics.median(m[k] for m in per_call)
    metrics.update(peaks.metrics())
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    _write_spans(last, OUT_DIR / f"spans-{caller.workload}-seed{caller.seed}.json")
    return {"metrics": metrics, "traced": len(traced), "plain": len(plain),
            "unstable": unstable, "env": environment(), **caller.result()}


MODES = {"run": run_loop, "trace": run_trace}


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    deadline, min_samples = float(argv[3]), int(argv[4])
    t0 = time.perf_counter()
    import polymra
    import polymra.cli

    polymra.cli.build_parser()
    setup_s = time.perf_counter() - t0
    src = (spec.ROOT / "src").resolve()
    if src not in Path(polymra.__file__).resolve().parents:
        print(f"polymra was imported from {polymra.__file__}, not from {src}", file=sys.stderr)
        return 2
    caller = Caller(polymra.cli.main, workload, seed)
    result = MODES[mode](caller, setup_s, deadline, min_samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
