"""Parse polymra CSV reports and decide whether one is correct.

A report is correct when it carries the invariants every report of its
workload must satisfy and, where a reference report was recorded for the
same workload and seed, when it matches that reference: integer and text
fields exactly, float fields within REL_TOL relative (plus ABS_TOL absolute,
for roundoff-level residuals such as identity_error).  A faithful rewrite
that only changes roundoff therefore still passes.  Stdlib only.

The reference reports in reference/ hold the CSV output of the workload
argv (spec.argv) at the default and recheck seeds of workloads.json, for
example `PYTHONPATH=src python3 -m polymra.cli czd --d 2 --demo bump
--alpha 0.5 --K 4 > perfbench/reference/czd.csv`.
"""

from __future__ import annotations

import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, seed: int | None) -> Path:
    """Where the reference report of a workload at a seed lives (seed None: unseeded)."""
    name = workload if seed is None else f"{workload}-seed{seed}"
    return REFERENCE_DIR / f"{name}.csv"


def parse(text: str) -> dict:
    """Split a CSV report into its config, summary and rows (all values as text)."""
    lines = text.splitlines()
    if len(lines) < 2 or not (lines[0].startswith("# polymra ")
                              and lines[1].startswith("# config: ")):
        raise ValueError("not a polymra CSV report")
    config = dict(tok.split("=", 1) for tok in lines[1][len("# config: "):].split())
    summary = {}
    body = []
    for line in lines[2:]:
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if not sep:
                raise ValueError(f"malformed summary line {line!r}")
            summary[key] = value
        else:
            body.append(line)
    rows = []
    if body:
        header = body[0].split(",")
        for line in body[1:]:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"row {line!r} does not match header {header}")
            rows.append(dict(zip(header, cells)))
    return {"config": config, "summary": summary, "rows": rows}


def _as_int(text: str):
    try:
        return int(text)
    except ValueError:
        return None


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def field_matches(got: str, want: str) -> bool:
    """Integers and text exactly; floats within the fixed tolerance."""
    if got == want:
        return True
    if _as_int(got) is not None or _as_int(want) is not None:
        return False
    a, b = _as_float(got), _as_float(want)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare(got: dict, want: dict) -> list[str]:
    """Differences between a parsed report and its parsed reference."""
    problems = []
    for part in ("config", "summary"):
        if set(got[part]) != set(want[part]):
            problems.append(f"{part} keys differ: {sorted(got[part])} vs {sorted(want[part])}")
            continue
        for key, value in want[part].items():
            if not field_matches(got[part][key], value):
                problems.append(f"{part} {key}={got[part][key]} expected {value}")
    if len(got["rows"]) != len(want["rows"]):
        problems.append(f"{len(got['rows'])} rows, expected {len(want['rows'])}")
        return problems
    for i, (g, w) in enumerate(zip(got["rows"], want["rows"])):
        if list(g) != list(w):
            problems.append(f"row {i} columns {list(g)} expected {list(w)}")
            continue
        for key, value in w.items():
            if not field_matches(g[key], value):
                problems.append(f"row {i} {key}={g[key]} expected {value}")
    return problems


def _finite(values, what: str) -> list[str]:
    bad = [v for v in values if _as_float(v) is None or not math.isfinite(float(v))]
    return [f"{what} not finite: {bad[:3]}"] if bad else []


def invariants(workload: str, rep: dict) -> list[str]:
    """Checks that hold at every seed, from quantities the report already carries."""
    rows, summary = rep["rows"], rep["summary"]
    problems = []
    if not rows:
        problems.append("report has no rows")
    if workload == "lp-sweep":
        for stat in ("min", "max", "mean"):
            problems += _finite([r[stat] for r in rows], f"{stat} ratio")
    elif workload == "czd":
        err = _as_float(summary.get("identity_error", "nan"))
        if err is None or not err <= 1e-10:
            problems.append(f"identity_error {summary.get('identity_error')} above 1e-10")
        res = _as_float(summary.get("residual", "nan"))
        bound = _as_float(summary.get("residual_bound", "nan"))
        if res is None or bound is None or not res <= bound:
            problems.append(f"residual {res} above residual_bound {bound}")
        problems += _finite([summary.get(k, "nan") for k in ("weak11", "good_sup")], "ratio")
    elif workload == "widths":
        ns = [_as_int(r["n"]) for r in rows]
        if None in ns or any(b <= a for a, b in zip(ns, ns[1:])):
            problems.append(f"cross dimensions not increasing: {ns}")
        errs = [_as_float(r["error"]) for r in rows]
        if any(e is None or not e > 0.0 for e in errs):
            problems.append(f"truncation errors not positive: {errs}")
        problems += _finite([r["ratio"] for r in rows], "ratio")
    elif workload == "smoothness":
        problems += _finite([r["ratio"] for r in rows], "ratio")
        problems += _finite([summary.get("seminorm", "nan")], "seminorm")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems


def check(workload: str, seed: int | None, text: str) -> list[str]:
    """Everything wrong with one report; an empty list means it is correct."""
    try:
        rep = parse(text)
        problems = invariants(workload, rep)
        ref = reference_path(workload, seed)
        if ref.exists():
            problems += compare(rep, parse(ref.read_text()))
    except (ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    return problems
