"""The benchmark's fixed definition, read from workloads.json next to this file."""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = SPEC["workloads"]


def seeded(workload: str) -> bool:
    return "{seed}" in WORKLOADS[workload]["argv"]


def argv(workload: str, seed: int) -> list[str]:
    """The polymra CLI arguments of a workload; only seeded workloads receive the seed."""
    return [str(seed) if a == "{seed}" else a for a in WORKLOADS[workload]["argv"]]


def reference_seed(workload: str, seed: int) -> int | None:
    """Seed under which the workload's reference report is filed (None when unseeded)."""
    return seed if seeded(workload) else None
