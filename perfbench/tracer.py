"""Outside-in tracing of polymra: wrap public layer functions without editing them.

patched() replaces every attribute of every loaded polymra.* module that is
bound to a traced function object, so calls through `from .x import y`
bindings (cli -> cz_split, widths -> enum_cross, ...) are caught as well as
module-global ones, and puts the originals back on exit.

SpanTracer keeps spans (name, start, end, parent) in memory and derives
self time as a span's duration minus its child spans.  It also records
exact counts, computed from each call's arguments and result, and waste
ratios.  PeakTracer is the separate tracemalloc pass: run it on its own
invocation so that allocation tracking does not distort span times.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

LAYERS = {
    "projectors": ("analyze", "synthesize", "project_level"),
    "lp_analysis": ("lp_report", "detail_components", "square_function"),
    "czd": ("cz_split", "cz_constants", "maximal_function", "whitney"),
    "smoothness": ("synthesize_extremal", "besov_seminorm", "modulus_table", "decay_check"),
    "indexing": ("enum_cross", "enum_shell", "cross_contains"),
    "widths": ("width_experiment", "truncation_error", "budget_plan"),
    "grid": ("grid_for", "lp_norm"),
}
TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
# a call is cold when it is the first one of its function on a Grid object
COLD_WARM = ("projectors.analyze", "projectors.synthesize")
MEMORY = (
    "czd.maximal_function",
    "czd.whitney",
    "projectors.analyze",
    "projectors.synthesize",
    "lp_analysis.detail_components",
    "smoothness.modulus_table",
    "widths.budget_plan",
)
COUNTS = (
    "czd.maximal_function.pairs",
    "czd.whitney.pairs",
    "projectors.synthesize.nodes",
    "lp_analysis.detail_components.blocks",
    "indexing.enum_cross.scanned",
    "smoothness.modulus_table.norms",
)
RATIOS = (
    "czd.maximal_function.useful_ratio",
    "lp_analysis.detail_components.useful_ratio",
    "indexing.enum_cross.kept_ratio",
)
MB = 1024.0 * 1024.0


def _original(name: str):
    mod, fn = name.split(".")
    return getattr(importlib.import_module(f"polymra.{mod}"), fn)


@contextmanager
def patched(make_wrapper, names=TRACED):
    """Bind make_wrapper(name, fn) in place of each named function everywhere in polymra."""
    originals = {name: _original(name) for name in names}
    wrappers = {id(fn): make_wrapper(name, fn) for name, fn in originals.items()}
    by_id = {id(fn): fn for fn in originals.values()}
    replaced = []
    for modname, module in list(sys.modules.items()):
        if modname != "polymra" and not modname.startswith("polymra."):
            continue
        for attr, value in list(vars(module).items()):
            if by_id.get(id(value)) is value:
                setattr(module, attr, wrappers[id(value)])
                replaced.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in reversed(replaced):
            setattr(module, attr, value)


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _decomposition_digest(dec) -> str:
    keys = sorted(dec.blocks)
    h = hashlib.blake2b(repr((dec.grid.shape, dec.degrees, keys)).encode(), digest_size=16)
    h.update(_digest(*(dec.blocks[k].coeffs for k in keys)).encode())
    return h.hexdigest()


def _whitney_pairs(F, dec) -> int:
    """Cube-to-cell distance pairs: |W| x |F| for the boundary pass, boxes x |F| per level.

    Levels run from 0 until the complement W is covered, which happens at
    the level of the last accepted cube, or through the mesh resolution
    when a residual is left.
    """
    marked = int(F.mask.sum())
    free = F.mask.size - marked
    if free == 0:
        return 0
    if dec.residual_measure > 0 or not dec.cubes:
        last = F.resolution
    else:
        last = max(q.level[0] for q in dec.cubes)
    boxes = sum(2 ** (k * F.d) for k in range(last + 1))
    return marked * (free + boxes)


def _enum_cross_scanned(beta, r) -> int:
    """Lattice points of the box enum_cross scans: floor(r / beta_j) + 1 per axis."""
    if r < 0:
        return 0
    return math.prod(int(math.floor(r / float(b) + 1e-9)) + 1 for b in beta)


class SpanTracer:
    """Spans, exact counts and waste ratios of one traced invocation."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._distinct: dict[str, set] = defaultdict(set)
        self._grids: dict[str, list] = defaultdict(list)
        self._cold_warm: dict[str, list[float]] = defaultdict(list)
        self._hooks = {
            "czd.maximal_function": self._maximal_function,
            "czd.whitney": self._whitney,
            "projectors.analyze": self._analyze,
            "projectors.synthesize": self._synthesize,
            "lp_analysis.detail_components": self._detail_components,
            "indexing.enum_cross": self._enum_cross,
            "smoothness.modulus_table": self._modulus_table,
        }

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result, t1 - t0)
            return result

        return traced

    # -- count hooks: arguments and result of one completed call

    def _maximal_function(self, a, result, dt):
        n = a["f"].values.size
        self.counts["czd.maximal_function.pairs"] += n * n
        self._distinct["czd.maximal_function"].add(_digest(a["f"].values))

    def _whitney(self, a, result, dt):
        self.counts["czd.whitney.pairs"] += _whitney_pairs(a["F"], result)

    def _cold_or_warm(self, name, grid, dt):
        seen = self._grids[name]
        cold = not any(g is grid for g in seen)
        if cold:
            seen.append(grid)
        self._cold_warm[f"{name}.{'cold' if cold else 'warm'}_s"].append(dt)

    def _analyze(self, a, result, dt):
        self._cold_or_warm("projectors.analyze", a["f"].grid, dt)

    def _synthesize(self, a, result, dt):
        self._cold_or_warm("projectors.synthesize", a["dec"].grid, dt)
        self.counts["projectors.synthesize.nodes"] += math.prod(a["dec"].grid.shape)

    def _detail_components(self, a, result, dt):
        self.counts["lp_analysis.detail_components.blocks"] += len(a["dec"].blocks)
        self._distinct["lp_analysis.detail_components"].add(_decomposition_digest(a["dec"]))

    def _enum_cross(self, a, result, dt):
        self.counts["indexing.enum_cross.scanned"] += _enum_cross_scanned(a["beta"], a["r"])
        self.counts["indexing.enum_cross.kept"] += len(result)

    def _modulus_table(self, a, result, dt):
        cells = a["f"].grid.cells_per_axis
        self.counts["smoothness.modulus_table.norms"] += cells ** len(result.axes)

    # -- per-invocation metrics

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the invocation; wall is its traced wall time."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        roots = 0.0
        for name, t0, t1, parent in self.spans:
            calls[name] += 1
            self_s[name] += t1 - t0
            if parent < 0:
                roots += t1 - t0
            else:
                self_s[self.spans[parent][0]] -= t1 - t0
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COLD_WARM:
            for kind in ("cold_s", "warm_s"):
                times = self._cold_warm[f"{name}.{kind}"]
                out[f"{name}.{kind}"] = sum(times) / len(times) if times else 0.0
        for key in COUNTS:
            out[key] = self.counts[key]
        for fn in ("czd.maximal_function", "lp_analysis.detail_components"):
            out[f"{fn}.useful_ratio"] = len(self._distinct[fn]) / calls[fn] if calls[fn] else 0.0
        scanned = self.counts["indexing.enum_cross.scanned"]
        kept = self.counts["indexing.enum_cross.kept"]
        out["indexing.enum_cross.kept_ratio"] = kept / scanned if scanned else 0.0
        out["trace.coverage"] = roots / wall
        return out


class PeakTracer:
    """Peak traced allocation above the entry level, per function, max over calls (MB).

    tracemalloc keeps one running peak, so each call saves the peak reached
    so far by its caller, resets it, and hands its own peak back on exit.
    """

    def __init__(self):
        self.peak_mb: dict[str, float] = defaultdict(float)
        self._stack: list[list[int]] = []

    def wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            stack.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                start, seen = stack.pop()
                top = max(seen, tracemalloc.get_traced_memory()[1])
                self.peak_mb[name] = max(self.peak_mb[name], (top - start) / MB)
                if stack:
                    stack[-1][1] = max(stack[-1][1], top)
                tracemalloc.reset_peak()

        return measured

    def metrics(self) -> dict[str, float]:
        return {f"{name}.peak_mb": self.peak_mb[name] for name in MEMORY}


def per_layer_names() -> list[str]:
    """Every per-layer metric name the traced run prints, in print order."""
    names = [f"{n}.{k}" for n in TRACED for k in ("calls", "self_s")]
    names += [f"{n}.{k}" for n in COLD_WARM for k in ("cold_s", "warm_s")]
    names += [f"{n}.peak_mb" for n in MEMORY]
    names += list(COUNTS) + list(RATIOS)
    names += ["trace.coverage", "trace.overhead_s"]
    return names
