"""Square function, sign series, and the Rademacher system.

Empirical side of the two-sided square-function equivalence: everything here
either evaluates an exact discrete object (Rademacher sums are piecewise
constant on a known dyadic partition) or produces ratio statistics whose
boundedness across resolution levels is the falsifiable claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .grid import Grid, GridFunction, _as_int, _as_tuple, _as_vector, _lp_norms, lp_norm
from .indexing import enum_box
from .projectors import (
    Decomposition,
    _analysis_tensor,
    _detail_values,
    _full_coeffs,
    _scaled_values,
    _tensor_components,
    project_level,
)

__all__ = [
    "SignFamily",
    "LPReport",
    "random_resolved",
    "detail_components",
    "square_function",
    "lp_equivalence",
    "sign_series",
    "pstar_ratio",
    "khintchine_check",
    "lp_report",
]


def _check_p_open(p: float) -> float:
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must lie in (1, infinity), got {p}")
    return p


@dataclass(frozen=True)
class SignFamily:
    """Product-form signs sigma_kappa = prod_j sigma^j_(kappa_j).

    One sign sequence per axis; this is exactly the structure the sign-series
    invariance needs. Arbitrary per-block sign maps are accepted by
    sign_series too, but they sit outside the product hypothesis.
    """

    axis_signs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "axis_signs", tuple(
            tuple(_as_int(s, "signs") for s in row) for row in self.axis_signs))
        for row in self.axis_signs:
            if any(s not in (-1, 1) for s in row):
                raise ValueError("signs must be +1 or -1")

    @property
    def d(self) -> int:
        return len(self.axis_signs)

    def sigma(self, kappa: Sequence[int]) -> int:
        out = 1
        for j, k in enumerate(kappa):
            out *= self.axis_signs[j][k]
        return out

    @classmethod
    def random(cls, k: Sequence[int], rng: np.random.Generator) -> "SignFamily":
        k = _as_vector(k, "k")
        return cls(axis_signs=tuple(rng.choice((-1, 1), size=kj + 1) for kj in k))


def random_resolved(grid: Grid, k, degrees, rng: np.random.Generator) -> GridFunction:
    """Random element of the level-k piecewise polynomial space (unit-variance coefficients)."""
    noise = grid.function(rng.standard_normal(grid.shape))
    return project_level(noise, k, degrees).to_grid()


def detail_components(dec: Decomposition) -> Iterator[tuple[tuple[int, ...], GridFunction]]:
    """Each block evaluated on its own, one at a time, as (kappa, function) pairs.

    A detail block is a tensor product of one-cell wavelet tables, so it is
    evaluated by d axis products, one per axis, with no pass through the
    synthesis pyramid. The per-axis tables, at most d (K + 1), are built once
    per grid and kept with it (projectors._wavelet_table).
    """
    for kappa, block in dec.blocks.items():
        yield kappa, GridFunction(dec.grid, _detail_values(dec.grid, block))


def _root_sum_squares(grid: Grid, parts: Iterable[np.ndarray]) -> np.ndarray:
    acc = np.zeros(grid.shape)
    for part in parts:
        acc += part ** 2
    return np.sqrt(acc)


def square_function(dec: Decomposition) -> GridFunction:
    """Pointwise l2 norm across blocks: sqrt(sum_kappa (detail_kappa(x))^2)."""
    parts = (g.values for _, g in detail_components(dec))
    return GridFunction(dec.grid, _root_sum_squares(dec.grid, parts))


def _norm_ratios(
    grid: Grid, full: np.ndarray, k, degrees, ps: Sequence[float]
) -> tuple[tuple[float, float, float], ...]:
    """(||f_k||_p, square-function ratio, p*-aggregate ratio) from f's analysis tensor, per p.

    f_k is the sum of the blocks kappa <= k of full; the square-function
    ratio is ||S f_k||_p / ||f_k||_p and the p*-aggregate ratio is
    ||f_k||_p / (sum_kappa ||detail_kappa||_p^(p*))^(1/p*) with p* = min(2, p).
    One pass over the components (_tensor_components) feeds every p, one
    component alive at a time; their running sum is f_k. The cost is one
    evaluation per block, the square function and f_k built once, one |g|
    for each of these (blocks + 2) functions, and (blocks + 2) quadrature
    norms per p read from it (grid._lp_norms). One triple per p, in the
    order of ps.
    """
    norms = []
    total = np.zeros(grid.shape)

    def measured():
        for g in _tensor_components(grid, full, k, degrees):
            np.add(total, g, out=total)
            yield g
            # the square function has read g; its norms overwrite it
            norms.append(_lp_norms(grid, g, ps))

    square_norms = _lp_norms(grid, _root_sum_squares(grid, measured()), ps)
    total_norms = _lp_norms(grid, total, ps)
    out = []
    for i, p in enumerate(ps):
        norm_p = total_norms[i]
        pstar = min(2.0, p)
        agg = sum(n[i] ** pstar for n in norms) ** (1.0 / pstar)
        if norm_p == 0.0 or agg == 0.0:
            raise ValueError("zero function has no norm ratio")
        out.append((norm_p, square_norms[i] / norm_p, norm_p / agg))
    return tuple(out)


def lp_equivalence(f: GridFunction, p: float, k, degrees) -> float:
    """Ratio of the square-function L_p norm to the function's L_p norm.

    The input is replaced by its level-k projection first, so both sides live
    in the resolved space; at p=2 the ratio is identically 1.
    """
    p = _check_p_open(p)
    return _norm_ratios(f.grid, *_analysis_tensor(f, k, degrees), (p,))[0][1]


def _checked_signs(signs, k) -> dict:
    """sigma_kappa for every kappa <= k from a SignFamily or a mapping, each +1 or -1."""
    sigma = signs.sigma if isinstance(signs, SignFamily) else signs.__getitem__
    out = {kappa: sigma(kappa) for kappa in enum_box(k)}
    for kappa, s in out.items():
        if s not in (-1, 1):
            raise ValueError(f"sign for block {kappa} must be +1 or -1, got {s}")
    return out


def sign_series(f: GridFunction, signs, p: float, k, degrees) -> float:
    """L_p norm of the sign-modulated detail series sum sigma_kappa E_kappa f over the box k.

    signs is a SignFamily (the theorem's product structure) or any mapping
    kappa -> +-1; mappings without product structure are outside the theorem
    hypotheses but computed all the same.
    """
    p = _check_p_open(p)
    full, k, degs = _analysis_tensor(f, k, degrees)
    values = _scaled_values(f.grid, full, k, degs, _checked_signs(signs, k))
    return lp_norm(GridFunction(f.grid, values), p)


def pstar_ratio(f: GridFunction, p: float, k, degrees) -> float:
    """Ratio of the function norm to the blockwise lp-of-norms aggregate.

    Returns ||f_k||_p / (sum_kappa ||detail_kappa||_p^(p*))^(1/p*)
    with p* = min(2, p); the numerator uses the level-k projection of f.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, infinity), got {p}")
    return _norm_ratios(f.grid, *_analysis_tensor(f, k, degrees), (p,))[0][2]


# ---------------------------------------------------------------------------
# Rademacher system


def _axis_sign_table(k_axis: int, box_axis: int) -> np.ndarray:
    """Signs of omega_k on the cells of the level-(box_axis+1) partition, k <= box_axis."""
    cells = np.arange(2 ** (box_axis + 1))
    table = np.empty((k_axis + 1, len(cells)))
    for k in range(k_axis + 1):
        table[k] = 1.0 - 2.0 * ((cells >> (box_axis - k)) & 1)
    return table


def khintchine_check(a, p: float) -> tuple[float, float]:
    """Exact L_p norm of a Rademacher polynomial against its l2 coefficient norm.

    a is the coefficient array over a box (shape k+1 per axis). The sum
    sum_kappa a_kappa omega_kappa is piecewise constant on the level-(k+1)
    dyadic partition, so its L_p norm is exact up to rounding. Returns
    (l2 norm, exact L_p norm), the two sides of Khintchine's inequality.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, infinity), got {p}")
    arr = np.asarray(a, dtype=float)
    k = tuple(s - 1 for s in arr.shape)
    values = arr
    for j, kj in enumerate(k):
        table = _axis_sign_table(kj, kj)
        values = np.moveaxis(
            np.tensordot(table, values, axes=([0], [j])), 0, j
        )
    vol = float(np.prod([2.0 ** -(kj + 1) for kj in k]))
    lp = float(np.sum(np.abs(values) ** p) * vol) ** (1.0 / p)
    return float(np.linalg.norm(arr)), lp


# ---------------------------------------------------------------------------
# ensemble reports


@dataclass(frozen=True)
class LPReport:
    p: float
    k: tuple[int, ...]
    degrees: tuple[int, ...]
    trials: int
    sign_trials: int
    seed: int
    square_ratio: dict
    pstar: dict
    sign_ratio: dict

    def rows(self) -> list[dict]:
        out = []
        for name, stats in (
            ("square_ratio", self.square_ratio),
            ("pstar", self.pstar),
            ("sign_ratio", self.sign_ratio),
        ):
            row = {"statistic": name, "p": self.p}
            row.update(stats)
            out.append(row)
        return out


def _stats(values: list[float]) -> dict:
    arr = np.asarray(values)
    return {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }


def lp_report(
    grid: Grid,
    k,
    degrees,
    ps: Sequence[float],
    trials: int = 50,
    sign_trials: int = 10,
    seed: int = 0,
) -> tuple[LPReport, ...]:
    """Ratio statistics over a random ensemble of resolved functions, one report per p.

    Every p in ps (each 1 < p < infinity) is measured on the same ensemble:
    per trial one draw, one analysis tensor and one pass over its blocks
    (_norm_ratios); per sign family one signed copy of that tensor and one
    synthesis pyramid (projectors._scaled_values). Each function has one |g|, and only
    the quadrature norms are taken per p, so a sweep over m exponents costs
    one ensemble plus m times the norms. Reports come in the order of ps.
    """
    ps = tuple(_check_p_open(p) for p in ps)
    if not ps:
        raise ValueError("lp_report needs at least one p")
    k = _as_tuple(k, grid.d, "k")
    degs = _as_tuple(degrees, grid.d, "degrees")
    trials = _as_int(trials, "trials")
    sign_trials = _as_int(sign_trials, "sign_trials")
    seed = _as_int(seed, "seed")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if sign_trials < 1:
        raise ValueError(f"sign_trials must be >= 1, got {sign_trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    square_vals = [[] for _ in ps]
    pstar_vals = [[] for _ in ps]
    sign_vals = [[] for _ in ps]
    for _ in range(trials):
        f = random_resolved(grid, k, degs, rng)
        full = _full_coeffs(f, degs)
        ratios = _norm_ratios(grid, full, k, degs, ps)
        for i, (_, square, pstar) in enumerate(ratios):
            square_vals[i].append(square)
            pstar_vals[i].append(pstar)
        for _ in range(sign_trials):
            signs = _checked_signs(SignFamily.random(k, rng), k)
            signed = _scaled_values(grid, full, k, degs, signs)
            for i, norm in enumerate(_lp_norms(grid, signed, ps)):
                sign_vals[i].append(norm / ratios[i][0])
    return tuple(
        LPReport(
            p=p,
            k=k,
            degrees=degs,
            trials=trials,
            sign_trials=sign_trials,
            seed=seed,
            square_ratio=_stats(square_vals[i]),
            pstar=_stats(pstar_vals[i]),
            sign_ratio=_stats(sign_vals[i]),
        )
        for i, p in enumerate(ps)
    )
