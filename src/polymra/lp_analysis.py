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

from .grid import Grid, GridFunction, lp_norm
from .projectors import (
    Decomposition,
    DetailCoeffs,
    _detail_values,
    analyze,
    project_level,
    synthesize,
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
        object.__setattr__(
            self, "axis_signs", tuple(tuple(int(s) for s in row) for row in self.axis_signs)
        )
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
        rows = tuple(
            tuple(int(s) for s in rng.choice((-1, 1), size=int(kj) + 1)) for kj in k
        )
        return cls(axis_signs=rows)


def random_resolved(grid: Grid, k, degrees, rng: np.random.Generator) -> GridFunction:
    """Random element of the level-k piecewise polynomial space (unit-variance coefficients)."""
    noise = grid.function(rng.standard_normal(grid.shape))
    return project_level(noise, k, degrees).to_grid()


def detail_components(dec: Decomposition) -> Iterator[tuple[tuple[int, ...], GridFunction]]:
    """Each block evaluated on its own, one at a time, as (kappa, function) pairs.

    A detail block is a tensor product of one-cell wavelet tables, so it is
    evaluated by d axis products, one per axis, with no pass through the
    synthesis pyramid. The per-axis tables, at most d (K + 1), are built once
    per call and dropped with the generator.
    """
    tables: dict = {}
    for kappa, block in dec.blocks.items():
        yield kappa, GridFunction(dec.grid, _detail_values(dec.grid, block, tables))


def _root_sum_squares(grid: Grid, parts: Iterable[GridFunction]) -> GridFunction:
    acc = np.zeros(grid.shape)
    for part in parts:
        acc += part.values ** 2
    return GridFunction(grid, np.sqrt(acc))


def square_function(dec: Decomposition) -> GridFunction:
    """Pointwise l2 norm across blocks: sqrt(sum_kappa (detail_kappa(x))^2)."""
    return _root_sum_squares(dec.grid, (g for _, g in detail_components(dec)))


def _norm_ratios(
    dec: Decomposition, ps: Sequence[float]
) -> tuple[tuple[float, float, float], ...]:
    """(||f_k||_p, square-function ratio, p*-aggregate ratio) of one decomposition, per p.

    f_k is the synthesized decomposition; the square-function ratio is
    ||S f_k||_p / ||f_k||_p and the p*-aggregate ratio is
    ||f_k||_p / (sum_kappa ||detail_kappa||_p^(p*))^(1/p*) with p* = min(2, p).
    One pass over the components feeds every p, one component alive at a
    time; their running sum is f_k, since the blocks cover the decomposition.
    The cost is one evaluation per block, the square function and f_k built
    once, and (blocks + 2) quadrature norms per p. One triple per p, in the
    order of ps.
    """
    norms = []
    total = np.zeros(dec.grid.shape)

    def measured():
        for _, g in detail_components(dec):
            norms.append([lp_norm(g, p) for p in ps])
            np.add(total, g.values, out=total)
            yield g

    square_fn = _root_sum_squares(dec.grid, measured())
    total_fn = GridFunction(dec.grid, total)
    out = []
    for i, p in enumerate(ps):
        norm_p = lp_norm(total_fn, p)
        pstar = min(2.0, p)
        agg = sum(n[i] ** pstar for n in norms) ** (1.0 / pstar)
        if norm_p == 0.0 or agg == 0.0:
            raise ValueError("zero function has no norm ratio")
        square = lp_norm(square_fn, p) / norm_p
        out.append((norm_p, square, norm_p / agg))
    return tuple(out)


def lp_equivalence(f: GridFunction, p: float, k, degrees) -> float:
    """Ratio of the square-function L_p norm to the function's L_p norm.

    The input is replaced by its level-k projection first, so both sides live
    in the resolved space; at p=2 the ratio is identically 1.
    """
    p = _check_p_open(p)
    return _norm_ratios(analyze(f, k, degrees), (p,))[0][1]


def _signed(dec: Decomposition, signs) -> Decomposition:
    blocks = {}
    for kappa, block in dec.blocks.items():
        s = signs.sigma(kappa) if isinstance(signs, SignFamily) else signs[kappa]
        if s not in (-1, 1):
            raise ValueError(f"sign for block {kappa} must be +1 or -1, got {s}")
        blocks[kappa] = DetailCoeffs(
            kappa=kappa, degrees=block.degrees, coeffs=s * block.coeffs
        )
    return Decomposition(grid=dec.grid, degrees=dec.degrees, blocks=blocks)


def sign_series(f: GridFunction, signs, p: float, k, degrees) -> float:
    """L_p norm of the sign-modulated detail series sum sigma_kappa E_kappa f over the box k.

    signs is a SignFamily (the theorem's product structure) or any mapping
    kappa -> +-1; mappings without product structure are outside the theorem
    hypotheses but computed all the same.
    """
    p = _check_p_open(p)
    dec = analyze(f, k, degrees)
    return lp_norm(synthesize(_signed(dec, signs)), p)


def pstar_ratio(f: GridFunction, p: float, k, degrees) -> float:
    """Ratio of the function norm to the blockwise lp-of-norms aggregate.

    Returns ||f_k||_p / (sum_kappa ||detail_kappa||_p^(p*))^(1/p*)
    with p* = min(2, p); the numerator uses the level-k projection of f.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, infinity), got {p}")
    return _norm_ratios(analyze(f, k, degrees), (p,))[0][2]


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
    per trial one draw, one analysis and one pass over the blocks
    (_norm_ratios); per sign family one synthesis. Only the quadrature
    norms are taken per p, so a sweep over m exponents costs one ensemble
    plus m times the norms. Reports come in the order of ps.
    """
    from .grid import _as_tuple

    ps = tuple(_check_p_open(p) for p in ps)
    if not ps:
        raise ValueError("lp_report needs at least one p")
    k = _as_tuple(k, grid.d, "k")
    degs = _as_tuple(degrees, grid.d, "degrees")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if sign_trials < 1:
        raise ValueError(f"sign_trials must be >= 1, got {sign_trials}")
    rng = np.random.default_rng(seed)
    square_vals = [[] for _ in ps]
    pstar_vals = [[] for _ in ps]
    sign_vals = [[] for _ in ps]
    for _ in range(trials):
        f = random_resolved(grid, k, degs, rng)
        dec = analyze(f, k, degs)
        ratios = _norm_ratios(dec, ps)
        for i, (_, square, pstar) in enumerate(ratios):
            square_vals[i].append(square)
            pstar_vals[i].append(pstar)
        for _ in range(sign_trials):
            fam = SignFamily.random(k, rng)
            signed = synthesize(_signed(dec, fam))
            for i, p in enumerate(ps):
                sign_vals[i].append(lp_norm(signed, p) / ratios[i][0])
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
