"""Hyperbolic-cross truncation budgets and approximation-rate experiments.

The cross subspace keeps every detail block with (kappa, beta) <= r.  For
functions with extremal block decay the discarded tail follows a power law
in the subspace dimension, up to logarithms.  This module builds the weight
vector beta, measures truncation errors, allocates per-block budgets over
the shells beyond the cross, and fits empirical rates against the model
exponents.

At p = q = 2 the detail subspaces are mutually orthogonal and the extremal
profile's blocks have L_2 norms 2^-(kappa, alpha), so its squared
truncation error is the lattice sum of 4^-(kappa, alpha) over the
complement of the cross (Parseval): width_experiment computes it on one
integer lattice over the box enum_cross scans at the largest radius, with
no grid.  Other exponents are measured on a grid, within its resolution.

Cross membership has one rule here, the exact integer keys of indexing
(_cross_keys, _inside), for the lattice and for the blocks of an analysis
tensor alike, and the cross dimension one formula (_cross_dims).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid, GridFunction, _as_int, _as_tuple, lp_norm
from .indexing import (
    enum_box,
    _cross_box,
    _cross_keys,
    _cross_masks,
    _cross_tail,
    _inside,
    _radius_index,
    min_multiplicity,
    minimal_slots,
)
# unused: perfbench/test_perfbench.py reads this binding (ROADMAP direction 5)
from .indexing import cross_contains  # noqa: F401
from .projectors import _block_slices, _extract_block, _full_coeffs, _pyramid
from .smoothness import SmoothnessParams, _check_q, _inverse_gap, synthesize_extremal

__all__ = [
    "WidthExperimentConfig",
    "BudgetPlan",
    "choose_beta",
    "truncation_error",
    "tail_model",
    "budget_plan",
    "width_model_exponents",
    "width_experiment",
    "rate_fit",
]


def choose_beta(params: SmoothnessParams, q: float) -> tuple[float, ...]:
    """Cross weights: 1 on the slots of minimal smoothness, midpoints above.

    The admissible range for a non-minimal slot j is the open interval
    1 < beta_j < (alpha_j - s) / min(alpha - s) with s = (1/p - 1/q)_+; any
    interior choice keeps the tail decay governed by the minimal slots, and
    the midpoint makes the choice deterministic.
    """
    alpha = params.alpha
    s = _inverse_gap(params.p, q)
    shifted = tuple(a - s for a in alpha)
    m = min(shifted)
    if m <= 0.0:
        raise ValueError(
            f"effective smoothness must stay positive, min(alpha) - (1/p - 1/q)_+ = {m}"
        )
    minimal = minimal_slots(alpha)
    return tuple(
        1.0 if j in minimal else (1.0 + sh / m) / 2.0 for j, sh in enumerate(shifted)
    )


def truncation_error(f: GridFunction, beta, r, q: float, degrees) -> tuple[float, int]:
    """L_q error of dropping every block outside the cross, and the cross dimension.

    The error is measured within the resolution of f's grid, with detail
    blocks of the given per-axis degrees; the dimension counts the whole
    cross subspace with no resolution cap, so it can exceed what the grid
    resolves.  r is real (an integer or a dyadic number such as 2.5) and q
    is checked before any work (q >= 1, inf allowed).  Both the dropped
    blocks (_truncate) and the dimension (_cross_dims) come from the exact
    cross keys.  Cost: one analysis tensor of f, then the work of _truncate.
    """
    grid = f.grid
    beta = tuple(float(b) for b in beta)
    if len(beta) != grid.d:
        raise ValueError(f"beta must have length {grid.d}, got {beta}")
    if r < 1:
        raise ValueError(f"cross radius must be >= 1, got {r}")
    _check_q(q)
    degrees = _as_tuple(degrees, grid.d, "degrees")
    _, lattice, masks = _cross_masks(beta, (r,))
    ((_, n),) = _cross_dims(math.prod(l + 1 for l in degrees), lattice, masks)
    return _truncate(grid, _full_coeffs(f, degrees), degrees, beta, r, q), n


def _truncate(grid: Grid, full: np.ndarray, degrees, beta, r, q: float) -> float:
    """L_q error of dropping the blocks outside the cross from f's analysis tensor full.

    The blocks of the level box in enum_box order are the rows of
    _cross_keys over that box, so one _inside mask picks the dropped blocks.
    At q = 2 the error is the root sum of their coefficient energies
    (Parseval), each read off the tensor by projectors._extract_block; at
    any other q their rows are added into a zero tensor, as _insert_block
    adds blocks, and one synthesis pyramid evaluates it.
    """
    box = (grid.level,) * grid.d
    keys, scale = _cross_keys(box, beta)
    dropped = list(itertools.compress(enum_box(box), ~_inside(keys, scale, r)))
    if not dropped:
        return 0.0
    if q == 2.0:
        return math.sqrt(sum(np.linalg.norm(_extract_block(full, kappa, degrees)) ** 2
                             for kappa in dropped))
    tail = np.zeros(full.shape)
    for kappa in dropped:
        rows = _block_slices(kappa, degrees)
        tail[rows] += full[rows]
    return lp_norm(GridFunction(grid, _pyramid(grid, tail, degrees)), q)


def tail_model(params: SmoothnessParams, q: float, r) -> float:
    """Model tail size at cross radius r: a power of 2^-r times a power of r."""
    if not 1 <= r < math.inf:
        raise ValueError(f"cross radius must be finite and >= 1, got {r}")
    alpha = params.alpha
    p = params.p
    c = min_multiplicity(alpha)
    if p <= q:
        rate = min(a - _inverse_gap(p, q) for a in alpha)
        star = min(2.0, q)
    else:
        rate = min(alpha)
        star = min(2.0, p)
    log_power = (c - 1) * _inverse_gap(star, params.theta)
    return 2.0 ** (-rate * float(r)) * float(r) ** log_power


@dataclass(frozen=True, eq=False)
class BudgetPlan:
    """Block budgets beyond the cross, with the free constants and the exact total.

    rows is the (M, d) int array of the blocks in the shells r < (kappa,
    beta) <= r + j0, in lexicographic order; budgets holds their budgets as
    an object array of Python ints, which pass 2^63 at large r.  total is
    cross_dim plus the sum of the budgets, exact.
    """

    r: int
    j0: int
    gamma: float
    gamma_prime: float
    epsilon: float
    c0: int
    cross_dim: int
    rows: np.ndarray
    budgets: np.ndarray
    total: int


def _cells_log2(axes: Sequence[np.ndarray]) -> np.ndarray:
    """log2 of the cell count of each block kappa, given one coordinate array per axis."""
    return sum(np.maximum(x - 1, 0) for x in axes)


def _dim_sum(c0: int, cells_log2: np.ndarray) -> int:
    """Total dimension of blocks c0 2^cells, as an exact int: it passes 2^63 at large r.

    Blocks with equal cell exponents are added at once, count x (c0 << c).
    """
    return sum(n * (c0 << c) for c, n in enumerate(np.bincount(cells_log2).tolist()))


def _cross_dims(c0: int, lattice: np.ndarray, masks):
    """(mask, cross dimension) per mask of _cross_masks, c0 functions per cell.

    The one formula for the cross dimension: _dim_sum over the cell
    exponents of the lattice rows inside, the exponents taken once.
    """
    cells_log2 = _cells_log2(lattice.T)
    for inside in masks:
        yield inside, _dim_sum(c0, cells_log2[inside])


def budget_plan(r, beta, params: SmoothnessParams, q: float) -> BudgetPlan:
    """Block budgets n_kappa over the shells r < (kappa, beta) <= r + j0.

    Applies when q >= max(2, p) and every alpha_j stays positive after
    subtracting 1/p + (1/2 - 1/p)_+.  The free constants are fixed at the
    midpoints of their admissible open intervals, resolved in dependency
    order: eps from the beta margins (eps = mu when every slot is minimal
    and no margin constrains it), gamma from its three conditions, then
    gamma_prime below min(gamma, 2 eps).  A block in shell j gets
    min(floor(c0 2^e) + 1, c0 2^cells) with e = r - gamma j - gamma_prime
    (kappa, beta) summed over the non-minimal slots.

    Cost: over the N rows of the box of the outer cross at r + j0, one
    exact integer key per row (indexing._cross_keys) and one comparison of
    the keys, which keeps the M rows of the outer cross as flat box
    indices.  No lattice of the box is built: the flat indices unravel into
    one coordinate array per axis, and each kept row gets its radius index,
    the smallest integer s whose cross holds it; a second comparison of the
    index splits off the inner cross at r, and the index minus r is the
    shell number.  The rows are grouped by one exact int64 key packed from
    the shell, the non-minimal coordinates and the cell count, which fix e
    and the cap; the Python-int budget expression runs once per group, not
    once per block.  Peak memory: the keys over the box, then arrays over
    the M rows, below one (N, d) int64 outer-box lattice (0.81 measured at
    r = 8, beta = (1,1,1)).
    """
    r = _as_int(r, "cross radius")
    if r < 1:
        raise ValueError(f"cross radius must be >= 1, got {r}")
    alpha = params.alpha
    p = params.p
    d = len(alpha)
    beta = tuple(float(b) for b in beta)
    if len(beta) != d:
        raise ValueError(f"beta must have length {d}, got {beta}")
    if not q >= max(2.0, p):
        raise ValueError(f"budget case needs q >= max(2, p), got q={q} with p={p}")
    cut = 1.0 / p + max(0.0, 0.5 - 1.0 / p)
    base = tuple(a - cut for a in alpha)
    mu = min(base)
    if mu <= 0.0:
        raise ValueError(f"budget case needs alpha - (1/p + (1/2 - 1/p)_+) > 0, margin {mu}")
    minimal = minimal_slots(alpha)
    others = [j for j in range(d) if j not in minimal]
    for j in minimal:
        if beta[j] != 1.0:
            raise ValueError(f"beta must equal 1 on minimal slots, got beta[{j}]={beta[j]}")
    margins = []
    for j in others:
        if beta[j] <= 1.0:
            raise ValueError(f"beta must exceed 1 off minimal slots, got beta[{j}]={beta[j]}")
        margins.append(base[j] / beta[j] - mu)
    if margins and min(margins) <= 0.0:
        raise ValueError("beta leaves no budget margin: base smoothness over beta hit the minimum")
    epsilon = min(margins) / 2.0 if margins else mu
    m_narrow = min(a - _inverse_gap(p, q) for a in alpha)
    m_wide = min(a - _inverse_gap(p, 2.0) for a in alpha)
    caps = [1.0 / 3.0, 2.0 * mu]
    if min_multiplicity((m_narrow, m_wide)) == 1:  # m_wide > m_narrow, not a tie
        caps.append(m_narrow / (3.0 * (m_wide - m_narrow)))
    gamma = min(caps) / 2.0
    gamma_prime = min(gamma, 2.0 * epsilon) / 2.0
    c0 = math.prod(params.l)
    j0 = math.floor(r / (3.0 * gamma))
    # the rows of the outer cross as flat box indices, one coordinate array
    # per axis; a row lies in the cross at an integer s iff its radius index
    # is <= s, so the inner cross and the shell numbers come from the index
    bound = _cross_box(beta, r + j0)
    keys, scale = _cross_keys(bound, beta)
    flat = np.flatnonzero(_inside(keys, scale, r + j0))
    radius = _radius_index(keys[flat], scale)
    del keys  # the only box-sized array: every later one has M rows
    axes = np.unravel_index(flat, [b + 1 for b in bound])
    cells_log2 = _cells_log2(axes)
    inner = radius <= r
    cross_dim = _dim_sum(c0, cells_log2[inner])
    outer = ~inner
    axes = [x[outer] for x in axes]
    shell, cells_log2 = radius[outer] - r, cells_log2[outer]
    # e depends on the shell and the non-minimal coordinates only: group the
    # rows by one exact key packed from them and the cell count in mixed
    # radix.  A minimal slot spans r + j0 + 1 > j0 values, so the key stays
    # below (box rows) * (sum(bound) + 1); ravel_multi_index refuses any
    # radix whose product passes int64, so the key never wraps
    radix = [j0 + 1, *(bound[i] + 1 for i in others), sum(bound) + 1]
    key = np.ravel_multi_index([shell, *(axes[i] for i in others), cells_log2], radix)
    packed, where, count = np.unique(key, return_inverse=True, return_counts=True)
    shell, *coords, cells_log2 = np.unravel_index(packed, radix)
    # e in the float operations and order of the per-block formula, once per group
    off = np.zeros(len(shell))
    for i, x in zip(others, coords):
        off = off + x * beta[i]
    expo = r - gamma * shell - gamma_prime * off
    budgets = [min(math.floor(c0 * 2.0 ** e) + 1, c0 << c)
               for e, c in zip(expo.tolist(), cells_log2.tolist())]
    return BudgetPlan(
        r=r,
        j0=j0,
        gamma=gamma,
        gamma_prime=gamma_prime,
        epsilon=epsilon,
        c0=c0,
        cross_dim=cross_dim,
        rows=np.stack(axes, axis=1),
        budgets=np.array(budgets, dtype=object)[where],
        total=cross_dim + sum(n * b for n, b in zip(count.tolist(), budgets)),
    )


def width_model_exponents(params: SmoothnessParams, q: float) -> tuple[float, float]:
    """Exponents (power of 1/n, power of log n) of the width decay model."""
    alpha = params.alpha
    p = params.p
    c = min_multiplicity(alpha)
    rate = min(a - _inverse_gap(p, q) for a in alpha)
    blend = min(2.0, max(p, q))
    log_power = (rate + _inverse_gap(blend, params.theta)) * (c - 1)
    return rate, log_power


@dataclass(frozen=True)
class WidthExperimentConfig:
    """One truncation-rate experiment: class parameters, target norm, radii."""

    params: SmoothnessParams
    q: float = 2.0
    level: int = 6
    r_values: tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10)
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("level", "trials", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        _check_q(self.q)
        rs = tuple(_as_int(r, "r_values") for r in self.r_values)
        if not rs or rs[0] < 1 or list(rs) != sorted(set(rs)):
            raise ValueError(f"r_values must be increasing positive ints, got {self.r_values}")
        object.__setattr__(self, "r_values", rs)

    def condition_margin(self) -> float:
        """min(alpha) - (1/p - 1/q)_+; the rate model applies iff positive."""
        return min(self.params.alpha) - _inverse_gap(self.params.p, self.q)

    def digest(self) -> str:
        key = (
            self.params.alpha,
            self.params.p,
            self.params.theta,
            self.q,
            self.level,
            self.r_values,
            self.trials,
            self.seed,
        )
        return hashlib.sha1(repr(key).encode()).hexdigest()[:12]


def width_experiment(config: WidthExperimentConfig) -> list[dict]:
    """Truncation errors of extremal-profile functions across cross radii.

    Rows carry the config digest, the radius, the exact cross dimension, the
    error, the model width value and their ratio.  One keyed lattice over
    the box enum_cross scans at the largest radius (indexing._cross_masks)
    is built per call; each radius's membership mask gives its dimension
    (_cross_dims) once, whatever the trials.  With p = q = 2 the error is
    the exact lattice sum of the profile's dropped block energies on that
    lattice (_lattice_errors): it does not depend on the grid level, the
    seed or the trials, and no grid is built.  Other exponents report the
    within-resolution error of seeded random profiles on the grid, averaged
    over the trials (_grid_errors).
    """
    params = config.params
    if config.condition_margin() <= 0.0:
        raise ValueError("width model needs min(alpha) > (1/p - 1/q)_+")
    beta = choose_beta(params, config.q)
    power, log_power = width_model_exponents(params, config.q)
    bound, lattice, masks = _cross_masks(beta, config.r_values)
    if params.p == 2.0 and config.q == 2.0:
        measure = _lattice_errors(params, bound, lattice)
    else:
        measure = _grid_errors(config, beta)
    dims = _cross_dims(math.prod(params.l), lattice, masks)
    digest = config.digest()
    rows = []
    for r, (inside, n) in zip(config.r_values, dims):
        err = measure(r, inside)
        model = float(n) ** -power * math.log(float(n)) ** log_power
        rows.append(
            {
                "config": digest,
                "r": r,
                "n": n,
                "error": err,
                "model": model,
                "ratio": err / model,
            }
        )
    return rows


def _lattice_errors(params: SmoothnessParams, bound, lattice: np.ndarray):
    """(r, inside) -> L_2 error of the extremal profile at p = 2, on the keyed lattice.

    The profile's blocks are orthogonal with L_2 norms 2^-(kappa, alpha), so
    the squared error is the sum of 4^-(kappa, alpha) = 2^-(kappa, 2 alpha)
    over the rows outside the cross plus the part beyond the box
    (indexing._cross_tail); (kappa, 2 alpha) is taken once per lattice row.
    """
    rates = tuple(2.0 * a for a in params.alpha)
    walpha = lattice @ np.asarray(rates)
    return lambda r, inside: math.sqrt(_cross_tail(walpha, ~inside, rates, bound))


def _grid_errors(config: WidthExperimentConfig, beta):
    """(r, inside) -> mean L_q error over the trials, measured on the grid.

    Each trial's profile is synthesized at the config level and analyzed
    into one tensor, here; every radius truncates the same tensors (_truncate).
    """
    params = config.params
    degrees = tuple(l - 1 for l in params.l)
    tensors = [(f.grid, _full_coeffs(f, degrees)) for f in (
        synthesize_extremal(params, config.level, config.seed + t) for t in range(config.trials))]
    return lambda r, inside: float(np.mean(
        [_truncate(grid, full, degrees, beta, r, config.q) for grid, full in tensors]))


def rate_fit(points) -> tuple[float, float]:
    """Least-squares exponents of error ~ n^slope (log n)^coef from (n, error) pairs.

    Needs at least 4 finite points with n strictly increasing and above 1
    and with positive errors; returns the slope on log n and the
    coefficient on log log n.
    """
    pts = [(float(n), float(e)) for n, e in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points, got {len(pts)}")
    if not np.isfinite(pts).all():
        raise ValueError(f"points must be finite, got {pts}")
    ns, es = np.array(pts).T
    if np.any(ns <= 1.0) or np.any(np.diff(ns) <= 0.0):
        raise ValueError("sample sizes must be strictly increasing and above 1")
    if np.any(es <= 0.0):
        raise ValueError("errors must be strictly positive")
    design = np.column_stack([np.log(ns), np.log(np.log(ns)), np.ones(len(pts))])
    sol, _, rank, _ = np.linalg.lstsq(design, np.log(es), rcond=None)
    if rank < 3:
        raise ValueError("degenerate fit: design matrix is rank deficient")
    return float(sol[0]), float(sol[1])
