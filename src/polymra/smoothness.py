"""Mixed differences, moduli of continuity, and dominating-mixed-smoothness seminorms.

Differences take positive whole-cell steps only, so shifted nodes land on
nodes and each difference lives on a slab of whole cells; a step of the
opposite sign mirrors that slab and gives the same norm.  The modulus is a
max over this finite family of steps, which makes it a one-sided (lower)
surrogate of the continuum supremum; modulus_table tabulates it at the
dyadic scales t = 2^-m.  Seminorm integrals are discretized on the dyadic
scale grid with the modulus frozen per dyadic block, plus the closed-form
tail over t > 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction, _as_tuple, box_lp_norm, grid_for, lp_norm
from .lp_analysis import detail_components
from .projectors import analyze, synthesize

__all__ = [
    "SmoothnessParams",
    "ModulusTable",
    "modulus_table",
    "besov_seminorm",
    "decay_check",
    "synthesize_extremal",
]


@dataclass(frozen=True)
class SmoothnessParams:
    """Class parameters: per-axis smoothness alpha, integrability p, summation theta.

    The difference order along axis j is the smallest integer exceeding
    alpha_j, so alpha_j < l_j <= alpha_j + 1 always holds.
    """

    alpha: tuple[float, ...]
    p: float = 2.0
    theta: float = math.inf

    def __post_init__(self):
        alpha = tuple(float(a) for a in np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        if not alpha or not all(0.0 < a < math.inf for a in alpha):
            raise ValueError(f"alpha must be positive and finite componentwise, got {self.alpha}")
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not 1 <= self.theta:
            raise ValueError(f"theta must be in [1, inf], got {self.theta}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def d(self) -> int:
        return len(self.alpha)

    @property
    def l(self) -> tuple[int, ...]:
        return tuple(int(math.floor(a)) + 1 for a in self.alpha)


def _order_vec(value, d: int) -> tuple[int, ...]:
    out = _as_tuple(value, d, "difference orders")
    if any(v < 0 for v in out):
        raise ValueError(f"difference orders must be >= 0, got {value!r}")
    return out


def _axis_difference(values: np.ndarray, grid: Grid, axis: int, order: int,
                     shift: int) -> np.ndarray:
    """Finite difference along one axis with a positive whole-cell step, on its valid slab only.

    The slab holds the first cells - order*shift whole cells, where every
    node shifted by up to order steps stays in the cube; order*shift must
    stay below the cell count.  The result is a new array with the input's
    shape except along the axis; order 0 returns a copy.
    """
    n = grid.nodes_per_cell[axis]
    length = (grid.cells_per_axis - order * shift) * n
    src = [slice(None)] * values.ndim
    out = None
    for k in range(order + 1):
        w = (-1) ** (order - k) * math.comb(order, k)
        src[axis] = slice(k * shift * n, k * shift * n + length)
        term = values[tuple(src)]
        if out is None:
            out = w * term
        elif w == 1:  # +-1 weights add in place without a product buffer
            out += term
        elif w == -1:
            out -= term
        else:
            out += w * term
    return out


def _fill_norms(values: np.ndarray, grid: Grid, l: tuple[int, ...], p: float,
                axes: tuple[int, ...], out: np.ndarray) -> None:
    """Difference norms for every step vector into the zeroed array out.

    out has one axis per entry of axes; entry s - 1 holds the step of s
    whole cells, s = 1..cells.  Each difference along axes[0] is taken on
    its valid slab, and the differences along the remaining axes act on
    that slab.  Steps whose span l * s reaches the cell count leave an
    empty domain: the difference is the zero function, its entry stays 0
    and is skipped.  An order-0 axis is the identity, so its sub-table is
    the same for every step and is computed once.
    """
    axis = axes[0]
    order = l[axis]
    steps = 1 if order == 0 else (grid.cells_per_axis - 1) // order
    for s in range(1, steps + 1):
        diff = _axis_difference(values, grid, axis, order, s)
        if len(axes) == 1:
            np.abs(diff, out=diff)
            out[s - 1] = box_lp_norm(grid, diff, p)
        else:
            _fill_norms(diff, grid, l, p, axes[1:], out[s - 1])
        del diff  # free this slab before the next step allocates its own
    if order == 0:
        out[1:] = out[0]


def _resolve_axes(axes, d: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(d))
    message = f"axes must be a nonempty subset of 0..{d - 1}, got {axes!r}"
    try:
        out = tuple(sorted(operator.index(a) for a in axes))
    except TypeError:
        raise ValueError(message) from None
    if not out or len(set(out)) != len(out) or out[0] < 0 or out[-1] >= d:
        raise ValueError(message)
    return out


@dataclass(frozen=True)
class ModulusTable:
    """Modulus values on the dyadic scale grid t_j = 2^-m, m = 0..K, per axis in J.

    values[m_1, ..., m_|J|] is the modulus at t = (2^-m_1, ...); it is
    nonincreasing as any m grows and, for continuous inputs, decays to 0.
    """

    axes: tuple[int, ...]
    scales: tuple[float, ...]
    values: np.ndarray


def modulus_table(f: GridFunction, l, p: float, axes=None) -> ModulusTable:
    """Mixed modulus of continuity tabulated over all dyadic scale vectors at once.

    The modulus at t is the largest norm of the differences along the axes
    J (all of them by default) with the orders l, over every whole-cell
    step h_j <= t_j.

    The nested differences run in the order of decreasing l_j, the
    order-0 (identity) axes outermost and, among equal orders, the higher
    axis outermost.  The outermost axis forms one slab per step, but the
    innermost forms one difference and one norm per step vector, so nearly
    all the work is in the innermost axis: there the lowest order reads
    the fewest shifted windows (l_j + 1) per difference, and among equal
    orders axis 0 gives contiguous row blocks.  Differences along distinct
    axes commute, so the order changes no value beyond rounding.

    Cost, with C cells per axis and N grid nodes: one difference norm per
    step vector s with l_j s_j < C on every axis j of J, about
    prod_j C / l_j norms (an order-0 axis is the identity and counts one
    step).  Each difference and its norm touch only the slab where the
    difference is defined: C - l_j s_j cells along each j in J and the
    whole axis elsewhere.  A norm thus visits about N / 2^|J| nodes on
    average and the table about N prod_j C / (2 l_j) nodes in all; the
    innermost differences, one per norm, read l + 1 windows each for the
    lowest nonzero order l in J.  Peak memory, besides f and the C^|J|
    table: the nested slabs, one per axis of J, plus one product buffer
    for a binomial weight other than +-1, so at most |J| + 1 grid
    functions.  An order-1 difference innermost needs no product buffer:
    at l = (1, 2) on 64 x 64 cells the tracemalloc peak is 2.3 grid
    functions, the table included (3.3 with the order-2 axis innermost).
    """
    grid = f.grid
    J = _resolve_axes(axes, grid.d)
    lv = _order_vec(l, grid.d)
    cells = grid.cells_per_axis
    # outermost first: identity axes, then decreasing order, higher axis first on ties
    nest = tuple(sorted(J, key=lambda a: (lv[a] != 0, -lv[a], -a)))
    norms = np.zeros((cells,) * len(J))
    _fill_norms(f.values, grid, lv, p, nest, norms)
    norms = np.transpose(norms, [nest.index(a) for a in J])
    for axis in range(norms.ndim):
        norms = np.maximum.accumulate(norms, axis=axis)
    K = grid.level
    idx = np.array([2 ** (K - m) - 1 for m in range(K + 1)])
    table = norms[np.ix_(*([idx] * len(J)))]
    scales = tuple(2.0 ** -m for m in range(K + 1))
    return ModulusTable(axes=J, scales=scales, values=table)


def _log_block_weights(alpha: float, theta: float, count: int) -> np.ndarray:
    """Log of the per-axis scale weights: integral of t^(-1-theta*alpha) per block.

    The modulus value at t = 2^-m is frozen over the block [2^-m, 2^-m+1]
    whose integral concentrates there for large theta, so the seminorm
    converges to the sup form as theta grows; m = 0 carries the whole tail
    t > 1, where the modulus is constant.  Freezing at the lower endpoint
    keeps the discretization a lower estimate of the true integral.  The
    part below the finest scale is dropped: the grid cannot resolve it.
    """
    c = theta * alpha
    m = np.arange(count, dtype=float)
    out = m * c * math.log(2.0) + math.log1p(-(2.0 ** -c)) - math.log(c)
    out[0] = -math.log(c)
    return out


def besov_seminorm(f: GridFunction, params: SmoothnessParams) -> float:
    """Discretized mixed-smoothness seminorm: the worst nonempty axis subset.

    theta = inf takes the sup of 2^(m, alpha) * modulus over the dyadic
    scale grid; finite theta sums modulus^theta against the exact block
    integrals of the scale weight, evaluated in log space so huge theta
    stays finite.
    """
    grid = f.grid
    if len(params.alpha) != grid.d:
        raise ValueError(f"params dimension {len(params.alpha)} != grid d={grid.d}")
    best = 0.0
    for r in range(1, grid.d + 1):
        for J in itertools.combinations(range(grid.d), r):
            table = modulus_table(f, params.l, params.p, axes=J).values
            m_axes = np.meshgrid(*[np.arange(table.shape[0])] * len(J), indexing="ij")
            if math.isinf(params.theta):
                scale = np.zeros(table.shape)
                for mj, j in zip(m_axes, J):
                    scale = scale + mj * params.alpha[j] * math.log(2.0)
                val = float(np.max(np.exp(scale) * table, initial=0.0))
            else:
                logw = np.zeros(table.shape)
                for mj, j in zip(m_axes, J):
                    w = _log_block_weights(params.alpha[j], params.theta, table.shape[0])
                    logw = logw + w[mj]
                pos = table > 0
                if not pos.any():
                    val = 0.0
                else:
                    terms = params.theta * np.log(table[pos]) + logw[pos]
                    top = terms.max()
                    val = math.exp((top + math.log(np.exp(terms - top).sum())) / params.theta)
            best = max(best, val)
    return best


def decay_check(f: GridFunction, params: SmoothnessParams, q: float) -> dict:
    """Per-block norm against the smoothness decay rate.

    For every nonzero multi-level of the full box the ratio
    ||detail block||_q / 2^-(kappa, alpha - (1/p - 1/q)_+ e) is returned;
    for a function of unit class seminorm these stay uniformly bounded.
    Every block is evaluated on the grid and its norm taken by quadrature,
    at q = 2 too: this is the measurement, independent of the coefficient
    norms, against which the tests check synthesize_extremal.
    """
    grid = f.grid
    if len(params.alpha) != grid.d:
        raise ValueError(f"params dimension {len(params.alpha)} != grid d={grid.d}")
    degrees = tuple(lj - 1 for lj in params.l)
    dec = analyze(f, grid.level, degrees)
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    shift = max(0.0, 1.0 / params.p - inv_q)
    out = {}
    for kappa, gk in detail_components(dec):
        if all(k == 0 for k in kappa):
            continue
        expo = sum(k * (a - shift) for k, a in zip(kappa, params.alpha))
        out[kappa] = lp_norm(gk, q) / 2.0 ** -expo
    return out


def synthesize_extremal(params: SmoothnessParams, level: int, seed) -> GridFunction:
    """Random function with exact extremal block decay 2^-(kappa, alpha) in L_p.

    Every detail block of the full box is drawn at random and rescaled so
    its L_p norm hits the decay profile exactly; block orthogonality keeps
    the profile intact in the sum.  The hard input for width experiments.

    Cost: one analysis of the noise and one synthesis of the rescaled
    coefficients, both linear in the grid.  At p = 2 a block's norm is the
    Euclidean norm of its orthonormal coefficients (the Gauss rule of
    grid_for integrates products of two basis polynomials exactly); at any
    other p each block is evaluated on the grid once for its quadrature norm.
    """
    d = len(params.alpha)
    degrees = tuple(lj - 1 for lj in params.l)
    grid = grid_for(d, degree=degrees, level=level)
    rng = np.random.default_rng(seed)
    noise = GridFunction(grid, rng.standard_normal(grid.shape))
    dec = analyze(noise, level, degrees)
    if params.p == 2.0:
        norms = ((kappa, blk.l2_norm()) for kappa, blk in dec.blocks.items())
    else:
        norms = ((kappa, lp_norm(gk, params.p)) for kappa, gk in detail_components(dec))
    for kappa, nrm in norms:
        if nrm == 0.0:
            raise ValueError(f"degenerate random draw: block {kappa} vanished")
        target = 2.0 ** -sum(k * a for k, a in zip(kappa, params.alpha))
        # DetailCoeffs is frozen but its array is not; dec is private to this call
        dec.blocks[kappa].coeffs[...] *= target / nrm
    return synthesize(dec)
