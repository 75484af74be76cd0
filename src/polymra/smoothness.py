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

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction, _as_int, _as_tuple, box_lp_norm, grid_for, lp_norm
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


def _inverse_gap(p: float, q: float) -> float:
    """(1/p - 1/q)_+, with 1/inf = 0: the smoothness an L_p to L_q embedding costs."""
    return max(0.0, 1.0 / p - 1.0 / q)


def _check_resolution(level: int, order: int) -> None:
    """Reject a level too coarse for the difference order: no whole-cell step fits.

    With 2^level <= order every modulus would be 0 for any function.
    """
    if 2 ** level <= order:
        raise ValueError(f"K={level} is too coarse for difference order {order}: "
                         f"need 2^K > {order}")


def _axis_difference(values: np.ndarray, grid: Grid, axis: int, order: int,
                     shift: int, buf: np.ndarray) -> np.ndarray:
    """Finite difference along one axis with a positive whole-cell step, on its valid slab only.

    The slab holds the first cells - order*shift whole cells, where every
    node shifted by up to order steps stays in the cube; order*shift must
    stay below the cell count.  The result is written into the leading
    entries of the flat buffer buf and returned as a C-contiguous view with
    the input's shape except along the axis; order 0 copies the input.

    The binomial sum runs as w_1 t_1 + w_0 t_0 + w_2 t_2 + ...: w_0 = +-1
    and IEEE addition commutes, so this has the bits of the sum taken from
    k = 0, and up to order 2 it needs no product buffer.
    """
    n = grid.nodes_per_cell[axis]
    step, length = shift * n, (grid.cells_per_axis - order * shift) * n
    shape = values.shape[:axis] + (length,) + values.shape[axis + 1:]
    out = buf[:math.prod(shape)].reshape(shape)
    lead = (slice(None),) * axis
    t = [values[lead + (slice(k * step, k * step + length),)] for k in range(order + 1)]
    if order == 0:
        np.copyto(out, t[0])
        return out
    add_first = np.add if order % 2 == 0 else np.subtract  # w_0 = (-1)^order
    if order == 1:
        add_first(t[1], t[0], out=out)
    else:
        np.multiply(t[1], (-1) ** (order - 1) * order, out=out)
        add_first(out, t[0], out=out)
    for k in range(2, order + 1):
        w = (-1) ** (order - k) * math.comb(order, k)
        if w == 1:
            out += t[k]
        elif w == -1:
            out -= t[k]
        else:  # order >= 3 only
            out += w * t[k]
    return out


# the skip margin on squared norms, which covers the rounding of the
# final ** 0.5 (see modulus_table)
_SKIP = 1.0 - 2.0 ** -40


@functools.lru_cache(maxsize=64)
def _step_tables(cells: int, order: int):
    """Index tables of the steps s = 1..steps of one axis, read only.

    end, start, lag, weight, all (pairs, steps): for each pair k <= k' of
    binomial terms, the window of the lag (k' - k) s diagonal from row k s
    of length cells - order s, and the weight c_k c_k' (doubled off the
    main diagonal).  exps: e = bit_length(s - 1), the exponent of the
    smallest dyadic box side 2^e >= s; firsts: the index of the first step
    of each e.
    """
    steps = (cells - 1) // order if order else 1
    s = np.arange(1, steps + 1)
    c = [(-1) ** (order - k) * math.comb(order, k) for k in range(order + 1)]
    pairs = [(k, k2) for k in range(order + 1) for k2 in range(k, order + 1)]
    start = np.array([k * s for k, _ in pairs])
    lag = np.array([(k2 - k) * s for k, k2 in pairs])
    weight = np.array([c[k] * c[k2] * (1.0 if k == k2 else 2.0) for k, k2 in pairs])
    exps = np.array([t.bit_length() for t in range(steps)])
    firsts = np.flatnonzero(np.diff(exps, prepend=-1))
    out = (start + (cells - order * s), start, lag, weight, exps, firsts)
    for a in out:
        a.flags.writeable = False
    return out


def _step_bounds(values: np.ndarray, grid: Grid, axis: int, order: int, buf: np.ndarray):
    """Enclosures lo <= I(s) <= hi of every step's squared difference norm along one axis.

    I(s) is the squared norm before the root, as _axis_difference and
    box_lp_norm compute it: the quadrature sum of diff**2 over the valid
    slab.  Returns (lo, hi), one entry per step s = 1..steps, or None when
    no finite enclosure is certified: values not float64 (numpy then
    differences them in their own precision), E (below) not finite, or
    4^order E at least 2^1016 min(w_b W_r), which holds whenever
    (2^order max|values|)^2 is within a factor 2^8 of overflow, where
    that route may return inf for a finite norm.  buf, at least the size
    of values, is overwritten.

    With c_k the binomial weights, D[i, b, r] the values at cell i and
    Gauss index b along the axis and r on the other axes, and w_b, W_r the
    quadrature weights, whole-cell shifts keep b and the axis weights
    repeat cell by cell, so
        I(s) = sum_{k,k'} c_k c_k' sum_{i < C - order s} G(i + k s, i + k' s),
        G[i, j] = sum_{b,r} w_b W_r D[i, b, r] D[j, b, r].
    G is one syrk of D scaled by sqrt(w_b W_r) in buf, C rows of n R
    entries, and the prefix sums along its diagonals give every lag and
    window at once.  Each term is c_k c_k' times a diagonal window of G,
    sum_i |G(i, i + lag)| <= E = trace G = sum w D^2, and the |c_k c_k'|
    sum to (sum_k |c_k|)^2 = 4^order, so the rounding of this route and of the
    exact one is at most eps 4^order E (Higham, ch. 3): eps = 4 gamma_m,
    gamma_m = m u / (1 - m u) with u = 2^-53, where m counts the roundings
    along the longest chain (the weights, the n R products of the syrk,
    the prefix sums, the combination, the difference, the square and the
    nested contraction of Grid.integrate).  gamma_m bounds a sum of m
    rounded terms in any order, so any BLAS blocking is covered; the
    factor 4 covers the rounding of E and of est +- delta and the
    second-order terms.  Underflow adds at most 2^-1075 per rounded
    product that no relative term absorbs: tau = ((4^order + 3) size +
    (order + 1)^2 + 64) 2^-1074 counts the products of both routes, those
    of the syrk times the 4^order of the pair weights.
    """
    if values.dtype != np.float64:
        return None
    cells = grid.cells_per_axis
    n = grid.nodes_per_cell[axis]
    pre = math.prod(values.shape[:axis])
    post = math.prod(values.shape[axis + 1:])
    weights = np.ones(())
    for j, size in enumerate(values.shape):
        weights = np.multiply.outer(weights, grid.axis_weights[j][:n if j == axis else size])
    weights = weights.reshape(pre, n, post)
    scaled = buf[:values.size].reshape(cells, pre, n, post)
    np.multiply(values.reshape(pre, cells, n, post).transpose(1, 0, 2, 3), np.sqrt(weights),
                out=scaled)
    rows = scaled.reshape(cells, -1)
    # G sits in a zero-framed buffer whose (cells + 1)^2 view puts G[i, i + lag]
    # at row i + 1, column lag, under a zero row: one cumsum gives every window
    frame = np.zeros((cells + 1) ** 2)
    gram = frame[cells + 1:cells + 1 + cells * cells].reshape(cells, cells)
    np.matmul(rows, rows.T, out=gram)
    # energy >= min(weights) max(values)^2, so this keeps the route's squares
    # finite, and |G[i, j]| <= energy keeps every estimate finite
    energy = float(np.trace(gram))
    if not energy * 4.0 ** order < 2.0 ** 1016 * weights.min():
        return None
    cum = frame.reshape(cells + 1, cells + 1)
    np.cumsum(cum, axis=0, out=cum)
    end, start, lag, weight = _step_tables(cells, order)[:4]
    est = weight @ (cum[end, lag] - cum[start, lag])
    m = (values.size // cells + 2 * cells + sum(values.shape) + (order + 2) ** 2
         + 4 * values.ndim + 16)
    gamma = m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53)
    tau = math.ldexp((4 ** order + 3) * values.size + (order + 1) ** 2 + 64, -1074)
    delta = 4.0 * gamma * 4.0 ** order * energy + tau
    return est - delta, est + delta


def _needed_steps(values: np.ndarray, grid: Grid, axis: int, order: int,
                  best: np.ndarray, box: tuple[int, ...], buf: np.ndarray):
    """Innermost steps whose norm a certified bound cannot rule out as a box max, ascending.

    best[e_1, ..., e_J] holds the largest lower bound seen so far over the
    steps s with s_j <= 2^e_j, in nesting order; box holds the exponents
    e = bit_length(s - 1) of the outer steps of this slab.  The slab's
    lower bounds enter best first, then a step is kept unless its upper
    bound is below _SKIP times best at its own smallest box.
    """
    bounds = _step_bounds(values, grid, axis, order, buf)
    exps, firsts = _step_tables(grid.cells_per_axis, order)[4:]
    if bounds is None:
        return range(1, len(exps) + 1)
    lo, hi = bounds
    top = np.zeros(best.shape[-1])
    top[:len(firsts)] = np.maximum.reduceat(lo, firsts)
    np.maximum.accumulate(top, out=top)
    above = best[tuple(slice(e, None) for e in box)]
    np.maximum(above, top, out=above)
    keep = ~(hi < _SKIP * best[box][exps])
    return (np.flatnonzero(keep) + 1).tolist()


def _fill_norms(values: np.ndarray, grid: Grid, l: tuple[int, ...], p: float,
                axes: tuple[int, ...], out: np.ndarray, best: np.ndarray | None = None,
                box: tuple[int, ...] = ()) -> None:
    """Difference norms for every step vector into the zeroed array out.

    out has one axis per entry of axes; entry s - 1 holds the step of s
    whole cells, s = 1..cells.  Each difference along axes[0] is taken on
    its valid slab, and the differences along the remaining axes act on
    that slab.  Every step of this depth writes its slab into one buffer
    the size of the input.  Steps whose span l * s reaches the cell count
    leave an empty domain: the difference is the zero function, its entry
    stays 0 and is skipped.  An order-0 axis is the identity, so its
    sub-table is the same for every step and is computed once.

    Given best, the running array of lower bounds of _needed_steps (p = 2
    only), the innermost axis computes only the steps it cannot rule out
    as the max of a dyadic box; the others keep 0 in out.
    """
    axis = axes[0]
    order = l[axis]
    steps = 1 if order == 0 else (grid.cells_per_axis - 1) // order
    buf = np.empty(values.size)
    todo = range(1, steps + 1)
    if best is not None and len(axes) == 1 and steps > 1:
        todo = _needed_steps(values, grid, axis, order, best, box, buf)
    for s in todo:
        diff = _axis_difference(values, grid, axis, order, s, buf)
        if len(axes) == 1:
            if p != 2.0:  # the square at p = 2 drops the sign bit for bit
                np.abs(diff, out=diff)
            out[s - 1] = box_lp_norm(grid, diff, p)
        else:
            _fill_norms(diff, grid, l, p, axes[1:], out[s - 1], best,
                        box + ((s - 1).bit_length(),))
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
    step h_j <= t_j.  A grid with 2^K <= l_j on an axis of J raises
    ValueError: no whole-cell step fits there, so every modulus would be 0.

    The nested differences run in the order of decreasing l_j, the
    order-0 (identity) axes outermost and, among equal orders, the higher
    axis outermost.  The outermost axis forms one slab per step, but the
    innermost forms one difference and one norm per step vector, so in a
    full scan nearly all the work is in the innermost axis: there the
    lowest order reads the fewest shifted windows (l_j + 1) per
    difference, and among equal orders axis 0 gives contiguous row blocks.
    Differences along distinct axes commute, so the order changes no value
    beyond rounding.

    Certified pruning at p = 2: the table keeps only the max over each
    dyadic box of steps, so most innermost norms need not be computed.
    Per innermost slab D, one Gram product gives every step's squared norm
    I(s) at once (see _step_bounds for the identity): est(s), with
    lo = est - delta <= I(s) <= est + delta = hi for the bits the exact
    route computes, delta = eps 4^o E_D + tau, E_D = sum w D^2 over the
    slab, eps = 4 gamma_m for the m roundings in the longest chain of
    either route, and tau an absolute term for underflow.  A slab that is
    not float64 or not finite, or where (2^o max|D|)^2 could overflow, is
    scanned in full.  With B(s) the smallest dyadic box holding s (sides
    2^e, e = bit_length(s_j - 1)) and M(B) the largest lo over the steps
    bounded so far inside B, a step is skipped only if
    hi(s) < (1 - 2^-40) M(B(s)); every other step runs the exact
    _axis_difference and box_lp_norm.  Proof that the table stays bit for
    bit: if s is skipped, a bounded step t in B(s) has
    I(t) >= lo(t) > I(s) / (1 - 2^-41), so after the root (the margin
    covers the rounding of ** 0.5) norm(t) > norm(s).  Any table entry
    whose box B' holds s also holds B(s), hence t; so a maximizer of
    B' is never skipped, and its norm is computed by the exact route.
    Skipped entries stay 0 in the per-step array and never reach a max.
    The walk is still one pass with outer steps ascending: each outer
    difference is formed once per step prefix, the slab's lower bounds
    enter M (a (K + 1)^|J| array of boxes) before its steps are tested,
    and the Gram reuses the innermost depth's buffer.  p != 2 keeps the
    full scan.

    Cost, with C cells per axis and N grid nodes: every outer difference
    of the full scan, one per step prefix; per innermost slab one scaling
    pass and one syrk, C^2 / 2 products per node of the slab (BLAS), and
    O(C^2) for the prefix sums; then one exact norm per step that no bound
    rules out.  On the extremal profile (seed 7) that is 100 of the 2,047
    innermost norms of the benchmark's d = 2, K = 6 tables, 205 of 8,191 at
    K = 7 and 337 of 4,095 at d = 3, alpha = (1, 1, 1), K = 5.  The full
    scan makes one difference norm per step vector s with l_j s_j < C on
    every axis j of J, about prod_j C / l_j norms (an order-0 axis is the
    identity and counts one step); each difference and its norm touch
    only the slab where the difference is defined, C - l_j s_j cells along
    each j in J and the whole axis elsewhere, so a norm visits about
    N / 2^|J| nodes on average.

    Up to order 2 no step allocates: each nesting depth owns one flat
    buffer the size of its input, and every slab of that depth is written
    into its leading entries; the scaled copy of the Gram goes into the
    innermost depth's buffer before its exact steps run.  At p = 2 the
    norm squares the signed slab in place, with no abs pass and no power
    call; the other p take |diff| ** p in place.  Peak memory, besides f
    and the C^|J| table: one buffer per axis of J, so at most |J| grid
    functions up to order 2, plus a product array per binomial weight
    other than +-1 and k > 1 (order 3 and up), plus numpy's fixed-size
    iterator buffers for strided and broadcast operands, plus the
    (C + 1)^2 Gram frame at p = 2.  At l = (1, 2) on 64 x 64 cells the
    tracemalloc peak is 2.39 grid functions at p = 2 and 2.10 at p = 3,
    the table included.
    """
    grid = f.grid
    J = _resolve_axes(axes, grid.d)
    lv = _as_tuple(l, grid.d, "difference orders")
    _check_resolution(grid.level, max(lv[j] for j in J))
    cells = grid.cells_per_axis
    # outermost first: identity axes, then decreasing order, higher axis first on ties
    nest = tuple(sorted(J, key=lambda a: (lv[a] != 0, -lv[a], -a)))
    norms = np.zeros((cells,) * len(J))
    best = np.zeros((grid.level + 1,) * len(J)) if p == 2.0 else None
    _fill_norms(f.values, grid, lv, p, nest, norms, best)
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
    stays finite.  Every axis enters some subset, so a grid with 2^K <=
    max(l) raises ValueError (see modulus_table).
    """
    grid = f.grid
    if len(params.alpha) != grid.d:
        raise ValueError(f"params dimension {len(params.alpha)} != grid d={grid.d}")
    _check_resolution(grid.level, max(params.l))
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


def _check_q(q: float) -> None:
    """The block norm exponent of decay_check: q >= 1, inf allowed, nan not."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")


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
    _check_q(q)
    degrees = tuple(lj - 1 for lj in params.l)
    dec = analyze(f, grid.level, degrees)
    shift = _inverse_gap(params.p, q)
    out = {}
    for kappa, gk in detail_components(dec):
        if all(k == 0 for k in kappa):
            continue
        expo = sum(k * (a - shift) for k, a in zip(kappa, params.alpha))
        # each block's values are fresh, so its norm may overwrite them
        if q != 2.0:  # the square at q = 2 drops the sign bit for bit
            np.abs(gk.values, out=gk.values)
        out[kappa] = box_lp_norm(grid, gk.values, q) / 2.0 ** -expo
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
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
