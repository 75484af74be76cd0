"""Maximal functions, Whitney cube decompositions, good/bad splittings.

The chain runs: a grid Hardy-Littlewood maximal function, its sublevel set
as a union of closed finest-level cells, a greedy dyadic Whitney
decomposition of the complement, and the resulting split of a function into
a bounded good part plus mean-zero bad blocks supported on the Whitney
cubes.  All cube-to-set distances are decided in exact integer arithmetic
at the finest dyadic scale, so the strict inequalities of the construction
never hinge on float rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import Grid, GridFunction, _as_int
from .indexing import DyadicCube

__all__ = [
    "CellSet",
    "WhitneyDecomposition",
    "CZSplit",
    "maximal_function",
    "level_set_measure",
    "sublevel_cellset",
    "whitney",
    "cz_split",
    "cz_constants",
]

# entries per tile array of maximal_function: centres times kept offsets
_TILE_FLOATS = 2 ** 17
# entries per integer chunk of _gap_field's pair pass: lines times cells times cells
_DIST_ENTRIES = 2 ** 17


@dataclass(frozen=True)
class CellSet:
    """Union of closed finest-level cells of the uniform dyadic mesh on the unit cube.

    mask[nu] set means the closed cell nu * 2^-K + [0, 2^-K]^d belongs to the
    set.  closed=False tags the complementary open set; the two differ only
    by the measure-zero cell faces.
    """

    resolution: int
    mask: np.ndarray
    closed: bool = True

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        object.__setattr__(self, "resolution", _as_int(self.resolution, "resolution"))
        if self.resolution < 0:
            raise ValueError(f"resolution must be >= 0, got {self.resolution}")
        if mask.ndim < 1 or mask.shape != (2 ** self.resolution,) * mask.ndim:
            raise ValueError(
                f"mask shape {mask.shape} does not match resolution {self.resolution}"
            )
        object.__setattr__(self, "mask", mask)

    @property
    def d(self) -> int:
        return self.mask.ndim

    def complement(self) -> "CellSet":
        return CellSet(self.resolution, ~self.mask, closed=not self.closed)

    def measure(self) -> Fraction:
        # exact: cell count times the cell measure 2^(-d K)
        return int(self.mask.sum()) * Fraction(1, 2 ** (self.d * self.resolution))

    def cubes(self) -> list[DyadicCube]:
        lev = (self.resolution,) * self.d
        return [DyadicCube(lev, nu) for nu in np.argwhere(self.mask)]


def _node_weights(grid: Grid) -> np.ndarray:
    """Quadrature weight of every node, shaped like the grid."""
    w = grid.axis_weights[0]
    for aw in grid.axis_weights[1:]:
        w = np.multiply.outer(w, aw)
    return w


def _ball_measure(d: int, radii: np.ndarray) -> np.ndarray:
    if d == 1:
        return 2.0 * radii
    return np.pi * radii ** 2


def _outer_sum(parts: list[np.ndarray]) -> np.ndarray:
    """Flat row-major table of parts[0][i0] + parts[1][i1] + ..., summed in axis order."""
    out = parts[0]
    for part in parts[1:]:
        out = np.add.outer(out, part)
    return out.ravel()


def maximal_function(f: GridFunction) -> GridFunction:
    """Grid Hardy-Littlewood maximal function with Euclidean balls.

    The function is extended by zero outside the unit cube, so the ball
    integral is just the quadrature sum over nodes inside the ball while the
    ball measure stays the full 2r resp. pi r^2.  The supremum over radii is
    realized on the finite family of node-to-node distances; radii never
    drop below the cell diagonal sqrt(d) 2^-K, which keeps the smallest ball
    at least one quadrature cell wide.  Edge cells lend the ball their whole
    quadrature weight, so the denominator is floored by the covered weight;
    without that floor a constant would overshoot its own sup.

    Nodes enter the ball by distance, equidistant nodes in row-major node
    order.  Per axis, the displacement from a centre in cell c0 at Gauss
    index a to a node in cell c at index b is ((c - c0) + (g[b] - g[a])) / C
    with C = 2^K cells per axis; it depends only on (c - c0, b).  So the
    centres sharing the Gauss index tuple a share one table of the
    (2C-1)^d n^d offsets, sorted once.  Centres go in tiles of B^d cells;
    a tile gathers w |f| and w along the table entries that reach the grid
    from some centre of the tile, out of one complex copy (w |f| real, w
    imaginary) zero-padded by C-1 cells per side, and takes the sup over
    their running sums.  A padded node adds nothing to either sum and
    only widens the ball, so it never raises the sup.

    Two bounds, taken once per call, prune the running sums without
    moving a bit of the result: W bounds every running covered weight and
    S every running sum of w |f|.  Past the first table entry whose ball
    exceeds W (the tail) the denominator is the ball itself, so the
    covered weight is not summed there, and a ratio there is at most
    S / ball, which falls along the table; the tail ends where S / ball is
    at most the smallest sup a centre of the tile reached before the tail.
    The running mass of the tail starts from the last one before it, so
    every kept prefix sum is the same chain of additions as without the
    split.

    The grid memoizes its last sweep: grid.basis_tables["maximal_function"]
    holds (w |f|, values) for as long as the Grid object lives, one entry
    per grid, replaced by the next input that differs.  A call whose w |f|
    equals the stored one (np.array_equal) skips the sweep.  The sweep
    reads nothing but the grid and w |f|, so a hit has the bits of a fresh
    sweep.  NaN never compares equal, so an input holding one is swept on
    every call.  Every call returns a fresh array, so a caller may write
    to its result without touching the memo.

    Cost of a sweep: n^d sorts of (2C-1)^d n^d entries, plus gathers and
    running sums over about N (C+B-1)^d n^d entries for the N nodes in the
    worst case, where nothing is pruned.  How much of the tail is pruned
    depends on the data: a tile loses it all once each centre's sup before
    the tail reaches S / ball there, and keeps it all while some centre
    has seen no mass.  A memo hit costs O(N): w |f|, one comparison and
    one copy.
    Memory in floats: the padded copy, two floats for each of the
    (3C-2)^d n^d padded nodes; about eight arrays of the table length
    (2C-1)^d n^d; and per tile at most three times _TILE_FLOATS = 2^17
    entries in gathers and running sums over (centres, kept offsets), the
    bound that picks B.  Between calls the memo keeps two grid-sized
    arrays per grid, w |f| and the values.
    """
    grid = f.grid
    if grid.d > 2:
        raise NotImplementedError("maximal function is implemented for d <= 2 only")
    wf = _node_weights(grid) * np.abs(f.values)
    memo = grid.basis_tables.get("maximal_function")
    if memo is None or not np.array_equal(memo[0], wf):
        memo = (wf, _maximal_sweep(grid, wf))
        grid.basis_tables["maximal_function"] = memo
    return GridFunction(grid, memo[1].copy())


def _maximal_sweep(grid: Grid, wf: np.ndarray) -> np.ndarray:
    """Values of the maximal function of the node masses wf = w |f|, shaped like the grid."""
    d = grid.d
    cells = grid.cells_per_axis
    nodes = grid.nodes_per_cell
    r_min = math.sqrt(d) * 2.0 ** -grid.level
    w = _node_weights(grid)
    # W and S: with u = 2^-53, a float running sum of nonnegative terms is
    # at most (1 + u)^L times their exact sum, L the number of terms, and a
    # table row has L < 2^d N <= 4 N.  A float total of the N terms, in any
    # order, is at least (1 - u)^N times the exact total.  So every running
    # sum is at most total (1 + u)^(4N) / (1 - u)^N <= total exp(6 N u)
    # <= total (1 + 6 N 2^-52); the factor below also absorbs its own
    # rounding and that of the product.
    slack = 1.0 + 16 * w.size * 2.0 ** -52
    cover_bound = w.sum() * slack
    mass_bound = wf.sum() * slack
    # w |f| and w as the real and imaginary parts of one array: the head
    # gathers both in one pass and runs both sums in one complex cumsum,
    # which adds the parts separately, each rounded as a real sum would be
    both = np.empty(grid.shape, dtype=complex)
    both.real, both.imag = wf, w
    both = np.pad(both, [((cells - 1) * n,) * 2 for n in nodes])
    strides = [s // both.itemsize for s in both.strides]
    both = both.ravel()

    # per axis, offset o = (dc + C - 1) n + b holds the cell shift dc and the
    # Gauss index b; from a centre in cell c0 it reaches padded node c0 n + o
    shifts = [np.repeat(np.arange(1 - cells, cells), n) for n in nodes]
    gauss = [x[:n] * cells for x, n in zip(grid.axis_nodes, nodes)]
    entry_pad = _outer_sum([np.arange(len(s)) * st for s, st in zip(shifts, strides)])
    # flat index of the entry's cell shift (dc_1 + C - 1, ...) in (2C-1)^d
    span = 2 * cells - 1
    entry_cell = _outer_sum([np.repeat(np.arange(span) * span ** (d - 1 - j), n)
                             for j, n in enumerate(nodes)])
    # largest power-of-two tile side whose (centres, kept offsets) arrays fit
    side = cells
    while side > 1 and (side * (cells + side - 1)) ** d * math.prod(nodes) > _TILE_FLOATS:
        side //= 2
    tiles = [(lo, _outer_sum([np.arange(lo_j, lo_j + side) * (n * st)
                              for lo_j, n, st in zip(lo, nodes, strides)]))
             for lo in itertools.product(range(0, cells, side), repeat=d)]
    out = np.empty(grid.shape)
    for a in np.ndindex(*nodes):
        disp = [(s + (np.tile(g, span) - g[aj])) / cells
                for s, g, aj in zip(shifts, gauss, a)]
        dist = np.sqrt(_outer_sum([x ** 2 for x in disp]))
        order = np.argsort(dist, kind="stable")
        ball = _ball_measure(d, np.maximum(dist[order], r_min))
        # the zero offset, first in every tile, always runs in the head, so
        # each tile has a sup to prune by even where the first ball exceeds W
        head = max(int(np.searchsorted(ball, cover_bound, side="right")), 1)
        table_pad = entry_pad[order]
        table_cell = entry_cell[order]
        for lo, centres in tiles:
            # entries whose cell shift reaches the grid from some centre of the tile
            reach = np.zeros((span,) * d, dtype=bool)
            reach[tuple(slice(cells - lo_j - side, span - lo_j) for lo_j in lo)] = True
            kept = np.flatnonzero(reach.ravel()[table_cell])
            split = np.searchsorted(kept, head)
            run = both[centres[:, None] + table_pad[kept[:split]]]
            np.cumsum(run, axis=1, out=run)
            carry = run[:, -1].real
            ratio = np.maximum(run.imag, ball[kept[:split]])
            np.divide(run.real, ratio, out=ratio)
            sup = ratio.max(axis=1)
            # S / ball falls along the table, so the entries that can still
            # raise some sup are a prefix of the tail; a NaN keeps them all
            tail = kept[split:]
            tail = tail[:np.count_nonzero(~(mass_bound / ball[tail] <= sup.min()))]
            if len(tail):
                mass = both.real[centres[:, None] + table_pad[tail]]
                mass[:, 0] += carry
                np.cumsum(mass, axis=1, out=mass)
                mass /= ball[tail]
                np.maximum(sup, mass.max(axis=1), out=sup)
            at = tuple(slice(lo_j * n + aj, (lo_j + side) * n, n)
                       for lo_j, n, aj in zip(lo, nodes, a))
            out[at] = sup.reshape((side,) * d)
    return out


def _check_threshold(alpha: float) -> None:
    # a NaN compares false both ways, so it would read as a height above
    # every value ({h > alpha} empty) and below every value (no cell kept)
    if math.isnan(alpha):
        raise ValueError(f"alpha must not be NaN, got {alpha}")


def level_set_measure(h: GridFunction, alpha: float) -> float:
    """Quadrature measure of the strict superlevel set {h > alpha}; a NaN alpha raises."""
    _check_threshold(alpha)
    return float(_node_weights(h.grid)[h.values > alpha].sum())


def sublevel_cellset(h: GridFunction, alpha: float) -> CellSet:
    """Cells of the finest mesh on which h <= alpha at every node, as a closed set.

    A NaN alpha raises; +-inf compare as usual.
    """
    _check_threshold(alpha)
    grid = h.grid
    cells = grid.cells_per_axis
    shape = []
    for n in grid.nodes_per_cell:
        shape.extend((cells, n))
    per_cell = h.values.reshape(shape)
    ok = per_cell <= alpha
    for axis in reversed(range(1, 2 * grid.d, 2)):
        ok = ok.all(axis=axis)
    return CellSet(grid.level, ok, closed=True)


@dataclass
class WhitneyDecomposition:
    """Disjoint dyadic cubes whose closures fill the open complement of a cell set.

    cubes are uniform-level dyadic cubes, listed in acceptance order (level
    by level, lexicographic within a level); cube_dist[r] is the Euclidean
    distance from cubes[r] to the closed set.  The construction is truncated
    at the mesh resolution, so a sliver of the complement along the boundary
    of the closed set can stay uncovered; its exact measure is reported, and
    stays below residual_bound() for any input.
    """

    resolution: int
    d: int
    base_level: int | None
    cubes: list[DyadicCube] = field(default_factory=list)
    cube_dist: np.ndarray = field(default_factory=lambda: np.zeros(0))
    residual_measure: Fraction = Fraction(0)
    boundary_cells: int = 0

    def residual_bound(self) -> Fraction:
        return 2 * self.boundary_cells * Fraction(1, 2 ** self.resolution)


def _gap_field(cells: np.ndarray, side: int) -> np.ndarray:
    """D(x) = min over marked cells c of sum_j max(|x_j - c_j| - 1, 0)^2, for every mesh cell x.

    cells: (n, d) marked cell indices, n >= 1, on the mesh of side cells per
    axis.  The last axis takes each row's nearest marked cell from a running
    max and min of the marked indices; every other axis takes the min over
    all (cell, cell) pairs of its lines, in chunks of at most _DIST_ENTRIES
    integers.  A row with no marked cell holds d (2 side + 1)^2 until a
    later axis reaches a marked one; every final value is below d side^2.
    """
    d = cells.shape[1]
    mask = np.zeros((side,) * d, dtype=bool)
    mask[tuple(cells.T)] = True
    at = np.arange(side)
    # -2 side and 3 side stand in for a missing marked cell on either side:
    # they put near at 2 side or more, a marked cell of the row below side
    left = np.maximum.accumulate(np.where(mask, at, -2 * side), axis=-1)
    right = np.minimum.accumulate(np.where(mask, at, 3 * side)[..., ::-1], axis=-1)[..., ::-1]
    near = np.minimum(at - left, right - at)
    gap = np.maximum(near - 1, 0)
    field = np.where(near < side, gap * gap, d * (2 * side + 1) ** 2)
    # step[y, x]: the squared gap between cells y and x of one axis
    step = np.maximum(np.abs(at[:, None] - at) - 1, 0) ** 2
    cols = min(side, max(_DIST_ENTRIES // side, 1))
    rows = max(_DIST_ENTRIES // (side * cols), 1)
    for axis in range(d - 1):
        moved = np.moveaxis(field, axis, -1)
        lines = moved.reshape(-1, side)
        out = np.empty_like(lines)
        for r in range(0, len(lines), rows):
            for c in range(0, side, cols):
                # one expression, so the previous chunk is freed before the next one
                out[r:r + rows, c:c + cols] = (lines[r:r + rows, :, None]
                                               + step[:, c:c + cols]).min(axis=1)
        field = np.moveaxis(out.reshape(moved.shape), -1, axis)
    return field


def _scaled_dist2(lo: np.ndarray, hi: np.ndarray, cells: np.ndarray,
                  side: int, surround: bool) -> np.ndarray:
    """Squared distance, in units of the finest cell width, from boxes to the cell set.

    lo, hi: (m, d) integer corners at scale 2^-K, with side = 2^K cells per
    axis; cells: (n, d) marked cell indices.  Precondition: the boxes are
    equal dyadic cubes, each aligned to its own side s (hi - lo = s in
    every coordinate, lo divisible by s, s a power of two up to side).

    Per axis the gap from a box to cell c is the least gap over the box's
    cells x, max(|x - c| - 1, 0), so a cube's squared distance is the min
    over its cells of the gap field D of _gap_field.  The field is built
    from cells, min-pooled once to side s, and read at lo // s; no
    (box, cell) pair is formed.  Exact int64 arithmetic throughout.  Cost
    O(N C) for the N = side^d cells of the mesh and C = side; memory a few
    integer arrays and masks the size of the mesh, the field among them,
    and one chunk of at most _DIST_ENTRIES integers.
    """
    best = None
    if surround:
        ext = np.minimum(lo, side - hi).min(axis=1)
        best = ext * ext
    if len(cells):
        d = cells.shape[1]
        s = int(hi[0, 0] - lo[0, 0]) if len(lo) else side
        field = _gap_field(cells, side)
        pooled = field.reshape([n for _ in range(d) for n in (side // s, s)])
        pooled = pooled.min(axis=tuple(range(1, 2 * d, 2)))
        d2 = pooled[tuple((lo // s).T)]
        best = d2 if best is None else np.minimum(best, d2)
    if best is None:
        raise ValueError("empty closed set: distances are undefined")
    return best


def whitney(F: CellSet, *, surround: bool = True) -> WhitneyDecomposition:
    """Greedy dyadic Whitney decomposition of the open complement of F.

    Base level: the smallest k such that some level-k cube inside the unit
    cube keeps a distance to F strictly greater than sqrt(d) 2^-k.  From
    there down to the mesh resolution, cubes satisfying the same strict
    margin are accepted in lexicographic order whenever no ancestor was
    accepted before; accepted cubes are pairwise disjoint as open boxes and
    each satisfies diam Q < dist(Q, F) <= 4 diam Q up to one cell width.

    Dyadic cubes nest, so a cube has an accepted ancestor exactly when its
    first finest cell is covered.  Distances come from _scaled_dist2, once
    for the boundary cells and once per level: at most K + 2 calls of
    O(N C) each, for the N cells of the mesh and C = 2^K per axis.  Memory:
    a few integer arrays and boolean masks the size of the mesh, the gap
    field among them, and one chunk of at most _DIST_ENTRIES = 2^17
    integers.

    surround=True treats everything outside the unit cube as part of F,
    which keeps the complement's measure finite; with surround=False an
    empty F is rejected since no base level exists.
    """
    if not F.closed:
        raise ValueError("whitney expects the closed cell set, got an open one")
    d, K = F.d, F.resolution
    side = 2 ** K
    cells = np.argwhere(F.mask).astype(np.int64)
    if not surround and len(cells) == 0:
        raise ValueError("empty closed set: no base level exists")
    w_mask = ~F.mask
    dec = WhitneyDecomposition(resolution=K, d=d, base_level=None)
    if not w_mask.any():
        return dec

    # boundary cells of the complement: within sqrt(d) 2^-K of F
    w_cells = np.argwhere(w_mask).astype(np.int64)
    d2 = _scaled_dist2(w_cells, w_cells + 1, cells, side, surround)
    dec.boundary_cells = int((d2 <= d).sum())

    covered = np.zeros_like(w_mask)
    dists = [dec.cube_dist]
    for k in range(K + 1):
        scale = 2 ** (K - k)
        nus = np.indices((2 ** k,) * d).reshape(d, -1).T.astype(np.int64)
        lo = nus * scale
        d2 = _scaled_dist2(lo, lo + scale, cells, side, surround)
        good = d2 > d * scale * scale  # strict: dist > sqrt(d) 2^-k exactly
        if dec.base_level is None:
            if not good.any():
                continue
            dec.base_level = k
        accepted = good & ~covered[(slice(None, None, scale),) * d].ravel()
        dec.cubes.extend(DyadicCube((k,) * d, nu) for nu in nus[accepted])
        dists.append(np.sqrt(d2[accepted]) / side)
        # a view of the mesh with one (scale,) * d block per level-k cube
        view = covered.reshape([n for _ in range(d) for n in (2 ** k, scale)])
        view |= accepted.reshape((2 ** k, 1) * d)
        if not (w_mask & ~covered).any():
            break

    dec.cube_dist = np.concatenate(dists)
    dec.residual_measure = int((w_mask & ~covered).sum()) * Fraction(1, side ** d)
    return dec


def _cube_average(weights: np.ndarray, values: np.ndarray, sel: tuple[slice, ...]) -> float:
    """Quadrature average of nodal values over the nodes sel of one cube."""
    w = weights[sel]
    return float((w * values[sel]).sum() / w.sum())


@dataclass
class CZSplit:
    """Good/bad splitting of a grid function at a height alpha.

    g agrees with f off the Whitney cubes and equals the cube average of f
    on each of them; every bad block h_r = (f - avg) chi_Q has quadrature
    mean zero, and f = g + sum h_r holds node by node.  Each block holds
    only its values on grid.cube_slices(Q), with mean grid.integrate(h), so
    the disjoint cubes' blocks hold at most one float per node.
    """

    g: GridFunction
    bad_blocks: list[tuple[DyadicCube, np.ndarray]]

    def reconstruct(self) -> GridFunction:
        out = self.g.values.copy()
        for cube, h in self.bad_blocks:
            out[self.g.grid.cube_slices(cube)] += h
        return GridFunction(self.g.grid, out)


def _check_height(alpha: float) -> None:
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def cz_split(f: GridFunction, alpha: float) -> tuple[CellSet, WhitneyDecomposition, CZSplit]:
    """Calderon-Zygmund splitting of f at height alpha.

    F collects the cells where the maximal function stays <= alpha at every
    node; the complement is tiled by Whitney cubes; on each cube f is
    replaced by its average to form g, the remainders become the mean-zero
    bad blocks.  Large alpha gives the degenerate split g = f with no bad
    blocks.  Cells of the complement missed by the truncated cube family
    keep their f values in g, so the splitting identity holds everywhere.
    """
    _check_height(alpha)
    grid = f.grid
    F = sublevel_cellset(maximal_function(f), alpha)
    dec = whitney(F)
    weights = _node_weights(grid)
    g = f.values.copy()
    blocks: list[tuple[DyadicCube, np.ndarray]] = []
    for cube in dec.cubes:
        sel = grid.cube_slices(cube)
        avg = _cube_average(weights, f.values, sel)
        blocks.append((cube, f.values[sel] - avg))
        g[sel] = avg
    return F, dec, CZSplit(GridFunction(grid, g), blocks)


def cz_constants(f: GridFunction, alpha: float) -> dict:
    """Empirical constants of the splitting at one height, for regression baselines.

    Ratios are normalized so the classical statements read bound <= constant:
    weak (1,1) level-set measure, complement measure, sup and squared L_2
    size of the good part, and the largest cube average of |f|.  It reaches
    maximal_function twice, once here and once in cz_split, yet runs one
    sweep: the second call on the same f is a hit of the grid's memo.
    """
    _check_height(alpha)
    Mf = maximal_function(f)
    F, dec, split = cz_split(f, alpha)
    l1 = f.lp_norm(1.0)
    weights = _node_weights(f.grid)
    absf = np.abs(f.values)
    avg_max = 0.0
    for cube in dec.cubes:
        avg_max = max(avg_max, _cube_average(weights, absf, f.grid.cube_slices(cube)))
    return {
        "weak11": level_set_measure(Mf, alpha) * alpha / l1,
        "complement_measure": float(F.complement().measure()) * alpha / l1,
        "good_sup": float(np.max(np.abs(split.g.values))) / alpha,
        "good_l2": split.g.lp_norm(2.0) ** 2 / (alpha * l1),
        "block_average": avg_max / alpha,
        "cube_count": len(dec.cubes),
        "residual": float(dec.residual_measure),
    }
