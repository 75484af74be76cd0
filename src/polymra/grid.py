"""Sample grids and grid functions on the unit cube.

A Grid places a tensor Gauss rule on every cell of the finest dyadic
partition; a GridFunction is the package's universal numeric stand-in for an
element of L_p: its values at all grid nodes. Every integral is a weighted
sum, reproducible bit for bit, and exact for piecewise polynomials up to the
quadrature degree on cells aligned with the partition.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

from .quadrature import _as_int, gauss_rule

__all__ = [
    "Grid",
    "GridFunction",
    "box_lp_norm",
    "grid_for",
    "lp_norm",
]

# default finest dyadic level per dimension; memory grows like 2^(K d)
_DEFAULT_LEVEL = {1: 6, 2: 6, 3: 4}


def _as_tuple(value, d: int, name: str) -> tuple[int, ...]:
    """A nonnegative int for every axis, or one per axis; anything else raises ValueError."""
    try:
        if np.isscalar(value):
            out = (operator.index(value),) * d
        else:
            out = tuple(operator.index(v) for v in value)
    except TypeError:
        raise ValueError(f"{name} must be an integer or {d} integers, got {value!r}") from None
    if len(out) != d:
        raise ValueError(f"{name} must have length {d}, got {out}")
    if any(v < 0 for v in out):
        raise ValueError(f"{name} must be >= 0, got {out}")
    return out


def _as_vector(value, name: str) -> tuple[int, ...]:
    """_as_tuple for an argument whose length sets the dimension: a scalar raises ValueError."""
    try:
        d = len(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {value!r}") from None
    return _as_tuple(value, d, name)


class Grid:
    """Tensor Gauss grid over the level-K dyadic partition of the unit cube."""

    # basis_tables: per-grid memos kept by their builders: per-axis tables
    # built from the nodes (projectors._scaling_block keys them (axis, level,
    # degree), projectors._wavelet_table ("wavelet", axis, level, degree))
    # and the last maximal-function sweep (czd.maximal_function keys it
    # "maximal_function")
    __slots__ = ("d", "level", "nodes_per_cell", "axis_nodes", "axis_weights", "basis_tables")

    def __init__(self, d: int, level: int, nodes_per_cell):
        d = _as_int(d, "dimension")
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        level = _as_int(level, "finest level")
        if level < 0:
            raise ValueError(f"finest level must be >= 0, got {level}")
        self.d = d
        self.level = level
        self.nodes_per_cell = _as_tuple(nodes_per_cell, d, "nodes_per_cell")
        nodes = []
        weights = []
        cells = 2 ** level
        for n in self.nodes_per_cell:
            g, w = gauss_rule(n)
            offsets = np.arange(cells)[:, None]
            nodes.append(((offsets + g[None, :]) / cells).ravel())
            weights.append(np.tile(w / cells, cells))
        self.axis_nodes = tuple(nodes)
        self.axis_weights = tuple(weights)
        self.basis_tables = {}

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.axis_nodes)

    @property
    def cells_per_axis(self) -> int:
        return 2 ** self.level

    def axis_cell_nodes(self, axis: int, m: int) -> int:
        """Number of grid nodes inside one level-m cell along the axis."""
        if not 0 <= m <= self.level:
            raise ValueError(f"level {m} outside grid resolution 0..{self.level}")
        return (2 ** (self.level - m)) * self.nodes_per_cell[axis]

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.shape))

    def function(self, values) -> "GridFunction":
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.shape}")
        return GridFunction(self, values)

    def sample(self, fn: Callable) -> "GridFunction":
        """Evaluate fn(x_1, ..., x_d) at every grid node (vectorized)."""
        mesh = np.meshgrid(*self.axis_nodes, indexing="ij", sparse=True)
        values = np.broadcast_to(np.asarray(fn(*mesh), dtype=float), self.shape)
        return GridFunction(self, np.array(values, dtype=float))

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature integral of nodal values on the grid or on a box of whole cells.

        A shorter axis holds a whole-cell run of nodes of a function that
        vanishes off it; the axis weights repeat cell by cell, so their
        leading entries integrate the run wherever it sits.
        """
        out = np.asarray(values, dtype=float)
        for w in reversed(self.axis_weights):
            n = out.shape[-1]
            out = np.dot(out.reshape(-1, n), w[:n]).reshape(out.shape[:-1])
        return float(out)

    def cube_slices(self, cube) -> tuple[slice, ...]:
        """Index ranges of the nodes lying inside a dyadic cube of the unit cube."""
        if len(cube.level) != self.d:
            raise ValueError(f"cube dimension {len(cube.level)} does not match grid d={self.d}")
        slices = []
        for j, (m, pos) in enumerate(zip(cube.level, cube.pos)):
            if m > self.level:
                raise ValueError(
                    f"cube level {m} on axis {j} exceeds grid resolution {self.level}"
                )
            if not 0 <= pos < 2 ** m:
                raise ValueError(f"cube position {pos} outside the unit cube at level {m}")
            span = self.axis_cell_nodes(j, m)
            slices.append(slice(pos * span, (pos + 1) * span))
        return tuple(slices)


def grid_for(d: int, degree=0, level: int | None = None, nodes_per_cell=None) -> Grid:
    """Grid sized for work at the given per-axis polynomial degree.

    Nodes per cell default to 2*degree+2 per axis (exact products of two
    basis polynomials, plus headroom for non-polynomial inputs); an explicit
    nodes_per_cell only ever raises the count.
    """
    d = _as_int(d, "dimension")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    degs = _as_tuple(degree, d, "degree")
    if level is None:
        level = _DEFAULT_LEVEL.get(d, 4)
    base = tuple(2 * l + 2 for l in degs)
    if nodes_per_cell is None:
        nodes = base
    else:
        asked = _as_tuple(nodes_per_cell, d, "nodes_per_cell")
        nodes = tuple(max(b, a) for b, a in zip(base, asked))
    return Grid(d, level, nodes)


class GridFunction:
    """Values of a function at every node of a Grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        self.values = values

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def _check_same_grid(self, other: "GridFunction") -> None:
        if other.grid is not self.grid and other.grid.shape != self.grid.shape:
            raise ValueError("grid functions live on different grids")

    def integral(self) -> float:
        return self.grid.integrate(self.values)

    def inner(self, other: "GridFunction") -> float:
        self._check_same_grid(other)
        return self.grid.integrate(self.values * other.values)

    def lp_norm(self, p: float) -> float:
        return lp_norm(self, p)


def lp_norm(f: GridFunction, p: float) -> float:
    """Quadrature L_p norm on the unit cube; p = inf gives the grid sup (diagnostic only)."""
    return box_lp_norm(f.grid, np.abs(f.values), p)


def _lp_norms(grid: Grid, values: np.ndarray, ps) -> list[float]:
    """Quadrature L_p norm of values at every p of ps, all read from one |values|.

    values is overwritten with |values|, so besides it only one grid-sized
    array is alive at a time: a copy of it for each p but the last, which
    takes values itself. Each norm has the bits of lp_norm.
    """
    magnitudes = np.abs(values, out=values)
    *head, last = ps
    norms = [box_lp_norm(grid, magnitudes.copy(), p) for p in head]
    norms.append(box_lp_norm(grid, magnitudes, last))
    return norms


def box_lp_norm(grid: Grid, magnitudes: np.ndarray, p: float) -> float:
    """Quadrature L_p norm of f from |f| on the grid or on a box of whole cells.

    Off the box f vanishes (see Grid.integrate); magnitudes is overwritten.
    At p = 2 the values are squared with one multiply, which has the bits of
    |f| * |f| and of |f| ** 2, so there the sign does not matter and f
    itself may be passed.
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == np.inf:
        return float(np.max(magnitudes))
    if p == 2.0:
        np.multiply(magnitudes, magnitudes, out=magnitudes)
    else:
        magnitudes **= p
    return grid.integrate(magnitudes) ** (1.0 / p)

