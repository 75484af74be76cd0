"""Level and detail orthoprojectors and the multiwavelet analysis/synthesis transform.

Level projections contract each axis with the orthonormal Legendre table of
one dyadic cell. The full transform is separable and runs as a two-scale
filter bank (Alpert's multiwavelet pyramid): analysis projects every finest
cell onto its Legendre coefficients, the level-K projection, then along
each axis K times merges each pair of sibling cells with the orthogonal
matrix [H | G] of basis, keeping the parent's scaling coefficients for the
next step and writing out its wavelet coefficients. Synthesis runs the
transposed steps from level 0 up to level K and evaluates the finest
cells. Every step applies one small matrix to runs of consecutive entries
along one axis, so an axis of M nodes costs O(M (l+1)) time and memory.
Every detail block is a slice of the coefficient tensor, laid out as
_block_range says. One block on its own needs no pyramid: it is a tensor
product of one-cell wavelet tables (_wavelet_table), so _detail_values
evaluates it with d axis products, one per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import _two_scale_matrix, detail_cells
from .grid import Grid, GridFunction, _as_tuple
from .indexing import enum_box
from .quadrature import interval_basis_table

__all__ = [
    "PiecewisePoly",
    "DetailCoeffs",
    "Decomposition",
    "project_level",
    "analyze",
    "synthesize",
    "parseval_gap",
]

# ---------------------------------------------------------------------------
# per-axis building blocks


def _scaling_block(grid: Grid, axis: int, m: int, degree: int) -> np.ndarray:
    """Orthonormal scaling basis of the first level-m cell at its nodes, (n_loc, degree+1).

    Built once per grid and kept in grid.basis_tables; the table is
    read-only, since every later call returns the same array.
    """
    key = (axis, m, degree)
    table = grid.basis_tables.get(key)
    if table is None:
        xs = grid.axis_nodes[axis][: grid.axis_cell_nodes(axis, m)]
        table = interval_basis_table(degree, xs, 0.0, 0.5 ** m).T
        table.flags.writeable = False
        grid.basis_tables[key] = table
    return table


def _block_range(degree: int, m: int) -> slice:
    """Rows of the stacked per-axis transform belonging to level m.

    Level 0 holds the degree+1 scaling coefficients of the unit interval;
    level m >= 1 holds the wavelets of the 2^(m-1) level-(m-1) cells,
    cell-major with the wavelet degree minor.
    """
    r = degree + 1
    if m == 0:
        return slice(0, r)
    return slice(r * 2 ** (m - 1), r * 2 ** m)


def _axis_product(mat: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """mat (a, b) applied to every run of b consecutive entries along one axis of x.

    The axis length L becomes L a / b; every other axis is untouched.
    """
    b = mat.shape[1]
    shape = x.shape
    post = math.prod(shape[axis + 1 :])
    if post == 1:  # one tall product instead of a batch of one-column ones
        y = x.reshape(-1, b) @ mat.T
    else:
        y = mat @ x.reshape(-1, b, post)
    return y.reshape(shape[:axis] + (-1,) + shape[axis + 1 :])


def _cell_coeffs(grid: Grid, values: np.ndarray, kappa, degrees) -> np.ndarray:
    """Legendre coefficients of every level-kappa cell; axis j runs cell-major, degree minor."""
    for j in range(grid.d):
        ws = grid.axis_weights[j][: grid.axis_cell_nodes(j, kappa[j])]
        table = _scaling_block(grid, j, kappa[j], degrees[j]) * ws[:, None]
        values = _axis_product(table.T, values, j)
    return values


def _cell_values(grid: Grid, coeffs: np.ndarray, kappa, degrees) -> np.ndarray:
    """Node values of the cellwise polynomials with the _cell_coeffs layout."""
    for j in range(grid.d):
        coeffs = _axis_product(_scaling_block(grid, j, kappa[j], degrees[j]), coeffs, j)
    return coeffs


def _wavelet_table(grid: Grid, axis: int, m: int, degree: int) -> np.ndarray:
    """Level-m detail basis of one axis at the nodes of its first cell, (n_loc, degree+1).

    Level 0 is the scaling basis of the unit interval. Level m >= 1 holds the
    wavelets of the first level-(m-1) cell: on each of its two level-m halves,
    the half's Legendre polynomials with the coefficients of G, the wavelet
    half of the two-scale matrix. Kept in grid.basis_tables under ("wavelet",
    axis, m, degree) and read-only, as _scaling_block keeps its tables.
    """
    key = ("wavelet", axis, m, degree)
    table = grid.basis_tables.get(key)
    if table is None:
        table = _scaling_block(grid, axis, m, degree)
        if m > 0:
            r = degree + 1
            g = _two_scale_matrix(degree)[:, r:]
            table = np.vstack([table @ g[:r], table @ g[r:]])
            table.flags.writeable = False
        grid.basis_tables[key] = table
    return table


def _block_values(grid: Grid, coeffs: np.ndarray, kappa, degrees) -> np.ndarray:
    """Node values of block kappa from its rows of the coefficient tensor (_block_slices).

    One _axis_product per axis, no pyramid.
    """
    for j, (m, l) in enumerate(zip(kappa, degrees)):
        coeffs = _axis_product(_wavelet_table(grid, j, m, l), coeffs, j)
    return coeffs


def _detail_values(grid: Grid, block: DetailCoeffs) -> np.ndarray:
    """Node values of one detail block."""
    roots = tuple(l + 1 for l in block.degrees)
    coeffs = _join_cells(block.coeffs, block.cells_shape, roots)
    return _block_values(grid, coeffs, block.kappa, block.degrees)


def _split_cells(x: np.ndarray, cells, roots) -> np.ndarray:
    """(cells_1 roots_1, ..., cells_d roots_d) cell-major axes to (cells..., roots...)."""
    d = len(cells)
    inter = [v for pair in zip(cells, roots) for v in pair]
    order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    return x.reshape(inter).transpose(order)


def _join_cells(x: np.ndarray, cells, roots) -> np.ndarray:
    """Inverse of _split_cells."""
    d = len(cells)
    order = [v for j in range(d) for v in (j, d + j)]
    joined = x.reshape(tuple(cells) + tuple(roots)).transpose(order)
    return joined.reshape(tuple(c * r for c, r in zip(cells, roots)))


def _analyze_axis(coeffs: np.ndarray, axis: int, bank: np.ndarray, K: int) -> np.ndarray:
    """K two-scale steps along one axis: level-K scaling coefficients in, _block_range out.

    bank is the axis's two-scale matrix [H | G]; each step maps a pair of
    sibling cells to the parent's scaling and wavelet coefficients.
    """
    r = bank.shape[1] // 2
    shape = coeffs.shape
    pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
    out = np.empty((pre, shape[axis], post))
    s = coeffs.reshape(pre, -1, post)
    for m in range(K, 0, -1):
        merged = _axis_product(bank.T, s, 1).reshape(pre, 2 ** (m - 1), 2 * r, post)
        out[:, _block_range(r - 1, m)] = merged[:, :, r:].reshape(pre, -1, post)
        s = merged[:, :, :r].reshape(pre, -1, post)
    out[:, _block_range(r - 1, 0)] = s
    return out.reshape(shape)


def _synthesize_axis(coeffs: np.ndarray, axis: int, bank: np.ndarray, K: int) -> np.ndarray:
    """Inverse of _analyze_axis: the level-K scaling coefficients from the stacked ones."""
    r = bank.shape[1] // 2
    shape = coeffs.shape
    pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
    flat = coeffs.reshape(pre, -1, post)
    s = flat[:, _block_range(r - 1, 0)]
    for m in range(1, K + 1):
        detail = flat[:, _block_range(r - 1, m)].reshape(pre, 2 ** (m - 1), r, post)
        pairs = np.concatenate([s.reshape(detail.shape), detail], axis=2)
        s = _axis_product(bank, pairs.reshape(pre, -1, post), 1)
    return s.reshape(shape)


# ---------------------------------------------------------------------------
# piecewise polynomials (level projections)


@dataclass(frozen=True)
class PiecewisePoly:
    """Tensor polynomial on every cell of one dyadic level of the grid.

    coeffs has shape (2^k_1, ..., 2^k_d, l_1+1, ..., l_d+1): cell position
    first, then the orthonormal-on-cell Legendre coefficient block.
    """

    grid: Grid
    level: tuple[int, ...]
    degrees: tuple[int, ...]
    coeffs: np.ndarray

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def to_grid(self) -> GridFunction:
        cells = tuple(2 ** k for k in self.level)
        roots = tuple(l + 1 for l in self.degrees)
        coeffs = _join_cells(self.coeffs, cells, roots)
        return GridFunction(self.grid, _cell_values(self.grid, coeffs, self.level, self.degrees))


def _check_levels(grid: Grid, kappa, name: str = "kappa") -> tuple[int, ...]:
    kappa = _as_tuple(kappa, grid.d, name)
    if any(k > grid.level for k in kappa):
        raise ValueError(
            f"{name} {kappa} exceeds the grid resolution {grid.level}"
        )
    return kappa


def project_level(f: GridFunction, kappa, degrees) -> PiecewisePoly:
    """Cellwise L2 projection onto tensor polynomials over the level-kappa partition."""
    grid = f.grid
    kappa = _check_levels(grid, kappa)
    degs = _as_tuple(degrees, grid.d, "degrees")
    coeffs = _cell_coeffs(grid, f.values, kappa, degs)
    cells = tuple(2 ** k for k in kappa)
    coeffs = _split_cells(coeffs, cells, tuple(l + 1 for l in degs))
    return PiecewisePoly(grid=grid, level=kappa, degrees=degs, coeffs=coeffs)


# ---------------------------------------------------------------------------
# full transform


@dataclass(frozen=True)
class DetailCoeffs:
    """Orthonormal wavelet coefficients of one detail block.

    coeffs has shape (cells_1, ..., cells_d, R) with cells_j = 2^max(kappa_j-1,0)
    and R = prod(l_j+1); the last axis is the within-cell basis index, row-major
    over the per-axis wavelet degrees.
    """

    kappa: tuple[int, ...]
    degrees: tuple[int, ...]
    coeffs: np.ndarray

    @property
    def cells_shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[:-1]

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class Decomposition:
    """Detail blocks of one function, keyed by multi-level.

    analyze fills every block kappa <= k of a box in enum_box order; a
    caller may build one from any subset of blocks (a truncation, a single
    block) and synthesize it.
    """

    grid: Grid
    degrees: tuple[int, ...]
    blocks: dict[tuple[int, ...], DetailCoeffs] = field(default_factory=dict)


def _full_coeffs(f: GridFunction, degrees: tuple[int, ...]) -> np.ndarray:
    K = f.grid.level
    out = _cell_coeffs(f.grid, f.values, (K,) * f.grid.d, degrees)
    for j, l in enumerate(degrees):
        out = _analyze_axis(out, j, _two_scale_matrix(l), K)
    return out


def _block_slices(kappa, degrees) -> tuple[slice, ...]:
    """Rows of the coefficient tensor holding block kappa, one _block_range per axis."""
    return tuple(_block_range(l, m) for l, m in zip(degrees, kappa))


def _box_slices(k, degrees) -> tuple[slice, ...]:
    """Rows of the coefficient tensor holding the blocks kappa <= k: a prefix per axis."""
    return tuple(slice(0, _block_range(l, kj).stop) for l, kj in zip(degrees, k))


def _extract_block(full: np.ndarray, kappa, degrees) -> np.ndarray:
    sub = full[_block_slices(kappa, degrees)]
    cells = detail_cells(kappa)
    sub = _split_cells(sub, cells, tuple(l + 1 for l in degrees))
    return np.ascontiguousarray(sub.reshape(cells + (-1,)))


def _insert_block(full: np.ndarray, block: DetailCoeffs) -> None:
    roots = tuple(l + 1 for l in block.degrees)
    full[_block_slices(block.kappa, block.degrees)] += _join_cells(
        block.coeffs, block.cells_shape, roots)


def analyze(f: GridFunction, k, degrees) -> Decomposition:
    """Orthonormal detail coefficients of f on every block kappa <= k, in enum_box order.

    k is the box corner: an int for every axis or one level per axis.
    """
    grid = f.grid
    k = _check_levels(grid, k, "k")
    degs = _as_tuple(degrees, grid.d, "degrees")
    full = _full_coeffs(f, degs)
    blocks = {}
    for kappa in enum_box(k):
        blocks[kappa] = DetailCoeffs(kappa=kappa, degrees=degs,
                                     coeffs=_extract_block(full, kappa, degs))
    return Decomposition(grid=grid, degrees=degs, blocks=blocks)


def _pyramid(grid: Grid, full: np.ndarray, degrees) -> np.ndarray:
    """Node values of a coefficient tensor in the _full_coeffs layout: the synthesis pyramid."""
    for j, l in enumerate(degrees):
        full = _synthesize_axis(full, j, _two_scale_matrix(l), grid.level)
    return _cell_values(grid, full, (grid.level,) * grid.d, degrees)


def synthesize(dec: Decomposition) -> GridFunction:
    """Sum of the basis expansions of all blocks of a decomposition."""
    grid = dec.grid
    shape = tuple((l + 1) * 2 ** grid.level for l in dec.degrees)
    full = np.zeros(shape)
    for block in dec.blocks.values():
        _insert_block(full, block)
    return GridFunction(grid, _pyramid(grid, full, dec.degrees))


def parseval_gap(f: GridFunction, k, degrees) -> float:
    """|squared L2 norm of the level-k projection minus the sum of block energies|."""
    grid = f.grid
    k = _check_levels(grid, k, "k")
    degs = _as_tuple(degrees, grid.d, "degrees")
    lhs = project_level(f, k, degs).l2_norm() ** 2
    rhs = sum(b.l2_norm() ** 2 for b in analyze(f, k, degs).blocks.values())
    return abs(lhs - rhs)
