"""Level and detail orthoprojectors and the multiwavelet analysis/synthesis transform.

Level projections contract each axis with the orthonormal scaling tables of
one dyadic cell. The full transform uses one dense matrix per axis whose
columns are all wavelets of levels 0..K at the axis nodes, built once per
(grid, axis, degree) and cached on the grid: synthesis applies it along
each axis, analysis applies its weighted transpose, and every detail block
is a slice of the coefficient tensor. project_detail forms one detail
projection from level projections by inclusion-exclusion. The dense
per-axis projector matrices that cross-check both routes are test oracles,
not library code.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .basis import detail_cells, detail_dim, scaling_basis_1d, wavelet_basis_1d
from .grid import Grid, GridFunction, _as_tuple
from .indexing import enum_box, enum_cross, support

__all__ = [
    "PiecewisePoly",
    "DetailCoeffs",
    "Decomposition",
    "project_level",
    "project_detail",
    "analyze",
    "analyze_block",
    "synthesize",
    "parseval_gap",
    "apply_axis",
    "save_decomposition",
    "load_decomposition",
]

_CELLS = "abc"
_NODES = "pqr"
_ROOTS = "xyz"


# ---------------------------------------------------------------------------
# cached per-axis building blocks


def _cell_nodes(grid: Grid, axis: int, m: int) -> np.ndarray:
    n = grid.axis_cell_nodes(axis, m)
    return grid.axis_nodes[axis][:n]


def _cell_weights(grid: Grid, axis: int, m: int) -> np.ndarray:
    n = grid.axis_cell_nodes(axis, m)
    return grid.axis_weights[axis][:n]


def _scaling_block(grid: Grid, axis: int, m: int, degree: int) -> np.ndarray:
    """Orthonormal scaling basis of the first level-m cell at its nodes, (n_loc, degree+1)."""
    key = ("scal", axis, m, degree)
    if key not in grid._cache:
        xs = _cell_nodes(grid, axis, m)
        width = 0.5 ** m
        table = np.empty((len(xs), degree + 1))
        for i, fn in enumerate(scaling_basis_1d(degree)):
            table[:, i] = fn(xs / width) / np.sqrt(width)
        grid._cache[key] = table
    return grid._cache[key]


def _wavelet_block(grid: Grid, axis: int, m: int, degree: int) -> np.ndarray:
    """Level-m wavelets living on the first level-(m-1) cell, at its nodes.

    Columns are 2^((m-1)/2) * phi_i(2^(m-1) x); requires m >= 1.
    """
    key = ("wave", axis, m, degree)
    if key not in grid._cache:
        xs = _cell_nodes(grid, axis, m - 1)
        scale = 2.0 ** (m - 1)
        basis = wavelet_basis_1d(degree).functions
        table = np.empty((len(xs), degree + 1))
        for i, fn in enumerate(basis):
            table[:, i] = np.sqrt(scale) * fn(scale * xs)
        grid._cache[key] = table
    return grid._cache[key]


def _axis_synthesis(grid: Grid, axis: int, degree: int) -> np.ndarray:
    """All wavelet functions on the axis as columns, levels 0..K stacked.

    Shape (M, (degree+1)*2^K); columns are orthonormal in the quadrature
    inner product, so analysis is the transpose times the weights.
    """
    key = ("synth", axis, degree)
    if key not in grid._cache:
        cols = [_scaling_block(grid, axis, 0, degree)]
        for m in range(1, grid.level + 1):
            cols.append(np.kron(np.eye(2 ** (m - 1)), _wavelet_block(grid, axis, m, degree)))
        grid._cache[key] = np.hstack(cols)
    return grid._cache[key]


def _axis_analysis(grid: Grid, axis: int, degree: int) -> np.ndarray:
    key = ("anal", axis, degree)
    if key not in grid._cache:
        s = _axis_synthesis(grid, axis, degree)
        grid._cache[key] = s.T * grid.axis_weights[axis]
    return grid._cache[key]


def _block_range(degree: int, m: int) -> slice:
    """Rows of the stacked per-axis transform belonging to level m."""
    r = degree + 1
    if m == 0:
        return slice(0, r)
    return slice(r * 2 ** (m - 1), r * 2 ** m)


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
        grid = self.grid
        d = grid.d
        tables = [
            _scaling_block(grid, j, self.level[j], self.degrees[j]).T for j in range(d)
        ]
        in_sub = "".join(_CELLS[:d]) + "".join(_ROOTS[:d])
        ops = ",".join(r + n for r, n in zip(_ROOTS[:d], _NODES[:d]))
        out = "".join(c + n for c, n in zip(_CELLS[:d], _NODES[:d]))
        values = np.einsum(f"{in_sub},{ops}->{out}", self.coeffs, *tables, optimize=True)
        return GridFunction(grid, values.reshape(grid.shape))


def _check_levels(grid: Grid, kappa, name: str = "kappa") -> tuple[int, ...]:
    kappa = _as_tuple(kappa, grid.d, name)
    if any(k < 0 for k in kappa):
        raise ValueError(f"{name} must be >= 0, got {kappa}")
    if any(k > grid.level for k in kappa):
        raise ValueError(
            f"{name} {kappa} exceeds the grid resolution {grid.level}"
        )
    return kappa


def _interleaved(grid: Grid, values: np.ndarray, kappa: tuple[int, ...]) -> np.ndarray:
    """Reshape node values to (cells_1, in-cell_1, ..., cells_d, in-cell_d)."""
    shape = []
    for j, k in enumerate(kappa):
        shape.extend((2 ** k, grid.axis_cell_nodes(j, k)))
    return values.reshape(shape)


def project_level(f: GridFunction, kappa, degrees) -> PiecewisePoly:
    """Cellwise L2 projection onto tensor polynomials over the level-kappa partition."""
    grid = f.grid
    d = grid.d
    kappa = _check_levels(grid, kappa)
    degs = _as_tuple(degrees, d, "degrees")
    if any(l < 0 for l in degs):
        raise ValueError(f"degrees must be >= 0, got {degs}")
    tables = []
    for j in range(d):
        b = _scaling_block(grid, j, kappa[j], degs[j])
        w = _cell_weights(grid, j, kappa[j])
        tables.append((b * w[:, None]).T)  # (degree+1, n_loc)
    v = _interleaved(grid, f.values, kappa)
    in_sub = "".join(c + n for c, n in zip(_CELLS[:d], _NODES[:d]))
    ops = ",".join(r + n for r, n in zip(_ROOTS[:d], _NODES[:d]))
    out = "".join(_CELLS[:d]) + "".join(_ROOTS[:d])
    coeffs = np.einsum(f"{in_sub},{ops}->{out}", v, *tables, optimize=True)
    return PiecewisePoly(grid=grid, level=kappa, degrees=degs, coeffs=coeffs)


def project_detail(f: GridFunction, kappa, degrees) -> GridFunction:
    """Detail projector at multi-level kappa by inclusion-exclusion of level projectors.

    Sums (-1)^|eps| E_(kappa-eps) over all 0/1 vectors eps supported where
    kappa is nonzero; agrees with the wavelet route to roundoff.
    """
    grid = f.grid
    kappa = _check_levels(grid, kappa)
    axes = sorted(support(kappa))
    acc = np.zeros(grid.shape)
    for bits in range(2 ** len(axes)):
        eps = [0] * grid.d
        for t, j in enumerate(axes):
            eps[j] = (bits >> t) & 1
        sign = -1.0 if sum(eps) % 2 else 1.0
        shifted = tuple(k - e for k, e in zip(kappa, eps))
        acc += sign * project_level(f, shifted, degrees).to_grid().values
    return GridFunction(grid, acc)


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
    """A set of detail blocks of one function, keyed by multi-level."""

    grid: Grid
    degrees: tuple[int, ...]
    index_set: tuple
    blocks: dict[tuple[int, ...], DetailCoeffs] = field(default_factory=dict)

    def block_norms(self) -> dict[tuple[int, ...], float]:
        return {k: b.l2_norm() for k, b in self.blocks.items()}

    def total_l2(self) -> float:
        return float(np.sqrt(sum(b.l2_norm() ** 2 for b in self.blocks.values())))


def resolve_index_set(index_set, d: int) -> tuple[tuple, list[tuple[int, ...]]]:
    """Normalize an index-set argument to (descriptor, list of multi-levels).

    Accepts a box corner (tuple of ints), ("box", corner), ("cross", beta, r),
    or an explicit iterable of multi-levels.
    """
    if isinstance(index_set, tuple) and len(index_set) >= 2 and index_set[0] == "box":
        corner = _as_tuple(index_set[1], d, "box corner")
        return ("box", corner), enum_box(corner)
    if isinstance(index_set, tuple) and len(index_set) == 3 and index_set[0] == "cross":
        beta = tuple(float(b) for b in index_set[1])
        if len(beta) != d:
            raise ValueError(f"cross weights must have length {d}, got {beta}")
        r = float(index_set[2])
        return ("cross", beta, r), enum_cross(beta, r)
    if isinstance(index_set, (tuple, list)) and index_set and all(
        isinstance(v, (int, np.integer)) for v in index_set
    ):
        corner = _as_tuple(index_set, d, "box corner")
        return ("box", corner), enum_box(corner)
    kappas = [tuple(int(v) for v in k) for k in index_set]
    if len(set(kappas)) != len(kappas):
        raise ValueError("index set contains duplicate multi-levels")
    for k in kappas:
        if len(k) != d:
            raise ValueError(f"multi-level {k} does not have length {d}")
    return ("custom", tuple(sorted(kappas))), kappas


def _full_coeffs(f: GridFunction, degrees: tuple[int, ...]) -> np.ndarray:
    out = f.values
    for j in range(f.grid.d):
        mat = _axis_analysis(f.grid, j, degrees[j])
        out = np.moveaxis(np.tensordot(mat, out, axes=([1], [j])), 0, j)
    return out


def _extract_block(full: np.ndarray, kappa, degrees) -> np.ndarray:
    d = len(kappa)
    sub = full[tuple(_block_range(degrees[j], kappa[j]) for j in range(d))]
    cells = detail_cells(kappa)
    inter = []
    for j in range(d):
        inter.extend((cells[j], degrees[j] + 1))
    sub = sub.reshape(inter)
    order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    sub = np.transpose(sub, order)
    return np.ascontiguousarray(sub.reshape(cells + (-1,)))


def _insert_block(full: np.ndarray, block: DetailCoeffs) -> None:
    d = len(block.kappa)
    cells = block.cells_shape
    roots = tuple(l + 1 for l in block.degrees)
    sub = block.coeffs.reshape(cells + roots)
    order = [None] * (2 * d)
    for j in range(d):
        order[2 * j] = j
        order[2 * j + 1] = d + j
    sub = np.transpose(sub, order)
    sub = sub.reshape(tuple(c * r for c, r in zip(cells, roots)))
    slices = tuple(_block_range(block.degrees[j], block.kappa[j]) for j in range(d))
    full[slices] += sub


def analyze(f: GridFunction, index_set, degrees) -> Decomposition:
    """Orthonormal detail coefficients of f on every block of the index set."""
    grid = f.grid
    d = grid.d
    degs = _as_tuple(degrees, d, "degrees")
    descriptor, kappas = resolve_index_set(index_set, d)
    for k in kappas:
        _check_levels(grid, k)
    full = _full_coeffs(f, degs)
    blocks = {}
    for k in kappas:
        blocks[k] = DetailCoeffs(kappa=k, degrees=degs, coeffs=_extract_block(full, k, degs))
    return Decomposition(grid=grid, degrees=degs, index_set=descriptor, blocks=blocks)


def analyze_block(f: GridFunction, kappa, degrees) -> DetailCoeffs:
    """Coefficients of a single detail block."""
    kappa = _check_levels(f.grid, kappa)
    return analyze(f, [kappa], degrees).blocks[kappa]


def synthesize(dec: Decomposition) -> GridFunction:
    """Sum of the basis expansions of all blocks of a decomposition."""
    grid = dec.grid
    d = grid.d
    shape = tuple((dec.degrees[j] + 1) * 2 ** grid.level for j in range(d))
    full = np.zeros(shape)
    for block in dec.blocks.values():
        _insert_block(full, block)
    out = full
    for j in range(d):
        mat = _axis_synthesis(grid, j, dec.degrees[j])
        out = np.moveaxis(np.tensordot(mat, out, axes=([1], [j])), 0, j)
    return GridFunction(grid, out)


def parseval_gap(f: GridFunction, k, degrees) -> float:
    """|squared L2 norm of the level-k projection minus the sum of block energies|."""
    grid = f.grid
    k = _check_levels(grid, k, "k")
    degs = _as_tuple(degrees, grid.d, "degrees")
    lhs = project_level(f, k, degs).l2_norm() ** 2
    rhs = sum(
        b.l2_norm() ** 2 for b in analyze(f, ("box", k), degs).blocks.values()
    )
    return abs(lhs - rhs)


def apply_axis(op_1d, axis: int, f: GridFunction) -> GridFunction:
    """Apply a 1D linear operator along one axis for all other coordinates fixed.

    op_1d is either an (M, M) matrix on the axis nodes or a callable mapping
    an (M, anything) array to an array of the same shape.
    """
    grid = f.grid
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} outside 0..{grid.d - 1}")
    if callable(op_1d):
        moved = np.moveaxis(f.values, axis, 0)
        flat = moved.reshape(moved.shape[0], -1)
        res = np.asarray(op_1d(flat), dtype=float)
        if res.shape != flat.shape:
            raise ValueError("axis operator changed the sample shape")
        return GridFunction(grid, np.moveaxis(res.reshape(moved.shape), 0, axis))
    mat = np.asarray(op_1d, dtype=float)
    n = f.values.shape[axis]
    if mat.shape != (n, n):
        raise ValueError(f"axis operator must be {(n, n)}, got {mat.shape}")
    return GridFunction(
        grid, np.moveaxis(np.tensordot(mat, f.values, axes=([1], [axis])), 0, axis)
    )


# ---------------------------------------------------------------------------
# serialization: flat (kappa, cell, index, value) records, exact round trip


def save_decomposition(dec: Decomposition, path) -> None:
    """Write a decomposition as a self-describing text record stream.

    One coefficient per line as hex floats, so load() reproduces every bit.
    """
    buf = io.StringIO()
    buf.write("polymra-decomposition 1\n")
    buf.write(
        "grid %d %d %s\n"
        % (dec.grid.d, dec.grid.level, ",".join(map(str, dec.grid.nodes_per_cell)))
    )
    buf.write("degrees %s\n" % ",".join(map(str, dec.degrees)))
    kind = dec.index_set[0]
    if kind == "box":
        buf.write("index box %s\n" % ",".join(map(str, dec.index_set[1])))
    elif kind == "cross":
        beta = ",".join(repr(b) for b in dec.index_set[1])
        buf.write("index cross %s %s\n" % (repr(dec.index_set[2]), beta))
    else:
        buf.write("index custom\n")
    for kappa in sorted(dec.blocks):
        block = dec.blocks[kappa]
        kap = ",".join(map(str, kappa))
        flat = block.coeffs.reshape(-1, block.coeffs.shape[-1])
        for cell_flat, row in enumerate(flat):
            rho = np.unravel_index(cell_flat, block.cells_shape) if block.cells_shape else ()
            rho_s = ",".join(map(str, rho))
            for i, value in enumerate(row):
                buf.write(f"c {kap} {rho_s} {i} {float(value).hex()}\n")
    data = buf.getvalue()
    if hasattr(path, "write"):
        path.write(data)
    else:
        with open(path, "w") as fh:
            fh.write(data)


def load_decomposition(path) -> Decomposition:
    if hasattr(path, "read"):
        lines = path.read().splitlines()
    else:
        with open(path) as fh:
            lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "polymra-decomposition 1":
        raise ValueError("not a decomposition record stream")
    header = {}
    body_start = 1
    for line in lines[1:]:
        parts = line.split()
        if parts and parts[0] == "c":
            break
        body_start += 1
        if parts:
            header[parts[0]] = parts[1:]
    missing = [key for key in ("grid", "degrees", "index") if not header.get(key)]
    if missing:
        raise ValueError(f"decomposition header lacks {', '.join(missing)}")
    d, level, nodes = header["grid"]
    grid = Grid(int(d), int(level), tuple(int(v) for v in nodes.split(",")))
    degrees = _as_tuple(header["degrees"][0].split(","), grid.d, "degrees")
    idx = header["index"]
    if idx[0] == "box":
        descriptor = ("box", tuple(int(v) for v in idx[1].split(",")))
    elif idx[0] == "cross":
        descriptor = (
            "cross",
            tuple(float(v) for v in idx[2].split(",")),
            float(idx[1]),
        )
    else:
        descriptor = None  # rebuilt from the blocks below
    root = detail_dim((0,) * grid.d, degrees)  # basis functions per cell
    coeffs: dict[tuple[int, ...], np.ndarray] = {}
    seen = set()
    for line in lines[body_start:]:
        if not line.strip():
            continue
        _, kap, rho_s, i_s, val = line.split()
        kappa = _check_levels(grid, kap.split(","))
        cells = detail_cells(kappa)
        rho = _as_tuple(rho_s.split(","), grid.d, "cell")
        i = int(i_s)
        if not all(0 <= v < c for v, c in zip(rho, cells)):
            raise ValueError(f"cell {rho} outside the {cells} cells of block {kappa}")
        if not 0 <= i < root:
            raise ValueError(f"basis index {i} outside 0..{root - 1}")
        if (kappa, rho, i) in seen:
            raise ValueError(f"duplicate record for block {kappa}, cell {rho}, index {i}")
        seen.add((kappa, rho, i))
        if kappa not in coeffs:
            coeffs[kappa] = np.zeros(cells + (root,))
        coeffs[kappa][rho + (i,)] = float.fromhex(val)
    blocks = {
        kappa: DetailCoeffs(kappa=kappa, degrees=degrees, coeffs=c) for kappa, c in coeffs.items()
    }
    if descriptor is None:
        descriptor = ("custom", tuple(sorted(blocks)))
    return Decomposition(grid=grid, degrees=degrees, index_set=descriptor, blocks=blocks)
