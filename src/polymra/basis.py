"""Orthonormal bases of the detail spaces of the dyadic refinement.

One refinement step in 1D doubles the piecewise-polynomial space; the new
orthogonal complement has dimension degree+1 and is spanned by wavelet-like
functions, each a pair of polynomials on (0,1/2) and (1/2,1) with vanishing
moments up to the degree. Tensor products with either wavelet or scaling
factors per axis give the multivariate detail bases; detail_cells and
detail_dim fix the layout of their coefficient blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import gauss_rule, interval_basis_table, legendre_eval, legendre_table

__all__ = [
    "ScalingPoly",
    "HalfCellPoly",
    "WaveletBasis1D",
    "scaling_basis_1d",
    "wavelet_basis_1d",
    "detail_cells",
    "detail_dim",
]


@dataclass(frozen=True)
class ScalingPoly:
    """Orthonormal shifted Legendre polynomial on (0,1)."""

    degree: int

    def __call__(self, x):
        return legendre_eval(self.degree, x)


@dataclass(frozen=True)
class HalfCellPoly:
    """Piecewise polynomial on (0,1): one polynomial per half interval.

    Coefficients are in the orthonormal Legendre bases of (0,1/2) and
    (1/2,1), so the squared L2(0,1) norm is the plain coefficient sum.
    """

    left: tuple[float, ...]
    right: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.left) - 1

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        l = self.degree
        left_table = interval_basis_table(l, x, 0.0, 0.5)
        right_table = interval_basis_table(l, x, 0.5, 0.5)
        on_left = x < 0.5
        vals_left = np.tensordot(np.asarray(self.left), left_table, axes=([0], [0]))
        vals_right = np.tensordot(np.asarray(self.right), right_table, axes=([0], [0]))
        return np.where(on_left, vals_left, vals_right)


def scaling_basis_1d(degree: int) -> list[ScalingPoly]:
    """Orthonormal basis of the degree-l polynomials on (0,1)."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return [ScalingPoly(k) for k in range(degree + 1)]


def _embedding_matrix(degree: int) -> np.ndarray:
    """Global Legendre basis written in the combined half-interval coordinates.

    Columns are orthonormal; shape (2*(degree+1), degree+1).
    """
    l = degree
    g, w = gauss_rule(l + 2)  # exact for products of degree <= 2l+3
    blocks = []
    for lo in (0.0, 0.5):
        xs = lo + 0.5 * g
        ws = 0.5 * w
        half = interval_basis_table(l, xs, lo, 0.5)
        full = legendre_table(l, xs)
        blocks.append((half * ws) @ full.T)
    return np.vstack(blocks)


@dataclass(frozen=True)
class WaveletBasis1D:
    degree: int
    functions: tuple[HalfCellPoly, ...]


def wavelet_basis_1d(degree: int) -> WaveletBasis1D:
    """Deterministic orthonormal basis of the one-step detail space in 1D.

    The degree+1 functions are orthonormal, orthogonal to all polynomials of
    degree <= l on (0,1), and together with the scaling polynomials span the
    two-cell piecewise polynomial space. Construction: project the half-cell
    coordinates onto the complement of the global polynomials and run a
    fixed-order Gram-Schmidt; signs are fixed by making the last nonzero
    coordinate positive.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    l = degree
    dim = 2 * (l + 1)
    emb = _embedding_matrix(l)
    complement = np.eye(dim) - emb @ emb.T
    basis_vecs: list[np.ndarray] = []
    for i in range(dim):
        v = complement[:, i].copy()
        for _ in range(2):  # re-orthogonalize once for stability
            for u in basis_vecs:
                v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis_vecs.append(v / norm)
        if len(basis_vecs) == l + 1:
            break
    if len(basis_vecs) != l + 1:
        raise RuntimeError("complement construction failed to reach full rank")
    funcs = []
    for v in basis_vecs:
        nz = np.nonzero(np.abs(v) > 1e-10)[0]
        if v[nz[-1]] < 0:
            v = -v
        funcs.append(HalfCellPoly(left=tuple(v[: l + 1]), right=tuple(v[l + 1 :])))
    return WaveletBasis1D(degree=l, functions=tuple(funcs))


def detail_cells(kappa: Sequence[int]) -> tuple[int, ...]:
    """Cells per axis of the detail block at a multi-level: 2^max(kappa_j - 1, 0)."""
    return tuple(2 ** max(int(k) - 1, 0) for k in kappa)


def detail_dim(kappa: Sequence[int], degrees: Sequence[int]) -> int:
    """Dimension of the detail space at a multi-level: root count times cell count.

    The root count prod(l_j + 1) is the number of basis functions per cell,
    the detail dimension at kappa = 0.
    """
    kappa = tuple(int(k) for k in kappa)
    degs = tuple(int(l) for l in degrees)
    if len(kappa) != len(degs):
        raise ValueError("kappa and degrees must have the same length")
    if any(k < 0 for k in kappa) or any(l < 0 for l in degs):
        raise ValueError("kappa and degrees must be >= 0")
    return math.prod(l + 1 for l in degs) * math.prod(detail_cells(kappa))
