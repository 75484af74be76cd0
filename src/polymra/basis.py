"""Two-scale relation of the orthonormal piecewise-polynomial bases in 1D.

The scaling functions of a dyadic cell are its orthonormal Legendre
polynomials up to the degree l. One refinement step splits the cell in two
halves and doubles the space; every function in it is a coefficient vector
of length 2(l+1) in the Legendre bases of the left and the right half. In
those coordinates the cell's own polynomials are the columns H of
_embedding_matrix, and the detail space of the step, the orthogonal
complement of dimension l+1, is spanned by the columns G that
wavelet_basis_1d returns: pairs of half-cell polynomials with vanishing
moments up to the degree. [H | G] is orthogonal, which is the whole filter
bank of the transform. Tensor products of wavelet or scaling factors per
axis give the multivariate detail bases; detail_cells and detail_dim fix
the layout of their coefficient blocks.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .grid import _as_int, _as_tuple, _as_vector
from .quadrature import gauss_rule, interval_basis_table, legendre_table

__all__ = [
    "wavelet_basis_1d",
    "detail_cells",
    "detail_dim",
]


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


@functools.lru_cache(maxsize=16)
def _two_scale_matrix(degree: int) -> np.ndarray:
    """Orthogonal two-scale matrix [H | G], shape (2*(degree+1), 2*(degree+1)).

    H is _embedding_matrix; G spans its orthogonal complement. Construction:
    project the half-cell coordinates onto that complement and run a
    fixed-order Gram-Schmidt; signs are fixed by making the last nonzero
    coordinate of each column of G positive. The result depends on the
    degree alone and costs far more to build than to apply on a small
    grid, so it is kept per degree, read-only.
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
    cols = [emb]
    for v in basis_vecs:
        nz = np.nonzero(np.abs(v) > 1e-10)[0]
        cols.append((-v if v[nz[-1]] < 0 else v)[:, None])
    bank = np.hstack(cols)
    bank.flags.writeable = False
    return bank


def wavelet_basis_1d(degree: int) -> np.ndarray:
    """Deterministic orthonormal basis G of the one-step detail space in 1D.

    Returns shape (2*(degree+1), degree+1): column i holds the Legendre
    coefficients of the i-th wavelet on (0,1/2) in its first degree+1 rows
    and on (1/2,1) in the rest. The columns are orthonormal, orthogonal to
    all polynomials of degree <= l on (0,1), and together with the scaling
    polynomials span the two-cell piecewise polynomial space.
    """
    degree = _as_int(degree, "degree")
    return _two_scale_matrix(degree)[:, degree + 1 :].copy()


def detail_cells(kappa: Sequence[int]) -> tuple[int, ...]:
    """Cells per axis of the detail block at a multi-level: 2^max(kappa_j - 1, 0)."""
    return tuple(2 ** max(k - 1, 0) for k in kappa)


def detail_dim(kappa: Sequence[int], degrees: Sequence[int]) -> int:
    """Dimension of the detail space at a multi-level: root count times cell count.

    The root count prod(l_j + 1) is the number of basis functions per cell,
    the detail dimension at kappa = 0.
    """
    kappa = _as_vector(kappa, "kappa")
    degs = _as_tuple(degrees, len(kappa), "degrees")
    return math.prod(l + 1 for l in degs) * math.prod(detail_cells(kappa))
