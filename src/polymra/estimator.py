"""Estimator-style front end for the multiwavelet transform.

Follows the fit/transform convention (get_params/set_params included) so the
transform drops into pipeline tooling, but deliberately has no third-party
dependency: the protocol is duck-typed. Samples are rows of grid values in
C order, features after transform are orthonormal detail coefficients.
"""

from __future__ import annotations

import numpy as np

from .basis import detail_cells, detail_dim
from .grid import grid_for
from .projectors import Decomposition, DetailCoeffs, analyze, resolve_index_set, synthesize

__all__ = ["MultiwaveletTransform", "check_sample_matrix"]


def check_sample_matrix(X, expected_features: int | None = None) -> np.ndarray:
    """Validate a 2D sample matrix: finite floats, nonempty, optional width check."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise ValueError(f"expected a 2D sample matrix, got shape {X.shape}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError(f"sample matrix has an empty axis: shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("sample matrix contains NaN or infinity")
    if expected_features is not None and X.shape[1] != expected_features:
        raise ValueError(
            f"expected {expected_features} features per sample, got {X.shape[1]}"
        )
    return X


class MultiwaveletTransform:
    """Orthonormal multiwavelet coefficients of gridded functions on the unit cube.

    Parameters mirror the library defaults: dimension d, per-axis polynomial
    degree, finest dyadic level (None picks the package default for d), and an
    index set (None means the full box up to the finest level). Rows of X are
    grid values raveled in C order; transform returns one row of concatenated
    block coefficients per sample, inverse_transform maps back.
    """

    def __init__(self, d: int = 1, degree=0, level: int | None = None, index_set=None):
        self.d = d
        self.degree = degree
        self.level = level
        self.index_set = index_set

    # -- parameter protocol -------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {
            "d": self.d,
            "degree": self.degree,
            "level": self.level,
            "index_set": self.index_set,
        }

    def set_params(self, **params) -> "MultiwaveletTransform":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r}; choose from {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    # -- fitting ------------------------------------------------------------

    def fit(self, X, y=None) -> "MultiwaveletTransform":
        grid = grid_for(self.d, degree=self.degree, level=self.level)
        self.grid_ = grid
        degs = self.degree
        if np.isscalar(degs):
            degs = (int(degs),) * grid.d
        self.degrees_ = tuple(int(v) for v in degs)
        index_set = self.index_set
        if index_set is None:
            index_set = ("box", (grid.level,) * grid.d)
        descriptor, kappas = resolve_index_set(index_set, grid.d)
        self.index_ = descriptor
        self.kappas_ = sorted(kappas)
        self.block_slices_ = {}
        start = 0
        for kappa in self.kappas_:
            size = detail_dim(kappa, self.degrees_)
            self.block_slices_[kappa] = slice(start, start + size)
            start += size
        self.n_components_ = start
        self.n_features_in_ = int(np.prod(grid.shape))
        X = check_sample_matrix(X, self.n_features_in_)
        return self

    def _require_fitted(self) -> None:
        if not hasattr(self, "grid_"):
            raise ValueError("transform called before fit")

    # -- transform ----------------------------------------------------------

    def transform(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_sample_matrix(X, self.n_features_in_)
        out = np.empty((X.shape[0], self.n_components_))
        for row, sample in enumerate(X):
            f = self.grid_.function(sample.reshape(self.grid_.shape))
            dec = analyze(f, self.index_, self.degrees_)
            for kappa in self.kappas_:
                out[row, self.block_slices_[kappa]] = dec.blocks[kappa].coeffs.ravel()
        return out

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)

    def inverse_transform(self, C) -> np.ndarray:
        self._require_fitted()
        C = check_sample_matrix(C, self.n_components_)
        out = np.empty((C.shape[0], self.n_features_in_))
        for row, sample in enumerate(C):
            blocks = {}
            for kappa in self.kappas_:
                coeffs = sample[self.block_slices_[kappa]].reshape(detail_cells(kappa) + (-1,))
                blocks[kappa] = DetailCoeffs(
                    kappa=kappa, degrees=self.degrees_, coeffs=coeffs
                )
            dec = Decomposition(
                grid=self.grid_, degrees=self.degrees_, index_set=self.index_, blocks=blocks
            )
            out[row] = synthesize(dec).values.ravel()
        return out
