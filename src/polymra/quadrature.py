"""Gauss-Legendre rules and orthonormal shifted Legendre polynomials.

Everything is referred to the open unit interval (0,1) or an affine image of
it. Row k of `legendre_table` is the degree-k polynomial with unit L2(0,1)
norm, so projection coefficients are plain weighted dot products.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.polynomial import legendre as _leg

__all__ = [
    "gauss_rule",
    "legendre_table",
    "interval_basis_table",
]


def _as_int(value, name: str) -> int:
    """value as an int through operator.index: numpy ints pass, a float raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights mapped affinely to (0,1).

    Exact for polynomials of degree <= 2n-1; weights are positive and sum
    to 1. Deterministic for fixed n.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError(f"quadrature rule needs n >= 1 nodes, got {n}")
    t, w = _leg.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


def legendre_table(max_degree: int, x) -> np.ndarray:
    """Values of the orthonormal shifted Legendre basis, degrees 0..max_degree.

    Returns shape (max_degree+1, len(x)); row k is the degree-k polynomial.
    """
    max_degree = _as_int(max_degree, "degree")
    if max_degree < 0:
        raise ValueError(f"degree must be >= 0, got {max_degree}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vander = _leg.legvander(2.0 * x - 1.0, max_degree)
    scale = np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)
    return (vander * scale).T


def interval_basis_table(max_degree: int, x, lo: float, width: float) -> np.ndarray:
    """Orthonormal polynomial basis of L2(lo, lo+width) evaluated at points x."""
    if width <= 0:
        raise ValueError(f"interval width must be positive, got {width}")
    u = (np.asarray(x, dtype=float) - lo) / width
    return legendre_table(max_degree, u) / np.sqrt(width)
