"""Two-scale bases: orthonormality, spans, dimensions."""

import numpy as np
import pytest

from polymra import (
    detail_dim,
    grid_for,
    wavelet_basis_1d,
)
from polymra.basis import _embedding_matrix
from polymra.projectors import _scaling_block
from polymra.quadrature import gauss_rule

from oracles import half_cell_values, project_detail


def _half_cell_quad(n):
    # a rule exact on each half interval separately
    g, w = gauss_rule(n)
    xs = np.concatenate([0.5 * g, 0.5 + 0.5 * g])
    ws = np.concatenate([0.5 * w, 0.5 * w])
    return xs, ws


def _two_scale_rows(l, xs):
    # scaling functions (columns of H) then wavelets (columns of G), evaluated at xs
    cols = np.hstack([_embedding_matrix(l), wavelet_basis_1d(l)])
    return np.array([half_cell_values(c, xs) for c in cols.T])


def test_scaling_basis_values():
    # the level-1 cell (0, 1/2) carries sqrt(2) * {1, sqrt(3)(4x - 1)}, and
    # the columns of H are the Legendre polynomials of (0, 1) on the halves
    g = grid_for(1, degree=1, level=2)
    xs = g.axis_nodes[0][: g.axis_cell_nodes(0, 1)]
    table = _scaling_block(g, 0, 1, 1)
    assert table.shape == (len(xs), 2)
    np.testing.assert_allclose(table[:, 0], np.sqrt(2.0), atol=1e-14)
    np.testing.assert_allclose(table[:, 1], np.sqrt(6.0) * (4.0 * xs - 1.0), atol=1e-13)
    x = np.array([0.1, 0.5, 0.9])
    h = _embedding_matrix(1)
    np.testing.assert_allclose(half_cell_values(h[:, 0], x), np.ones(3), atol=1e-14)
    np.testing.assert_allclose(
        half_cell_values(h[:, 1], x), np.sqrt(3.0) * (2.0 * x - 1.0), atol=1e-13
    )
    with pytest.raises(ValueError):
        _scaling_block(g, 0, 1, -1)


def test_haar_values():
    basis = wavelet_basis_1d(0)
    assert basis.shape == (2, 1)
    haar = basis[:, 0]
    assert half_cell_values(haar, np.array([0.25]))[0] == pytest.approx(-1.0, abs=1e-12)
    assert half_cell_values(haar, np.array([0.75]))[0] == pytest.approx(1.0, abs=1e-12)


def test_wavelet_moments_l1():
    basis = wavelet_basis_1d(1)
    assert basis.shape == (4, 2)
    xs, ws = _half_cell_quad(4)
    for col in basis.T:
        vals = half_cell_values(col, xs)
        assert abs(np.dot(ws, vals)) < 1e-13
        assert abs(np.dot(ws, xs * vals)) < 1e-13


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_combined_gram_identity(l):
    # scaling + wavelet functions together are an orthonormal system of size 2(l+1)
    xs, ws = _half_cell_quad(l + 2)
    rows = _two_scale_rows(l, xs)
    gram = (rows * ws) @ rows.T
    np.testing.assert_allclose(gram, np.eye(2 * (l + 1)), atol=1e-12)


def test_wavelet_deterministic():
    assert np.array_equal(wavelet_basis_1d(2), wavelet_basis_1d(2))
    with pytest.raises(ValueError):
        wavelet_basis_1d(-1)


def test_wavelet_spans_refinement():
    # reconstructing an arbitrary two-cell piecewise polynomial from the system
    rng = np.random.default_rng(7)
    l = 2
    xs, ws = _half_cell_quad(l + 2)
    rows = _two_scale_rows(l, xs)
    target = np.where(
        xs < 0.5, 1.0 + xs - 3.0 * xs ** 2, rng.standard_normal() + 2.0 * xs
    )
    coeff = (rows * ws) @ target
    np.testing.assert_allclose(coeff @ rows, target, atol=1e-12)


def test_detail_dim_values():
    assert detail_dim((3,), (1,)) == 8
    assert detail_dim((0, 0), (2, 1)) == 6
    assert detail_dim((2, 1), (0, 0)) == 2
    assert detail_dim((0,), (4,)) == 5
    with pytest.raises(ValueError):
        detail_dim((1,), (1, 1))
    with pytest.raises(ValueError):
        detail_dim((-1,), (0,))


def test_detail_dim_matches_projector_rank(rng):
    # numeric rank of the detail projector restricted to level-(2,2) polynomials
    g = grid_for(2, degree=(1, 0), level=3)
    degs = (1, 0)
    span_dim = 2 * 1 * 4 * 4  # dim of the level-(2,2) piecewise polynomial space
    samples = []
    from polymra import project_level

    for _ in range(span_dim):
        f = g.function(rng.standard_normal(g.shape))
        samples.append(project_level(f, (2, 2), degs).to_grid())
    for kappa in [(0, 0), (1, 0), (2, 2), (1, 2)]:
        mat = np.array(
            [project_detail(s, kappa, degs).values.ravel() for s in samples]
        )
        sv = np.linalg.svd(mat, compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * sv[0]))
        assert rank == detail_dim(kappa, degs)


def test_block_norm_ratio_scale_invariant(rng):
    # the lp coefficient-vs-function norm ratio is exactly level-independent:
    # bases at different levels are rescaled copies of one another
    from polymra import Decomposition, DetailCoeffs, lp_norm, synthesize

    g = grid_for(1, degree=1, level=5)
    coeffs = rng.standard_normal((2, 2))
    ratios = {p: [] for p in (1.0, 2.0, 4.0)}
    for kappa in [(2,), (4,)]:
        cells = 2 ** (kappa[0] - 1)
        arr = np.zeros((cells, 2))
        arr[:2] = coeffs
        block = DetailCoeffs(kappa=kappa, degrees=(1,), coeffs=arr)
        dec = Decomposition(grid=g, degrees=(1,), blocks={kappa: block})
        gfun = synthesize(dec)
        for p in ratios:
            scale = 2.0 ** ((kappa[0] - 1) * (0.5 - 1.0 / p))
            lp_coeff = np.sum(np.abs(coeffs) ** p) ** (1.0 / p)
            ratios[p].append(scale * lp_coeff / lp_norm(gfun, p))
    for p, vals in ratios.items():
        # |g|^p is again piecewise polynomial for even p, so the quadrature
        # ratio is exactly level-free; p=1 keeps kinks inside cells and only
        # matches to the quadrature resolution
        tol = 2e-2 if p == 1.0 else 1e-10
        assert vals[0] == pytest.approx(vals[1], rel=tol)
        assert 0.1 < vals[0] < 10.0
