"""Wavelet-style detail bases: orthonormality, spans, dimensions."""

import numpy as np
import pytest

from polymra import (
    detail_dim,
    grid_for,
    scaling_basis_1d,
    wavelet_basis_1d,
)
from polymra.quadrature import gauss_rule


def _half_cell_quad(n):
    # a rule exact on each half interval separately
    g, w = gauss_rule(n)
    xs = np.concatenate([0.5 * g, 0.5 + 0.5 * g])
    ws = np.concatenate([0.5 * w, 0.5 * w])
    return xs, ws


def test_scaling_basis_values():
    fns = scaling_basis_1d(1)
    assert len(fns) == 2
    x = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(fns[0](x), np.ones(3), atol=1e-14)
    np.testing.assert_allclose(fns[1](x), np.sqrt(3.0) * (2.0 * x - 1.0), atol=1e-13)
    with pytest.raises(ValueError):
        scaling_basis_1d(-1)


def test_haar_values():
    basis = wavelet_basis_1d(0)
    assert len(basis.functions) == 1
    haar = basis.functions[0]
    assert haar(np.array([0.25]))[0] == pytest.approx(-1.0, abs=1e-12)
    assert haar(np.array([0.75]))[0] == pytest.approx(1.0, abs=1e-12)


def test_wavelet_moments_l1():
    basis = wavelet_basis_1d(1)
    assert len(basis.functions) == 2
    xs, ws = _half_cell_quad(4)
    for fn in basis.functions:
        vals = fn(xs)
        assert abs(np.dot(ws, vals)) < 1e-13
        assert abs(np.dot(ws, xs * vals)) < 1e-13


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_combined_gram_identity(l):
    # scaling + wavelet functions together are an orthonormal system of size 2(l+1)
    xs, ws = _half_cell_quad(l + 2)
    rows = [fn(xs) for fn in scaling_basis_1d(l)]
    rows += [fn(xs) for fn in wavelet_basis_1d(l).functions]
    rows = np.array(rows)
    gram = (rows * ws) @ rows.T
    np.testing.assert_allclose(gram, np.eye(2 * (l + 1)), atol=1e-12)


def test_wavelet_deterministic():
    a = wavelet_basis_1d(2)
    b = wavelet_basis_1d(2)
    for fa, fb in zip(a.functions, b.functions):
        assert fa.left == fb.left and fa.right == fb.right


def test_wavelet_spans_refinement():
    # reconstructing an arbitrary two-cell piecewise polynomial from the system
    rng = np.random.default_rng(7)
    l = 2
    xs, ws = _half_cell_quad(l + 2)
    rows = [fn(xs) for fn in scaling_basis_1d(l)]
    rows += [fn(xs) for fn in wavelet_basis_1d(l).functions]
    rows = np.array(rows)
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
    from polymra import project_detail

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
        dec = Decomposition(
            grid=g, degrees=(1,), index_set=("custom", (kappa,)), blocks={kappa: block}
        )
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
