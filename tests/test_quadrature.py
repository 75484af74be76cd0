"""Quadrature rules, the orthonormal Legendre basis, grids, and local projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymra import DyadicCube, PiecewisePoly, grid_for, lp_norm, project_level
from polymra.grid import Grid, box_lp_norm
from polymra.quadrature import gauss_rule, interval_basis_table, legendre_table

from oracles import legendre_eval, local_project


def test_gauss_midpoint():
    x, w = gauss_rule(1)
    np.testing.assert_allclose(x, [0.5], atol=1e-15)
    np.testing.assert_allclose(w, [1.0], atol=1e-15)


def test_gauss_two_point():
    x, w = gauss_rule(2)
    half = 1.0 / (2.0 * np.sqrt(3.0))
    np.testing.assert_allclose(x, [0.5 - half, 0.5 + half], atol=1e-15)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_gauss_invalid():
    with pytest.raises(ValueError):
        gauss_rule(0)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_gauss_exactness(n):
    # n points integrate monomials up to degree 2n-1 exactly
    x, w = gauss_rule(n)
    assert abs(np.sum(w) - 1.0) < 1e-14
    assert np.all(x > 0) and np.all(x < 1)
    for k in range(2 * n):
        assert abs(np.dot(w, x ** k) - 1.0 / (k + 1)) < 1e-13


def test_legendre_values():
    assert legendre_eval(0, 0.37) == pytest.approx(1.0, abs=1e-15)
    assert legendre_eval(1, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert legendre_eval(1, 1.0) == pytest.approx(np.sqrt(3.0), abs=1e-14)
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.5)


def test_legendre_orthonormal():
    x, w = gauss_rule(8)
    table = legendre_table(6, x)
    gram = (table * w) @ table.T
    np.testing.assert_allclose(gram, np.eye(7), atol=1e-12)


def test_legendre_table_matches_eval():
    x = np.linspace(0.05, 0.95, 7)
    table = legendre_table(4, x)
    for k in range(5):
        np.testing.assert_allclose(table[k], legendre_eval(k, x), atol=1e-13)


def test_interval_basis_orthonormal():
    lo, width = 0.25, 0.5
    g, w = gauss_rule(6)
    xs, ws = lo + width * g, width * w
    table = interval_basis_table(4, xs, lo, width)
    np.testing.assert_allclose((table * ws) @ table.T, np.eye(5), atol=1e-12)


def test_interval_basis_bad_width():
    with pytest.raises(ValueError):
        interval_basis_table(2, [0.5], 0.0, 0.0)


# -- grids ------------------------------------------------------------------


def test_grid_defaults():
    g = grid_for(1, degree=0)
    assert g.level == 6
    assert g.shape == (2 ** 6 * 2,)
    assert grid_for(3, degree=0).level == 4
    assert abs(np.sum(g.axis_weights[0]) - 1.0) < 1e-14


def test_grid_invalid():
    with pytest.raises(ValueError):
        Grid(0, 3, (2,))
    with pytest.raises(ValueError):
        Grid(1, -1, (2,))
    with pytest.raises(ValueError):
        grid_for(2, degree=(1,))


def test_integrate_polynomial():
    g = grid_for(1, degree=0, level=3)
    f = g.sample(lambda x: x ** 2)
    assert abs(f.integral() - 1.0 / 3.0) < 1e-14


def test_integrate_d2():
    g = grid_for(2, degree=(1, 0), level=2)
    f = g.sample(lambda x, y: x * y)
    assert abs(f.integral() - 0.25) < 1e-14


def test_lp_norm_values():
    g = grid_for(1, degree=1, level=4)
    f = g.sample(lambda x: x)
    assert lp_norm(f, 2) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)
    c = g.sample(lambda x: 0.0 * x - 2.5)
    for p in (1, 1.5, 2, 4):
        assert lp_norm(c, p) == pytest.approx(2.5, abs=1e-13)
    sign = g.sample(lambda x: np.where(x < 0.5, -1.0, 1.0))
    for p in (1, 2, 3):
        assert lp_norm(sign, p) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_box_norm_square_has_the_bits_of_pow(monkeypatch):
    # box_lp_norm squares at p = 2 with one multiply; pin that to **= 2.0 on
    # subnormals, values around sqrt(DBL_MAX), +-inf, nan and -0.0, and to
    # the square of |x|, since the modulus walk passes signed values there
    rng = np.random.default_rng(2)
    info = np.finfo(float)
    tiny, root = info.smallest_subnormal, math.sqrt(info.max)
    x = np.concatenate([
        [0.0, -0.0, tiny, -tiny, info.tiny, -info.tiny, root, -root,
         np.nextafter(root, 0.0), np.nextafter(root, np.inf), info.max,
         np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.5],
        rng.integers(1, 2 ** 52, 2000) * tiny * rng.choice([-1.0, 1.0], 2000),
        rng.uniform(-4.0, 4.0, 2000) * root,
        rng.standard_normal(2000) * 2.0 ** rng.integers(-1074, 1024, 2000),
    ])
    seen = []
    monkeypatch.setattr(Grid, "integrate", lambda self, values: seen.append(values.copy()) or 0.0)
    g = grid_for(1, degree=0, level=0)
    want = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for signed in (x, np.abs(x)):
            box_lp_norm(g, signed.copy(), 2.0)
        want **= 2.0
    assert len(seen) == 2
    for got in seen:
        assert np.array_equal(got, want, equal_nan=True)


def test_lp_norm_rejects_nan():
    f = grid_for(1, degree=0, level=2).sample(lambda x: x)
    with pytest.raises(ValueError):
        lp_norm(f, math.nan)


def test_cube_slices_rejects_bad_cubes():
    g = grid_for(2, degree=0, level=2)
    assert g.cube_slices(DyadicCube(level=(1, 2), pos=(1, 3))) == (slice(4, 8), slice(6, 8))
    for cube in (DyadicCube(level=(3, 0), pos=(0, 0)),  # level above the grid
                 DyadicCube(level=(1, 1), pos=(0, 2)),  # position outside 2^m
                 DyadicCube(level=(1,), pos=(0,))):  # wrong dimension
        with pytest.raises(ValueError):
            g.cube_slices(cube)


# -- local projection: project_level against the one-cube oracle -----------


def test_local_project_constant():
    g = grid_for(2, degree=1, level=2)
    f = g.sample(lambda x, y: np.ones_like(x * y))
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(project_level(f, (0, 0), (1, 1)).coeffs[0, 0], expected,
                               atol=1e-13)
    cube = DyadicCube(level=(0, 0), pos=(0, 0))
    np.testing.assert_allclose(local_project(f, cube, (1, 1)), expected, atol=1e-13)


def test_local_project_linear():
    # projection of x onto {1, sqrt(3)(2x-1)} has coefficients (1/2, 1/(2 sqrt 3))
    g = grid_for(1, degree=1, level=2)
    f = g.sample(lambda x: x)
    expected = [0.5, 1.0 / (2.0 * np.sqrt(3.0))]
    np.testing.assert_allclose(project_level(f, (0,), (1,)).coeffs[0], expected, atol=1e-14)
    cube = DyadicCube(level=(0,), pos=(0,))
    np.testing.assert_allclose(local_project(f, cube, (1,)), expected, atol=1e-14)


def test_local_project_reproduces_polynomials(rng):
    # a polynomial on one level-(1, 2) cell and zero elsewhere comes back exactly
    g = grid_for(2, degree=(2, 1), level=2)
    cube = DyadicCube(level=(1, 2), pos=(1, 3))
    for _ in range(5):
        coeffs = rng.standard_normal((3, 2))
        cells = np.zeros((2, 4, 3, 2))
        cells[1, 3] = coeffs
        f = PiecewisePoly(grid=g, level=(1, 2), degrees=(2, 1), coeffs=cells).to_grid()
        tol = 1e-12 * np.abs(coeffs).max()
        back = project_level(f, (1, 2), (2, 1)).coeffs
        np.testing.assert_allclose(back, cells, atol=tol)
        np.testing.assert_allclose(local_project(f, cube, (2, 1)), coeffs, atol=tol)


def test_local_project_residual_orthogonal():
    g = grid_for(1, degree=2, level=1)
    f = g.sample(lambda x: np.sin(3.0 * x))
    cube = DyadicCube(level=(1,), pos=(0,))
    poly = project_level(f, (1,), (2,))
    np.testing.assert_allclose(poly.coeffs[0], local_project(f, cube, (2,)), atol=1e-14)
    residual = f.values - poly.to_grid().values
    sl = g.cube_slices(cube)[0]
    xs, ws = g.axis_nodes[0][sl], g.axis_weights[0][sl]
    table = interval_basis_table(2, xs, 0.0, 0.5)
    for q in table:
        assert abs(np.dot(ws, residual[sl] * q)) < 1e-12


def test_local_project_stability(rng):
    g = grid_for(1, degree=1, level=3)
    for _ in range(10):
        f = g.function(rng.standard_normal(g.shape))
        norm_pf = lp_norm(project_level(f, (0,), (1,)).to_grid(), 2)
        assert norm_pf <= lp_norm(f, 2) * (1.0 + 1e-12)


def test_local_project_cube_outside():
    g = grid_for(1, degree=0, level=2)
    f = g.sample(lambda x: x)
    with pytest.raises(ValueError):
        local_project(f, DyadicCube(level=(3,), pos=(0,)), (0,))
    with pytest.raises(ValueError):
        local_project(f, DyadicCube(level=(1,), pos=(2,)), (0,))
