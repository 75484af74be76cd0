"""Acceptance gate: ten criteria, one test and one verbose pass/fail line each.

Every tolerance is pinned here and nowhere else.  The tests lean on the
independent oracles in oracles.py; none of them tunes a threshold to the
implementation.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from polymra.basis import detail_dim
from polymra.czd import CellSet, cz_split, whitney
from polymra.grid import GridFunction, grid_for, lp_norm
from polymra.indexing import enum_box, enum_cross
from polymra.lp_analysis import (
    SignFamily,
    detail_components,
    khintchine_check,
    lp_equivalence,
    pstar_ratio,
    random_resolved,
    sign_series,
)
from polymra.projectors import analyze, parseval_gap, project_level
from polymra.smoothness import SmoothnessParams
from polymra.widths import WidthExperimentConfig, rate_fit, width_experiment

from oracles import haar_block, haar_coeff_tensor, project_detail, rademacher_sum_lp_brute


def test_criterion_01_parseval_identity():
    # 100 random resolved functions, d in {1,2}, degrees {0,1}, K <= 5: relative gap <= 1e-10
    rng = np.random.default_rng(2101)
    checked = 0
    for d, l, K in ((1, 0, 5), (1, 1, 5), (2, 0, 3), (2, 1, 3)):
        grid = grid_for(d, degree=l, level=K)
        k, degs = (K,) * d, (l,) * d
        for _ in range(25):
            f = random_resolved(grid, k, degs, rng)
            assert parseval_gap(f, k, degs) <= 1e-10 * lp_norm(f, 2.0) ** 2
            checked += 1
    assert checked == 100


def _details(f, k, degs):
    # the library route: every analysed block of the box k evaluated on its own
    return dict(detail_components(analyze(f, k, degs)))


def test_criterion_02_projector_algebra():
    # annihilation, idempotency, self-adjointness, cross-orthogonality and the
    # inclusion-exclusion route all at 1e-10, d = 2, blocks up to (2, 2)
    rng = np.random.default_rng(2102)
    grid = grid_for(2, degree=1, level=2)
    degs = (1, 1)
    f = grid.function(rng.standard_normal(grid.shape))
    g = grid.function(rng.standard_normal(grid.shape))
    scale = lp_norm(f, 2.0)
    box = (2, 2)
    details = _details(f, box, degs)
    details_g = _details(g, box, degs)
    for kappa, ek in details.items():
        twice = _details(ek, box, degs)
        assert np.abs(twice[kappa].values - ek.values).max() <= 1e-10 * scale
        lhs = grid.integrate(ek.values * g.values)
        rhs = grid.integrate(f.values * details_g[kappa].values)
        assert abs(lhs - rhs) <= 1e-10 * scale * lp_norm(g, 2.0)
        if any(kappa):
            coarse = project_level(f, tuple(max(c - 1, 0) for c in kappa), degs).to_grid()
            killed = _details(coarse, kappa, degs)[kappa]
            assert np.abs(killed.values).max() <= 1e-10 * scale
        for other in details:
            if other != kappa:
                assert np.abs(twice[other].values).max() <= 1e-10 * scale
        # cross-check: difference products of level projections
        alt = project_detail(f, kappa, degs)
        assert np.abs(alt.values - ek.values).max() <= 1e-10 * scale


def test_criterion_03_telescoping_identity():
    # sum of detail blocks over kappa <= k equals the level-k projection, 1e-10
    rng = np.random.default_rng(2103)
    grid = grid_for(2, degree=1, level=3)
    degs = (1, 1)
    f = grid.function(rng.standard_normal(grid.shape))
    scale = lp_norm(f, 2.0)
    details = {k: g.values for k, g in _details(f, (3, 3), degs).items()}
    for kappa, ek in details.items():
        alt = project_detail(f, kappa, degs).values
        assert np.abs(alt - ek).max() <= 1e-10 * scale
    for k in enum_box((3, 3)):
        total = sum(details[kappa] for kappa in enum_box(k))
        level = project_level(f, k, degs).to_grid().values
        assert np.abs(total - level).max() <= 1e-10 * scale


def test_criterion_04_haar_oracle():
    # degree-zero transform equals the classical cell-average construction, 1e-10
    rng = np.random.default_rng(2104)
    cases = [(1, 5, 30), (2, 3, 20)]
    for d, K, trials in cases:
        grid = grid_for(d, degree=0, level=K)
        for _ in range(trials):
            f = grid.function(rng.standard_normal(grid.shape))
            dec = analyze(f, (K,) * d, (0,) * d)
            full = haar_coeff_tensor(f)
            for kappa, block in dec.blocks.items():
                want = haar_block(full, kappa).ravel()
                np.testing.assert_allclose(block.coeffs.ravel(), want, atol=1e-10)


def test_criterion_05_littlewood_paley_stability():
    # p = 2 ratio identically 1 +- 1e-10; square-function and sign-series ratio
    # bands at K = 6 stay within x1.25 of the K = 3 bands
    rng = np.random.default_rng(2105)
    grid3 = grid_for(1, degree=0, level=3)
    grid6 = grid_for(1, degree=0, level=6)
    for _ in range(20):
        f = random_resolved(grid6, (6,), (0,), rng)
        assert lp_equivalence(f, 2.0, (6,), (0,)) == pytest.approx(1.0, abs=1e-10)
    for p in (1.5, 3.0, 4.0):
        bands = {}
        for K, grid in ((3, grid3), (6, grid6)):
            vals = [
                lp_equivalence(grid.function(rng.standard_normal(grid.shape)), p, (K,), (0,))
                for _ in range(200)
            ]
            bands[K] = (min(vals), max(vals))
        assert bands[6][1] <= 1.25 * bands[3][1]
        assert bands[6][0] >= bands[3][0] / 1.25
        sign_bands = {}
        for K, grid in ((3, grid3), (6, grid6)):
            ratios = []
            for _ in range(10):
                f = random_resolved(grid, (K,), (0,), rng)
                base = lp_norm(f, p)
                for _ in range(5):
                    fam = SignFamily.random((K,), rng)
                    ratios.append(sign_series(f, fam, p, (K,), (0,)) / base)
            sign_bands[K] = (min(ratios), max(ratios))
        assert sign_bands[6][1] <= 1.25 * sign_bands[3][1]
        assert sign_bands[6][0] >= sign_bands[3][0] / 1.25


def test_criterion_06_pstar_stability():
    # blockwise p*-aggregate constant stable across resolution, x1.25, p in {1,1.5,2,3}
    rng = np.random.default_rng(2106)
    grid3 = grid_for(1, degree=0, level=3)
    grid6 = grid_for(1, degree=0, level=6)
    for p in (1.0, 1.5, 2.0, 3.0):
        worst = {}
        for K, grid in ((3, grid3), (6, grid6)):
            worst[K] = max(
                pstar_ratio(random_resolved(grid, (K,), (0,), rng), p, (K,), (0,))
                for _ in range(50)
            )
        assert worst[6] <= 1.25 * worst[3]


def test_criterion_07_cz_decomposition():
    # 20 bumps and steps: cube sandwich, zero block means at 1e-12, exact splitting
    # at 1e-12; the unit-interval demo reproduces base level 3 and its first cubes
    grid = grid_for(1, degree=0, level=6)
    xs = np.linspace(0.15, 0.85, 12)
    corpus = [
        grid.sample(lambda x, c=c, w=w: a * np.exp(-w * (x - c) ** 2))
        for (c, w, a) in zip(xs, [40, 80, 160, 320] * 3, [1.0, 2.5, 4.0] * 4)
    ] + [
        grid.sample(lambda x, c=c, a=a: a * (x < c))
        for (c, a) in zip(np.linspace(0.2, 0.8, 8), [1.0, 3.0] * 4)
    ]
    assert len(corpus) == 20
    total_cubes = 0
    for f in corpus:
        alpha = 0.5 * float(np.abs(f.values).max())
        _, wdec, split = cz_split(f, alpha)
        for cube, dist in zip(wdec.cubes, wdec.cube_dist):
            diam = cube.diameter()
            assert diam < dist <= 4.0 * diam + 2.0**-6 + 1e-12
        for _, h in split.bad_blocks:
            assert abs(f.grid.integrate(h)) <= 1e-12
        assert np.abs(split.reconstruct().values - f.values).max() <= 1e-12
        total_cubes += len(wdec.cubes)
    assert total_cubes > 0
    demo = whitney(CellSet(6, np.zeros(64, dtype=bool)))
    assert demo.base_level == 3
    assert [(q.level[0], q.pos[0]) for q in demo.cubes[:4]] == [(3, 2), (3, 3), (3, 4), (3, 5)]
    assert demo.residual_measure == Fraction(1, 16)


def test_criterion_08_khintchine():
    # exact piecewise-constant norms match the cell enumeration oracle at 1e-12;
    # two-sided bounds with the chaos-order constants: a d-fold tensor sum is a
    # degree-d sign chaos, so 2^(-d/2) <= ratio, with ratio <= 1 for p <= 2
    # (probability space) and <= 3^(d/2) for p = 4 (hypercontractivity)
    rng = np.random.default_rng(2108)
    shapes = [(6,)] * 50 + [(4, 4)] * 50
    for shape in shapes:
        d = len(shape)
        arr = rng.standard_normal(shape)
        for p in (1.0, 2.0, 4.0):
            l2, exact = khintchine_check(arr, p)
            oracle = rademacher_sum_lp_brute(arr, p)
            assert exact == pytest.approx(oracle, rel=1e-12, abs=1e-15)
            hi = 1.0 if p <= 2.0 else 3.0 ** (d / 2)
            assert 2.0 ** (-d / 2) - 1e-12 <= exact / l2 <= hi + 1e-12


def test_criterion_09_cross_dimension_law():
    # cross dimension over 2^r r^(c-1) inside a pinned band for r = 4..14
    bands = {1: (0.999, 1.001), 2: (0.55, 0.80), 3: (0.18, 0.42)}
    for d, (lo, hi) in bands.items():
        beta = (1.0,) * d
        degs = (0,) * d
        for r in range(4, 15):
            n = sum(detail_dim(kappa, degs) for kappa in enum_cross(beta, r))
            ratio = n / (2.0**r * r ** (d - 1))
            assert lo <= ratio <= hi


def test_criterion_10_width_rate():
    # extremal-profile truncation: fitted slope -1 +- 0.15 in d = 2, +- 0.1 in d = 1
    for d, tol in ((2, 0.15), (1, 0.10)):
        cfg = WidthExperimentConfig(
            params=SmoothnessParams(alpha=(1.0,) * d, p=2.0, theta=2.0),
            q=2.0,
            level=6,
            r_values=tuple(range(4, 11)),
            seed=5,
        )
        rows = width_experiment(cfg)
        slope, _ = rate_fit([(row["n"], row["error"]) for row in rows])
        assert slope == pytest.approx(-1.0, abs=tol)
