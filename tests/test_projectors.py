"""Level/detail orthoprojectors, the full transform, and the Haar oracle."""

import tracemalloc

import numpy as np
import pytest

import polymra.projectors
from polymra import (
    Decomposition,
    DyadicCube,
    analyze,
    detail_components,
    grid_for,
    lp_norm,
    parseval_gap,
    project_level,
    synthesize,
)
from oracles import (
    apply_axis,
    detail_operator_1d,
    haar_block,
    haar_coeff_tensor,
    level_operator_1d,
    local_project,
    project_detail,
)


def _l2(grid, values):
    return float(np.sqrt(grid.integrate(values ** 2)))


def _detail(f, kappa, degs):
    # the library's detail projection: one analysed block evaluated on its own
    kappa = tuple(kappa)
    return dict(detail_components(analyze(f, kappa, degs)))[kappa]


def _random_piecewise(grid, kappa, degs, rng):
    noise = grid.function(rng.standard_normal(grid.shape))
    return project_level(noise, kappa, degs).to_grid()


def test_project_level_cell_averages():
    g = grid_for(1, degree=0, level=4)
    f = g.sample(lambda x: x)
    vals = project_level(f, 1, 0).to_grid().values
    left = vals[: len(vals) // 2]
    right = vals[len(vals) // 2 :]
    np.testing.assert_allclose(left, 0.25, atol=1e-14)
    np.testing.assert_allclose(right, 0.75, atol=1e-14)


def test_project_level_idempotent(rng):
    g = grid_for(2, degree=(1, 0), level=3)
    f = _random_piecewise(g, (2, 1), (1, 0), rng)
    again = project_level(f, (2, 1), (1, 0)).to_grid()
    np.testing.assert_allclose(again.values, f.values, atol=1e-12)


def test_project_level_zero_is_local(rng):
    g = grid_for(2, degree=1, level=2)
    f = g.function(rng.standard_normal(g.shape))
    whole = local_project(f, DyadicCube(level=(0, 0), pos=(0, 0)), (1, 1))
    lvl = project_level(f, (0, 0), (1, 1))
    np.testing.assert_allclose(lvl.coeffs[0, 0], whole, atol=1e-13)


def test_project_level_resolution_error():
    g = grid_for(1, degree=0, level=3)
    f = g.sample(lambda x: x)
    with pytest.raises(ValueError):
        project_level(f, 4, 0)
    with pytest.raises(ValueError):
        project_level(f, -1, 0)


def test_project_detail_haar_values():
    g = grid_for(1, degree=0, level=4)
    f = g.sample(lambda x: x)
    vals = _detail(f, (1,), (0,)).values
    np.testing.assert_allclose(vals[: len(vals) // 2], -0.25, atol=1e-14)
    np.testing.assert_allclose(vals[len(vals) // 2 :], 0.25, atol=1e-14)


def test_project_detail_kappa_zero(rng):
    g = grid_for(2, degree=0, level=2)
    f = g.function(rng.standard_normal(g.shape))
    a = _detail(f, (0, 0), (0, 0)).values
    b = project_level(f, (0, 0), (0, 0)).to_grid().values
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_project_detail_kills_coarse(rng):
    g = grid_for(2, degree=(1, 0), level=3)
    f = _random_piecewise(g, (1, 0), (1, 0), rng)
    out = _detail(f, (2, 1), (1, 0))
    assert _l2(g, out.values) < 1e-12 * _l2(g, f.values)


def test_detail_routes_agree(rng):
    # inclusion-exclusion vs wavelet synthesis vs per-axis 1D operators
    g = grid_for(2, degree=(1, 0), level=3)
    degs = (1, 0)
    f = g.function(rng.standard_normal(g.shape))
    for kappa in [(0, 0), (2, 0), (0, 3), (2, 1), (3, 3)]:
        a = project_detail(f, kappa, degs)
        block = analyze(f, kappa, degs).blocks[kappa]
        dec = Decomposition(grid=g, degrees=degs, blocks={kappa: block})
        b = synthesize(dec)
        c = f
        for ax in range(2):
            c = apply_axis(detail_operator_1d(g, ax, kappa[ax], degs[ax]), ax, c)
        assert _l2(g, a.values - b.values) < 1e-10
        assert _l2(g, a.values - c.values) < 1e-10
        assert block.l2_norm() == pytest.approx(_l2(g, b.values), abs=1e-12)


@pytest.mark.parametrize("degs, K", [((2,), 4), ((0, 1), 3), ((0, 1, 2), 2)])
def test_detail_components_match_the_one_block_pyramid(rng, degs, K):
    # the full box holds blocks with kappa_j = 0 and kappa_j = K on every axis
    g = grid_for(len(degs), degree=degs, level=K)
    f = g.function(rng.standard_normal(g.shape))
    dec = analyze(f, (K,) * g.d, degs)
    seen = []
    for kappa, comp in detail_components(dec):
        single = Decomposition(g, dec.degrees, {kappa: dec.blocks[kappa]})
        ref = synthesize(single).values
        assert np.abs(comp.values - ref).max() <= 1e-13 * np.abs(ref).max()
        seen.append(kappa)
    assert seen == list(dec.blocks)


def test_detail_components_never_synthesize(rng, monkeypatch):
    # synthesize and the sign series both evaluate through projectors._pyramid
    calls = []
    original = polymra.projectors._pyramid
    monkeypatch.setattr(polymra.projectors, "_pyramid",
                        lambda *args: calls.append(1) or original(*args))
    g = grid_for(2, degree=1, level=3)
    f = g.function(rng.standard_normal(g.shape))
    dec = analyze(f, (3, 3), (1, 1))
    parts = dict(detail_components(dec))
    assert len(parts) == 16 and calls == []
    polymra.projectors.synthesize(dec)
    assert calls == [1]


def test_scaling_tables_are_built_once_per_grid(rng, monkeypatch):
    built = []
    original = polymra.projectors.interval_basis_table
    monkeypatch.setattr(polymra.projectors, "interval_basis_table",
                        lambda *args: built.append(args) or original(*args))
    g = grid_for(2, degree=1, level=3)
    f = g.function(rng.standard_normal(g.shape))
    dec = analyze(f, (3, 3), (1, 1))
    synthesize(dec)
    dict(detail_components(dec))
    first = len(built)
    again = analyze(f, (3, 3), (1, 1))
    assert np.array_equal(synthesize(again).values, synthesize(dec).values)
    dict(detail_components(again))
    assert first > 0 and len(built) == first
    with pytest.raises(ValueError):
        polymra.projectors._scaling_block(g, 0, 3, 1)[0, 0] = 0.0
    # the wavelet tables of detail_components are kept with the grid too
    banks = []
    original_bank = polymra.projectors._two_scale_matrix
    monkeypatch.setattr(polymra.projectors, "_two_scale_matrix",
                        lambda *args: banks.append(args) or original_bank(*args))
    tables = dict(g.basis_tables)
    dict(detail_components(again))
    assert banks == [] and len(built) == first
    assert g.basis_tables.keys() == tables.keys()
    assert all(g.basis_tables[key] is table for key, table in tables.items())
    with pytest.raises(ValueError):
        polymra.projectors._wavelet_table(g, 1, 2, 1)[0, 0] = 0.0


def test_mutual_annihilation(rng):
    g = grid_for(2, degree=0, level=2)
    f = g.function(rng.standard_normal(g.shape))
    norm_f = _l2(g, f.values)
    kappas = [(0, 0), (1, 0), (0, 2), (1, 1), (2, 2)]
    for ka in kappas:
        ea = _detail(f, ka, (0, 0))
        twice = _detail(ea, ka, (0, 0))
        assert _l2(g, twice.values - ea.values) < 1e-10 * norm_f
        for kb in kappas:
            if ka == kb:
                continue
            cross = _detail(ea, kb, (0, 0))
            assert _l2(g, cross.values) < 1e-10 * norm_f


def test_self_adjoint_and_orthogonal(rng):
    g = grid_for(2, degree=(0, 1), level=2)
    degs = (0, 1)
    f = g.function(rng.standard_normal(g.shape))
    h = g.function(rng.standard_normal(g.shape))
    ka, kb = (1, 2), (2, 1)
    ef, eh = _detail(f, ka, degs), _detail(h, ka, degs)
    assert ef.inner(h) == pytest.approx(f.inner(eh), abs=1e-10)
    assert _detail(f, ka, degs).inner(_detail(h, kb, degs)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_telescoping(rng):
    # details over a box sum to the level projector, node by node
    g = grid_for(2, degree=(1, 0), level=3)
    degs = (1, 0)
    f = g.function(rng.standard_normal(g.shape))
    k = (2, 2)
    total = np.zeros(g.shape)
    from polymra import enum_box

    for kappa in enum_box(k):
        total += _detail(f, kappa, degs).values
    level = project_level(f, k, degs).to_grid().values
    assert np.max(np.abs(total - level)) < 1e-10


def test_parseval_examples(rng):
    g = grid_for(1, degree=0, level=4)
    f = g.sample(lambda x: (x < 0.5).astype(float))
    assert lp_norm(f, 2) ** 2 == pytest.approx(0.5, abs=1e-13)
    assert parseval_gap(f, (1,), (0,)) < 1e-12
    # block energies: 1/4 at kappa=0, 1/4 at kappa=1
    norms = {kappa: b.l2_norm() for kappa, b in analyze(f, (1,), (0,)).blocks.items()}
    assert norms[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert norms[(1,)] == pytest.approx(0.5, abs=1e-12)
    assert parseval_gap(g.zeros(), (3,), (0,)) == 0.0
    h = g.function(rng.standard_normal(g.shape))
    assert parseval_gap(h, (4,), (0,)) < 1e-10 * lp_norm(h, 2) ** 2


def test_analyze_constant():
    g = grid_for(2, degree=(1, 1), level=2)
    f = g.sample(lambda x, y: np.ones_like(x * y))
    dec = analyze(f, (2, 2), (1, 1))
    for kappa, block in dec.blocks.items():
        if kappa == (0, 0):
            assert block.l2_norm() == pytest.approx(1.0, abs=1e-12)
        else:
            assert block.l2_norm() < 1e-12


def test_analyze_single_basis_function(rng):
    g = grid_for(1, degree=1, level=3)
    kappa = (2,)
    coeffs = np.zeros((2, 2))
    coeffs[1, 0] = 1.0
    from polymra import DetailCoeffs

    block = DetailCoeffs(kappa=kappa, degrees=(1,), coeffs=coeffs)
    f = synthesize(Decomposition(grid=g, degrees=(1,), blocks={kappa: block}))
    dec = analyze(f, (3,), (1,))
    for kap, blk in dec.blocks.items():
        if kap == kappa:
            np.testing.assert_allclose(blk.coeffs, coeffs, atol=1e-12)
        else:
            assert blk.l2_norm() < 1e-12


@pytest.mark.parametrize("k", [("cross", (1.0, 1.0), 2), [(1, 2)], (1.0, 2)],
                         ids=["tagged-form", "list-of-levels", "float-level"])
def test_analyze_takes_only_a_box_corner(k):
    # a corner is an int or one int per axis; nothing else is read as one
    g = grid_for(2, degree=0, level=2)
    f = g.sample(lambda x, y: x * y)
    with pytest.raises(ValueError):
        analyze(f, k, (0, 0))


def test_levels_and_degrees_must_be_integers():
    with pytest.raises(ValueError):
        grid_for(2, degree=1.5)
    with pytest.raises(ValueError):
        project_level(grid_for(1, degree=0, level=2).zeros(), 1.0, 0)


def test_analyze_haar_coefficient_signs():
    g = grid_for(1, degree=0, level=3)
    f = g.sample(lambda x: (x < 0.5).astype(float))
    dec = analyze(f, (1,), (0,))
    assert dec.blocks[(0,)].coeffs.ravel()[0] == pytest.approx(0.5, abs=1e-13)
    assert dec.blocks[(1,)].coeffs.ravel()[0] == pytest.approx(-0.5, abs=1e-13)


def test_synthesize_roundtrip_box(rng):
    g = grid_for(2, degree=(1, 0), level=3)
    degs = (1, 0)
    f = _random_piecewise(g, (3, 3), degs, rng)
    back = synthesize(analyze(f, (3, 3), degs))
    assert np.max(np.abs(back.values - f.values)) < 1e-10


def test_synthesize_partial_box_is_coarser_projection(rng):
    g = grid_for(2, degree=(1, 0), level=3)
    degs = (1, 0)
    f = g.function(rng.standard_normal(g.shape))
    part = synthesize(analyze(f, (1, 2), degs))
    direct = project_level(f, (1, 2), degs).to_grid()
    assert np.max(np.abs(part.values - direct.values)) < 1e-10


def test_synthesize_empty():
    g = grid_for(1, degree=0, level=2)
    dec = Decomposition(grid=g, degrees=(0,), blocks={})
    assert np.all(synthesize(dec).values == 0.0)


def test_haar_oracle_1d(rng):
    g = grid_for(1, degree=0, level=6)
    for _ in range(10):
        f = g.function(rng.standard_normal(g.shape))
        dec = analyze(f, (6,), (0,))
        full = haar_coeff_tensor(f)
        for kappa, block in dec.blocks.items():
            want = haar_block(full, kappa).ravel()
            np.testing.assert_allclose(block.coeffs.ravel(), want, atol=1e-10)


def test_haar_oracle_2d(rng):
    g = grid_for(2, degree=0, level=4)
    for _ in range(5):
        f = g.function(rng.standard_normal(g.shape))
        dec = analyze(f, (4, 4), (0, 0))
        full = haar_coeff_tensor(f)
        for kappa, block in dec.blocks.items():
            want = haar_block(full, kappa).ravel()
            np.testing.assert_allclose(block.coeffs.ravel(), want, atol=1e-10)


def test_convergence_for_smooth_function():
    g = grid_for(1, degree=1, level=6)
    f = g.sample(lambda x: np.sin(np.pi * x))
    errs = []
    for k in range(1, 6):
        ek = project_level(f, (k,), (1,)).to_grid()
        errs.append(lp_norm(g.function(f.values - ek.values), 2))
    for a, b in zip(errs, errs[1:]):
        assert b < a
    # asymptotic decay at least 2^l_min per level
    assert errs[-2] / errs[-1] >= 2.0


def test_apply_axis_identity_and_commutation(rng):
    g = grid_for(2, degree=0, level=2)
    f = g.function(rng.standard_normal(g.shape))
    n0 = f.values.shape[0]
    same = apply_axis(np.eye(n0), 0, f)
    np.testing.assert_allclose(same.values, f.values, atol=1e-15)
    op0 = level_operator_1d(g, 0, 1, 0)
    op1 = detail_operator_1d(g, 1, 2, 0)
    ab = apply_axis(op1, 1, apply_axis(op0, 0, f))
    ba = apply_axis(op0, 0, apply_axis(op1, 1, f))
    assert np.max(np.abs(ab.values - ba.values)) < 1e-12


def test_transform_memory_is_linear_in_the_nodes(rng):
    # d = 1, K = 10, l = 1: 4096 nodes, 2048 coefficients; a dense per-axis
    # operator alone would take 64 MB
    g = grid_for(1, degree=1, level=10)
    f = g.function(rng.standard_normal(g.shape))
    tracemalloc.start()
    try:
        synthesize(analyze(f, (10,), (1,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
