"""Mixed differences, moduli, smoothness seminorms, extremal synthesis."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymra.lp_analysis
import polymra.projectors
import polymra.smoothness
from polymra.grid import GridFunction, grid_for, lp_norm
from polymra.lp_analysis import _norm_ratios, detail_components, lp_equivalence
from polymra.projectors import Decomposition, analyze, synthesize
from polymra.smoothness import (
    ModulusTable,
    SmoothnessParams,
    _axis_difference,
    _fill_norms,
    besov_seminorm,
    decay_check,
    modulus_table,
    synthesize_extremal,
)

from oracles import fill_norms_per_step, mixed_difference_brute, modulus_table_per_step


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothnessParams((0.0,))
        with pytest.raises(ValueError):
            SmoothnessParams((1.0, -2.0))
        with pytest.raises(ValueError):
            SmoothnessParams((1.0,), p=0.5)
        with pytest.raises(ValueError):
            SmoothnessParams((1.0,), theta=0.9)

    def test_order_values(self):
        assert SmoothnessParams((1.0,)).l == (2,)
        assert SmoothnessParams((0.5, 2.0, 2.5)).l == (1, 3, 3)

    @given(st.lists(st.floats(min_value=0.01, max_value=8.0), min_size=1, max_size=3))
    def test_order_brackets_alpha(self, alpha):
        params = SmoothnessParams(tuple(alpha))
        for a, l in zip(params.alpha, params.l):
            assert l >= 1 and a < l <= a + 1


class TestMixedDifference:
    def test_first_difference_of_linear(self):
        # step of 4 cells: the slab is the first 64 - 4 cells, where x + h - x = h
        g = grid_for(1, degree=1)
        f = g.sample(lambda x: x)
        diff = _axis_difference(f.values, g, 0, 1, 4, np.empty(f.values.size))
        assert diff.shape == ((64 - 4) * g.nodes_per_cell[0],)
        assert np.allclose(diff, 4 / 64, atol=1e-14)

    def test_second_difference_kills_affine(self):
        g = grid_for(1, degree=1)
        f = g.sample(lambda x: 2.0 - 3.0 * x)
        assert np.max(modulus_table(f, 2, 2.0).values) <= 1e-12

    def test_matches_double_sum(self):
        # nested axis differences on the slab against the flat binomial double sum
        g = grid_for(2, degree=(1, 0), level=4)
        rng = np.random.default_rng(42)
        f = GridFunction(g, rng.standard_normal(g.shape))
        for shifts, orders in (((3, 2), (1, 2)), ((1, 1), (2, 1)), ((4, 5), (1, 1))):
            got = f.values
            for axis in (0, 1):
                got = _axis_difference(got, g, axis, orders[axis], shifts[axis],
                                       np.empty(got.size))
            full = np.zeros(g.shape)
            full[tuple(slice(0, n) for n in got.shape)] = got
            assert np.max(np.abs(full - mixed_difference_brute(f, shifts, orders))) <= 1e-12

    def test_validation(self):
        g = grid_for(1, degree=0)
        f = g.zeros()
        with pytest.raises(ValueError):
            modulus_table(f, (1, 1), 2.0)
        with pytest.raises(ValueError):
            modulus_table(f, -1, 2.0)

    @pytest.mark.parametrize("orders", [1.5, "2", (1.0,), np.float64(1.0), None])
    def test_orders_must_be_integers(self, orders):
        # a float or a string order used to be truncated by int()
        f = grid_for(1, degree=0).zeros()
        with pytest.raises(ValueError, match="difference orders"):
            modulus_table(f, orders, 2.0)

    def test_integer_like_orders_accepted(self):
        f = grid_for(2, degree=0, level=2).zeros()
        for orders in (np.int64(1), (1, np.int32(2)), np.array([1, 2])):
            assert modulus_table(f, orders, 2.0).values.shape == (3, 3)


class TestMixedModulus:
    """The mixed modulus at the dyadic scales t = 2^-m, read off modulus_table."""

    def test_closed_form_linear(self):
        # sup over h <= 2^-m of ||h||_Lp(0, 1-h) = 2^-m (1 - 2^-m)^(1/p) for m >= 1,
        # where h (1 - h)^(1/p) still grows; at m = 2 that is (1/4) (3/4)^(1/p)
        g = grid_for(1, degree=1)
        f = g.sample(lambda x: x)
        for p in (1.0, 2.0, 3.0):
            table = modulus_table(f, 1, p)
            for m in range(1, g.level + 1):
                t = 2.0 ** -m
                assert table.values[m] == pytest.approx(t * (1.0 - t) ** (1.0 / p), abs=1e-13)

    def test_constant_gives_zero(self):
        g = grid_for(1, degree=0)
        f = g.sample(lambda x: np.full_like(x, 5.0))
        assert np.all(modulus_table(f, 1, 2.0).values == 0.0)

    def test_monotone_in_t(self):
        g = grid_for(1, degree=1)
        f = g.sample(lambda x: np.sin(np.pi * x))
        vals = modulus_table(f, 1, 2.0).values
        assert np.all(np.diff(vals) <= 0.0)

    def test_vanishes_on_low_degree_polynomials(self):
        # degree < order along every requested axis kills the difference
        g = grid_for(2, degree=(1, 2), level=3)
        f = g.sample(lambda x, y: 3.0 * y ** 2)
        assert np.max(modulus_table(f, (1, 1), 2.0, axes=(0,)).values) <= 1e-12
        aff = g.sample(lambda x, y: (1.0 + 2.0 * x) * y ** 2)
        assert np.max(modulus_table(aff, (2, 1), 2.0, axes=(0,)).values) <= 1e-12

    def test_axes_validation(self):
        g = grid_for(2, degree=0, level=2)
        f = g.sample(lambda x, y: x * y)
        for axes in ((3,), (), (0.7,), ("1",), (1.0,), 1):
            with pytest.raises(ValueError):
                modulus_table(f, 1, 2.0, axes=axes)
        assert modulus_table(f, 1, 2.0, axes=(np.int64(1),)).axes == (1,)


class TestModulusTable:
    def test_monotone_and_decaying(self):
        g = grid_for(2, degree=(1, 1), level=4)
        f = g.sample(lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y))
        table = modulus_table(f, (2, 2), 2.0)
        assert isinstance(table, ModulusTable)
        assert table.axes == (0, 1) and table.scales[0] == 1.0
        assert table.values.shape == (5, 5)
        for axis in (0, 1):
            assert np.all(np.diff(table.values, axis=axis) <= 1e-15)
        assert table.values[-1, -1] < 0.05 * table.values[0, 0]

    def test_matches_pointwise_modulus(self):
        # the modulus at t = 2^-m as the max over the steps s <= 2^(K-m) cells
        g = grid_for(1, degree=1, level=4)
        f = g.sample(lambda x: np.exp(x))
        table = modulus_table(f, (1,), 3.0)
        for m in range(5):
            want = max(lp_norm(GridFunction(g, mixed_difference_brute(f, (s,), (1,))), 3.0)
                       for s in range(1, 2 ** (4 - m) + 1))
            assert table.values[m] == pytest.approx(want, abs=1e-14)


    @pytest.mark.parametrize("p", [1.0, 2.5, math.inf])
    def test_axis_subset_matches_brute_force_at_every_step(self, p):
        # d = 3 with 2, 4 and 6 nodes per cell; the differences run along
        # axes 0 and 2 only, so axis 1 keeps its whole length in every slab;
        # an order-0 axis 0 must give the same norms at every step
        rng = np.random.default_rng(23)
        g = grid_for(3, degree=(0, 1, 2), level=3)
        f = GridFunction(g, rng.standard_normal(g.shape))
        cells = g.cells_per_axis
        idx = [2 ** (g.level - m) - 1 for m in range(g.level + 1)]
        for orders in ((2, 5, 1), (0, 5, 1), (1, 5, 3)):
            norms = np.zeros((cells, cells))
            for s0 in range(1, cells + 1):
                for s2 in range(1, cells + 1):
                    diff = mixed_difference_brute(f, (s0, 1, s2), (orders[0], 0, orders[2]))
                    norms[s0 - 1, s2 - 1] = lp_norm(GridFunction(g, diff), p)
            got = np.zeros((cells, cells))
            _fill_norms(f.values, g, orders, p, (0, 2), got)
            np.testing.assert_allclose(got, norms, rtol=1e-12, atol=0.0)
            # out is indexed in the order of the axes passed, whichever is nested first
            got = np.zeros((cells, cells))
            _fill_norms(f.values, g, orders, p, (2, 0), got)
            np.testing.assert_allclose(got.T, norms, rtol=1e-12, atol=0.0)
            for axis in (0, 1):
                norms = np.maximum.accumulate(norms, axis=axis)
            table = modulus_table(f, orders, p, axes=(0, 2))
            assert table.axes == (0, 2)
            np.testing.assert_allclose(
                table.values, norms[np.ix_(idx, idx)], rtol=1e-12, atol=0.0)

    def test_memory_stays_below_four_grid_functions(self):
        # each difference lives on its valid slab and is accumulated in place
        g = grid_for(2, degree=(0, 1), level=6)
        f = GridFunction(g, np.random.default_rng(0).standard_normal(g.shape))
        tracemalloc.start()
        try:
            modulus_table(f, (1, 2), 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * f.values.nbytes, peak / f.values.nbytes

    def test_order_one_innermost_stays_below_three_grid_functions(self):
        # the innermost order-1 difference needs no product buffer (2.32 measured)
        g = grid_for(2, degree=(0, 1), level=6)
        f = GridFunction(g, np.random.default_rng(0).standard_normal(g.shape))
        tracemalloc.start()
        try:
            modulus_table(f, (1, 2), 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * f.values.nbytes, peak / f.values.nbytes

    @pytest.mark.parametrize("level, orders, want", [
        # the bench grid, 64 cells: 31 order-2 slabs, each with 63 order-1 steps
        (6, (1, 2), {(1, 2): 31, (0, 1): 31 * 63}),
        # equal orders: axis 0 innermost
        (4, (1, 1), {(1, 1): 15, (0, 1): 15 * 15}),
        # the identity axis outermost, copied once
        (4, (1, 0), {(1, 0): 1, (0, 1): 15}),
    ])
    def test_cheapest_difference_runs_innermost(self, monkeypatch, level, orders, want):
        g = grid_for(2, degree=(0, 1), level=level)
        f = GridFunction(g, np.random.default_rng(0).standard_normal(g.shape))
        calls = []
        diff = polymra.smoothness._axis_difference

        def counted(values, grid, axis, order, shift, buf):
            calls.append((axis, order))
            return diff(values, grid, axis, order, shift, buf)

        monkeypatch.setattr(polymra.smoothness, "_axis_difference", counted)
        modulus_table(f, orders, 2.0)
        assert {key: calls.count(key) for key in set(calls)} == want

    @pytest.mark.parametrize("orders", [(0, 2), (2, 1), (1, 2), (3, 1), (1, 1)])
    def test_matches_brute_force_differences(self, orders):
        # every step up to the cell count, so the spans l * s reach and pass it;
        # noise peaks at the smallest step, so only the smooth input gives a
        # table that varies with both scales (and would show a transposed one)
        rng = np.random.default_rng(11)
        g = grid_for(2, degree=(1, 0), level=3)
        noise = GridFunction(g, rng.standard_normal(g.shape))
        smooth = g.sample(lambda x, y: np.sin(5 * x) * np.exp(3 * y) + x ** 3 * y)
        cells = g.cells_per_axis
        idx = [2 ** (g.level - m) - 1 for m in range(g.level + 1)]
        for f in (noise, smooth):
            norms = np.zeros((cells, cells))
            for s0 in range(1, cells + 1):
                for s1 in range(1, cells + 1):
                    diff = mixed_difference_brute(f, (s0, s1), orders)
                    norms[s0 - 1, s1 - 1] = lp_norm(GridFunction(g, diff), 3.0)
            for axis in (0, 1):
                norms = np.maximum.accumulate(norms, axis=axis)
            want = norms[np.ix_(idx, idx)]
            np.testing.assert_allclose(
                modulus_table(f, orders, 3.0).values, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("kind", [
        "noise", "constant", "spike", "alternating", "subnormal", "huge"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_reused_buffers_match_the_per_step_route_bit_for_bit(self, kind, p):
        # the buffered walk and the allocate / abs / pow route of the oracle
        # run the same roundings; at 1e154 squares and cubes overflow to inf
        rng = np.random.default_rng(31)
        configs = [
            (grid_for(1, degree=1, level=4), [(0,), (1,), (2,), (3,)]),
            (grid_for(2, degree=(1, 0), level=3), [(0, 3), (1, 2), (3, 1), (2, 2)]),
            (grid_for(3, degree=(0, 1, 2), level=2), [(1, 0, 3), (2, 1, 1), (3, 2, 0)]),
        ]
        for g, order_list in configs:
            noise = rng.standard_normal(g.shape)
            values = {
                "noise": noise,
                "constant": np.full(g.shape, 0.7),
                "spike": np.zeros(g.shape),
                "alternating": np.where(np.indices(g.shape).sum(axis=0) % 2, -1.5, 1.5),
                "subnormal": noise * 1e-310,
                "huge": np.where(noise < 0, -1e154, 1e154),
            }[kind]
            if kind == "spike":
                values[tuple(n // 3 for n in g.shape)] = 1.0
            f = GridFunction(g, values)
            cells = g.cells_per_axis
            for orders in order_list:
                for axes in {tuple(range(g.d)), tuple(reversed(range(g.d)))}:
                    got = np.zeros((cells,) * g.d)
                    want = np.zeros((cells,) * g.d)
                    _fill_norms(values, g, orders, p, axes, got)
                    fill_norms_per_step(values, g, orders, p, axes, want)
                    assert np.array_equal(got, want, equal_nan=True), (orders, axes)
                for axes in {tuple(range(g.d)), tuple(sorted({0, g.d - 1}))}:
                    got = modulus_table(f, orders, p, axes=axes).values
                    want = modulus_table_per_step(f, orders, p, axes)
                    assert np.array_equal(got, want, equal_nan=True), (orders, axes)


class TestBesovSeminorm:
    def test_zero_and_homogeneity(self):
        g = grid_for(1, degree=1, level=4)
        params = SmoothnessParams((1.0,), p=2.0, theta=2.0)
        assert besov_seminorm(g.zeros(), params) == 0.0
        f = g.sample(lambda x: np.sin(np.pi * x))
        s = besov_seminorm(f, params)
        assert besov_seminorm(GridFunction(g, -3.0 * f.values), params) == pytest.approx(
            3.0 * s, rel=1e-12)

    def test_large_theta_approaches_sup_form(self):
        g = grid_for(1, degree=1, level=5)
        f = g.sample(lambda x: np.sin(np.pi * x))
        s_inf = besov_seminorm(f, SmoothnessParams((1.0,), p=2.0, theta=math.inf))
        s_big = besov_seminorm(f, SmoothnessParams((1.0,), p=2.0, theta=2.0 ** 10))
        assert abs(s_big - s_inf) <= 0.1 * s_inf

    def test_embedding_constant(self):
        # sup-form seminorm <= prod 2^(1+alpha_j) * theta-form seminorm
        g = grid_for(2, degree=(1, 0), level=4)
        holder = SmoothnessParams((1.0, 0.5), p=2.0, theta=math.inf)
        besov = SmoothnessParams((1.0, 0.5), p=2.0, theta=1.5)
        c1 = 2.0 ** (1 + 1.0) * 2.0 ** (1 + 0.5)
        rng = np.random.default_rng(5)
        corpus = [
            g.sample(lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y)),
            g.sample(lambda x, y: np.sin(2 * np.pi * x) * np.cos(np.pi * y)),
            GridFunction(g, rng.standard_normal(g.shape)),
        ]
        for f in corpus:
            assert besov_seminorm(f, holder) <= c1 * besov_seminorm(f, besov)

    def test_dimension_mismatch(self):
        g = grid_for(1, degree=0)
        with pytest.raises(ValueError):
            besov_seminorm(g.zeros(), SmoothnessParams((1.0, 1.0)))


class TestDecayCheck:
    def test_single_block_localizes(self):
        g = grid_for(1, degree=1, level=4)
        params = SmoothnessParams((1.5,), p=2.0)
        noise = GridFunction(g, np.random.default_rng(3).standard_normal(g.shape))
        dec = analyze(noise, (4,), (1,))
        kappa = (2,)
        single = Decomposition(grid=g, degrees=(1,), blocks={kappa: dec.blocks[kappa]})
        f = synthesize(single)
        f = GridFunction(g, f.values / lp_norm(f, 2.0))
        ratios = decay_check(f, params, 2.0)
        assert ratios[kappa] == pytest.approx(2.0 ** (2 * 1.5), rel=1e-12)
        others = [v for k, v in ratios.items() if k != kappa]
        assert max(others) <= 1e-10

    @pytest.mark.parametrize("q", [0.5, math.nan])
    def test_q_below_one_is_named(self, q):
        # the norm exponent of the blocks is q, not the class exponent p
        f = grid_for(1, degree=1, level=3).zeros()
        with pytest.raises(ValueError, match="q must be >= 1"):
            decay_check(f, SmoothnessParams((1.0,), p=2.0), q)

    def test_exponent_shift_audit(self):
        # bound exponent moves by exactly (1/p - 1/q)_+ per unit level
        g = grid_for(1, degree=1, level=4)
        params = SmoothnessParams((1.0,), p=2.0)
        f = synthesize_extremal(params, 4, seed=2)
        comps = dict(detail_components(analyze(f, (4,), (1,))))
        r2 = decay_check(f, params, 2.0)
        r4 = decay_check(f, params, 4.0)
        r1 = decay_check(f, params, 1.0)
        for kappa in ((1,), (3,), (4,)):
            n2 = lp_norm(comps[kappa], 2.0)
            n4 = lp_norm(comps[kappa], 4.0)
            n1 = lp_norm(comps[kappa], 1.0)
            shift = 2.0 ** (-(1 / 2 - 1 / 4) * kappa[0])
            assert (r4[kappa] / r2[kappa]) * (n2 / n4) == pytest.approx(shift, rel=1e-12)
            # q < p: no shift at all
            assert (r1[kappa] / r2[kappa]) * (n2 / n1) == pytest.approx(1.0, rel=1e-12)

    def test_sine_baseline_stable_in_resolution(self):
        # recorded baseline: max ratio 0.402042 at every K for normalized sin
        params = SmoothnessParams((1.0,), p=2.0, theta=math.inf)
        maxima = []
        for K in (3, 5):
            g = grid_for(1, degree=1, level=K)
            f = g.sample(lambda x: np.sin(np.pi * x))
            f = GridFunction(g, f.values / besov_seminorm(f, params))
            maxima.append(max(decay_check(f, params, 2.0).values()))
        assert maxima[0] == pytest.approx(0.402042, abs=5e-4)
        assert maxima[1] <= 1.25 * maxima[0]

    def test_sine_baseline_2d(self):
        params = SmoothnessParams((1.0, 1.0), p=2.0, theta=math.inf)
        g = grid_for(2, degree=(1, 1), level=3)
        f = g.sample(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        f = GridFunction(g, f.values / besov_seminorm(f, params))
        assert max(decay_check(f, params, 2.0).values()) == pytest.approx(0.170769, abs=5e-4)


class TestSynthesizeExtremal:
    def test_exact_decay_profile(self):
        for p in (2.0, 3.0):
            params = SmoothnessParams((1.5,), p=p)
            f = synthesize_extremal(params, 4, seed=11)
            ratios = decay_check(f, params, p)
            for kappa, r in ratios.items():
                assert r == pytest.approx(1.0, abs=1e-6)

    def test_parseval_identity(self):
        params = SmoothnessParams((1.5,), p=2.0)
        f = synthesize_extremal(params, 4, seed=11)
        want = sum(4.0 ** -(k * 1.5) for k in range(5))
        assert lp_norm(f, 2.0) ** 2 == pytest.approx(want, abs=1e-10)

    def test_seminorm_normalization_pass(self):
        params = SmoothnessParams((1.0,), p=2.0, theta=math.inf)
        f = synthesize_extremal(params, 4, seed=7)
        s = besov_seminorm(f, params)
        assert np.isfinite(s) and s > 0
        normalized = GridFunction(f.grid, f.values / s)
        assert besov_seminorm(normalized, params) <= 1.0 + 1e-9

    def test_2d_profile(self):
        params = SmoothnessParams((1.0, 0.5), p=2.0)
        f = synthesize_extremal(params, 3, seed=9)
        ratios = decay_check(f, params, 2.0)
        for kappa, r in ratios.items():
            assert r == pytest.approx(1.0, abs=1e-6)
        assert f.grid.d == 2 and f.grid.level == 3


def test_component_consumers_hold_a_few_blocks_at_a_time():
    # d = 2 at level 5: 36 detail blocks; each consumer folds over them one
    # at a time, so its peak stays a few grid functions, not one per block
    params = SmoothnessParams((1.0, 1.0))
    f = synthesize_extremal(params, 5, 0)
    grid_bytes = f.values.nbytes
    dec = analyze(f, (5, 5), (1, 1))
    calls = {
        "synthesize_extremal": lambda: synthesize_extremal(params, 5, 0),
        "decay_check": lambda: decay_check(f, params, 3.0),
        "lp_equivalence": lambda: lp_equivalence(f, 3.0, (5, 5), (1, 1)),
        "_norm_ratios": lambda: _norm_ratios(dec, (1.5, 3.0, 4.0)),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid_bytes, (name, peak / grid_bytes)


def test_profile_is_built_in_coefficient_space(monkeypatch):
    # at p = 2 each block's norm is its coefficient norm, so no block is
    # evaluated on the grid and one synthesis builds the whole profile
    counts = {"_detail_values": 0, "synthesize": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for mod in (polymra.projectors, polymra.lp_analysis):
        monkeypatch.setattr(mod, "_detail_values", counted("_detail_values", mod._detail_values))
    monkeypatch.setattr(polymra.smoothness, "synthesize", counted("synthesize", synthesize))
    params = SmoothnessParams((0.5, 1.5, 2.5), p=2.0)
    assert tuple(lj - 1 for lj in params.l) == (0, 1, 2)
    f = synthesize_extremal(params, 3, seed=4)
    assert counts == {"_detail_values": 0, "synthesize": 1}
    monkeypatch.undo()
    # the quadrature norm of every block hits the profile
    dec = analyze(f, (3, 3, 3), (0, 1, 2))
    for kappa, gk in detail_components(dec):
        want = 2.0 ** -sum(k * a for k, a in zip(kappa, params.alpha))
        assert lp_norm(gk, 2.0) == pytest.approx(want, rel=1e-12), kappa
