"""Tests for hyperbolic-cross truncation, budgets and rate fits."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymra.smoothness
import polymra.widths
from polymra.basis import detail_dim
from polymra.grid import GridFunction, grid_for
from polymra.indexing import enum_cross, minimal_slots
from polymra.projectors import Decomposition, _full_coeffs, analyze, synthesize
from polymra.smoothness import SmoothnessParams, besov_seminorm, synthesize_extremal
from polymra.widths import (
    BudgetPlan,
    WidthExperimentConfig,
    budget_plan,
    choose_beta,
    rate_fit,
    tail_model,
    truncation_error,
    width_experiment,
    width_model_exponents,
)

from oracles import budget_allocation_brute, cross_tail_sq_brute, truncation_error_per_block


def params2(alpha=(1.0, 1.0), p=2.0, theta=2.0):
    return SmoothnessParams(alpha=alpha, p=p, theta=theta)


class TestChooseBeta:
    def test_all_minimal_slots(self):
        assert choose_beta(params2(), 2.0) == (1.0, 1.0)

    def test_midpoint_one_two(self):
        # admissible interval for the second slot is (1, 2)
        assert choose_beta(params2(alpha=(1.0, 2.0)), 2.0) == (1.0, 1.5)

    def test_midpoint_one_three(self):
        assert choose_beta(params2(alpha=(1.0, 3.0)), 2.0) == (1.0, 2.0)

    def test_integrability_shift_widens_the_interval(self):
        # s = 1/1 - 1/2 = 1/2: interval (1, 1.5/0.5) = (1, 3), midpoint 2
        beta = choose_beta(params2(alpha=(1.0, 2.0), p=1.0), 2.0)
        assert beta == (1.0, 2.0)

    def test_condition_violation_rejected(self):
        with pytest.raises(ValueError, match="effective smoothness"):
            choose_beta(params2(alpha=(0.4, 1.0), p=1.0), math.inf)

    @given(
        alpha=st.lists(st.floats(0.6, 3.0), min_size=1, max_size=3),
        p=st.floats(1.0, 4.0),
        q=st.floats(1.0, 4.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_beta_lands_in_the_admissible_interval(self, alpha, p, q):
        alpha = tuple(alpha)
        s = max(0.0, 1.0 / p - 1.0 / q)
        if min(alpha) - s <= 1e-3:
            return
        beta = choose_beta(params2(alpha=alpha, p=p, theta=2.0), q)
        m = min(alpha) - s
        # minimal slots follow the indexing tie rule (relative tolerance 1e-12):
        # for alpha = (0.6000000000000001, 0.6) the open interval (1, 1 + 2^-52)
        # of the first slot holds no float, so it must count as minimal
        minimal = minimal_slots(alpha)
        for j, (a, b) in enumerate(zip(alpha, beta)):
            if j in minimal:
                assert b == 1.0
            else:
                assert 1.0 < b < (a - s) / m


class TestTruncationError:
    def test_haar_step_lies_in_the_cross(self):
        grid = grid_for(1, degree=0, level=5)
        f = grid.sample(lambda x: np.where(x < 0.5, 1.0, 0.0))
        for r, n_expect in ((1, 2), (2, 4)):
            err, n = truncation_error(f, (1.0,), r, 2.0, degrees=(0,))
            assert err <= 1e-12
            assert n == n_expect

    def test_single_cross_block_has_no_tail(self):
        grid = grid_for(2, degree=(1, 1), level=3)
        rng = np.random.default_rng(3)
        noise = GridFunction(grid, rng.standard_normal(grid.shape))
        dec = analyze(noise, (3, 3), (1, 1))
        kappa = (1, 1)
        one = Decomposition(grid=grid, degrees=dec.degrees, blocks={kappa: dec.blocks[kappa]})
        err, _ = truncation_error(synthesize(one), (1.0, 1.0), 2, 2.0, degrees=(1, 1))
        assert err <= 1e-10

    def test_extremal_tail_matches_the_lattice_oracle(self):
        f = synthesize_extremal(params2(), 4, 99)
        for r in (2, 3, 4):
            err, _ = truncation_error(f, (1.0, 1.0), r, 2.0, degrees=(1, 1))
            oracle = cross_tail_sq_brute((1.0, 1.0), (1.0, 1.0), r, box=4)
            assert err**2 == pytest.approx(oracle, rel=1e-8)

    def test_cross_dimension_closed_form(self):
        # degrees (1,): block dims 2, 2, 4, 8, ... so the cross holds 2^(r+1)
        f = synthesize_extremal(params2(alpha=(1.0,)), 5, 1)
        for r in (1, 3, 5, 8):
            _, n = truncation_error(f, (1.0,), r, 2.0, degrees=(1,))
            assert n == 2 ** (r + 1)

    def test_error_non_increasing_in_radius(self):
        grid = grid_for(2, degree=(1, 1), level=3)
        rng = np.random.default_rng(8)
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        errs = [truncation_error(f, (1.0, 1.0), r, 2.0, degrees=(1, 1))[0] for r in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_q_other_than_two_uses_the_synthesized_tail(self):
        f = synthesize_extremal(params2(), 3, 4)
        err3, _ = truncation_error(f, (1.0, 1.0), 2, 3.0, degrees=(1, 1))
        err2, _ = truncation_error(f, (1.0, 1.0), 2, 2.0, degrees=(1, 1))
        assert err3 > 0.0
        assert err3 != pytest.approx(err2, rel=1e-6)

    def test_degrees_are_required_not_read_off_the_grid(self):
        # eight nodes per cell would read as degree 3 on a grid_for grid
        grid = grid_for(1, degree=1, level=3, nodes_per_cell=8)
        f = GridFunction(grid, np.ones(grid.shape))
        _, n = truncation_error(f, (1.0,), 2, 2.0, degrees=(1,))
        assert n == sum(detail_dim((k,), (1,)) for k in range(3))
        with pytest.raises(TypeError):
            truncation_error(f, (1.0,), 2, 2.0)

    def test_validation(self):
        f = synthesize_extremal(params2(alpha=(1.0,)), 3, 0)
        with pytest.raises(ValueError, match="radius"):
            truncation_error(f, (1.0,), 0, 2.0, degrees=(1,))
        with pytest.raises(ValueError, match="length"):
            truncation_error(f, (1.0, 1.0), 2, 2.0, degrees=(1,))

    @pytest.mark.parametrize("q", [0.5, math.nan, -1.0])
    def test_invalid_q_rejected_when_nothing_is_dropped(self, q):
        # at r = 10 every block of the level-3 box lies in the cross
        f = synthesize_extremal(params2(alpha=(1.0,)), 3, 0)
        with pytest.raises(ValueError, match="q must be >= 1"):
            truncation_error(f, (1.0,), 10, q, degrees=(1,))

    @pytest.mark.parametrize("q", [2.0, 3.0, math.inf])
    @pytest.mark.parametrize("beta, radii, degrees, level", [
        ((1.0,), (1, 2.5, 3), (1,), 4),
        # exact ties: 5 * 0.4 <= 2 although float(0.4) > 2/5, and (2, 0)
        ((1.0, 0.4), (2, 2.5), (0, 0), 5),
        # a float dot product puts (1, 3) outside: 0.6 + 3 * 0.8 gives 3.0000000000000004
        ((0.6, 0.8), (3,), (0, 0), 3),
        # the key of (2, 1) equals the radius 3: 2 lo_0 + lo_1 = 3 exactly
        ((1.0, math.nextafter(1.0, 2.0)), (3,), (1, 0), 3),
        ((1.0, 1.5, 0.75), (2, 2.5), (0, 1, 0), 3),
        # two axes of degree >= 1: tensor rows and DetailCoeffs order differently
        ((1.0, 1.5), (2, 3), (1, 2), 3),
    ], ids=["d1", "d2-float-tie", "d2-float-sum-tie", "d2-key-tie", "d3", "d2-two-degrees"])
    def test_matches_the_per_block_reference(self, beta, radii, degrees, level, q):
        grid = grid_for(len(beta), degree=degrees, level=level)
        f = GridFunction(grid, np.random.default_rng(len(beta)).standard_normal(grid.shape))
        for r in radii:
            got = truncation_error(f, beta, r, q, degrees)
            assert got[0] > 0.0
            assert got == truncation_error_per_block(f, beta, r, q, degrees)


class TestTailModel:
    def test_sup_norm_class_model_audit(self):
        # theta = inf, q = 2: log power is (c - 1) / 2
        p = params2(theta=math.inf)
        for r in (2, 5, 9):
            assert tail_model(p, 2.0, r) == pytest.approx(2.0**-r * math.sqrt(r), rel=1e-12)

    def test_large_p_switches_to_the_unshifted_rate(self):
        # q < p: rate min(alpha), log power (c - 1)(1/p* - 1/theta)_+
        p = params2(p=3.0, theta=4.0)
        for r in (2, 6):
            assert tail_model(p, 2.0, r) == pytest.approx(2.0**-r * r**0.25, rel=1e-12)

    def test_tail_ratios_bounded_for_unit_class_profile(self):
        sp = params2(alpha=(1.0,))
        f = synthesize_extremal(sp, 6, 11)
        unit = GridFunction(f.grid, f.values / besov_seminorm(f, sp))
        # degree l - 1 = 1 for alpha = 1
        ratios = [truncation_error(unit, (1.0,), r, 2.0, degrees=(1,))[0]
                  / tail_model(sp, 2.0, r) for r in range(1, 6)]
        assert ratios[0] == pytest.approx(0.0282, abs=0.005)
        assert all(0.0 < x <= 0.05 for x in ratios)

    @pytest.mark.parametrize("r", [-1, 0, 0.5, math.inf, math.nan])
    def test_radius_outside_one_to_infinity_rejected(self, r):
        # r = -1 used to give a complex number, r ** (1/2) of a negative float
        with pytest.raises(ValueError, match="cross radius must be finite and >= 1"):
            tail_model(params2(theta=math.inf), 2.0, r)

    def test_zero_function_ratio(self):
        grid = grid_for(1, degree=1, level=4)
        zero = GridFunction(grid, np.zeros(grid.shape))
        err = truncation_error(zero, (1.0,), 3, 2.0, degrees=(1,))[0]
        assert err / tail_model(params2(alpha=(1.0,)), 2.0, 3) == 0.0


class TestBudgetPlan:
    def test_frozen_constants_and_totals(self):
        plan = budget_plan(6, (1.0, 1.0), params2(), 2.0)
        assert plan.j0 == 12
        assert plan.gamma == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert plan.gamma_prime == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert plan.epsilon == 0.5
        assert plan.c0 == 4
        assert plan.cross_dim == 1024
        assert plan.total == 19597

    def test_allocation_clamped_to_block_dimension(self):
        plan = budget_plan(6, (1.0, 1.0), params2(), 2.0)
        assert len(plan.rows) == len(plan.budgets) > 0
        for kappa, n in zip(plan.rows.tolist(), plan.budgets):
            assert 1 <= n <= detail_dim(kappa, (1, 1))

    def test_every_shell_gets_budget(self):
        plan = budget_plan(4, (1.0, 1.0), params2(), 2.0)
        weights = set(plan.rows.sum(axis=1).tolist())
        assert weights == set(range(5, 4 + plan.j0 + 1))

    def test_total_growth_band(self):
        # total / (2^r r^(c-1)) settles near 54 and stays inside a fixed band
        for r in range(4, 13):
            plan = budget_plan(r, (1.0, 1.0), params2(), 2.0)
            ratio = plan.total / (2.0**r * r)
            assert 40.0 <= ratio <= 60.0

    def test_one_dimensional_plan(self):
        plan = budget_plan(6, (1.0,), params2(alpha=(1.0,)), 2.0)
        assert plan.j0 == 12
        assert plan.epsilon == 0.5
        assert plan.total == 919

    @pytest.mark.parametrize("alpha, r", [((1.0, 1.0, 1.0), 8), ((1.0, 2.0), 10),
                                          ((0.8, 1.3, 2.0), 9), ((1.0,), 70),
                                          ((0.8, 1.3, 2.0), 12), ((1.0, 1.5, 1.5), 10),
                                          ((1.0, 2.0), 30)])
    def test_allocation_matches_the_shell_by_shell_oracle(self, alpha, r):
        # at alpha=(1,), r=70 budgets and block dimensions exceed 2^63: exact ints only;
        # (0.8, 1.3, 2.0) has two non-minimal slots, (1.0, 1.5, 1.5) two tied ones
        params = SmoothnessParams(alpha=alpha)
        beta = choose_beta(params, 2.0)
        plan = budget_plan(r, beta, params, 2.0)
        allocation, cross_dim = budget_allocation_brute(plan, beta, params)
        rows = [tuple(kappa) for kappa in plan.rows.tolist()]
        assert list(zip(rows, plan.budgets)) == sorted(allocation.items())
        assert plan.cross_dim == cross_dim
        assert plan.total == cross_dim + sum(allocation.values())
        assert all(type(n) is int for n in plan.budgets)
        assert type(plan.total) is int

    def test_bench_configuration_is_pinned(self):
        # the widths benchmark argv: --d 3 --alpha 1,1,1 --r 3..8, planned at r = 8
        params = SmoothnessParams(alpha=(1.0, 1.0, 1.0))
        beta = choose_beta(params, 2.0)
        plan = budget_plan(8, beta, params, 2.0)
        assert plan.j0 == 16
        assert plan.rows.shape == (2760, 3)
        assert plan.total == 1813405
        rows = [tuple(kappa) for kappa in plan.rows.tolist()]
        assert rows == sorted(set(rows))
        assert set(rows).isdisjoint(enum_cross(beta, 8))
        assert set(rows) <= set(enum_cross(beta, 8 + plan.j0))

    def test_memory_stays_below_one_outer_box_lattice(self):
        # the outer box at the bench argv is 25^3 rows; measured peak 0.81 lattices:
        # the keys over the box, then arrays over the outer cross's rows, no (N, d)
        # lattice of the box
        params = SmoothnessParams(alpha=(1.0, 1.0, 1.0))
        beta = choose_beta(params, 2.0)
        budget_plan(8, beta, params, 2.0)  # warm the weight cache and imports
        lattice_bytes = 25 ** 3 * 3 * np.dtype(np.int64).itemsize
        tracemalloc.start()
        try:
            budget_plan(8, beta, params, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lattice_bytes, peak / lattice_bytes

    def test_radius_must_be_an_integer(self):
        params = SmoothnessParams(alpha=(1.0, 1.0, 1.0))
        beta = choose_beta(params, 2.0)
        with pytest.raises(ValueError, match="cross radius must be an integer, got 8.7"):
            budget_plan(8.7, beta, params, 2.0)
        plan = budget_plan(np.int64(8), beta, params, 2.0)
        assert type(plan.r) is int
        assert plan.total == budget_plan(8, beta, params, 2.0).total

    def test_hypotheses_are_enforced(self):
        with pytest.raises(ValueError, match="q >= max"):
            budget_plan(6, (1.0, 1.0), params2(), 1.5)
        with pytest.raises(ValueError, match="margin"):
            budget_plan(6, (1.0,), params2(alpha=(0.4,)), 2.0)
        with pytest.raises(ValueError, match="must equal 1"):
            budget_plan(6, (1.5, 1.0), params2(), 2.0)
        with pytest.raises(ValueError, match="exceed 1"):
            budget_plan(6, (1.0, 1.0), params2(alpha=(1.0, 2.0)), 2.0)
        with pytest.raises(ValueError, match="no budget margin"):
            budget_plan(6, (1.0, 3.0), params2(alpha=(1.0, 2.0)), 2.0)

    def test_nan_exponent_is_rejected(self):
        with pytest.raises(ValueError, match="q >= max"):
            budget_plan(6, (1.0, 1.0), params2(), math.nan)


class TestWidthModelExponents:
    def test_base_case(self):
        assert width_model_exponents(params2(), 2.0) == (1.0, 1.0)

    def test_hand_expanded_matrix(self):
        # code exponents must equal the expanded model for every combination
        for alpha in ((1.0, 1.0), (0.8, 1.3), (1.0, 1.0, 1.0)):
            for p in (1.0, 2.0, 3.0):
                for q in (2.0, 4.0):
                    for theta in (2.0, 4.0, math.inf):
                        sp = params2(alpha=alpha, p=p, theta=theta)
                        power, log_power = width_model_exponents(sp, q)
                        shift = max(0.0, 1.0 / p - 1.0 / q)
                        rate = min(a - shift for a in alpha)
                        count = sum(
                            1 for a in alpha if abs(a - min(alpha)) <= 1e-12 * max(1.0, min(alpha))
                        )
                        blend = min(2.0, max(p, q))
                        inv_theta = 0.0 if math.isinf(theta) else 1.0 / theta
                        expect = (rate + max(0.0, 1.0 / blend - inv_theta)) * (count - 1)
                        assert power == rate
                        assert log_power == expect


class TestWidthExperiment:
    def test_one_dimensional_law_is_exact(self):
        cfg = WidthExperimentConfig(
            params=params2(alpha=(1.0,)), q=2.0, level=6, r_values=tuple(range(4, 11)), seed=5
        )
        rows = width_experiment(cfg)
        for row in rows:
            assert row["n"] == 2 ** (row["r"] + 1)
            assert row["error"] == pytest.approx(2.0 ** -row["r"] / math.sqrt(3.0), rel=1e-9)
        slope, loglog = rate_fit([(row["n"], row["error"]) for row in rows])
        assert slope == pytest.approx(-1.0, abs=1e-6)
        assert abs(loglog) <= 1e-5

    def test_two_dimensional_slope(self):
        cfg = WidthExperimentConfig(
            params=params2(), q=2.0, level=6, r_values=tuple(range(4, 11)), seed=5
        )
        rows = width_experiment(cfg)
        slope, _ = rate_fit([(row["n"], row["error"]) for row in rows])
        assert slope == pytest.approx(-1.0, abs=0.15)
        assert all(row["ratio"] <= 6.0 for row in rows)

    def test_reported_error_is_resolution_independent(self):
        # p = q = 2 rows depend on no grid level
        rows5 = width_experiment(
            WidthExperimentConfig(params=params2(), level=5, r_values=(4, 5, 6), seed=2)
        )
        rows6 = width_experiment(
            WidthExperimentConfig(params=params2(), level=6, r_values=(4, 5, 6), seed=2)
        )
        for a, b in zip(rows5, rows6):
            assert a["error"] == pytest.approx(b["error"], rel=1e-9)
            assert a["n"] == b["n"]

    def test_deterministic_rows(self):
        cfg = WidthExperimentConfig(params=params2(), level=4, r_values=(3, 4), seed=7)
        assert width_experiment(cfg) == width_experiment(cfg)

    def test_each_profile_is_analyzed_once(self, monkeypatch):
        # one analysis tensor inside synthesize_extremal and one of the
        # profile, not one per radius; every radius truncates the same tensor
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _full_coeffs(*args, **kwargs)

        monkeypatch.setattr(polymra.smoothness, "_full_coeffs", counted)
        monkeypatch.setattr(polymra.widths, "_full_coeffs", counted)
        cfg = WidthExperimentConfig(
            params=params2(), q=3.0, level=4, r_values=(3, 4, 5, 6, 7, 8), trials=1, seed=4
        )
        rows = width_experiment(cfg)
        assert len(calls) == 2
        monkeypatch.undo()
        f = synthesize_extremal(cfg.params, cfg.level, cfg.seed)
        beta = choose_beta(cfg.params, cfg.q)
        for row in rows:
            assert (row["error"], row["n"]) == truncation_error(f, beta, row["r"], 3.0, (1, 1))

    def test_radii_must_be_integers(self):
        with pytest.raises(ValueError, match="r_values must be an integer, got 3.5"):
            WidthExperimentConfig(params=params2(), r_values=(3.5, 4.9, 6.2))
        cfg = WidthExperimentConfig(params=params2(), r_values=tuple(np.arange(3, 6)))
        assert cfg.r_values == (3, 4, 5)
        assert all(type(r) is int for r in cfg.r_values)

    def test_digest_tracks_the_config(self):
        a = WidthExperimentConfig(params=params2(), level=4, r_values=(3, 4), seed=7)
        b = WidthExperimentConfig(params=params2(), level=4, r_values=(3, 4), seed=8)
        assert len(a.digest()) == 12
        assert a.digest() == WidthExperimentConfig(**{**a.__dict__}).digest()
        assert a.digest() != b.digest()

    def test_digest_is_taken_once_per_experiment(self, monkeypatch):
        cfg = WidthExperimentConfig(params=params2(), level=4, r_values=(3, 4, 5, 6))
        calls = []
        digest = WidthExperimentConfig.digest
        monkeypatch.setattr(WidthExperimentConfig, "digest",
                            lambda self: calls.append(self) or digest(self))
        rows = width_experiment(cfg)
        assert len(calls) == 1
        assert [row["config"] for row in rows] == [digest(cfg)] * 4

    def test_rate_condition_enforced(self):
        cfg = WidthExperimentConfig(
            params=params2(alpha=(0.4, 0.4), p=1.0), q=math.inf, level=3, r_values=(2, 3)
        )
        with pytest.raises(ValueError, match="width model"):
            width_experiment(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="r_values"):
            WidthExperimentConfig(params=params2(), r_values=(4, 4, 5))
        with pytest.raises(ValueError, match="q must be >= 1"):
            WidthExperimentConfig(params=params2(), q=0.5)
        with pytest.raises(ValueError, match="trials"):
            WidthExperimentConfig(params=params2(), trials=0)
        with pytest.raises(ValueError, match="level"):
            WidthExperimentConfig(params=params2(), level=0)


class TestLatticeRoute:
    """p = q = 2 rows come from the lattice, with no grid."""

    R = tuple(range(3, 9))

    def test_rows_equal_the_rational_series(self):
        # d = 3, alpha = beta = 1: 4^-s over the C(s+2, 2) blocks of shell s,
        # and sum over s >= 0 of C(s+2, 2) x^s = (1 - x)^-3
        cfg = WidthExperimentConfig(params=params2(alpha=(1.0,) * 3), level=4, r_values=self.R)
        quarter = Fraction(1, 4)
        for row in width_experiment(cfg):
            head = sum(math.comb(s + 2, 2) * quarter**s for s in range(row["r"] + 1))
            exact = math.sqrt(float((1 - quarter) ** -3 - head))
            assert row["error"] == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_asymmetric_rows_match_the_lattice_oracle(self):
        params = params2(alpha=(0.8, 1.3))
        beta = choose_beta(params, 2.0)
        assert beta[1] != 1.0
        rows = width_experiment(WidthExperimentConfig(params=params, level=3, r_values=self.R))
        for row in rows:
            oracle = cross_tail_sq_brute(params.alpha, beta, row["r"])
            assert row["error"] ** 2 == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_no_grid_seed_or_trials(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the p = q = 2 route must not reach the grid")

        for name in ("synthesize_extremal", "_full_coeffs", "_extract_block", "_pyramid",
                     "_grid_errors", "_truncate", "cross_contains"):
            monkeypatch.setattr(polymra.widths, name, refuse)
        params = params2(alpha=(1.0,) * 3)
        runs = [
            width_experiment(WidthExperimentConfig(
                params=params, level=level, r_values=self.R, trials=trials, seed=seed))
            for level, seed, trials in ((4, 7, 1), (9, 11, 3))
        ]
        assert len(runs[0]) == len(self.R)
        strip = [[{k: v for k, v in row.items() if k != "config"} for row in rows]
                 for rows in runs]
        assert strip[0] == strip[1]

    @pytest.mark.parametrize("alpha, level, radii", [((0.8, 1.3), 4, (2, 3, 4, 5, 6)),
                                                     ((1.0, 1.0, 1.0), 3, (2, 3, 4))])
    def test_grid_route_agrees_by_parseval(self, alpha, level, radii):
        # the grid measures the resolved tail; the oracle adds the part below
        # the resolution, the complement of the cross outside the level box
        params = params2(alpha=alpha)
        beta = choose_beta(params, 2.0)
        degrees = tuple(l - 1 for l in params.l)
        f = synthesize_extremal(params, level, 3)
        rows = width_experiment(WidthExperimentConfig(params=params, level=level, r_values=radii))
        for row in rows:
            r = row["r"]
            err, n = truncation_error(f, beta, r, 2.0, degrees)
            below = (cross_tail_sq_brute(alpha, beta, r)
                     - cross_tail_sq_brute(alpha, beta, r, box=level))
            assert math.sqrt(err**2 + below) == pytest.approx(row["error"], rel=1e-9, abs=0.0)
            assert n == row["n"]


class TestRateFit:
    def test_pure_power_law(self):
        pts = [(2.0**k, 2.0**-k) for k in range(3, 10)]
        slope, loglog = rate_fit(pts)
        assert slope == pytest.approx(-1.0, abs=1e-6)
        assert abs(loglog) <= 1e-6

    def test_power_law_with_log_factor(self):
        pts = [(2.0**k, 2.0**-k * math.log(2.0**k) ** 0.5) for k in range(3, 10)]
        slope, loglog = rate_fit(pts)
        assert slope == pytest.approx(-1.0, abs=1e-8)
        assert loglog == pytest.approx(0.5, abs=1e-8)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            rate_fit([(2.0, 1.0), (4.0, 0.5), (8.0, 0.25)])
        with pytest.raises(ValueError, match="increasing"):
            rate_fit([(2.0, 1.0), (8.0, 0.5), (4.0, 0.25), (16.0, 0.1)])
        with pytest.raises(ValueError, match="positive"):
            rate_fit([(2.0, 1.0), (4.0, 0.5), (8.0, 0.0), (16.0, 0.1)])
        with pytest.raises(ValueError, match="above 1"):
            rate_fit([(1.0, 1.0), (4.0, 0.5), (8.0, 0.25), (16.0, 0.1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_points_rejected(self, bad, slot):
        # a NaN error passes every <= 0 test, and a NaN n used to reach LAPACK
        pts = [[2.0, 1.0], [4.0, 0.5], [8.0, 0.25], [16.0, 0.1]]
        pts[2][slot] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            rate_fit(pts)
