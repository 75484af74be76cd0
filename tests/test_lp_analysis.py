"""Square function, sign series, Rademacher sums."""

import numpy as np
import pytest

import polymra.lp_analysis
from polymra import Decomposition, DetailCoeffs, analyze, grid_for, lp_norm, synthesize
from polymra.lp_analysis import (
    SignFamily,
    _axis_sign_table,
    khintchine_check,
    lp_equivalence,
    lp_report,
    pstar_ratio,
    random_resolved,
    sign_series,
    square_function,
)
from polymra.projectors import project_level
from oracles import rademacher_eval, rademacher_sum_lp_brute


def test_square_function_single_block(rng):
    g = grid_for(1, degree=1, level=4)
    coeffs = rng.standard_normal((4, 2))
    kappa = (3,)
    block = DetailCoeffs(kappa=kappa, degrees=(1,), coeffs=coeffs)
    dec = Decomposition(grid=g, degrees=(1,), blocks={kappa: block})
    f = synthesize(dec)
    s = square_function(dec)
    np.testing.assert_allclose(s.values, np.abs(f.values), atol=1e-12)


def test_square_function_chi_half():
    g = grid_for(1, degree=0, level=5)
    f = g.sample(lambda x: (x < 0.5).astype(float))
    s = square_function(analyze(f, (1,), (0,)))
    np.testing.assert_allclose(s.values, 1.0 / np.sqrt(2.0), atol=1e-12)


def test_square_function_constant():
    g = grid_for(2, degree=0, level=2)
    f = g.sample(lambda x, y: -3.0 + 0.0 * x * y)
    s = square_function(analyze(f, (2, 2), (0, 0)))
    np.testing.assert_allclose(s.values, 3.0, atol=1e-12)


def test_lp_equivalence_p2(rng):
    g = grid_for(1, degree=1, level=4)
    f = g.function(rng.standard_normal(g.shape))
    assert lp_equivalence(f, 2.0, (4,), (1,)) == pytest.approx(1.0, abs=1e-10)
    g2 = grid_for(2, degree=0, level=2)
    f2 = g2.function(rng.standard_normal(g2.shape))
    assert lp_equivalence(f2, 2.0, (2, 2), (0, 0)) == pytest.approx(1.0, abs=1e-10)


def test_lp_equivalence_single_block_any_p(rng):
    g = grid_for(1, degree=0, level=4)
    coeffs = rng.standard_normal((8, 1))
    kappa = (4,)
    block = DetailCoeffs(kappa=kappa, degrees=(0,), coeffs=coeffs)
    f = synthesize(Decomposition(grid=g, degrees=(0,), blocks={kappa: block}))
    for p in (1.5, 3.0):
        assert lp_equivalence(f, p, (4,), (0,)) == pytest.approx(1.0, abs=1e-10)


def test_lp_equivalence_invalid_p(rng):
    g = grid_for(1, degree=0, level=2)
    f = g.function(rng.standard_normal(g.shape))
    for bad in (1.0, 0.5, np.inf):
        with pytest.raises(ValueError):
            lp_equivalence(f, bad, (2,), (0,))


def test_sign_series_all_plus(rng):
    g = grid_for(1, degree=1, level=4)
    f = g.function(rng.standard_normal(g.shape))
    fam = SignFamily(axis_signs=((1,) * 5,))
    want = lp_norm(project_level(f, (4,), (1,)).to_grid(), 2.7)
    assert sign_series(f, fam, 2.7, (4,), (1,)) == pytest.approx(want, rel=1e-12)


def test_sign_series_p2_sign_free(rng):
    g = grid_for(2, degree=0, level=2)
    f = g.function(rng.standard_normal(g.shape))
    base = sign_series(f, SignFamily(axis_signs=((1, 1, 1), (1, 1, 1))), 2.0, (2, 2), (0, 0))
    for _ in range(10):
        fam = SignFamily.random((2, 2), rng)
        assert sign_series(f, fam, 2.0, (2, 2), (0, 0)) == pytest.approx(base, abs=1e-10)


def test_sign_series_chi_half_frozen():
    # signs (+, -) turn the half indicator into the other half indicator
    g = grid_for(1, degree=0, level=5)
    f = g.sample(lambda x: (x < 0.5).astype(float))
    fam = SignFamily(axis_signs=((1, -1),))
    for p in (1.5, 2.0, 4.0):
        assert sign_series(f, fam, p, (1,), (0,)) == pytest.approx(
            0.5 ** (1.0 / p), abs=1e-12
        )


def test_sign_involution(rng):
    # the signed detail sum is an involution on the resolved space
    g = grid_for(2, degree=(1, 0), level=3)
    degs = (1, 0)
    k = (2, 2)
    f = g.function(rng.standard_normal(g.shape))
    fam = SignFamily.random(k, rng)
    from polymra.lp_analysis import _signed

    once = synthesize(_signed(analyze(f, k, degs), fam))
    twice = synthesize(_signed(analyze(once, k, degs), fam))
    level = project_level(f, k, degs).to_grid()
    assert np.max(np.abs(twice.values - level.values)) < 1e-10


def test_sign_series_mapping_signs(rng):
    g = grid_for(2, degree=0, level=1)
    f = g.function(rng.standard_normal(g.shape))
    signs = {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1}  # not product form
    got = sign_series(f, signs, 3.0, (1, 1), (0, 0))
    from polymra.lp_analysis import detail_components

    parts = dict(detail_components(analyze(f, (1, 1), (0, 0))))
    acc = sum(signs[k] * v.values for k, v in parts.items())
    assert got == pytest.approx(lp_norm(g.function(acc), 3.0), rel=1e-12)
    with pytest.raises(ValueError):
        sign_series(f, {k: 2 for k in signs}, 3.0, (1, 1), (0, 0))


def test_rademacher_frozen_values():
    assert rademacher_eval((0,), (0.25,)) == 1
    assert rademacher_eval((1,), (0.3,)) == -1
    assert rademacher_eval((0, 1), (0.25, 0.3)) == -1
    assert rademacher_eval((0, 1), (0.25, 0.3)) == rademacher_eval(
        (0,), (0.25,)
    ) * rademacher_eval((1,), (0.3,))


def test_rademacher_breakpoint_and_domain():
    with pytest.raises(ValueError):
        rademacher_eval((1,), (0.25,))
    with pytest.raises(ValueError):
        rademacher_eval((0,), (0.0,))
    with pytest.raises(ValueError):
        rademacher_eval((0,), (1.0,))
    with pytest.raises(ValueError):
        rademacher_eval((-1,), (0.3,))


def test_rademacher_matches_trig(rng):
    for _ in range(200):
        k = int(rng.integers(0, 6))
        t = float(rng.uniform(1e-4, 1.0 - 1e-4))
        want = np.sign(np.sin(2.0 ** (k + 1) * np.pi * t))
        if want == 0.0:
            continue
        assert rademacher_eval((k,), (t,)) == want


def test_axis_sign_table_matches_rademacher_oracle():
    # the sign table khintchine_check contracts against, at every cell midpoint
    for box in range(6):
        cells = 2 ** (box + 1)
        mids = (np.arange(cells) + 0.5) / cells
        for k in range(box + 1):
            table = _axis_sign_table(k, box)
            assert table.shape == (k + 1, cells)
            want = [[rademacher_eval((kk,), (t,)) for t in mids] for kk in range(k + 1)]
            np.testing.assert_array_equal(table, want)


def test_khintchine_frozen_example():
    l2, mid = khintchine_check(np.array([1.0, 1.0]), 4.0)
    assert l2 == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert mid == pytest.approx(8.0 ** 0.25, abs=1e-13)
    _, mid1 = khintchine_check(np.array([1.0, 1.0]), 1.0)
    assert mid1 == pytest.approx(1.0, abs=1e-13)
    _, mid2 = khintchine_check(np.array([1.0, 1.0]), 2.0)
    assert mid2 == pytest.approx(np.sqrt(2.0), abs=1e-13)


def test_khintchine_single_coefficient():
    a = np.zeros((3, 3))
    a[1, 2] = -1.7
    for p in (1.0, 2.5, 4.0):
        l2, mid = khintchine_check(a, p)
        assert mid == pytest.approx(1.7, abs=1e-12)
        assert l2 == pytest.approx(1.7, abs=1e-14)


def test_khintchine_p2_exact(rng):
    a = rng.standard_normal((3, 4))
    l2, mid = khintchine_check(a, 2.0)
    assert mid == pytest.approx(l2, rel=1e-12)


def test_khintchine_independent_fourth_moment(rng):
    # one-axis Rademacher variables are independent: E S^4 has a closed form
    a = rng.standard_normal(6)
    _, mid = khintchine_check(a, 4.0)
    want = (3.0 * np.sum(a ** 2) ** 2 - 2.0 * np.sum(a ** 4)) ** 0.25
    assert mid == pytest.approx(want, rel=1e-12)


def test_khintchine_vs_brute_force(rng):
    for shape, p in [((4,), 1.0), ((4,), 3.0), ((3, 3), 1.5)]:
        a = rng.standard_normal(shape)
        _, mid = khintchine_check(a, p)
        assert mid == pytest.approx(rademacher_sum_lp_brute(a, p), rel=1e-10)


def test_khintchine_ratio_bands(rng):
    # p <= 2 caps the ratio at 1 by monotonicity of L_p means; p >= 2 floors it
    for shape in [(7,), (3, 3)]:
        for _ in range(50):
            a = rng.standard_normal(shape)
            l2, mid = khintchine_check(a, 1.0)
            assert 0.4 < mid / l2 <= 1.0 + 1e-12
            l2, mid = khintchine_check(a, 4.0)
            assert 1.0 - 1e-12 <= mid / l2 < 2.0


def test_khintchine_invalid_p():
    with pytest.raises(ValueError):
        khintchine_check(np.array([1.0]), 0.5)


def test_pstar_ratio_parseval_case(rng):
    # at p = 2 the aggregate is the l2 block aggregate, so the ratio is 1
    g = grid_for(1, degree=1, level=3)
    f = g.function(rng.standard_normal(g.shape))
    assert pstar_ratio(f, 2.0, (3,), (1,)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        pstar_ratio(f, 0.9, (3,), (1,))


def test_pstar_ratio_bounded_below_one_plus(rng):
    # aggregate with p* = min(2, p) dominates the function norm up to a constant
    g = grid_for(1, degree=0, level=4)
    for p in (1.0, 1.5, 3.0):
        vals = []
        for _ in range(20):
            f = random_resolved(g, (4,), (0,), rng)
            vals.append(pstar_ratio(f, p, (4,), (0,)))
        assert max(vals) < 3.0
        assert min(vals) > 0.05


def test_lp_report_shape():
    g = grid_for(1, degree=0, level=3)
    (rep,) = lp_report(g, (3,), (0,), (3.0,), trials=5, sign_trials=3, seed=11)
    assert rep.square_ratio["min"] <= rep.square_ratio["mean"] <= rep.square_ratio["max"]
    assert rep.sign_ratio["max"] < np.inf and rep.sign_ratio["min"] > 0
    rows = rep.rows()
    assert {row["statistic"] for row in rows} == {"square_ratio", "pstar", "sign_ratio"}
    with pytest.raises(ValueError):
        lp_report(g, (3,), (0,), (3.0,), trials=0)
    with pytest.raises(ValueError, match="sign_trials must be >= 1, got 0"):
        lp_report(g, (3,), (0,), (3.0,), trials=2, sign_trials=0)


def test_lp_report_measures_every_p_on_one_ensemble():
    # no draw depends on p, so a joint sweep reports exactly what one call
    # per p reports
    g = grid_for(1, degree=1, level=4)
    ps = (1.5, 3.0, 4.0)
    joint = lp_report(g, (4,), (1,), ps, trials=4, sign_trials=3, seed=5)
    assert [rep.p for rep in joint] == list(ps)
    for p, rep in zip(ps, joint):
        (alone,) = lp_report(g, (4,), (1,), (p,), trials=4, sign_trials=3, seed=5)
        assert rep == alone, p


def test_lp_report_checks_every_p_before_drawing(monkeypatch):
    draws = []
    monkeypatch.setattr(
        polymra.lp_analysis, "random_resolved", lambda *args: draws.append(args)
    )
    g = grid_for(1, degree=0, level=3)
    for ps in ((), (2.0, 1.0)):
        with pytest.raises(ValueError):
            lp_report(g, (3,), (0,), ps, trials=2)
    assert draws == []


def test_lp_report_analyzes_and_synthesizes_once_for_all_p(monkeypatch):
    counts = {"analyze": 0, "synthesize": 0}

    def counted(name):
        fn = getattr(polymra.lp_analysis, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in counts:
        monkeypatch.setattr(polymra.lp_analysis, name, counted(name))
    g = grid_for(1, degree=1, level=4)
    lp_report(g, (4,), (1,), (1.5, 3.0, 4.0), trials=2, sign_trials=3, seed=5)
    assert counts == {"analyze": 2, "synthesize": 2 * 3}
