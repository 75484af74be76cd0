"""Maximal function, Whitney decomposition, good/bad splitting."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymra import czd
from polymra.cli import main
from polymra.czd import (
    CellSet,
    cz_constants,
    cz_split,
    level_set_measure,
    maximal_function,
    sublevel_cellset,
    whitney,
)
from polymra.grid import grid_for
from polymra.indexing import DyadicCube

from oracles import ball_average_brute, box_dist2_pairs, maximal_function_brute, whitney_brute


def _spike(grid, floor=0.0):
    """1 at one node, floor everywhere else."""
    values = np.full(grid.shape, floor)
    values.flat[values.size // 3] = 1.0
    return grid.function(values)


# inputs of the maximal-function oracle check: the CLI demos, signed noise,
# zero, and inputs on the edges of the pruned scan: a lone spike (a tile
# keeps no tail entry once every centre's head reaches it, else the whole
# tail), a constant (the covered-weight floor binds at the cube edges; the
# tail is cut partway) and a spike on a plateau 2^-400 below it
_MF_INPUTS = {
    "bump": lambda g: g.sample(lambda *x: 6.0 * np.exp(-60.0 * sum((xi - 0.5) ** 2 for xi in x))),
    "step": lambda g: g.sample(lambda *x: 3.0 * (x[0] < 1.0 / 3.0)),
    "wedge": lambda g: g.sample(lambda *x: 4.0 * math.prod(x)),
    "random": lambda g: g.function(np.random.default_rng(11).standard_normal(g.shape)),
    "zeros": lambda g: g.zeros(),
    "spike": _spike,
    "constant": lambda g: g.sample(lambda *x: 2.5),
    "plateau": lambda g: _spike(g, 2.0 ** -400),
}
# tile counts (2^17 budget): one up to d=1 K=7; several at d=1 K=8, d=2 K=3
# degree 1 and d=2 K=4
_MF_GRIDS = [(1, K) for K in (0, 1, 5, 7, 8)] + [(2, K) for K in (0, 1, 3, 4)]


# closed sets of the distance check; rng draws the random ones
_DIST_MASKS = {
    "empty": lambda shape, rng: np.zeros(shape, dtype=bool),
    "full": lambda shape, rng: np.ones(shape, dtype=bool),
    "one cell": lambda shape, rng: np.arange(math.prod(shape)).reshape(shape)
                                   == math.prod(shape) // 3,
    # a line along the last axis and one along the first: each axis pass alone
    "one row": lambda shape, rng: _line(shape, -1),
    "one column": lambda shape, rng: _line(shape, 0),
    "checkerboard": lambda shape, rng: np.indices(shape).sum(axis=0) % 2 == 0,
    "sparse random": lambda shape, rng: rng.random(shape) < 0.05,
    "dense random": lambda shape, rng: rng.random(shape) < 0.6,
}
_DIST_GRIDS = [(d, K) for d in (1, 2) for K in range(7)] + [(3, K) for K in range(4)]


def _line(shape, axis):
    m = np.zeros(shape, dtype=bool)
    at = [n // 3 for n in shape]
    at[axis] = slice(None)
    m[tuple(at)] = True
    return m


def _distance_queries(m):
    """(lo, hi) of the unit cells off m, then of every level's aligned cubes."""
    d, side = m.ndim, m.shape[0]
    w = np.argwhere(~m).astype(np.int64)
    yield w, w + 1
    for k in range(side.bit_length()):
        scale = side // 2 ** k
        lo = np.indices((2 ** k,) * d).reshape(d, -1).T.astype(np.int64) * scale
        yield lo, lo + scale


def _whitney_invariants(F, dec):
    """Sandwich, exact disjointness, coverage accounting, residual bound."""
    K, d = F.resolution, F.d
    for q, dist in zip(dec.cubes, dec.cube_dist):
        diam = q.diameter()
        assert diam < dist <= 4.0 * diam + 2.0 ** -K + 1e-12
    cover = np.zeros(F.mask.shape, dtype=int)
    for q in dec.cubes:
        s = 2 ** (K - q.level[0])
        cover[tuple(slice(v * s, (v + 1) * s) for v in q.pos)] += 1
    assert cover.max(initial=0) <= 1
    assert not (cover.astype(bool) & F.mask).any()
    uncovered = int(((~F.mask) & (cover == 0)).sum())
    assert dec.residual_measure == uncovered * Fraction(1, 2 ** (d * K))
    assert dec.residual_measure <= dec.residual_bound()


class TestCellSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellSet(-1, np.zeros(1, dtype=bool))
        with pytest.raises(ValueError):
            CellSet(3, np.zeros(7, dtype=bool))
        with pytest.raises(ValueError):
            CellSet(2, np.zeros((4, 8), dtype=bool))

    def test_measure_and_complement(self):
        mask = np.zeros(64, dtype=bool)
        mask[10:13] = True
        F = CellSet(6, mask)
        assert F.measure() == Fraction(3, 64)
        W = F.complement()
        assert not W.closed and W.measure() == Fraction(61, 64)
        mask2 = np.zeros((8, 8), dtype=bool)
        mask2[0, :5] = True
        assert CellSet(3, mask2).measure() == Fraction(5, 64)

    def test_cubes(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        (cube,) = CellSet(2, mask).cubes()
        assert cube == DyadicCube((2, 2), (1, 2))


class TestMaximalFunction:
    def test_constant_never_exceeds_sup(self):
        g = grid_for(1, degree=0)
        M = maximal_function(g.sample(lambda x: 3.0 + 0.0 * x))
        assert M.values.max() == pytest.approx(3.0, abs=1e-12)
        assert M.values.min() >= 0.7 * 3.0

    def test_dominates_smooth_function(self):
        # discrete Lebesgue-point property: M_f >= f up to local oscillation
        g = grid_for(1, degree=0)
        f = g.sample(lambda x: np.sin(np.pi * x))
        M = maximal_function(f)
        assert np.all(M.values >= f.values - 0.02)

    def test_far_field_decay_1d(self):
        g = grid_for(1, degree=0)
        f = g.zeros()
        f.values[:2] = 1.0  # one finest cell
        mass = g.integrate(np.abs(f.values))
        M = maximal_function(f)
        x = g.axis_nodes[0]
        for i in (40, 80, 120):
            ratio = M.values[i] / (mass / (2.0 * x[i]))
            assert 0.9 <= ratio <= 1.3
            assert M.values[i] >= ball_average_brute(f, (x[i],), x[i] - x[0]) - 1e-15

    def test_far_field_decay_2d(self):
        g = grid_for(2, degree=0, level=3)
        f = g.zeros()
        f.values[:2, :2] = 1.0
        mass = g.integrate(np.abs(f.values))
        M = maximal_function(f)
        for i, j in ((10, 12), (14, 9), (13, 13)):
            node = (g.axis_nodes[0][i], g.axis_nodes[1][j])
            dist = np.hypot(node[0] - g.axis_nodes[0][0], node[1] - g.axis_nodes[1][0])
            ratio = M.values[i, j] / (mass / (np.pi * dist ** 2))
            assert 0.9 <= ratio <= 1.3
            assert M.values[i, j] >= ball_average_brute(f, node, dist) - 1e-15

    @pytest.mark.parametrize("degree", (0, 1))
    @pytest.mark.parametrize("d,K", _MF_GRIDS)
    def test_matches_all_pairs_oracle(self, d, K, degree):
        # bit for bit: the same distances, tie order and running sums
        grid = grid_for(d, degree=degree, level=K)
        # the O(N^2 log N) oracle on the 4096 nodes of d=2 K=4 degree 1 takes
        # ~1.5 s per input, so that grid gets the signed noise only
        names = ["random"] if (d, K, degree) == (2, 4, 1) else list(_MF_INPUTS)
        for name in names:
            f = _MF_INPUTS[name](grid)
            assert np.array_equal(maximal_function(f).values, maximal_function_brute(f)), name

    @pytest.mark.parametrize("budget", (0, 2 ** 40))
    def test_tile_side_leaves_the_result(self, monkeypatch, budget):
        # budget 0 gives one-cell tiles, 2^40 one tile for the whole grid;
        # the Gauss rules differ per axis (2 and 4 nodes)
        grid = grid_for(2, degree=(0, 1), level=3)
        f = _MF_INPUTS["random"](grid)
        monkeypatch.setattr(czd, "_TILE_FLOATS", budget)
        assert np.array_equal(maximal_function(f).values, maximal_function_brute(f))

    def test_rejects_d3(self):
        g = grid_for(3, degree=0, level=1)
        with pytest.raises(NotImplementedError):
            maximal_function(g.zeros())

    def test_weak_11_empirical_bound(self):
        # level-set measure * alpha / ||f||_1 stayed below 0.93 on this corpus
        rng = np.random.default_rng(321)
        g = grid_for(1, degree=0)
        worst = 0.0
        for _ in range(6):
            f = g.function(rng.uniform(0.0, 1.0, size=g.shape) ** 2 * rng.uniform(1, 10))
            l1 = f.lp_norm(1.0)
            M = maximal_function(f)
            for frac in (0.5, 1.0, 2.0):
                alpha = frac * l1
                worst = max(worst, level_set_measure(M, alpha) * alpha / l1)
        assert worst <= 1.5


def _count_sweeps(monkeypatch):
    """Grids of the sweeps maximal_function runs from here on, in call order."""
    grids = []
    sweep = czd._maximal_sweep

    def counted(grid, wf):
        grids.append(grid)
        return sweep(grid, wf)

    monkeypatch.setattr(czd, "_maximal_sweep", counted)
    return grids


class TestMaximalFunctionMemo:
    @pytest.mark.parametrize("argv", [
        # the benchmark's czd argv
        ["--d", "2", "--demo", "bump", "--alpha", "0.5", "--K", "4"],
        ["--d", "1", "--demo", "step", "--alpha", "1.0", "--K", "5"],
    ], ids=["bench", "step"])
    def test_one_sweep_per_czd_run(self, monkeypatch, capsys, argv):
        # cz_split, then cz_constants: three maximal_function calls on one input
        sweeps = _count_sweeps(monkeypatch)
        assert main(["czd", *argv]) == 0
        assert len(sweeps) == 1

    def test_hit_has_the_bits_of_a_fresh_sweep(self, monkeypatch):
        sweeps = _count_sweeps(monkeypatch)
        f = _MF_INPUTS["wedge"](grid_for(2, degree=0, level=3))
        first = maximal_function(f)
        hit = maximal_function(f)
        assert len(sweeps) == 1 and hit.values is not first.values
        fresh = maximal_function(_MF_INPUTS["wedge"](grid_for(2, degree=0, level=3)))
        assert len(sweeps) == 2
        assert np.array_equal(hit.values, fresh.values)
        assert np.array_equal(hit.values, maximal_function_brute(f))

    def test_values_changed_in_place_are_swept_again(self, monkeypatch):
        sweeps = _count_sweeps(monkeypatch)
        f = _MF_INPUTS["random"](grid_for(1, degree=0, level=4))
        maximal_function(f)
        f.values[7] *= 3.0
        M = maximal_function(f)
        assert len(sweeps) == 2
        assert np.array_equal(M.values, maximal_function_brute(f))

    def test_writing_to_a_result_leaves_the_memo(self, monkeypatch):
        sweeps = _count_sweeps(monkeypatch)
        f = _MF_INPUTS["bump"](grid_for(1, degree=0, level=4))
        maximal_function(f).values[:] = -1.0
        M = maximal_function(f)
        assert len(sweeps) == 1
        assert np.array_equal(M.values, maximal_function_brute(f))

    def test_nan_input_is_swept_on_every_call(self, monkeypatch):
        sweeps = _count_sweeps(monkeypatch)
        grid = grid_for(2, degree=0, level=2)
        values = np.random.default_rng(11).standard_normal(grid.shape)
        values.flat[5] = math.nan
        f = grid.function(values)
        for calls in (1, 2, 3):
            M = maximal_function(f)
            assert len(sweeps) == calls
            # a NaN mass reaches every ball's running sum, so every node is NaN
            assert np.isnan(M.values).all()
            assert np.array_equal(M.values, maximal_function_brute(f), equal_nan=True)

    def test_grids_of_one_shape_keep_their_own_entry(self, monkeypatch):
        sweeps = _count_sweeps(monkeypatch)
        grids = [grid_for(1, degree=0, level=3) for _ in range(2)]
        for grid in grids:
            maximal_function(_MF_INPUTS["step"](grid))
        assert sweeps == grids
        first, second = (grid.basis_tables["maximal_function"] for grid in grids)
        assert first is not second

    def test_memo_keeps_two_grid_sized_arrays(self):
        grid = grid_for(2, degree=0, level=5)
        inputs = [_MF_INPUTS[name](grid) for name in ("bump", "random")]
        array = math.prod(grid.shape) * 8
        tracemalloc.start()
        try:
            for f in inputs:
                maximal_function(f)
                # w |f| and the values; the second input replaces the first one's
                alive = tracemalloc.take_snapshot().traces
                assert sum(trace.size >= array for trace in alive) == 2
        finally:
            tracemalloc.stop()


class TestSublevelSet:
    def test_linear_function_cells(self):
        g = grid_for(1, degree=0)
        F = sublevel_cellset(g.sample(lambda x: x), 0.5)
        assert F.closed and F.resolution == 6
        expect = np.zeros(64, dtype=bool)
        expect[:32] = True  # rightmost node of cell 31 is below 1/2, of cell 32 above
        assert np.array_equal(F.mask, expect)

    def test_level_set_measure(self):
        g = grid_for(1, degree=0)
        f = g.sample(lambda x: x)
        assert level_set_measure(f, 0.5) == pytest.approx(0.5, abs=0.02)
        assert level_set_measure(f, 2.0) == 0.0

    def test_nan_threshold_rejected(self):
        # a NaN alpha used to give measure 0 and an empty F: every cell bad
        h = grid_for(1, degree=0, level=3).sample(lambda x: x)
        with pytest.raises(ValueError, match="NaN"):
            level_set_measure(h, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            sublevel_cellset(h, math.nan)

    def test_infinite_and_nonpositive_thresholds_keep_their_meaning(self):
        h = grid_for(1, degree=0, level=3).sample(lambda x: x)
        total = level_set_measure(h, -math.inf)
        assert total == pytest.approx(1.0, abs=1e-15)
        assert level_set_measure(h, 0.0) == total and level_set_measure(h, -1.0) == total
        assert level_set_measure(h, math.inf) == 0.0
        assert sublevel_cellset(h, math.inf).mask.all()
        for alpha in (-math.inf, -1.0, 0.0):
            assert not sublevel_cellset(h, alpha).mask.any()


class TestWhitney:
    def test_unit_interval_demo(self):
        # complement of (0,1): base level 3, first cubes fixed, residual 4 cells
        F = CellSet(6, np.zeros(64, dtype=bool))
        dec = whitney(F)
        assert dec.base_level == 3
        first = [(q.lo(0), q.hi(0)) for q in dec.cubes[:4]]
        assert first == [
            (Fraction(1, 4), Fraction(3, 8)),
            (Fraction(3, 8), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(5, 8)),
            (Fraction(5, 8), Fraction(3, 4)),
        ]
        assert dec.residual_measure == Fraction(4, 64)
        assert dec.boundary_cells == 4
        assert dec.residual_measure < dec.residual_bound()
        _whitney_invariants(F, dec)

    def test_matches_bruteforce_1d(self):
        rng = np.random.default_rng(7)
        masks = [np.zeros(64, dtype=bool)]
        for _ in range(2):
            m = np.zeros(64, dtype=bool)
            m[rng.integers(0, 64, size=6)] = True
            masks.append(m)
        for m in masks:
            F = CellSet(6, m)
            dec = whitney(F)
            k0, accepted = whitney_brute(m)
            assert dec.base_level == k0
            assert [(q.level[0], q.pos) for q in dec.cubes] == accepted
            _whitney_invariants(F, dec)

    def test_matches_bruteforce_2d(self):
        m = np.zeros((16, 16), dtype=bool)
        m[6:10, 6:10] = True
        F = CellSet(4, m)
        dec = whitney(F)
        k0, accepted = whitney_brute(m)
        assert dec.base_level == k0 == 4
        assert [(q.level[0], q.pos) for q in dec.cubes] == accepted
        _whitney_invariants(F, dec)

    def test_two_level_structure_2d(self):
        m = np.zeros((32, 32), dtype=bool)
        m[12:20, 12:20] = True
        F = CellSet(5, m)
        dec = whitney(F)
        k0, accepted = whitney_brute(m)
        assert dec.base_level == k0 == 4
        assert [(q.level[0], q.pos) for q in dec.cubes] == accepted
        levels = {q.level[0] for q in dec.cubes}
        assert levels == {4, 5}
        _whitney_invariants(F, dec)

    def test_without_surrounding_exterior(self):
        m = np.zeros(64, dtype=bool)
        m[30:34] = True
        F = CellSet(6, m)
        dec = whitney(F, surround=False)
        k0, accepted = whitney_brute(m, surround=False)
        assert dec.base_level == k0
        assert [(q.level[0], q.pos) for q in dec.cubes] == accepted

    def test_edge_cases(self):
        with pytest.raises(ValueError):
            whitney(CellSet(3, np.zeros(8, dtype=bool)).complement())
        with pytest.raises(ValueError):
            whitney(CellSet(3, np.zeros(8, dtype=bool)), surround=False)
        full = whitney(CellSet(3, np.ones(8, dtype=bool)))
        assert full.base_level is None and full.cubes == []
        assert full.residual_measure == 0

    @pytest.mark.parametrize("mask", list(_DIST_MASKS))
    @pytest.mark.parametrize("d,K", _DIST_GRIDS)
    def test_distances_match_all_pairs_oracle(self, d, K, mask):
        side = 2 ** K
        m = _DIST_MASKS[mask]((side,) * d, np.random.default_rng(7 * d + K))
        cells = np.argwhere(m).astype(np.int64)
        for surround in (True, False):
            for lo, hi in _distance_queries(m):
                if not surround and not len(cells):
                    with pytest.raises(ValueError):
                        czd._scaled_dist2(lo, hi, cells, side, surround)
                    continue
                got = czd._scaled_dist2(lo, hi, cells, side, surround)
                want = box_dist2_pairs(lo, hi, cells, side, surround)
                assert got.dtype == np.int64 and got.shape == want.shape
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("budget", [0, 20, 100, 2 ** 40])
    def test_distance_chunks_leave_the_result(self, monkeypatch, budget):
        # budget 0 and 20 split every line into column chunks, 100 takes
        # whole lines one or a few at a time, 2^40 one chunk per axis pass
        monkeypatch.setattr(czd, "_DIST_ENTRIES", budget)
        for d, K in ((2, 4), (3, 3)):
            m = np.random.default_rng(K).random((2 ** K,) * d) < 0.3
            cells = np.argwhere(m).astype(np.int64)
            for lo, hi in _distance_queries(m):
                np.testing.assert_array_equal(czd._scaled_dist2(lo, hi, cells, 2 ** K, False),
                                              box_dist2_pairs(lo, hi, cells, 2 ** K, False))

    def test_distance_memory_is_bounded(self):
        # all box-cell pairs at once, as (boxes, cells, d) integers, took 390 MB on this
        # mask, and runs of 2^17 of them 4.3 MB; the gap field peaks at 1.7 MB
        m = np.random.default_rng(0).random((64, 64)) < 0.5
        tracemalloc.start()
        try:
            whitney(CellSet(6, m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20, peak / 2 ** 20

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from((1, 2, 3)),
           st.booleans(), st.data())
    def test_random_masks_match_oracle(self, bits, d, surround, data):
        # d >= 2 masks are sparse: denser ones leave no cube at K <= 4; the
        # oracle takes about 0.1 s per mask at d = 2, K = 4, 0.3 s at d = 3, K = 3
        K = data.draw(st.sampled_from({1: (3, 4, 5), 2: (3, 4), 3: (2, 3)}[d]))
        rng = np.random.default_rng(bits)
        m = rng.random((2 ** K,) * d) < {1: 0.15, 2: 0.05, 3: 0.02}[d]
        if not surround and not m.any():
            m.flat[0] = True  # without the exterior an empty F has no base level
        F = CellSet(K, m)
        dec = whitney(F, surround=surround)
        k0, accepted = whitney_brute(m, surround=surround)
        assert dec.base_level == k0
        assert [(q.level[0], q.pos) for q in dec.cubes] == accepted
        _whitney_invariants(F, dec)


class TestCZSplit:
    def test_degenerate_split(self):
        g = grid_for(1, degree=0)
        f = g.sample(lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x))
        F, dec, split = cz_split(f, 2.0)
        assert len(split.bad_blocks) == 0 and len(dec.cubes) == 0
        assert np.array_equal(split.g.values, f.values)
        assert F.measure() == 1

    def test_tall_bump(self):
        g = grid_for(1, degree=0)
        x = g.axis_nodes[0]
        f = g.function(np.where(np.abs(x - 0.4) < 0.03, 9.0, 0.1))
        F, dec, split = cz_split(f, 0.5)
        assert len(split.bad_blocks) > 0
        for _, h in split.bad_blocks:
            assert abs(f.grid.integrate(h)) <= 1e-12
        gap = split.reconstruct().values - f.values
        assert np.max(np.abs(gap)) <= 1e-12
        # the bump cells are not in F and the bad blocks carry the spike
        bump_cells = np.flatnonzero(np.abs((np.arange(64) + 0.5) / 64 - 0.4) < 0.03)
        assert not F.mask[bump_cells].any()
        tall = max(np.max(np.abs(h)) for _, h in split.bad_blocks)
        assert tall > 5.0

    def test_invariants_on_corpus(self):
        # caps frozen from this seeded corpus; worst observed: measure 0.96,
        # good sup 27.1, good l2 18.5 (boundary cubes have no classical bound)
        rng = np.random.default_rng(321)
        g = grid_for(1, degree=0)
        x = g.axis_nodes[0]
        corpus = []
        for _ in range(8):
            kind = rng.integers(3)
            if kind == 0:
                c, w, h = rng.uniform(0.1, 0.9), rng.uniform(0.02, 0.2), rng.uniform(2, 20)
                corpus.append(g.function(np.where(np.abs(x - c) < w / 2, h, rng.uniform(0, 0.3))))
            elif kind == 1:
                a = rng.normal(size=4)
                corpus.append(g.function(np.abs(
                    a[0] + a[1] * np.sin(np.pi * x) + a[2] * np.cos(2 * np.pi * x)
                    + a[3] * np.sin(3 * np.pi * x))))
            else:
                corpus.append(g.function(rng.uniform(0, 1, size=g.shape) ** 2 * rng.uniform(1, 10)))
        for f in corpus:
            l1 = f.lp_norm(1.0)
            for frac in (0.5, 2.0):
                alpha = frac * l1
                F, dec, split = cz_split(f, alpha)
                _whitney_invariants(F, dec)
                gap = split.reconstruct().values - f.values
                assert np.max(np.abs(gap)) <= 1e-12
                for _, h in split.bad_blocks:
                    assert abs(f.grid.integrate(h)) <= 1e-12
                assert float(F.complement().measure()) * alpha / l1 <= 1.5
                assert np.max(np.abs(split.g.values)) <= 35.0 * alpha
                assert split.g.lp_norm(2.0) ** 2 <= 25.0 * alpha * l1

    def test_invariants_2d(self):
        g = grid_for(2, degree=0, level=4)
        v = np.full(g.shape, 0.2)
        v[10:14, 6:10] = 12.0
        f = g.function(v)
        F, dec, split = cz_split(f, 1.0)
        _whitney_invariants(F, dec)
        assert np.max(np.abs(split.reconstruct().values - f.values)) <= 1e-12
        for _, h in split.bad_blocks:
            assert abs(f.grid.integrate(h)) <= 1e-12

    def test_alpha_validation(self):
        g = grid_for(1, degree=0)
        with pytest.raises(ValueError):
            cz_split(g.zeros(), 0.0)
        with pytest.raises(ValueError):
            cz_split(g.zeros(), -1.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_alpha_rejected_before_the_maximal_function(self, monkeypatch, alpha):
        # cz_constants(f, inf) used to return weak11 = nan
        def refused(f):
            raise AssertionError("maximal_function ran")

        monkeypatch.setattr(czd, "maximal_function", refused)
        f = grid_for(1, degree=0).sample(lambda x: x)
        with pytest.raises(ValueError, match="finite"):
            cz_split(f, alpha)
        with pytest.raises(ValueError, match="finite"):
            cz_constants(f, alpha)

    def test_constants_report(self):
        g = grid_for(1, degree=0)
        f = g.sample(lambda x: np.where(np.abs(x - 0.4) < 0.05, 8.0, 0.1))
        report = cz_constants(f, 0.5)
        assert set(report) == {"weak11", "complement_measure", "good_sup",
                               "good_l2", "block_average", "cube_count", "residual"}
        assert report["cube_count"] >= 1
        assert all(np.isfinite(v) for v in report.values())
