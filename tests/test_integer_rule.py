"""One integer rule: levels, degrees, positions and counts are read by grid._as_int / _as_tuple.

Each entry point below reads one integer argument.  A float raises
ValueError naming the argument, never a silent truncation or a late
TypeError; a negative value raises where the rule needs >= 0; a numpy
int gives the same result as the plain int.  A per-axis vector whose
length sets the dimension is read by grid._as_vector, and a scalar in its
place raises ValueError naming the argument too.
"""

import re

import numpy as np
import pytest

from polymra.basis import detail_dim, wavelet_basis_1d
from polymra.czd import CellSet
from polymra.grid import Grid, grid_for
from polymra.indexing import DyadicCube, counting_ratios, cross_contains, enum_box, enum_shell
from polymra.lp_analysis import SignFamily, lp_report
from polymra.projectors import analyze, parseval_gap, project_level
from polymra.quadrature import gauss_rule, legendre_table
from polymra.smoothness import SmoothnessParams, modulus_table, synthesize_extremal
from polymra.widths import WidthExperimentConfig, budget_plan, truncation_error

_GRID = grid_for(1, degree=1, level=3)
_F = _GRID.function(np.random.default_rng(5).standard_normal(_GRID.shape))
_PARAMS = SmoothnessParams(alpha=(1.0,))


def _blocks(dec):
    return {kappa: block.coeffs for kappa, block in dec.blocks.items()}


def _plan(plan):
    return plan.total, plan.rows


def _report(**kwargs):
    args = dict(trials=2, sign_trials=2, seed=3) | kwargs
    return [rep.rows() for rep in lp_report(_GRID, 2, 0, (1.5,), **args)]


# (id, call with the value, a valid value, the name in its messages)
CASES = [
    ("Grid-d", lambda v: Grid(v, 2, 2).shape, 2, "dimension"),
    ("Grid-level", lambda v: Grid(1, v, 2).shape, 3, "finest level"),
    ("Grid-nodes_per_cell", lambda v: Grid(1, 2, (v,)).shape, 2, "nodes_per_cell"),
    ("grid_for-d", lambda v: grid_for(v, level=2).shape, 2, "dimension"),
    ("grid_for-degree", lambda v: grid_for(1, degree=(v,), level=2).shape, 1, "degree"),
    ("grid_for-level", lambda v: grid_for(1, level=v).shape, 2, "finest level"),
    ("project_level-kappa", lambda v: project_level(_F, (v,), (1,)).coeffs, 2, "kappa"),
    ("project_level-degrees", lambda v: project_level(_F, (2,), (v,)).coeffs, 1, "degrees"),
    ("analyze-k", lambda v: _blocks(analyze(_F, (v,), (1,))), 2, "k"),
    ("analyze-degrees", lambda v: _blocks(analyze(_F, (2,), (v,))), 1, "degrees"),
    ("parseval_gap-degrees", lambda v: parseval_gap(_F, (2,), (v,)), 1, "degrees"),
    ("detail_dim-kappa", lambda v: detail_dim((v,), (1,)), 2, "kappa"),
    ("detail_dim-degrees", lambda v: detail_dim((2,), (v,)), 1, "degrees"),
    ("wavelet_basis_1d-degree", lambda v: wavelet_basis_1d(v), 1, "degree"),
    ("DyadicCube-level", lambda v: DyadicCube((v, 1), (0, 1)), 2, "level"),
    ("DyadicCube-pos", lambda v: DyadicCube((2, 1), (v, 1)), 3, "pos"),
    ("enum_box-corner", lambda v: enum_box((v, 1)), 2, "box corner"),
    ("cross_contains-kappa", lambda v: cross_contains((v, 1), (1.0, 1.0), 3), 1, "kappa"),
    ("enum_shell-s", lambda v: enum_shell((1.0, 1.0), v), 2, "shell index"),
    ("counting_ratios-r_max", lambda v: counting_ratios((1.0,), (1.0,), v), 3, "r_max"),
    ("SignFamily-signs", lambda v: SignFamily(((v, -1),)).axis_signs, 1, "signs"),
    ("SignFamily.random-k",
     lambda v: SignFamily.random((v,), np.random.default_rng(0)).axis_signs, 2, "k"),
    ("lp_report-trials", lambda v: _report(trials=v), 2, "trials"),
    ("lp_report-sign_trials", lambda v: _report(sign_trials=v), 2, "sign_trials"),
    ("lp_report-seed", lambda v: _report(seed=v), 3, "seed"),
    ("modulus_table-l", lambda v: modulus_table(_F, (v,), 2.0).values, 1,
     "difference orders"),
    ("truncation_error-degrees",
     lambda v: truncation_error(_F, (1.0,), 2, 2.0, degrees=(v,)), 1, "degrees"),
    ("budget_plan-r", lambda v: _plan(budget_plan(v, (1.0,), _PARAMS, 2.0)), 3,
     "cross radius"),
    ("synthesize_extremal-level",
     lambda v: synthesize_extremal(_PARAMS, v, 0).values, 3, "finest level"),
    ("synthesize_extremal-seed",
     lambda v: synthesize_extremal(_PARAMS, 3, v).values, 2, "seed"),
    ("gauss_rule-n", lambda v: gauss_rule(v), 2, "n"),
    ("legendre_table-degree", lambda v: legendre_table(v, [0.25]), 2, "degree"),
    ("WidthExperimentConfig-level",
     lambda v: WidthExperimentConfig(params=_PARAMS, level=v).digest(), 3, "level"),
    ("WidthExperimentConfig-trials",
     lambda v: WidthExperimentConfig(params=_PARAMS, trials=v).digest(), 2, "trials"),
    ("WidthExperimentConfig-seed",
     lambda v: WidthExperimentConfig(params=_PARAMS, seed=v).digest(), 4, "seed"),
    ("WidthExperimentConfig-r_values",
     lambda v: WidthExperimentConfig(params=_PARAMS, r_values=(v, 6)).digest(), 4,
     "r_values"),
    ("CellSet-resolution", lambda v: CellSet(v, np.zeros(4, dtype=bool)).measure(), 2,
     "resolution"),
]
# a config digest takes any seed, and -1 is a sign
SIGNED = ("SignFamily-signs", "WidthExperimentConfig-seed")


def _cases(rows):
    return pytest.mark.parametrize("call, good, name", [c[1:4] for c in rows],
                                   ids=[c[0] for c in rows])


@_cases(CASES)
def test_a_float_raises_naming_the_argument(call, good, name):
    with pytest.raises(ValueError, match=re.escape(name) + " must be an integer"):
        call(good + 0.5)


@_cases([c for c in CASES if c[0] not in SIGNED])
def test_a_negative_value_raises_naming_the_argument(call, good, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        call(-1)


@_cases(CASES)
def test_a_numpy_int_gives_the_plain_int_result(call, good, name):
    np.testing.assert_equal(call(np.int64(good)), call(good))


# (id, call with the value, the name in its messages): the value is a whole vector
VECTORS = [
    ("enum_box-corner", lambda v: enum_box(v), "box corner"),
    ("detail_dim-kappa", lambda v: detail_dim(v, 1), "kappa"),
    ("DyadicCube-level", lambda v: DyadicCube(v, 0), "level"),
    ("SignFamily.random-k", lambda v: SignFamily.random(v, np.random.default_rng(0)), "k"),
]


@pytest.mark.parametrize("scalar", [3, np.int64(3), 2.5])
@pytest.mark.parametrize("call, name", [c[1:] for c in VECTORS], ids=[c[0] for c in VECTORS])
def test_a_scalar_where_a_vector_belongs_raises_naming_the_argument(call, name, scalar):
    with pytest.raises(ValueError, match=re.escape(name) + " must be a sequence of integers"):
        call(scalar)


def test_per_axis_vectors_name_the_bound():
    with pytest.raises(ValueError, match=r"box corner must be >= 0, got \(2, -1\)"):
        enum_box((2, -1))
    with pytest.raises(ValueError, match=r"degrees must be >= 0, got \(-1,\)"):
        analyze(_F, 2, -1)
    assert DyadicCube(np.array([1, 2]), np.array([0, 3])) == DyadicCube((1, 2), (0, 3))


def test_a_negative_dimension_is_named_before_the_degree():
    with pytest.raises(ValueError, match=r"dimension must be >= 1, got -1"):
        grid_for(-1)
    with pytest.raises(ValueError, match=r"dimension must be >= 1, got 0"):
        grid_for(0, degree=())
