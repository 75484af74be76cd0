"""Dyadic cubes, index sets, and the lattice counting estimates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymra.indexing
from polymra import (
    DyadicCube,
    counting_ratios,
    cross_contains,
    enum_box,
    enum_cross,
    enum_shell,
)
from oracles import cross_enum_fractions, rounding_floor, support


def test_support():
    assert support((0, 3, 0, 1)) == frozenset({1, 3})
    assert support((0, 0)) == frozenset()


def test_cube_geometry():
    q = DyadicCube(level=(2, 1), pos=(3, 1))
    assert q.lo(0) == Fraction(3, 4) and q.hi(0) == Fraction(1, 1)
    assert q.width(1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        DyadicCube(level=(-1,), pos=(0,))


def test_enum_box():
    assert len(enum_box((1, 1))) == 4
    assert enum_box((3,)) == [(0,), (1,), (2,), (3,)]
    assert len(enum_box((1, 0, 2))) == 6
    # lexicographic order
    assert enum_box((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError):
        enum_box((-1,))


def test_enum_cross_counts():
    assert len(enum_cross((1.0, 1.0), 3)) == 10
    assert len(enum_cross((1.0,), 5)) == 6
    assert set(enum_cross((1.0, 2.0), 2)) == {(0, 0), (1, 0), (2, 0), (0, 1)}


def test_enum_cross_ties_included():
    assert (0, 1) in enum_cross((1.0, 2.0), 2)
    assert cross_contains((0, 1), (1.0, 2.0), 2.0)
    assert not cross_contains((1, 1), (1.0, 2.0), 2.0)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4), min_size=1, max_size=3),
    st.integers(0, 8),
)
def test_enum_cross_matches_rational_oracle(beta, r):
    floats = [float(b) for b in beta]
    got = sorted(enum_cross(floats, r))
    # a float weight stands for every real that rounds to it, so the cross is
    # the exact one at the lower end of each float's rounding interval
    assert got == sorted(cross_enum_fractions([rounding_floor(f) for f in floats], r))
    # the drawn weights round to the same floats, so their exact cross is inside
    assert set(cross_enum_fractions(beta, r)) <= set(got)


@pytest.mark.parametrize(
    "beta, r",
    [((1.0, 1.0, 1.0), r) for r in range(3, 13)]
    + [((0.4,), 2), ((1.0, 0.4, 1.4142135623730951), 2.5), ((1.0, 0.4, 1.4142135623730951), 7)],
)
def test_enum_cross_decides_a_band_dense_radius_exactly(beta, r):
    # many rows lie on the radius, ties that only exact arithmetic decides
    assert enum_cross(beta, r) == cross_enum_fractions([rounding_floor(b) for b in beta], r)


def test_enum_shell():
    assert enum_shell((1.0,), 4) == [(4,)]
    assert set(enum_shell((1.0, 1.0), 2)) == {(2, 0), (1, 1), (0, 2)}
    with pytest.raises(ValueError):
        enum_shell((1.0,), 0)


def test_enum_shell_irrational_vs_brute():
    beta = (1.0, np.sqrt(2.0))
    s = 3
    box = enum_box((s, s))
    brute = [
        k for k in box
        if s - 1 < k[0] * beta[0] + k[1] * beta[1] <= s + 1e-12
    ]
    assert sorted(enum_shell(beta, s)) == sorted(brute)


def test_shell_cardinality_growth():
    # card ~ s^(d-1) with a small constant; checked to s=40
    for s in range(1, 41):
        assert len(enum_shell((1.0, 1.0), s)) <= 3 * s
        assert len(enum_shell((1.0, 1.0, 1.0), s)) <= 3 * s ** 2


def test_monotone_limit_rule():
    # absolutely convergent series: box-order and cross-order sums agree
    def term(kappa):
        return 2.0 ** (-sum(kappa))

    box_sum = sum(term(k) for k in enum_box((45, 45)))
    cross_sum = sum(term(k) for k in enum_cross((1.0, 1.0), 95))
    assert abs(box_sum - cross_sum) < 1e-12
    assert abs(box_sum - 4.0) < 1e-10


def test_counting_closed_form_1d():
    rows = counting_ratios((1.0,), (1.0,), 12)
    for row in rows:
        r = row["r"]
        assert row["growth_sum"] == pytest.approx(2.0 ** (r + 1) - 1.0, rel=1e-13)
        assert row["tail_sum"] == pytest.approx(2.0 ** (-r), rel=1e-12)
        assert 1.0 < row["growth_ratio"] <= 2.0
        assert row["tail_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_counting_brute_force_d2():
    rows = counting_ratios((1.0, 1.0), (1.0, 1.0), 6)
    row = rows[3]  # r = 4
    brute = sum(
        2.0 ** (k1 + k2)
        for k1 in range(5)
        for k2 in range(5)
        if k1 + k2 <= 4
    )
    assert row["growth_sum"] == pytest.approx(brute, rel=1e-13)
    assert row["growth_model"] == pytest.approx(2.0 ** 4 * 4.0, rel=1e-13)
    # tail vs brute force with a wide margin box
    tail_brute = sum(
        2.0 ** (-(k1 + k2))
        for k1 in range(80)
        for k2 in range(80)
        if k1 + k2 > 4
    )
    assert row["tail_sum"] == pytest.approx(tail_brute, rel=1e-10)


def test_counting_tail_scans_only_the_cross_box(monkeypatch):
    # the tail beyond the box is closed form, so a slow decay widens nothing:
    # a margin of ceil(62 / alpha_j) would make this box 631^3 points
    bounds = []
    lattice = polymra.indexing._lattice

    def recording(bound):
        bounds.append(tuple(bound))
        # refuse a widened box before allocating it
        assert math.prod(b + 1 for b in bound) <= 11**3, f"lattice over the box {tuple(bound)}"
        return lattice(bound)

    monkeypatch.setattr(polymra.indexing, "_lattice", recording)
    beta = (1.0, 1.0, 1.0)
    rows = counting_ratios(beta, (0.1, 0.1, 0.1), 10)
    assert bounds == [polymra.indexing._cross_box(beta, 10)]
    # exact tail: sum over s > r of C(s+2, 2) x^s with x = float(2^-0.1)
    x = Fraction(2.0 ** -0.1)
    for row in rows:
        head = sum(math.comb(s + 2, 2) * x**s for s in range(row["r"] + 1))
        assert row["tail_sum"] == pytest.approx(float((1 - x) ** -3 - head), rel=1e-12, abs=0.0)


def test_counting_ratios_bounded_band():
    for beta, alpha in [((1.0, 2.0), (1.0, 1.0)), ((1.0, 1.0), (0.5, 0.5))]:
        rows = counting_ratios(beta, alpha, 14)
        ratios = [row["growth_ratio"] for row in rows[3:]]
        assert max(ratios) / min(ratios) < 4.0
        tails = [row["tail_ratio"] for row in rows[3:]]
        assert max(tails) / min(tails) < 4.0


def test_counting_invalid():
    with pytest.raises(ValueError):
        counting_ratios((1.0,), (-1.0,), 5)
    with pytest.raises(ValueError):
        counting_ratios((0.0,), (1.0,), 5)
    with pytest.raises(ValueError):
        counting_ratios((1.0,), (1.0,), 0)


def test_counting_radius_must_be_an_integer():
    with pytest.raises(ValueError, match="r_max must be an integer, got 3.9"):
        counting_ratios((1.0, 1.0), (1.0, 1.0), 3.9)
    assert counting_ratios((1.0, 1.0), (1.0, 1.0), np.int64(3)) == counting_ratios(
        (1.0, 1.0), (1.0, 1.0), 3)


def test_counting_rejects_unequal_lengths_before_any_work(monkeypatch):
    # zip used to truncate the ratio vector, then numpy failed in lattice @ alpha
    def refused(*args):
        raise AssertionError("work began before the check")

    monkeypatch.setattr(polymra.indexing, "min_multiplicity", refused)
    monkeypatch.setattr(polymra.indexing, "_cross_masks", refused)
    with pytest.raises(ValueError,
                       match=r"beta \(1.0, 1.5\) and alpha \(1.0,\) must have equal length"):
        counting_ratios((1.0, 1.5), (1.0,), 3)
    with pytest.raises(ValueError, match="must have equal length"):
        counting_ratios((1.0,), (1.0, 1.0), 3)


@pytest.mark.parametrize("beta, alpha", [
    ((1.0, math.inf), (1.0, 1.0)),
    ((1.0, math.nan), (1.0, 1.0)),
    ((1.0, 1.0), (math.inf, 1.0)),
    ((1.0, 1.0), (1.0, math.nan)),
])
def test_counting_rejects_non_finite_weights(monkeypatch, beta, alpha):
    # an infinite beta used to mark no row inside and report growth_sum 0.0
    def refused(bound):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(polymra.indexing, "_lattice", refused)
    with pytest.raises(ValueError, match="finite"):
        counting_ratios(beta, alpha, 2)


def test_enum_cross_excludes_an_excess_above_the_rounding_bound():
    # 4 * beta exceeds 1 by 1.0e-13, far more than the float sum can be off by
    beta = float(Fraction(26543292084846271, 106173168339374464))
    assert (4,) not in enum_cross([beta], 1)
    assert not cross_contains((4,), [beta], 1)


def test_enum_cross_decides_a_sub_ulp_excess():
    # 4 * beta - 1 = 2.0e-16: float(beta) lies above 1/4, and so does every
    # real that rounds to it
    beta = float(Fraction(4976867265912683, 19907469063650728))
    assert (4,) not in enum_cross([beta], 1)


def test_rounded_weight_keeps_its_tie():
    # float(0.4) > 2/5, but 2/5 rounds to it, so 5 * 0.4 <= 2 is a tie
    assert (5,) in enum_cross((0.4,), 2)
    assert (5,) in enum_shell((0.4,), 2)
    rows = counting_ratios((0.4,), (1.0,), 2)
    assert rows[1]["growth_sum"] == 2.0 ** 6 - 1.0


_SUB_ULP = float(Fraction(4976867265912683, 19907469063650728))
_WEIGHT_CACHE_CASES = [
    # one ulp apart: 5 * 0.4 <= 2 is a tie, one ulp up is out, one ulp down is in
    ((0.4,), 2),
    ((math.nextafter(0.4, 1.0),), 2),
    ((math.nextafter(0.4, 0.0),), 2),
    # one beta at integer and dyadic radii
    ((1.0, 0.4, 1.4142135623730951), 2),
    ((1.0, 0.4, 1.4142135623730951), 2.5),
    ((1.0, 0.4, 1.4142135623730951), 2.25),
    # a sub-ulp excess above 1/4, and its lower neighbour
    ((_SUB_ULP,), 1),
    ((math.nextafter(_SUB_ULP, 0.0),), 1),
]


@pytest.mark.parametrize("order", [1, -1])
def test_band_weight_cache_keeps_inputs_apart(order):
    # the exact weights are cached per beta: no input may see another's
    polymra.indexing._band_weights.cache_clear()
    for beta, r in _WEIGHT_CACHE_CASES[::order]:
        want = cross_enum_fractions([rounding_floor(b) for b in beta], r)
        box = enum_box([b + 1 for b in polymra.indexing._cross_box(beta, r)])

        def by_enum():
            return enum_cross(beta, r)

        def by_rows():
            return [kappa for kappa in box if cross_contains(kappa, beta, r)]

        def by_growth():
            if r != int(r):
                return None
            return counting_ratios(beta, [1.0] * len(beta), r)[-1]["growth_sum"]

        got = {call.__name__: call() for call in [by_enum, by_rows, by_growth][::order]}
        assert got["by_enum"] == want
        assert got["by_rows"] == want
        if got["by_growth"] is not None:
            assert got["by_growth"] == sum(2.0 ** sum(kappa) for kappa in want)


@pytest.mark.parametrize("beta, r", [
    ((1.0, 1.0), math.nan),
    ((1.0, 1.0), math.inf),
    ((1.0, 1.0), -math.inf),
    ((1.0, -1.0), 3),
    ((1.0, 0.0), 3),
    ((1.0, math.inf), 3),
    ((1.0, math.nan), 3),
], ids=["r-nan", "r-inf", "r-minus-inf", "beta-negative", "beta-zero", "beta-inf", "beta-nan"])
def test_cross_membership_rejects_invalid_radius_or_weights(beta, r):
    # a nan radius used to read False, a negative weight True, and an
    # infinite radius raised OverflowError from enum_cross
    with pytest.raises(ValueError, match="finite"):
        cross_contains((1, 2), beta, r)
    with pytest.raises(ValueError, match="finite"):
        enum_cross(beta, r)


def _twice_lo_sums(beta, rows):
    """(kappa, 2 lo) of each row, in Fractions."""
    twice_lo = [2 * rounding_floor(b) for b in beta]
    return [sum(k * t for k, t in zip(row, twice_lo)) for row in rows]


@pytest.mark.parametrize("bound", [(0,), (6,), (3, 0), (4, 2), (2, 3, 1), (1, 2, 0, 3)])
def test_lattice_is_c_contiguous_with_the_rows_of_np_indices(bound):
    lattice = polymra.indexing._lattice(bound)
    rows = np.indices([b + 1 for b in bound]).reshape(len(bound), -1).T
    assert lattice.flags.c_contiguous
    assert lattice.dtype == rows.dtype
    assert lattice.tolist() == rows.tolist()


def _keys_agree_with_fractions(beta, bound, radii):
    """Keys of the box rows: membership and radius index against Fraction arithmetic."""
    keys, scale = polymra.indexing._cross_keys(bound, beta)
    lattice = polymra.indexing._lattice(bound)
    sums = _twice_lo_sums(beta, lattice.tolist())
    for r in radii:
        inside = polymra.indexing._inside(keys, scale, r)
        assert inside.tolist() == [s <= 2 * Fraction(r) for s in sums]
    # the smallest integer s with (kappa, 2 lo) <= 2 s
    radius = polymra.indexing._radius_index(keys, scale)
    assert radius.tolist() == [math.ceil(s / 2) for s in sums]
    return keys, lattice


_WEIGHTS = st.one_of(
    st.floats(min_value=2.0 ** -4, max_value=2.0 ** 4),
    st.sampled_from([0.1, 0.4, 1.0, 1.4142135623730951, 3.0, 0.7, 2.0 / 3.0]),
)


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.tuples(_WEIGHTS, st.integers(0, 5)), min_size=1, max_size=3),
    st.data(),
)
def test_cross_keys_match_fraction_arithmetic(axes, data):
    beta = tuple(b for b, _ in axes)
    bound = tuple(n for _, n in axes)
    rows = polymra.indexing._lattice(bound).tolist()
    # exact ties: the half key sum of drawn rows, as a Fraction and rounded to
    # a float; then integer radii and non-integer floats
    drawn = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
    tied = [s / 2 for s in _twice_lo_sums(beta, drawn)]
    radii = tied + [float(t) for t in tied]
    radii += data.draw(st.lists(st.integers(0, 40), max_size=3))
    radii += data.draw(st.lists(st.floats(0.0, 40.0), max_size=3))
    _keys_agree_with_fractions(beta, bound, radii)
    some = rows[:: max(1, len(rows) // 8)]
    for row, twice in zip(some, _twice_lo_sums(beta, some)):
        for r in radii:
            assert cross_contains(row, beta, r) == (twice <= 2 * Fraction(r))


def test_keys_past_int64_take_python_ints_and_agree():
    # the scale of (1.0, 0.01) is 2^59, so the weight of 1.0 is about 2^60:
    # the corner key of the big box passes 2^63 and its keys are Python
    # ints, while the small box stays int64
    beta = (1.0, 0.01)
    big, small = (12, 40), (6, 40)
    radii = [0, 1, 3.5, 6, 7, 9, 12.25]
    big_keys, big_rows = _keys_agree_with_fractions(beta, big, radii)
    small_keys, small_rows = _keys_agree_with_fractions(beta, small, radii)
    assert big_keys.dtype == object and max(big_keys) >= 2 ** 63
    assert small_keys.dtype == np.int64
    # the small box is the leading rows of the big one: same keys, same answers
    at = len(small_rows)
    assert (big_rows[:at] == small_rows).all()
    assert big_keys[:at].tolist() == small_keys.tolist()
    scale = polymra.indexing._band_weights(beta)[1]
    for r in radii:
        assert (polymra.indexing._inside(big_keys, scale, r)[:at]
                == polymra.indexing._inside(small_keys, scale, r)).all()
    # enum_cross at 9 scans a box past 2^63 too
    assert enum_cross(beta, 9) == cross_enum_fractions([rounding_floor(b) for b in beta], 9)
    assert cross_contains((9, 0), beta, 9) and not cross_contains((9, 1), beta, 9)


def test_cross_contains_rejects_negative_levels():
    with pytest.raises(ValueError):
        cross_contains((-1, 2), (1.0, 1.0), 1)


def test_cross_contains_rejects_a_length_mismatch():
    with pytest.raises(ValueError, match=r"kappa must have length 1, got \(1, 2\)"):
        cross_contains((1, 2), (1.0,), 3)
    with pytest.raises(ValueError, match=r"kappa must have length 2, got \(5,\)"):
        cross_contains((5,), (1.0, 1.0), 3)
