"""Multi-index arithmetic, dyadic cube geometry, and lattice index sets.

Cube geometry uses exact dyadic rationals (integer position, power-of-two
denominator), so edge comparisons never suffer float ties.

Levels, positions, box corners, shell indices and r_max are read by
grid._as_int / _as_tuple, never coerced: numpy ints pass, a float raises
ValueError, and per-axis vectors must be nonnegative.

Hyperbolic-cross membership (kappa, beta) <= r includes ties. The radius r
is exact (an integer or a dyadic number such as 2.5); a float weight stands
for every real that rounds to it. kappa is inside when (kappa, lo) <= r
holds exactly, lo_j being the smallest real that rounds to beta_j, so an
exact tie survives the rounding of its weights (5 * 0.4 <= 2 although
float(0.4) > 2/5) and any larger excess is left out. Two weights that round
to the same float cannot be told apart by any rule. The rule is decided in
integers only: 2 lo_j is a dyadic rational, scaled to an integer weight by
the lcm of the denominators (built once per beta), and each lattice row
gets one exact key (kappa, 2 lo) * scale, int64 when the largest key of
the box provably stays below 2^63 and Python ints otherwise. Membership at
r = num / den is then key <= (2 num scale) // den, one comparison per row
at any radius, and a row's smallest integer radius is ceil(key / (2
scale)). No float sum takes part, so no rounding band is needed.
enum_cross, enum_shell, cross_contains (its one-row case, in Python
ints), counting_ratios and widths use this rule.

Which slots of a smoothness vector attain its minimum is decided with a
1e-12 relative tolerance (minimal_slots); the admissible weight sets are
open, so this tie handling cannot change any asymptotics.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .grid import _as_int, _as_tuple

__all__ = [
    "DyadicCube",
    "enum_box",
    "enum_cross",
    "enum_shell",
    "cross_contains",
    "counting_ratios",
    "minimal_slots",
    "min_multiplicity",
]

_REL_TOL = 1e-12
_KEY_LIMIT = 2 ** 63


def minimal_slots(x: Sequence[float]) -> list[int]:
    """Positions of the entries that attain the minimum (relative tolerance 1e-12)."""
    m = min(x)
    tol = _REL_TOL * max(1.0, abs(m))
    return [j for j, v in enumerate(x) if v <= m + tol]


def min_multiplicity(x: Sequence[float]) -> int:
    """How many entries attain the minimum (relative tolerance 1e-12)."""
    return len(minimal_slots(x))


@dataclass(frozen=True)
class DyadicCube:
    """Open box 2^-level * pos + 2^-level * (0,1)^d with per-axis levels.

    level and pos are read by grid._as_tuple: nonnegative integers (numpy
    ints pass, a float raises ValueError), pos one per entry of level.
    """

    level: tuple[int, ...]
    pos: tuple[int, ...]

    def __post_init__(self):
        d = len(self.level)
        object.__setattr__(self, "level", _as_tuple(self.level, d, "level"))
        object.__setattr__(self, "pos", _as_tuple(self.pos, d, "pos"))

    @property
    def d(self) -> int:
        return len(self.level)

    def lo(self, axis: int) -> Fraction:
        return Fraction(self.pos[axis], 2 ** self.level[axis])

    def hi(self, axis: int) -> Fraction:
        return Fraction(self.pos[axis] + 1, 2 ** self.level[axis])

    def width(self, axis: int) -> Fraction:
        return Fraction(1, 2 ** self.level[axis])

    def diameter(self) -> float:
        return math.sqrt(sum(float(self.width(j)) ** 2 for j in range(self.d)))


def enum_box(k: Sequence[int]) -> list[tuple[int, ...]]:
    """All multi-indices kappa <= k componentwise, in lexicographic order."""
    k = _as_tuple(k, len(k), "box corner")
    return list(itertools.product(*(range(x + 1) for x in k)))


@functools.lru_cache(maxsize=64)
def _band_weights(beta: tuple[float, ...]) -> tuple[tuple[int, ...], int]:
    """(2 lo_j * scale as Python ints, scale), scale the lcm of the denominators of 2 lo_j.

    2 lo_j is beta_j plus its lower float neighbour, a dyadic rational, so
    the weights are exact integers.  They depend on beta alone, so they are
    built once per beta and shared by every lattice and radius.
    """
    twice_lo = [Fraction(b) + Fraction(math.nextafter(b, 0.0)) for b in beta]
    scale = math.lcm(*(t.denominator for t in twice_lo))
    return tuple(int(t * scale) for t in twice_lo), scale


def _cross_keys(bound: Sequence[int], beta: tuple[float, ...]) -> tuple[np.ndarray, int]:
    """(keys, scale): the exact key (kappa, 2 lo) * scale of every row of _lattice(bound).

    Keys come in the row order of _lattice(bound), as one outer sum per
    axis.  They are int64 when the corner's key (the largest), 2 scale and
    every weight stay below 2^63, and Python ints otherwise; both hold the
    same numbers.
    """
    weights, scale = _band_weights(beta)
    corner = sum(b * w for b, w in zip(bound, weights))
    dtype = np.int64 if max(corner, 2 * scale, *weights) < _KEY_LIMIT else object
    keys = np.zeros((), dtype=dtype)
    for b, w in zip(bound, weights):
        keys = np.add.outer(keys, np.arange(b + 1, dtype=dtype) * w)
    return keys.ravel(), scale


def _top_key(r, scale: int) -> int:
    """Largest key inside the cross at radius r: floor(2 r scale), exact."""
    num, den = Fraction(r).as_integer_ratio()
    return 2 * num * scale // den


def _inside(keys: np.ndarray, scale: int, r) -> np.ndarray:
    """Cross membership (kappa, beta) <= r of the rows whose _cross_keys are keys.

    (kappa, 2 lo) <= 2 r with both sides scaled: key <= floor(2 r scale),
    one exact comparison per row at any radius.
    """
    return keys <= _top_key(r, scale)


def _radius_index(keys: np.ndarray, scale: int) -> np.ndarray:
    """Smallest integer s whose cross holds each row: ceil(key / (2 scale)), as int64."""
    return (-(-keys // (2 * scale))).astype(np.int64, copy=False)


def _cross_args(beta: Sequence[float], r) -> tuple[float, ...]:
    """beta as floats, after checking that beta is positive and finite and r finite."""
    beta = tuple(float(b) for b in beta)
    if not all(0.0 < b < math.inf for b in beta):
        raise ValueError(f"cross weights must be positive and finite, got {beta}")
    if not math.isfinite(r):
        raise ValueError(f"cross radius must be finite, got {r}")
    return beta


def cross_contains(kappa: Sequence[int], beta: Sequence[float], r: float) -> bool:
    """Membership in the hyperbolic cross (kappa, beta) <= r, ties included; kappa >= 0."""
    beta = _cross_args(beta, r)
    kappa = _as_tuple(kappa, len(beta), "kappa")
    weights, scale = _band_weights(beta)
    return sum(k * w for k, w in zip(kappa, weights)) <= _top_key(r, scale)


def _cross_box(beta: Sequence[float], r: float) -> tuple[int, ...]:
    """Corner of the box scanned for the cross (kappa, beta) <= r: floor(r / beta_j) per axis."""
    return tuple(int(math.floor(r / b + 1e-9)) for b in beta)


def enum_cross(beta: Sequence[float], r: float) -> list[tuple[int, ...]]:
    """All kappa with (kappa, beta) <= r, lexicographic; beta positive and finite, r finite."""
    beta = _cross_args(beta, r)
    if r < 0:
        return []
    bound = _cross_box(beta, r)
    keys, scale = _cross_keys(bound, beta)
    return list(itertools.compress(enum_box(bound), _inside(keys, scale, r)))


def enum_shell(beta: Sequence[float], s: int) -> list[tuple[int, ...]]:
    """All kappa with s-1 < (kappa, beta) <= s (same tie rule as enum_cross)."""
    s = _as_int(s, "shell index")
    if s < 1:
        raise ValueError(f"shell index must be >= 1, got {s}")
    inner = set(enum_cross(beta, s - 1))
    return [k for k in enum_cross(beta, s) if k not in inner]


def _lattice(bound: Sequence[int]) -> np.ndarray:
    """Integer lattice of the box [0, bound] as an (N, d) array, rows in lexicographic order.

    C-contiguous, so products such as lattice @ alpha run on rows, and built
    in one allocation: each axis's arange is written into a broadcast view
    of the (N, d) array, no second copy.
    """
    shape = tuple(b + 1 for b in bound)
    d = len(shape)
    out = np.empty(shape + (d,), dtype=int)
    for j, n in enumerate(shape):
        out[..., j] = np.arange(n).reshape((n,) + (1,) * (d - 1 - j))
    return out.reshape(-1, d)


def _cross_masks(beta: Sequence[float],
                 radii: Sequence) -> tuple[tuple[int, ...], np.ndarray, Iterator[np.ndarray]]:
    """(bound, lattice, masks): one keyed lattice for a sweep of cross radii.

    bound is the corner of the box enum_cross scans at the largest radius
    and lattice its _lattice; masks lazily yields the _inside mask of each
    radius in turn over those rows, from exact keys built once, so one mask
    is alive at a time.  beta must be positive and finite.
    """
    beta = _cross_args(beta, max(radii))
    bound = _cross_box(beta, max(radii))
    keys, scale = _cross_keys(bound, beta)
    return bound, _lattice(bound), (_inside(keys, scale, r) for r in radii)


def _cross_tail(walpha: np.ndarray, outside: np.ndarray, alpha: Sequence[float],
                bound: Sequence[int]) -> float:
    """Sum of 2^-(kappa, alpha) over every kappa >= 0 outside a cross inside the box [0, bound].

    walpha = lattice @ alpha on _lattice(bound), and outside marks the box
    rows outside the cross.  Those rows are summed; every kappa beyond the
    box is outside the cross and adds, with q_j = 2^-alpha_j and
    F = prod 1/(1 - q_j), the closed form F (1 - prod (1 - q_j^(b_j+1)))
    = F * -expm1(sum log1p(-q_j^(b_j+1))), which cancels nothing.
    """
    q = [2.0 ** -a for a in alpha]
    full = math.prod(1.0 / (1.0 - qj) for qj in q)
    beyond = full * -math.expm1(sum(math.log1p(-(qj ** (b + 1))) for qj, b in zip(q, bound)))
    return float(np.sum(np.exp2(-walpha[outside]))) + beyond


def counting_ratios(beta: Sequence[float], alpha: Sequence[float], r_max: int) -> list[dict]:
    """Exact lattice sums against their model growth/decay expressions.

    For each r <= r_max reports the sum of 2^(kappa, alpha) over the cross
    (kappa, beta) <= r next to 2^(Mr) r^(C-1), and the tail sum of
    2^-(kappa, alpha) over (kappa, beta) > r next to 2^(-mr) r^(c-1), where
    M/m are the extreme entries of alpha/beta and C/c their multiplicities.

    r_max is an integer (operator.index: a float raises ValueError).
    Memory: one keyed lattice over the box enum_cross scans at r_max
    (_cross_masks), built once, and one membership mask per radius, a
    comparison of the exact keys.  The tail adds the terms beyond that box
    in closed form (_cross_tail), so it is not truncated.
    """
    beta = tuple(float(b) for b in beta)
    alpha = tuple(float(a) for a in alpha)
    if len(beta) != len(alpha):
        raise ValueError(f"beta {beta} and alpha {alpha} must have equal length")
    if not all(0 < v < math.inf for v in beta + alpha):
        raise ValueError(f"alpha and beta must be positive and finite, got {alpha}, {beta}")
    ratio_vec = tuple(a / b for a, b in zip(alpha, beta))
    big = max(ratio_vec)
    # negation is exact, so the maxima of x are the minima of -x in the same band
    big_mult = min_multiplicity([-v for v in ratio_vec])
    small = min(ratio_vec)
    small_mult = min_multiplicity(ratio_vec)
    if big <= 0:
        raise ValueError("growth model needs a positive maximal exponent")
    r_max = _as_int(r_max, "r_max")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")

    # one lattice over the largest cross's box covers every r
    radii = range(1, r_max + 1)
    bound, lattice, masks = _cross_masks(beta, radii)
    walpha = lattice @ np.asarray(alpha)
    del lattice
    rows = []
    for r, inside in zip(radii, masks):
        grow = float(np.sum(np.exp2(walpha[inside])))
        grow_model = float(2.0 ** (big * r) * r ** (big_mult - 1))
        tail = _cross_tail(walpha, ~inside, alpha, bound)
        tail_model = float(2.0 ** (-small * r) * r ** (small_mult - 1))
        rows.append(
            {
                "r": r,
                "growth_sum": grow,
                "growth_model": grow_model,
                "growth_ratio": grow / grow_model,
                "tail_sum": tail,
                "tail_model": tail_model,
                "tail_ratio": tail / tail_model,
            }
        )
    return rows
