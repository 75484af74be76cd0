"""Multi-index arithmetic, dyadic cube geometry, and lattice index sets.

Cube geometry uses exact dyadic rationals (integer position, power-of-two
denominator), so edge comparisons never suffer float ties.

Hyperbolic-cross membership (kappa, beta) <= r includes ties. The radius r
is exact (an integer or a dyadic number such as 2.5); a float weight stands
for every real that rounds to it. kappa is inside when (kappa, lo) <= r
holds exactly, lo_j being the smallest real that rounds to beta_j, so an
exact tie survives the rounding of its weights (5 * 0.4 <= 2 although
float(0.4) > 2/5) and any larger excess is left out. Two weights that round
to the same float cannot be told apart by any rule. One array rule decides
membership for every row of an integer array of multi-levels from the float
weights w = lattice @ beta (cross_contains is its one-row case): w decides
outside the band |w - r| <= (d + 1) 2^-52 w, and the rows inside it are
decided together by one exact integer comparison, with 2 lo_j scaled to
Python ints by the lcm of their denominators (built once per beta) and r's
denominator cleared on both sides. The band holds in
any summation order: a length-d dot product of nonnegative terms lies within
d 2^-53 w of its exact value (to first order) under any grouping, and
(kappa, lo) within 2^-53 w of (kappa, beta): half the band. enum_cross,
enum_shell, counting_ratios and widths use this rule.

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
from typing import Sequence

import numpy as np

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
_EPS = 2.0 ** -52


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
    """Open box 2^-level * pos + 2^-level * (0,1)^d with per-axis levels."""

    level: tuple[int, ...]
    pos: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "level", tuple(int(k) for k in self.level))
        object.__setattr__(self, "pos", tuple(int(v) for v in self.pos))
        if len(self.level) != len(self.pos):
            raise ValueError("level and position must have the same length")
        if any(k < 0 for k in self.level):
            raise ValueError(f"levels must be >= 0, got {self.level}")

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
    if any(int(x) < 0 for x in k):
        raise ValueError(f"box corner must be >= 0, got {tuple(k)}")
    return list(itertools.product(*(range(int(x) + 1) for x in k)))


@functools.lru_cache(maxsize=64)
def _band_weights(beta: tuple[float, ...]) -> tuple[np.ndarray, int]:
    """(2 lo_j * scale as Python ints, scale), scale the lcm of the denominators of 2 lo_j.

    2 lo_j is beta_j plus its lower float neighbour, a dyadic rational.  The
    weights depend on beta alone, so they are built once per beta and shared
    by every radius; the array is read-only.
    """
    twice_lo = [Fraction(b) + Fraction(math.nextafter(b, 0.0)) for b in beta]
    scale = math.lcm(*(t.denominator for t in twice_lo))
    weights = np.array([int(t * scale) for t in twice_lo], dtype=object)
    weights.flags.writeable = False
    return weights, scale


def _inside(lattice: np.ndarray, w: np.ndarray, beta: Sequence[float], r: float) -> np.ndarray:
    """Cross membership of each row of an (N, d) integer array; w = lattice @ beta.

    Rows in the rounding band are decided at once in exact integers:
    (kappa, 2 lo) <= 2 r with both sides multiplied by the denominator of
    r and by the scale of _band_weights.
    """
    inside = w < r
    band = np.flatnonzero(np.abs(w - r) <= (len(beta) + 1) * _EPS * w)
    if len(band):
        weights, scale = _band_weights(tuple(float(b) for b in beta))
        num, den = Fraction(r).as_integer_ratio()
        inside[band] = (lattice[band].astype(object) @ weights) * den <= 2 * num * scale
    return inside


def cross_contains(kappa: Sequence[int], beta: Sequence[float], r: float) -> bool:
    """Membership in the hyperbolic cross (kappa, beta) <= r, ties included; kappa >= 0."""
    if len(kappa) != len(beta):
        raise ValueError(f"kappa has length {len(kappa)} but beta has length {len(beta)}")
    if min(kappa) < 0:
        raise ValueError(f"multi-level entries must be >= 0, got {tuple(kappa)}")
    row = np.array([kappa], dtype=np.int64)
    return bool(_inside(row, row @ np.asarray(beta, dtype=float), beta, r)[0])


def _cross_box(beta: Sequence[float], r: float) -> tuple[int, ...]:
    """Corner of the box scanned for the cross (kappa, beta) <= r: floor(r / beta_j) per axis."""
    return tuple(int(math.floor(r / b + 1e-9)) for b in beta)


def enum_cross(beta: Sequence[float], r: float) -> list[tuple[int, ...]]:
    """All kappa with (kappa, beta) <= r, lexicographic; beta strictly positive."""
    beta = tuple(float(b) for b in beta)
    if any(b <= 0 for b in beta):
        raise ValueError(f"cross weights must be positive, got {beta}")
    if r < 0:
        return []
    bound = _cross_box(beta, r)
    box = enum_box(bound)
    lattice = _lattice(bound)
    return list(itertools.compress(box, _inside(lattice, lattice @ np.asarray(beta), beta, r)))


def enum_shell(beta: Sequence[float], s: int) -> list[tuple[int, ...]]:
    """All kappa with s-1 < (kappa, beta) <= s (same tie rule as enum_cross)."""
    if s < 1:
        raise ValueError(f"shell index must be >= 1, got {s}")
    inner = set(enum_cross(beta, s - 1))
    return [k for k in enum_cross(beta, s) if k not in inner]


def _lattice(bound: Sequence[int]) -> np.ndarray:
    """Integer lattice of the box [0, bound] as an (N, d) array."""
    axes = [np.arange(b + 1) for b in bound]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


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

    Memory: one integer lattice over the box enum_cross scans at r_max and
    one membership mask (_inside) per radius.  The tail adds the terms
    beyond that box in closed form (_cross_tail), so it is not truncated.
    """
    beta = tuple(float(b) for b in beta)
    alpha = tuple(float(a) for a in alpha)
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
    r_max = int(r_max)
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")

    # one lattice over the largest cross's box covers every r
    bound = _cross_box(beta, r_max)
    lattice = _lattice(bound)
    wbeta = lattice @ np.asarray(beta)
    walpha = lattice @ np.asarray(alpha)
    rows = []
    for r in range(1, r_max + 1):
        inside = _inside(lattice, wbeta, beta, r)
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
