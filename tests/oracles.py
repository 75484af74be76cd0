"""Reference implementations coded independently of the package internals.

Everything here goes the long way around on purpose: pyramid averaging
instead of basis matrices, Fractions instead of floats, exhaustive search
instead of the production algorithm. Tests compare the fast path against
these.
"""

import math
import itertools
from fractions import Fraction

import numpy as np
from numpy.polynomial import legendre

from polymra.basis import detail_dim
from polymra.grid import GridFunction, box_lp_norm, grid_for, lp_norm
from polymra.indexing import cross_contains, enum_cross, enum_shell, minimal_slots
from polymra.lp_analysis import SignFamily, detail_components
from polymra.projectors import Decomposition, DetailCoeffs, analyze, project_level, synthesize
from polymra.quadrature import interval_basis_table


def _signed(dec, signs):
    """dec with block kappa times sigma_kappa: the sign series as blocks, for synthesize.

    The block-by-block route to the sign series; lp_analysis writes the
    signs into one copy of the analysis tensor instead.
    """
    blocks = {}
    for kappa, block in dec.blocks.items():
        s = signs.sigma(kappa) if isinstance(signs, SignFamily) else signs[kappa]
        if s not in (-1, 1):
            raise ValueError(f"sign for block {kappa} must be +1 or -1, got {s}")
        blocks[kappa] = DetailCoeffs(kappa=kappa, degrees=block.degrees, coeffs=s * block.coeffs)
    return Decomposition(grid=dec.grid, degrees=dec.degrees, blocks=blocks)


def legendre_eval(degree, x):
    """Shifted Legendre polynomial of the given degree with unit L2(0,1) norm.

    One degree at a time by Clenshaw summation (legval), where
    quadrature.legendre_table builds every degree at once from the
    Vandermonde matrix.
    """
    degree = int(degree)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    coeffs = np.zeros(degree + 1)
    coeffs[-1] = 1.0
    return np.sqrt(2.0 * degree + 1.0) * legendre.legval(2.0 * np.asarray(x) - 1.0, coeffs)


def support(kappa):
    """Axes (0-based) where the multi-level is nonzero."""
    return frozenset(j for j, k in enumerate(kappa) if k != 0)


def cell_averages(f):
    """Averages of a GridFunction over every finest-level cell, shape (2^K,)*d."""
    g = f.grid
    out = f.values
    cells = g.cells_per_axis
    for ax in range(g.d):
        n = g.nodes_per_cell[ax]
        w = g.axis_weights[ax][:n] * cells  # one-cell weights, normalized to mean
        moved = np.moveaxis(out, ax, 0)
        moved = moved.reshape(cells, n, *moved.shape[1:])
        out = np.moveaxis(np.tensordot(moved, w, axes=([1], [0])), 0, ax)
    return out


def level_operator_1d(grid, axis, m, degree):
    """Dense (M, M) matrix of the 1D level-m projector on the grid's axis nodes.

    Built cell by cell from orthonormal Legendre tables of each level-m
    interval, locating nodes by coordinate: P[i, j] = sum_k phi_k(x_i)
    phi_k(x_j) w_j when nodes i and j share a cell, zero otherwise.
    """
    xs = grid.axis_nodes[axis]
    ws = grid.axis_weights[axis]
    width = 2.0 ** -m
    cell_of = np.floor(xs / width).astype(int)
    out = np.zeros((len(xs), len(xs)))
    for c in range(2 ** m):
        idx = np.nonzero(cell_of == c)[0]
        table = interval_basis_table(degree, xs[idx], c * width, width)
        out[np.ix_(idx, idx)] = table.T @ (table * ws[idx])
    return out


def detail_operator_1d(grid, axis, m, degree):
    """Dense matrix of the 1D detail projector: level m minus level m-1 (level 0 at m=0)."""
    out = level_operator_1d(grid, axis, m, degree)
    if m > 0:
        out = out - level_operator_1d(grid, axis, m - 1, degree)
    return out


def apply_axis(op_1d, axis, f):
    """Apply an (M, M) matrix along one axis of a GridFunction, other coordinates fixed."""
    mat = np.asarray(op_1d, dtype=float)
    out = np.tensordot(mat, f.values, axes=([1], [axis]))
    return GridFunction(f.grid, np.moveaxis(out, 0, axis))


def project_detail(f, kappa, degrees):
    """Detail projector at multi-level kappa by inclusion-exclusion of level projectors.

    Sums (-1)^|eps| E_(kappa-eps) over all 0/1 vectors eps supported where
    kappa is nonzero, so it never touches the wavelet filter bank.
    """
    grid = f.grid
    kappa = tuple(int(k) for k in kappa)
    axes = sorted(support(kappa))
    acc = np.zeros(grid.shape)
    for bits in range(2 ** len(axes)):
        eps = [0] * grid.d
        for t, j in enumerate(axes):
            eps[j] = (bits >> t) & 1
        sign = -1.0 if sum(eps) % 2 else 1.0
        shifted = tuple(k - e for k, e in zip(kappa, eps))
        acc += sign * project_level(f, shifted, degrees).to_grid().values
    return GridFunction(grid, acc)


def local_project(f, cube, degrees):
    """Legendre coefficients of the L2 projection of f onto polynomials on one dyadic cube.

    Inner products against the orthonormal tensor Legendre basis of the
    cube, whose nodes Grid.cube_slices locates; one cube at a time, where
    project_level does every cell of a level at once.  The result has shape
    (l_1+1, ..., l_d+1).
    """
    grid = f.grid
    slices = grid.cube_slices(cube)
    block = f.values[slices]
    for j, l in enumerate(degrees):
        xs, ws = grid.axis_nodes[j][slices[j]], grid.axis_weights[j][slices[j]]
        width = 2.0 ** -cube.level[j]
        analysis = interval_basis_table(l, xs, cube.pos[j] * width, width) * ws
        # contract the leading sample axis; finished coefficient axes cycle to the end
        block = np.moveaxis(np.tensordot(analysis, block, axes=([1], [0])), 0, -1)
    return block


def half_cell_values(vec, x):
    """Values on (0,1) of a two-piece polynomial given by half-interval Legendre coordinates.

    vec has length 2(l+1): the coefficients in the orthonormal Legendre
    basis of (0,1/2), then of (1/2,1), the layout of the two-scale matrices.
    """
    vec = np.asarray(vec, dtype=float)
    l = len(vec) // 2 - 1
    x = np.asarray(x, dtype=float)
    left = vec[: l + 1] @ interval_basis_table(l, x, 0.0, 0.5)
    right = vec[l + 1 :] @ interval_basis_table(l, x, 0.5, 0.5)
    return np.where(x < 0.5, left, right)


def haar_coeffs_1d(avgs):
    """Classical orthonormal Haar coefficients from cell averages.

    Output order matches the package's stacked layout: the level-0 scaling
    coefficient first, then level-m details occupying [2^(m-1), 2^m).
    The wavelet is -1 on the left half, +1 on the right.
    """
    a = np.asarray(avgs, dtype=float)
    K = int(round(np.log2(len(a))))
    if len(a) != 2 ** K:
        raise ValueError("cell count must be a power of two")
    blocks = []
    for m in range(K, 0, -1):
        left, right = a[0::2], a[1::2]
        blocks.append((right - left) * 2.0 ** (-(m + 1) / 2.0))
        a = 0.5 * (left + right)
    blocks.append(a)
    return np.concatenate(blocks[::-1])


def haar_coeff_tensor(f):
    """Tensor Haar coefficients of a GridFunction, one axis at a time."""
    coeffs = cell_averages(f)
    for ax in range(f.grid.d):
        coeffs = np.apply_along_axis(haar_coeffs_1d, ax, coeffs)
    return coeffs


def haar_block(coeff_tensor, kappa):
    """Slice one detail block out of the full Haar coefficient tensor."""
    slices = tuple(
        slice(0, 1) if k == 0 else slice(2 ** (k - 1), 2 ** k) for k in kappa
    )
    return coeff_tensor[slices]


def rademacher_eval(kappa, t):
    """Sign of the tensor Rademacher function at a point, by dyadic position.

    The pointwise route to the sign tables of lp_analysis._axis_sign_table.
    The axis factor at level k is +1 on even cells of the level-(k+1) dyadic
    partition and -1 on odd ones; no trigonometry is involved. Points on a
    cell boundary are rejected.
    """
    kappa = tuple(int(k) for k in kappa)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if len(kappa) != len(t):
        raise ValueError("kappa and the point must have the same dimension")
    sign = 1
    for k, tj in zip(kappa, t):
        if k < 0:
            raise ValueError(f"levels must be >= 0, got {kappa}")
        if not 0.0 < tj < 1.0:
            raise ValueError(f"point coordinate {tj} outside the open unit interval")
        u = tj * 2.0 ** (k + 1)
        cell = math.floor(u)
        if u == cell:
            raise ValueError(f"coordinate {tj} is a dyadic breakpoint at level {k}")
        if cell % 2:
            sign = -sign
    return sign


def rademacher_sum_lp_brute(arr, p):
    """L_p norm of a tensor Rademacher polynomial straight from the definition.

    Signs come from sign(sin(2^(k+1) pi t)) at midpoints of the finest sign
    partition; no bit tricks shared with the package implementation.
    """
    arr = np.asarray(arr, dtype=float)
    k = tuple(s - 1 for s in arr.shape)
    d = len(k)
    mids = [(np.arange(2 ** (kj + 1)) + 0.5) / 2 ** (kj + 1) for kj in k]
    total = 0.0
    for cell in itertools.product(*(range(2 ** (kj + 1)) for kj in k)):
        t = [mids[j][cell[j]] for j in range(d)]
        s = 0.0
        for kappa in itertools.product(*(range(kj + 1) for kj in k)):
            sgn = 1.0
            for j in range(d):
                sgn *= np.sign(np.sin(2.0 ** (kappa[j] + 1) * np.pi * t[j]))
            s += arr[kappa] * sgn
        total += abs(s) ** p
    vol = 1.0
    for kj in k:
        vol *= 2.0 ** -(kj + 1)
    return (total * vol) ** (1.0 / p)


def rounding_floor(x):
    """Lower end of the interval of reals that round to the positive float x.

    It is the midpoint between x and its lower float neighbour, as a Fraction.
    """
    return (Fraction(x) + Fraction(math.nextafter(x, 0.0))) / 2


def cross_enum_fractions(beta, r):
    """Hyperbolic-cross enumeration with exact rational arithmetic.

    beta entries must be Fractions (or ints); membership is exact, ties in.
    """
    beta = [Fraction(b) for b in beta]
    r = Fraction(r)
    bounds = [int(r / b) for b in beta]
    out = []
    for kappa in itertools.product(*(range(b + 1) for b in bounds)):
        if sum(k * b for k, b in zip(kappa, beta)) <= r:
            out.append(kappa)
    return out


def whitney_brute(mask, surround=True):
    """Exhaustive Whitney decomposition over dyadic cubes, Fraction arithmetic.

    mask is a boolean array over the finest cells, True marking the closed
    set F; everything outside the unit cube joins F when surround is set.
    Scans every cube of every level 0..K against every marked cell, no
    integer shortcuts.  Returns (k0, accepted) with accepted a lex-ordered
    list of (level, position_tuple); (None, []) when no level qualifies.
    """
    mask = np.asarray(mask, dtype=bool)
    d = mask.ndim
    side = mask.shape[0]
    K = side.bit_length() - 1
    cell_w = Fraction(1, side)
    cells = [tuple(int(c) for c in nu) for nu in np.argwhere(mask)]

    def box(level, nu):
        w = Fraction(1, 2 ** level)
        return [(v * w, (v + 1) * w) for v in nu]

    def dist2(level, nu):
        b = box(level, nu)
        best = None
        if surround:
            best = min(min(lo, 1 - hi) for lo, hi in b) ** 2
        for cell in cells:
            s = Fraction(0)
            for (qlo, qhi), c in zip(b, cell):
                g = max(c * cell_w - qhi, qlo - (c + 1) * cell_w, 0)
                s += g * g
            best = s if best is None else min(best, s)
        return best

    def qualifies(level, nu):
        d2 = dist2(level, nu)
        return d2 is not None and d2 > Fraction(d, 4 ** level)

    k0 = None
    for k in range(K + 1):
        if any(qualifies(k, nu) for nu in itertools.product(range(2 ** k), repeat=d)):
            k0 = k
            break
    if k0 is None:
        return None, []

    accepted = []
    for k in range(k0, K + 1):
        for nu in itertools.product(range(2 ** k), repeat=d):
            if not qualifies(k, nu):
                continue
            b = box(k, nu)
            clash = False
            for ka, na in accepted:
                ba = box(ka, na)
                if all(max(l1, l2) < min(h1, h2) for (l1, h1), (l2, h2) in zip(b, ba)):
                    clash = True
                    break
            if not clash:
                accepted.append((k, nu))
    return k0, accepted


def box_dist2_pairs(lo, hi, cells, side, surround):
    """Squared box-to-cell-set distances in finest cell widths, every (box, cell) pair formed.

    lo, hi: (m, d) integer box corners at scale 2^-K, side = 2^K; cells:
    (n, d) marked cell indices.  Boxes may be any size or position.  Runs
    of boxes keep each (boxes, n, d) temporary near 2^17 integers.
    """
    best = None
    if surround:
        ext = np.minimum(lo, side - hi).min(axis=1)
        best = ext * ext
    if len(cells):
        d2 = np.empty(len(lo), dtype=np.int64)
        step = max(2 ** 17 // cells.size, 1)
        for at in range(0, len(lo), step):
            run = slice(at, at + step)
            gap = np.maximum(np.maximum(cells - hi[run, None, :],
                                        lo[run, None, :] - cells - 1), 0)
            d2[run] = (gap * gap).sum(axis=2).min(axis=1)
        best = d2 if best is None else np.minimum(best, d2)
    if best is None:
        raise ValueError("empty closed set: distances are undefined")
    return best


def ball_average_brute(f, node, radius):
    """Quadrature average of |f| over one Euclidean ball, straight loops."""
    grid = f.grid
    coords = np.stack(np.meshgrid(*grid.axis_nodes, indexing="ij"), axis=-1)
    w = grid.axis_weights[0]
    for aw in grid.axis_weights[1:]:
        w = np.multiply.outer(w, aw)
    inside = np.sqrt(((coords - np.asarray(node)) ** 2).sum(axis=-1)) <= radius
    mass = float((w * np.abs(f.values))[inside].sum())
    if grid.d == 1:
        measure = 2.0 * radius
    else:
        measure = np.pi * radius ** 2
    return mass / measure


def mixed_difference_brute(f, shifts, orders):
    """Tensor finite difference straight from the double-sum binomial formula.

    One flat sum over all k <= l with weight (-1)^|l-k| C(l,k), shifts in
    whole cells; no per-axis factorization shared with the implementation.
    """
    grid = f.grid
    cells = grid.cells_per_axis
    windows = []
    for s, l in zip(shifts, orders):
        span = l * abs(s)
        if span >= cells:
            return np.zeros(grid.shape)
        windows.append((span if s < 0 else 0, cells - (span if s > 0 else 0)))
    out = np.zeros(grid.shape)
    dest = tuple(
        slice(lo * grid.nodes_per_cell[j], hi * grid.nodes_per_cell[j])
        for j, (lo, hi) in enumerate(windows)
    )
    for k in itertools.product(*(range(l + 1) for l in orders)):
        w = 1.0
        for kj, lj in zip(k, orders):
            w *= (-1) ** (lj - kj) * math.comb(lj, kj)
        src = tuple(
            slice((lo + kj * s) * grid.nodes_per_cell[j],
                  (hi + kj * s) * grid.nodes_per_cell[j])
            for j, ((lo, hi), kj, s) in enumerate(zip(windows, k, shifts))
        )
        out[dest] += w * f.values[src]
    return out


def cross_tail_sq_brute(alpha, beta, r, box=None):
    """Sum of 4^-(kappa, alpha) over the complement of the cross (kappa, beta) <= r.

    Exhaustive lattice loop.  box bounds every component by 0..box; box None
    truncates the infinite sum where a component term falls below 4^-67,
    far under any tolerance the tests use.  Ties (kappa, beta) == r count as
    inside the cross and are excluded, matching the library's rule.
    """
    d = len(alpha)
    if box is None:
        bounds = [max(1, int(math.ceil(67.0 / a))) for a in alpha]
    else:
        bounds = [int(box)] * d
    total = 0.0
    for kappa in itertools.product(*(range(b + 1) for b in bounds)):
        w = sum(k * b for k, b in zip(kappa, beta))
        if w <= r + 1e-12 * max(1.0, abs(r)):
            continue
        total += 4.0 ** -sum(k * a for k, a in zip(kappa, alpha))
    return total


def truncation_error_per_block(f, beta, r, q, degrees):
    """(L_q error, cross dimension) of a cross truncation, one block at a time.

    Each block of f's analysis is tested on its own with cross_contains,
    and the dimension sums detail_dim over enum_cross; widths takes both
    from one keyed lattice.  The dropped blocks are summed (q = 2) or
    synthesized (any other q) in the same order and float operations, so
    the two routes agree bit for bit.
    """
    dec = analyze(f, f.grid.level, degrees)
    dropped = {
        kappa: blk for kappa, blk in dec.blocks.items() if not cross_contains(kappa, beta, r)
    }
    n = sum(detail_dim(kappa, degrees) for kappa in enum_cross(beta, r))
    if not dropped:
        return 0.0, n
    if q == 2.0:
        return math.sqrt(sum(blk.l2_norm() ** 2 for blk in dropped.values())), n
    tail = synthesize(Decomposition(grid=dec.grid, degrees=dec.degrees, blocks=dropped))
    return lp_norm(tail, q), n


def synthesize_extremal_per_block(params, level, seed):
    """smoothness.synthesize_extremal through a Decomposition, one block at a time.

    The noise is analyzed into DetailCoeffs blocks, each block's norm is
    taken from its coefficients (p = 2) or its own evaluation (any other p),
    its array is scaled in place and the blocks are synthesized; the tensor
    route makes the same products in one multiply, so the two agree bit for
    bit.
    """
    degrees = tuple(lj - 1 for lj in params.l)
    grid = grid_for(len(params.alpha), degree=degrees, level=level)
    rng = np.random.default_rng(seed)
    dec = analyze(GridFunction(grid, rng.standard_normal(grid.shape)), level, degrees)
    if params.p == 2.0:
        norms = ((kappa, blk.l2_norm()) for kappa, blk in dec.blocks.items())
    else:
        norms = ((kappa, lp_norm(gk, params.p)) for kappa, gk in detail_components(dec))
    for kappa, nrm in norms:
        target = 2.0 ** -sum(k * a for k, a in zip(kappa, params.alpha))
        dec.blocks[kappa].coeffs[...] *= target / nrm
    return synthesize(dec)


def decay_check_per_block(f, params, q):
    """smoothness.decay_check through a Decomposition: each DetailCoeffs block evaluated."""
    grid = f.grid
    dec = analyze(f, grid.level, tuple(lj - 1 for lj in params.l))
    shift = max(0.0, 1.0 / params.p - 1.0 / q)
    out = {}
    for kappa, gk in detail_components(dec):
        if any(kappa):
            expo = sum(k * (a - shift) for k, a in zip(kappa, params.alpha))
            out[kappa] = box_lp_norm(grid, np.abs(gk.values), q) / 2.0 ** -expo
    return out


def budget_allocation_brute(plan, beta, params):
    """(allocation, cross_dim) of a budget plan, one enumerated shell at a time.

    Takes the plan's frozen constants and walks the shells r < (kappa, beta)
    <= r + j0 through enum_shell, each block on its own in Python ints;
    budget_plan derives the same from one lattice over the outer box.
    """
    r, j0, c0 = plan.r, plan.j0, plan.c0
    gamma, gamma_prime = plan.gamma, plan.gamma_prime
    degrees = tuple(l - 1 for l in params.l)
    others = [j for j in range(len(beta)) if j not in minimal_slots(params.alpha)]
    allocation = {}
    for j in range(1, j0 + 1):
        for kappa in enum_shell(beta, r + j):
            cap = detail_dim(kappa, degrees)
            off = sum(kappa[i] * beta[i] for i in others)
            raw = c0 * 2.0 ** (r - gamma * j - gamma_prime * off)
            allocation[kappa] = min(math.floor(raw) + 1, cap)
    cross_dim = sum(detail_dim(kappa, degrees) for kappa in enum_cross(beta, r))
    return allocation, cross_dim


def maximal_function_brute(f):
    """Grid maximal function node by node over all N nodes, shape of f.values.

    Each node sorts its distances to every node with a stable argsort, so
    equidistant nodes enter the ball in row-major node order, then takes
    the sup over the prefixes of mass / max(ball measure, covered weight).
    Per axis the displacement to a node in cell c at Gauss index b is
    ((c - c0) + (g[b] - g[a])) / C from the centre's cell c0 and index a.
    """
    grid = f.grid
    d, C = grid.d, grid.cells_per_axis
    gauss = [x[:n] * C for x, n in zip(grid.axis_nodes, grid.nodes_per_cell)]
    w = grid.axis_weights[0]
    for aw in grid.axis_weights[1:]:
        w = np.multiply.outer(w, aw)
    w = w.reshape(-1)
    wf = w * np.abs(f.values).reshape(-1)
    r_min = math.sqrt(d) * 2.0 ** -grid.level
    out = np.empty(w.size)
    for flat, node in enumerate(itertools.product(*(range(m) for m in grid.shape))):
        dist2 = 0.0
        for j, (i, n) in enumerate(zip(node, grid.nodes_per_cell)):
            idx = np.arange(grid.shape[j])
            disp = ((idx // n - i // n) + (gauss[j][idx % n] - gauss[j][i % n])) / C
            dist2 = np.add.outer(dist2, disp ** 2) if j else disp ** 2
        dist = np.sqrt(dist2).reshape(-1)
        order = np.argsort(dist, kind="stable")
        radii = np.maximum(dist[order], r_min)
        ball = 2.0 * radii if d == 1 else np.pi * radii ** 2
        mass = np.cumsum(wf[order])
        out[flat] = (mass / np.maximum(ball, np.cumsum(w[order]))).max()
    return out.reshape(grid.shape)


def axis_difference_per_step(values, grid, axis, order, shift):
    """One axis difference on its valid slab in a freshly allocated array.

    The binomial terms are summed from k = 0 with a product array for every
    weight other than +-1; the library writes the same slab into a reused
    buffer.
    """
    n = grid.nodes_per_cell[axis]
    length = (grid.cells_per_axis - order * shift) * n
    src = [slice(None)] * values.ndim
    out = None
    for k in range(order + 1):
        w = (-1) ** (order - k) * math.comb(order, k)
        src[axis] = slice(k * shift * n, k * shift * n + length)
        term = values[tuple(src)]
        if out is None:
            out = w * term
        elif w == 1:
            out += term
        elif w == -1:
            out -= term
        else:
            out += w * term
    return out


def fill_norms_per_step(values, grid, l, p, axes, out):
    """Difference norms for every step vector, one new slab and one abs and pow pass per step.

    Same table layout as smoothness._fill_norms; each norm is
    integrate(|diff| ** p) ** (1/p), p = inf the max of |diff|.
    """
    axis = axes[0]
    order = l[axis]
    steps = 1 if order == 0 else (grid.cells_per_axis - 1) // order
    for s in range(1, steps + 1):
        diff = axis_difference_per_step(values, grid, axis, order, s)
        if len(axes) > 1:
            fill_norms_per_step(diff, grid, l, p, axes[1:], out[s - 1])
            continue
        np.abs(diff, out=diff)
        if p == np.inf:
            out[s - 1] = float(np.max(diff))
        else:
            diff **= p
            out[s - 1] = grid.integrate(diff) ** (1.0 / p)
    if order == 0:
        out[1:] = out[0]


def modulus_table_per_step(f, l, p, axes):
    """Modulus table values through fill_norms_per_step, nested as modulus_table nests them.

    The nesting order (identity axes, then decreasing order, higher axis
    first on ties) is repeated here because a different order changes the
    rounding.
    """
    grid = f.grid
    nest = tuple(sorted(axes, key=lambda a: (l[a] != 0, -l[a], -a)))
    norms = np.zeros((grid.cells_per_axis,) * len(axes))
    fill_norms_per_step(f.values, grid, l, p, nest, norms)
    norms = np.transpose(norms, [nest.index(a) for a in axes])
    for axis in range(norms.ndim):
        norms = np.maximum.accumulate(norms, axis=axis)
    idx = [2 ** (grid.level - m) - 1 for m in range(grid.level + 1)]
    return norms[np.ix_(*([idx] * len(axes)))]


def step_energies_dense_gram(values, grid, axis, order):
    """Squared difference norms of every step from the full node Gram, no Gauss-index split.

    The L x L Gram of the nodes along the axis, weighted by the quadrature
    weights of the other axes, gives each step's squared norm as a double
    sum over the binomial weights of window sums of lagged entries, the
    axis weight of each node taken from its own position; the library
    splits the nodes by Gauss index and sums cell diagonals instead.
    """
    n = grid.nodes_per_cell[axis]
    cells = grid.cells_per_axis
    nodes = np.moveaxis(values, axis, 0).reshape(cells * n, -1)
    rest = np.ones(())
    for j, size in enumerate(values.shape):
        if j != axis:
            rest = np.multiply.outer(rest, grid.axis_weights[j][:size])
    gram = (nodes * rest.ravel()) @ nodes.T
    w = grid.axis_weights[axis]
    c = [(-1) ** (order - k) * math.comb(order, k) for k in range(order + 1)]
    steps = (cells - 1) // order if order else 1
    out = np.zeros(steps)
    for s in range(1, steps + 1):
        x = np.arange((cells - order * s) * n)
        for k in range(order + 1):
            for k2 in range(order + 1):
                out[s - 1] += c[k] * c[k2] * np.sum(w[x] * gram[x + k * s * n, x + k2 * s * n])
    return out
