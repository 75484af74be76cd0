"""Command line runner: invariant checks, sweeps, decompositions, experiments.

Every subcommand emits a deterministic report for a fixed seed: CSV with
'#' comment lines carrying the resolved config and summary values, or a
JSON document with the same rows.  No timestamps are written, so reruns
are byte-identical and reports can serve as golden files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .czd import cz_constants, cz_split
from .grid import GridFunction, grid_for, lp_norm
from .indexing import counting_ratios, min_multiplicity
from .lp_analysis import detail_components, lp_report, random_resolved
from .projectors import analyze, parseval_gap, project_level, synthesize
from .smoothness import SmoothnessParams, besov_seminorm, decay_check, synthesize_extremal
from .widths import WidthExperimentConfig, budget_plan, choose_beta, rate_fit, width_experiment

__all__ = ["main"]


# ---------------------------------------------------------------------------
# argument helpers


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(x) for x in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated integers, got {text!r}")


def _r_range(text: str) -> tuple[int, ...]:
    """Either 'lo..hi' or a comma separated list of radii."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty radius range {text!r}")
        return tuple(range(lo, hi + 1))
    return _int_list(text)


def _norm_exponent(text: str) -> float:
    """A norm exponent: any number or inf, never nan; the experiments check its range."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"expected a norm exponent or inf, got {text!r}")
    return value


def _exponent_list(text: str) -> tuple[float, ...]:
    return tuple(_norm_exponent(x) for x in text.split(","))


# ---------------------------------------------------------------------------
# report writing


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("POLYMRA_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _scalar(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value):
    # json with allow_nan=False rejects inf, so norm exponents go out as text
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _emit(args, config: dict, rows: list[dict], summary: dict | None = None) -> None:
    summary = summary or {}
    config = {k: _jsonable(v) for k, v in config.items()}
    if args.format == "json":
        doc = {
            "version": __version__,
            "config": config,
            "summary": summary,
            "rows": rows,
        }
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        lines = [f"# polymra {__version__}"]
        lines.append("# config: " + " ".join(f"{k}={_scalar(v)}" for k, v in sorted(config.items())))
        for key, value in sorted(summary.items()):
            lines.append(f"# {key}={_scalar(value)}")
        if rows:
            header = list(rows[0])
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(_scalar(row[k]) for k in header))
        text = "\n".join(lines) + "\n"
    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_baselines(path: str) -> dict:
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {}


def _store_baselines(path: str, updates: dict) -> None:
    data = _load_baselines(path)
    data.update(updates)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify_projectors(args) -> int:
    degrees = args.l if len(args.l) > 1 else args.l * args.d
    if len(degrees) != args.d:
        raise ValueError(f"degree vector {degrees} does not match d={args.d}")
    grid = grid_for(args.d, degree=degrees, level=args.K)
    k = (args.K,) * args.d
    rng = np.random.default_rng(args.seed)
    tol = 1e-10
    gaps = {"parseval": 0.0, "reconstruction": 0.0, "telescoping": 0.0, "orthogonality": 0.0}
    for _ in range(args.trials):
        f = random_resolved(grid, k, degrees, rng)
        scale = lp_norm(f, 2.0)
        gaps["parseval"] = max(gaps["parseval"], parseval_gap(f, k, degrees) / scale**2)
        dec = analyze(f, k, degrees)
        back = synthesize(dec)
        gaps["reconstruction"] = max(
            gaps["reconstruction"], float(np.abs(back.values - f.values).max()) / scale
        )
        level = project_level(f, k, degrees).to_grid()
        total = sum(g.values for _, g in detail_components(dec))
        gaps["telescoping"] = max(
            gaps["telescoping"], float(np.abs(total - level.values).max()) / scale
        )
    small = grid_for(args.d, degree=degrees, level=2)
    g = random_resolved(small, (2,) * args.d, degrees, rng)
    parts = dict(detail_components(analyze(g, 2, degrees)))
    for ka, ga in parts.items():
        for kb, gb in parts.items():
            if ka < kb:
                inner = abs(small.integrate(ga.values * gb.values))
                gaps["orthogonality"] = max(gaps["orthogonality"], inner)
    rows = [
        {"check": name, "max_error": err, "tolerance": tol, "status": "pass" if err <= tol else "fail"}
        for name, err in gaps.items()
    ]
    config = {"command": "verify-projectors", "d": args.d, "l": ",".join(map(str, degrees)),
              "K": args.K, "trials": args.trials, "seed": args.seed}
    _emit(args, config, rows)
    return 0 if all(r["status"] == "pass" for r in rows) else 1


def _cmd_lp_sweep(args) -> int:
    degrees = args.degree if len(args.degree) > 1 else args.degree * args.d
    grid = grid_for(args.d, degree=degrees, level=args.K)
    k = (args.K,) * args.d
    rows = []
    updates = {}
    reports = lp_report(grid, k, degrees, args.p, trials=args.trials,
                        sign_trials=args.sign_trials, seed=args.seed)
    for p, rep in zip(args.p, reports):
        rows.extend(rep.rows())
        updates[f"lp_square_d{args.d}_p{p!r}"] = [rep.square_ratio["min"], rep.square_ratio["max"]]
        updates[f"pstar_d{args.d}_p{p!r}"] = rep.pstar["max"]
    config = {"command": "lp-sweep", "d": args.d, "degree": ",".join(map(str, degrees)),
              "K": args.K, "p": ",".join(repr(p) for p in args.p),
              "trials": args.trials, "sign_trials": args.sign_trials, "seed": args.seed}
    _emit(args, config, rows)
    if args.update_baselines:
        _store_baselines(args.baselines, updates)
    return 0


_DEMOS = {
    "bump": lambda d: (lambda *x: 6.0 * np.exp(-60.0 * sum((xi - 0.5) ** 2 for xi in x))),
    "step": lambda d: (lambda *x: 3.0 * (x[0] < 1.0 / 3.0)),
    "wedge": lambda d: (lambda *x: 4.0 * math.prod(x) if d > 1 else 4.0 * x[0]),
}


def _cmd_czd(args) -> int:
    if args.alpha <= 0.0:
        raise ValueError(f"threshold must be positive, got {args.alpha}")
    grid = grid_for(args.d, degree=0, level=args.K)
    f = grid.sample(_DEMOS[args.demo](args.d))
    good, wdec, split = cz_split(f, args.alpha)
    stats = cz_constants(f, args.alpha)
    # whitney cubes carry equal per-axis levels, so one column is enough
    rows = [
        {"level": cube.level[0], "pos": ":".join(map(str, cube.pos))}
        for cube in wdec.cubes
    ]
    recon = split.reconstruct()
    summary = {
        "k0": -1 if wdec.base_level is None else wdec.base_level,
        "cube_count": stats["cube_count"],
        "bad_measure": float(good.complement().measure()),
        "residual": float(wdec.residual_measure),
        "residual_bound": float(wdec.residual_bound()),
        "identity_error": float(np.abs(recon.values - f.values).max()),
        "weak11": stats["weak11"],
        "good_sup": stats["good_sup"],
    }
    config = {"command": "czd", "d": args.d, "demo": args.demo,
              "alpha": args.alpha, "K": args.K}
    _emit(args, config, rows, summary)
    return 0


def _cmd_smoothness(args) -> int:
    if args.K < 1:  # level 0 has no detail block to measure
        raise ValueError(f"K must be >= 1, got {args.K}")
    params = SmoothnessParams(alpha=args.alpha, p=args.p, theta=args.theta)
    if len(args.alpha) != args.d:
        raise ValueError(f"alpha {args.alpha} does not match d={args.d}")
    f = synthesize_extremal(params, args.K, args.seed)
    seminorm = besov_seminorm(f, params)
    unit = GridFunction(f.grid, f.values / seminorm)
    ratios = decay_check(unit, params, args.q)
    rows = [
        {"kappa": ":".join(map(str, kappa)), "ratio": ratios[kappa]}
        for kappa in sorted(ratios)
    ]
    summary = {"seminorm": seminorm, "ratio_max": max(ratios.values())}
    config = {"command": "smoothness", "d": args.d,
              "alpha": ",".join(repr(a) for a in args.alpha),
              "p": args.p, "theta": args.theta, "q": args.q,
              "K": args.K, "seed": args.seed}
    _emit(args, config, rows, summary)
    return 0


def _cmd_widths(args) -> int:
    params = SmoothnessParams(alpha=args.alpha, p=args.p, theta=args.theta)
    if len(args.alpha) != args.d:
        raise ValueError(f"alpha {args.alpha} does not match d={args.d}")
    config_obj = WidthExperimentConfig(params=params, q=args.q, level=args.K,
                                       r_values=args.r, trials=args.trials, seed=args.seed)
    rows = width_experiment(config_obj)
    summary = {"condition_margin": config_obj.condition_margin()}
    # radii whose tail the grid no longer resolves report a zero error
    points = [(row["n"], row["error"]) for row in rows if row["error"] > 0.0]
    if len(points) >= 4:
        slope, loglog = rate_fit(points)
        summary["slope"] = slope
        summary["loglog"] = loglog
    else:
        summary["warning_fit"] = "fit skipped: need four radii with positive error"
    try:
        plan = budget_plan(args.r[-1], choose_beta(params, args.q), params, args.q)
        count = min_multiplicity(params.alpha)
        summary["budget_total"] = plan.total
        summary["budget_ratio"] = plan.total / (2.0 ** plan.r * plan.r ** (count - 1))
    except ValueError as exc:
        # hypothesis failures are reported, never silently dropped
        summary["warning"] = f"budget skipped: {exc}"
    config = {"command": "widths", "d": args.d,
              "alpha": ",".join(repr(a) for a in args.alpha),
              "p": args.p, "q": args.q, "theta": args.theta, "K": args.K,
              "r": ",".join(map(str, args.r)), "trials": args.trials, "seed": args.seed}
    _emit(args, config, rows, summary)
    if args.update_baselines and "slope" in summary:
        _store_baselines(args.baselines, {f"width_slope_d{args.d}": summary["slope"]})
    return 0


def _cmd_cross_count(args) -> int:
    if len(args.beta) != len(args.alpha):
        raise ValueError(f"beta {args.beta} and alpha {args.alpha} must have equal length")
    rows = counting_ratios(args.beta, args.alpha, args.r_max)
    config = {"command": "cross-count",
              "beta": ",".join(repr(b) for b in args.beta),
              "alpha": ",".join(repr(a) for a in args.alpha),
              "r_max": args.r_max}
    _emit(args, config, rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, baselines=False):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None,
                     help="output path; relative paths land in $POLYMRA_OUT when set")
    if baselines:
        sub.add_argument("--update-baselines", action="store_true")
        sub.add_argument("--baselines", default=os.path.join("baselines", "empirical.json"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every option is fixed at build time."""
    parser = argparse.ArgumentParser(
        prog="polymra",
        description="Dyadic multiresolution analysis: checks, sweeps and experiments.",
    )
    parser.add_argument("--version", action="version", version=f"polymra {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    vp = subs.add_parser("verify-projectors", help="transform invariant checks")
    vp.add_argument("--d", type=int, default=1, choices=(1, 2, 3))
    vp.add_argument("--l", type=_int_list, default=(0,), help="degree vector")
    vp.add_argument("--K", type=int, default=5)
    vp.add_argument("--trials", type=int, default=10)
    vp.add_argument("--seed", type=int, default=0)
    _add_common(vp)
    vp.set_defaults(func=_cmd_verify_projectors)

    lp = subs.add_parser("lp-sweep", help="norm equivalence ratio sweep")
    lp.add_argument("--d", type=int, default=1, choices=(1, 2, 3))
    lp.add_argument("--degree", type=_int_list, default=(0,))
    lp.add_argument("--K", type=int, default=4)
    lp.add_argument("--p", type=_exponent_list, default=(1.5, 2.0, 3.0))
    lp.add_argument("--trials", type=int, default=20)
    lp.add_argument("--sign-trials", type=int, default=5)
    lp.add_argument("--seed", type=int, default=0)
    _add_common(lp, baselines=True)
    lp.set_defaults(func=_cmd_lp_sweep)

    cz = subs.add_parser("czd", help="level set decomposition dump")
    cz.add_argument("--d", type=int, default=1, choices=(1, 2))
    cz.add_argument("--demo", choices=sorted(_DEMOS), default="bump")
    cz.add_argument("--alpha", type=_finite_float, default=0.5, help="level threshold")
    cz.add_argument("--K", type=int, default=6)
    _add_common(cz)
    cz.set_defaults(func=_cmd_czd)

    sm = subs.add_parser("smoothness", help="seminorms and block decay")
    sm.add_argument("--d", type=int, default=1, choices=(1, 2, 3))
    sm.add_argument("--alpha", type=_float_list, default=(1.0,), help="smoothness vector")
    sm.add_argument("--p", type=_norm_exponent, default=2.0)
    sm.add_argument("--theta", type=_norm_exponent, default=math.inf)
    sm.add_argument("--q", type=_norm_exponent, default=2.0)
    sm.add_argument("--K", type=int, default=5)
    sm.add_argument("--seed", type=int, default=0)
    _add_common(sm)
    sm.set_defaults(func=_cmd_smoothness)

    wd = subs.add_parser("widths", help="cross truncation rate experiment")
    wd.add_argument("--d", type=int, default=2, choices=(1, 2, 3))
    wd.add_argument("--alpha", type=_float_list, default=(1.0, 1.0))
    wd.add_argument("--p", type=_norm_exponent, default=2.0)
    wd.add_argument("--q", type=_norm_exponent, default=2.0)
    wd.add_argument("--theta", type=_norm_exponent, default=2.0)
    wd.add_argument("--K", type=int, default=6)
    wd.add_argument("--r", type=_r_range, default=tuple(range(4, 11)), help="radii, lo..hi or list")
    wd.add_argument("--trials", type=int, default=1)
    wd.add_argument("--seed", type=int, default=0)
    _add_common(wd, baselines=True)
    wd.set_defaults(func=_cmd_widths)

    cc = subs.add_parser("cross-count", help="cross cardinality and lattice sums")
    cc.add_argument("--beta", type=_float_list, default=(1.0, 1.0))
    cc.add_argument("--alpha", type=_float_list, default=(1.0, 1.0))
    cc.add_argument("--r-max", type=int, default=10)
    _add_common(cc)
    cc.set_defaults(func=_cmd_cross_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
