"""Command-line harness: every experiment as a CSV emitter.

All numeric fields are decimal with 17 significant digits, which round-trips
float64 exactly.  Exit codes: 0 success, 2 validation error, 3 numerical
range failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from fractions import Fraction

from .bernoulli_lattice import build_scheme, default_trials, w_distribution
from .coupling import h_decomposition, size_bias_check_exact, size_bias_sample
from .errors import NumericalRangeError, ValidationError
from .experiments import (
    ExperimentRow,
    bound_params,
    compare_normal,
    empirical_constant,
    moderate_deviation_bound,
    relative_error_sweep,
    scaling_sweep,
)
from .stein_lattice import SteinContext, solve_stein, verify_f_properties
from .weighted_sum import (
    exact_tail,
    moments,
    normalize_weights,
    scaled_poisson_tail,
)

_DEFAULT_WEIGHTS = "1,10"
_DEFAULT_RATES = "100,30"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _parse_fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"cannot parse rational list {text!r}: {e}") from e


def _model_from_args(args):
    model, scale_b = normalize_weights(
        _parse_fractions(args.weights), _parse_fractions(args.rates)
    )
    return model, scale_b


def _emit(rows: list[dict], header: list[str], out_path: str | None) -> None:
    handle = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[h]) for h in header])
    finally:
        if out_path:
            handle.close()


def _experiment_rows(rows: list[ExperimentRow]) -> list[dict]:
    return [
        {name: getattr(r, name) for name in ExperimentRow.csv_fields} for r in rows
    ]


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weights", default=_DEFAULT_WEIGHTS, help="comma list, rationals allowed")
    p.add_argument("--rates", default=_DEFAULT_RATES, help="comma list, rationals allowed")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scaled-poisson",
        description="Scaled Poisson approximation experiments for weighted Poisson sums",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact mu, sigma^2, k, lambda")
    _add_model_args(p)

    p = sub.add_parser("exact-tail", help="bracketed exact tail of S")
    _add_model_args(p)
    p.add_argument("--y", required=True)
    p.add_argument("--strict", action="store_true", help="P(S > y) instead of P(S >= y)")
    p.add_argument("--eps", type=float, default=1e-12)

    p = sub.add_parser("approx-tail", help="scaled Poisson tail at y")
    _add_model_args(p)
    p.add_argument("--y", required=True)
    p.add_argument("--mode", choices=("discrete", "continuous"), default="discrete")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("sweep-relerr", help="relative error over a y range")
    _add_model_args(p)
    p.add_argument("--y-from", type=int, required=True)
    p.add_argument("--y-to", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--non-strict", action="store_true", help="use P(S >= y) tails")

    p = sub.add_parser("sweep-scaling", help="relative error vs rate scale N at fixed y")
    _add_model_args(p)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--n-values", default="1,2,3,4,5,6,7")
    p.add_argument("--eps", type=float, default=1e-12)

    p = sub.add_parser("compare-normal", help="absolute error against the normal baseline")
    _add_model_args(p)
    p.add_argument("--y-from", type=int, required=True)
    p.add_argument("--y-to", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-12)

    p = sub.add_parser("stein-check", help="solution-property report for one lattice context")
    p.add_argument("--lambda-num", type=int, required=True)
    p.add_argument("--lambda-den", type=int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--wmax", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)

    p = sub.add_parser("coupling-check", help="size-bias identity and H-closure")
    _add_model_args(p)
    p.add_argument("--mstar", type=int, default=100, help="trials factor: M* = mstar * ceil(max rate)")
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("bound", help="moderate-deviation bracket and its parameters")
    _add_model_args(p)
    p.add_argument("--y", type=int, required=True)

    p = sub.add_parser("empirical-constant", help="observed constant over a y grid")
    _add_model_args(p)
    p.add_argument("--y-from", type=int, required=True)
    p.add_argument("--y-to", type=int, required=True)
    p.add_argument("--mstar", type=int, default=100)

    return ap


def _run(args) -> None:
    cmd = args.command
    if cmd == "moments":
        model, scale_b = _model_from_args(args)
        m = moments(model, scale_B=scale_b)
        _emit(
            [
                {
                    "mu": m.mu,
                    "sigma_sq": m.sigma_sq,
                    "k_num": m.k_num,
                    "k_den": m.k_den,
                    "lambda": m.lam,
                    "scale_B": m.scale_B,
                }
            ],
            ["mu", "sigma_sq", "k_num", "k_den", "lambda", "scale_B"],
            args.out,
        )
    elif cmd == "exact-tail":
        model, _ = _model_from_args(args)
        lo, hi = exact_tail(model, Fraction(args.y), strict=args.strict, epsilon=args.eps)
        _emit(
            [{"y": args.y, "tail_lo": lo, "tail_hi": hi, "strict": args.strict}],
            ["y", "tail_lo", "tail_hi", "strict"],
            args.out,
        )
    elif cmd == "approx-tail":
        model, _ = _model_from_args(args)
        m = moments(model)
        val = scaled_poisson_tail(m, Fraction(args.y), mode=args.mode, strict=args.strict)
        _emit(
            [{"y": args.y, "mode": args.mode, "strict": args.strict, "value": val}],
            ["y", "mode", "strict", "value"],
            args.out,
        )
    elif cmd == "sweep-relerr":
        model, _ = _model_from_args(args)
        rows = relative_error_sweep(
            model, args.y_from, args.y_to, epsilon=args.eps, strict=not args.non_strict
        )
        _emit(_experiment_rows(rows), list(ExperimentRow.csv_fields), args.out)
    elif cmd == "sweep-scaling":
        model, _ = _model_from_args(args)
        n_values = [int(v) for v in args.n_values.split(",") if v.strip()]
        result = scaling_sweep(model, args.y, n_values, epsilon=args.eps)
        for n_scale, reason in result.excluded:
            print(f"note: N={n_scale} excluded: {reason}", file=sys.stderr)
        _emit(_experiment_rows(result.rows), list(ExperimentRow.csv_fields), args.out)
    elif cmd == "compare-normal":
        model, _ = _model_from_args(args)
        result = compare_normal(model, args.y_from, args.y_to, epsilon=args.eps)
        print(
            f"note: poisson beats normal on {result.poisson_better}/{result.total} rows",
            file=sys.stderr,
        )
        _emit(_experiment_rows(result.rows), list(ExperimentRow.csv_fields), args.out)
    elif cmd == "stein-check":
        ctx = SteinContext(
            lam=Fraction(args.lambda_num, args.lambda_den),
            lattice_step=args.m,
            scale_num=args.n,
            threshold_y=args.y,
            series_tol=args.tol,
        )
        table = solve_stein(ctx, args.wmax, include_off_lattice=True)
        report = verify_f_properties(ctx, table)
        rows = [
            {
                "property": c.name,
                "passed": c.passed,
                "worst_margin": c.worst_margin,
                "observed_constant": (
                    math.nan if c.observed_constant is None else c.observed_constant
                ),
                "points": c.points,
            }
            for c in report.checks
        ]
        rows.append(
            {
                "property": "stein_equation_residual",
                "passed": table.residual_max <= 10.0 * ctx.series_tol,
                "worst_margin": table.residual_max,
                "observed_constant": math.nan,
                "points": table.w_max // ctx.lattice_step,
            }
        )
        header = ["property", "passed", "worst_margin", "observed_constant", "points"]
        _emit(rows, header, args.out)
    elif cmd == "coupling-check":
        model, _ = _model_from_args(args)
        m = moments(model)
        trials = default_trials(model, args.mstar)
        scheme = build_scheme(model, trials)
        rows = [{"field": "trials_per_class", "value": trials}]
        ctx = SteinContext(
            lam=m.lam, lattice_step=m.k_den, scale_num=m.k_num, threshold_y=args.y
        )
        wd = w_distribution(scheme, epsilon=1e-250)
        need = m.k_num * wd.support_max + max(m.k_den, m.k_num * max(model.weights))
        w_max = max(need, m.k_den * (args.y + 10)) + m.k_den
        table = solve_stein(ctx, w_max, include_off_lattice=True)
        hd = h_decomposition(scheme, m, ctx, table)
        for i, h in enumerate(hd.H):
            rows.append({"field": f"H_{i}", "value": h})
        rows.append({"field": "tail_diff", "value": hd.tail_diff})
        rows.append({"field": "closure_error", "value": hd.closure_error})
        if args.exhaustive:
            lhs, rhs = size_bias_check_exact(scheme, lambda x: min(x, 10.0), m)
            rows.append({"field": "sizebias_lhs", "value": lhs})
            rows.append({"field": "sizebias_rhs", "value": rhs})
        else:
            threshold = m.k_den * args.y
            res = size_bias_sample(
                scheme, lambda x: (x >= threshold) * 1.0, args.samples, args.seed
            )
            rows.append({"field": "sizebias_lhs", "value": res.lhs})
            rows.append({"field": "sizebias_rhs", "value": res.rhs})
            rows.append({"field": "sizebias_stderr_lhs", "value": res.stderr_lhs})
            rows.append({"field": "sizebias_stderr_rhs", "value": res.stderr_rhs})
        _emit(rows, ["field", "value"], args.out)
    elif cmd == "bound":
        model, _ = _model_from_args(args)
        m = moments(model)
        params = bound_params(model, m)
        _emit(
            [
                {
                    "y": args.y,
                    "lambda": m.lam,
                    "bracket": moderate_deviation_bound(params, args.y),
                    "r_star": params.r_star,
                    "correction_sum": params.correction_sum,
                    "deltas": ";".join(str(d) for d in params.deltas),
                    "K": ";".join(str(k) for k in params.K),
                }
            ],
            ["y", "lambda", "bracket", "r_star", "correction_sum", "deltas", "K"],
            args.out,
        )
    elif cmd == "empirical-constant":
        model, _ = _model_from_args(args)
        result = empirical_constant(model, args.y_from, args.y_to, mstar=args.mstar)
        rows = [
            {"y": y, "deviation": dev, "bracket": br, "ratio": ratio}
            for y, dev, br, ratio in result.rows
        ]
        print(f"note: C_hat = {result.c_hat:.17g}", file=sys.stderr)
        _emit(rows, ["y", "deviation", "bracket", "ratio"], args.out)
    else:  # pragma: no cover
        raise ValidationError(f"unknown command {cmd!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use, not at import.

    parse_args leaves a parser unchanged, so in-process callers share it.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _run(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalRangeError as e:
        print(f"numerical range error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
