"""Command-line harness: every experiment as a CSV emitter.

Each subcommand is one handler ``args -> (columns, rows)``, bound to its
parser with ``set_defaults(run=...)``; ``main`` writes what it returns.
``columns`` names each column with its kind, and every cell of a column
is written by that kind: ``float`` and ``Fraction`` cells with 17
significant digits (``%.17g``, which round-trips float64 exactly), ``int``
and ``bool`` cells as exact integers (``%d``; a bool is 1 or 0), and
``str`` cells as given, quoted as ``csv.writer`` quotes them.  Exit codes:
0 success, 2 validation error, 3 numerical range failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import typing
from fractions import Fraction

from .bernoulli_lattice import build_scheme, default_trials
from .coupling import _stein_table, h_decomposition, size_bias_check_exact, size_bias_sample
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
_Y_HELP = "threshold on S (not on B*S, the integer-weight model of rational weights)"
_INT_Y_HELP = "integer threshold on S; integer weights only"


def _parse(text, what: str, convert=Fraction):
    """convert(text), with a malformed number raised as ValidationError, so
    the CLI exits 2 with an error line rather than a traceback."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"cannot parse {what} {text!r}: {e}") from e


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in text.split(",") if tok.strip()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _on_model(handler, integer_y: bool = False):
    """handler(args, model, scale_B) as a command handler of args alone; the
    model of --weights and --rates is parsed here for every command.  A
    command whose thresholds are integers on S (integer_y) refuses rational
    weights (B > 1), naming the integer weights of B*S."""

    @functools.wraps(handler)
    def run(args):
        model, scale_b = normalize_weights(
            _parse(args.weights, "rational list", _fractions),
            _parse(args.rates, "rational list", _fractions),
        )
        if integer_y and scale_b > 1:
            weights, rates = (",".join(map(str, v)) for v in (model.weights, model.rates))
            raise ValidationError(
                f"{args.command} needs integer weights; these scale to {scale_b}*S, "
                f"whose integer weights are {weights} (pass --weights {weights} "
                f"--rates {rates} and thresholds times {scale_b})"
            )
        return handler(args, model, scale_b)

    return run


_on_integer_model = functools.partial(_on_model, integer_y=True)


def _quoted(text: str) -> str:
    """text as csv.writer writes it within a row: in double quotes, each
    quote doubled, when it holds a comma, a quote or a line break."""
    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\r\n') else text


_SPEC = {float: "%.17g", Fraction: "%.17g", int: "%d", bool: "%d", str: "%s"}


@functools.cache
def _row_format(kinds: tuple) -> str:
    """The %-format line of a row of these kinds."""
    return ",".join(_SPEC[k] for k in kinds) + "\r\n"


def _emit(columns, rows, out_path: str | None) -> None:
    """The header, then one line per row, formatted by the column kinds."""
    names, kinds = zip(*columns)
    line = _row_format(kinds)
    if str in kinds:
        rows = [tuple(_quoted(x) if k is str else x for k, x in zip(kinds, row)) for row in rows]
    body = "".join([line % row for row in rows])
    handle = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        csv.writer(handle).writerow(names)
        handle.write(body)
    finally:
        if out_path:
            handle.close()


_EXPERIMENT_COLUMNS = tuple(typing.get_type_hints(ExperimentRow).items())


@_on_model
def _moments(args, model, scale_b):
    m = moments(model)
    # the moments of S = (B*S) / B; lambda = k * mu is scale-free
    k = m.k * scale_b
    columns = (
        ("mu", Fraction),
        ("sigma_sq", Fraction),
        ("k_num", int),
        ("k_den", int),
        ("lambda", Fraction),
        ("scale_B", int),
    )
    row = (m.mu / scale_b, m.sigma_sq / scale_b**2, k.numerator, k.denominator, m.lam, scale_b)
    return columns, [row]


@_on_model
def _exact_tail(args, model, scale_b):
    y = _parse(args.y, "--y")
    lo, hi = exact_tail(model, scale_b * y, strict=args.strict, epsilon=args.eps)
    columns = (("y", str), ("tail_lo", float), ("tail_hi", float), ("strict", bool))
    return columns, [(args.y, lo, hi, args.strict)]


@_on_model
def _approx_tail(args, model, scale_b):
    y = _parse(args.y, "--y")
    val = scaled_poisson_tail(moments(model), scale_b * y, mode=args.mode, strict=args.strict)
    columns = (("y", str), ("mode", str), ("strict", bool), ("value", float))
    return columns, [(args.y, args.mode, args.strict, val)]


@_on_integer_model
def _sweep_relerr(args, model, _):
    rows = relative_error_sweep(
        model, args.y_from, args.y_to, epsilon=args.eps, strict=not args.non_strict
    )
    return _EXPERIMENT_COLUMNS, rows


@_on_integer_model
def _sweep_scaling(args, model, _):
    n_values = _parse(args.n_values, "integer list", _ints)
    result = scaling_sweep(model, args.y, n_values, epsilon=args.eps)
    for n_scale, reason in result.excluded:
        print(f"note: N={n_scale} excluded: {reason}", file=sys.stderr)
    return _EXPERIMENT_COLUMNS, result.rows


@_on_integer_model
def _compare_normal(args, model, _):
    result = compare_normal(model, args.y_from, args.y_to, epsilon=args.eps)
    print(
        f"note: poisson beats normal on {result.poisson_better}/{result.total} rows",
        file=sys.stderr,
    )
    return _EXPERIMENT_COLUMNS, result.rows


def _stein_check(args):
    ctx = SteinContext(
        lam=_parse(args.lambda_den, "--lambda-den", lambda den: Fraction(args.lambda_num, den)),
        lattice_step=args.m,
        scale_num=args.n,
        threshold_y=args.y,
        series_tol=args.tol,
    )
    table = solve_stein(ctx, args.wmax, include_off_lattice=True)
    report = verify_f_properties(ctx, table)
    rows = []
    for c in report.checks:
        observed = math.nan if c.observed_constant is None else c.observed_constant
        rows.append((c.name, c.passed, c.worst_margin, observed, c.points))
    passed = table.residual_max <= 10.0 * ctx.series_tol
    points = table.w_max // ctx.lattice_step
    rows.append(("stein_equation_residual", passed, table.residual_max, math.nan, points))
    columns = (
        ("property", str),
        ("passed", bool),
        ("worst_margin", float),
        ("observed_constant", float),
        ("points", int),
    )
    return columns, rows


@_on_integer_model
def _coupling_check(args, model, _):
    m = moments(model)
    trials = default_trials(model, args.mstar)
    scheme = build_scheme(model, trials)
    ctx = SteinContext(lam=m.lam, lattice_step=m.k_den, scale_num=m.k_num, threshold_y=args.y)
    # the class tables and laws are built once here and read by both checks
    table = _stein_table(scheme, m, ctx)
    hd = h_decomposition(scheme, m, ctx, table)
    # %.17g writes a count up to 2**53 exactly; a larger one never gets here,
    # as its binomial tables pass the size budget (33,554,432 points)
    rows = [("trials_per_class", float(trials))]
    rows += [(f"H_{i}", h) for i, h in enumerate(hd.H)]
    rows += [("tail_diff", hd.tail_diff), ("closure_error", hd.closure_error)]
    if args.exhaustive:
        lhs, rhs = size_bias_check_exact(scheme, lambda x: min(x, 10.0), m)
        rows += [("sizebias_lhs", lhs), ("sizebias_rhs", rhs)]
    else:
        threshold = m.k_den * args.y
        res = size_bias_sample(scheme, lambda x: (x >= threshold) * 1.0, args.samples, args.seed)
        rows += [("sizebias_lhs", res.lhs), ("sizebias_rhs", res.rhs)]
        rows += [("sizebias_stderr_lhs", res.stderr_lhs), ("sizebias_stderr_rhs", res.stderr_rhs)]
    return (("field", str), ("value", float)), rows


@_on_integer_model
def _bound(args, model, _):
    m = moments(model)
    params = bound_params(model, m)
    bracket = moderate_deviation_bound(params, args.y)
    deltas, ks = (";".join(map(str, v)) for v in (params.deltas, params.K))
    columns = (
        ("y", int),
        ("lambda", Fraction),
        ("bracket", float),
        ("r_star", int),
        ("correction_sum", Fraction),
        ("deltas", str),
        ("K", str),
    )
    return columns, [(args.y, m.lam, bracket, params.r_star, params.correction_sum, deltas, ks)]


@_on_integer_model
def _empirical_constant(args, model, _):
    result = empirical_constant(model, args.y_from, args.y_to, mstar=args.mstar)
    print(f"note: C_hat = {result.c_hat:.17g}", file=sys.stderr)
    columns = (("y", int), ("deviation", float), ("bracket", float), ("ratio", float))
    return columns, result.rows


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weights", default=_DEFAULT_WEIGHTS, help="comma list, rationals allowed")
    p.add_argument("--rates", default=_DEFAULT_RATES, help="comma list, rationals allowed")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")


def _add_command(sub, name: str, run, help: str) -> argparse.ArgumentParser:
    """A subcommand on the model options, run by the handler run."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    _add_model_args(p)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scaled-poisson",
        description="Scaled Poisson approximation experiments for weighted Poisson sums",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _add_command(sub, "moments", _moments, "exact mu, sigma^2, k, lambda")

    p = _add_command(sub, "exact-tail", _exact_tail, "bracketed exact tail of S")
    p.add_argument("--y", required=True, help=_Y_HELP)
    p.add_argument("--strict", action="store_true", help="P(S > y) instead of P(S >= y)")
    p.add_argument("--eps", type=float, default=1e-12)

    p = _add_command(sub, "approx-tail", _approx_tail, "scaled Poisson tail at y")
    p.add_argument("--y", required=True, help=_Y_HELP)
    p.add_argument("--mode", choices=("discrete", "continuous"), default="discrete")
    p.add_argument("--strict", action="store_true")

    p = _add_command(sub, "sweep-relerr", _sweep_relerr, "relative error over a y range")
    p.add_argument("--y-from", type=int, required=True, help=_INT_Y_HELP)
    p.add_argument("--y-to", type=int, required=True, help=_INT_Y_HELP)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--non-strict", action="store_true", help="use P(S >= y) tails")

    p = _add_command(sub, "sweep-scaling", _sweep_scaling, "relative error vs rate scale N at fixed y")
    p.add_argument("--y", type=int, required=True, help=_INT_Y_HELP)
    p.add_argument("--n-values", default="1,2,3,4,5,6,7")
    p.add_argument("--eps", type=float, default=1e-12)

    p = _add_command(sub, "compare-normal", _compare_normal, "absolute error against the normal baseline")
    p.add_argument("--y-from", type=int, required=True, help=_INT_Y_HELP)
    p.add_argument("--y-to", type=int, required=True, help=_INT_Y_HELP)
    p.add_argument("--eps", type=float, default=1e-12)

    p = sub.add_parser("stein-check", help="solution-property report for one lattice context")
    p.set_defaults(run=_stein_check)
    p.add_argument("--lambda-num", type=int, required=True)
    p.add_argument("--lambda-den", type=int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--wmax", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)

    p = _add_command(sub, "coupling-check", _coupling_check, "size-bias identity and H-closure")
    p.add_argument("--mstar", type=int, default=100, help="trials factor: M* = mstar * ceil(max rate)")
    p.add_argument("--y", type=int, required=True, help=_INT_Y_HELP)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=7)

    p = _add_command(sub, "bound", _bound, "moderate-deviation bracket and its parameters")
    p.add_argument("--y", type=int, required=True, help=_INT_Y_HELP)

    p = _add_command(sub, "empirical-constant", _empirical_constant, "observed constant over a y grid")
    p.add_argument("--y-from", type=int, required=True, help=_INT_Y_HELP)
    p.add_argument("--y-to", type=int, required=True, help=_INT_Y_HELP)
    p.add_argument("--mstar", type=int, default=100)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use, not at import.

    parse_args leaves a parser unchanged, so in-process callers share it.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _emit(*args.run(args), args.out)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalRangeError as e:
        print(f"numerical range error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
