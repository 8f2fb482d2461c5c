"""Tail-error experiments and the moderate-deviation bound evaluator.

The bound on |P(nW >= my)/P(mA_lam >= my) - 1| carries an unknown absolute
constant, so everything here treats the bracket

    (1 + (y - lam)^2 / (2 lam)) * (1 + sum_{r > r*} (K_r - 2) delta_r)
        + lam * (1 + log y)

as the shape to evaluate and the constants as outputs (empirical suprema),
never as inputs or assertions.

Experiments follow the strict-tail convention P(S > y) against the discrete
scaled tail P(A_lam > k y); bound evaluation uses the non-strict lattice form
P(nW >= my).  Both conventions are explicit flags, never mixed silently.

Sweep rows are independent once the shared exact distribution is built and
are returned ordered by y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .bernoulli_lattice import build_scheme, default_trials, w_distribution
from .errors import NumericalRangeError, ValidationError
from .poisson_core import normal_tail, poisson_tail
from .weighted_sum import (
    LatticeDistribution,
    SumMoments,
    WeightedPoissonSum,
    _tail_sums,
    _threshold,
    _threshold_ratio,
    exact_distribution,
    moments,
)

__all__ = [
    "BoundParams",
    "ExperimentRow",
    "bound_params",
    "eta",
    "moderate_deviation_bound",
    "relative_error_sweep",
    "scaling_sweep",
    "ScalingSweepResult",
    "compare_normal",
    "ComparisonResult",
    "empirical_constant",
    "EmpiricalConstant",
    "plateau_lengths",
    "fit_error_growth",
]

_UNDERFLOW_FLOOR = 1e-250


@dataclass(frozen=True)
class BoundParams:
    """delta_r, K_r = ceil(k b_r), and the split index r* (exact integers).

    r* is the largest r with n*b_r <= m, separating jumps inside one lattice
    cell from jumps spanning several; classes above r* contribute the
    (K_r - 2) delta_r correction to the bracket.
    """

    deltas: tuple[Fraction, ...]
    K: tuple[int, ...]
    r_star: int
    lam: Fraction

    def __post_init__(self):
        if sum(self.deltas, Fraction(0)) != 1:
            raise ValidationError("delta_r must sum to 1 exactly")
        if any(k < 1 for k in self.K):
            raise ValidationError("each K_r must be >= 1")

    @property
    def correction_sum(self) -> Fraction:
        return sum(
            ((k - 2) * d for k, d in zip(self.K[self.r_star :], self.deltas[self.r_star :])),
            Fraction(0),
        )

    def bracket(self, y: int) -> float:
        return self._brackets((y,))[0]

    def _brackets(self, ys) -> list[float]:
        """bracket(y) for every y, with the float constants converted once;
        one past the float range raises NumericalRangeError."""
        lam = float(self.lam)
        scale = 1.0 + float(self.correction_sum)
        out = []
        for y in ys:
            try:
                b = (1.0 + (y - lam) ** 2 / (2.0 * lam)) * scale + lam * (1.0 + math.log(y))
            except OverflowError:
                b = math.inf
            if b == math.inf:
                raise NumericalRangeError(f"the bound bracket at y={y} is past the float range")
            out.append(b)
        return out


def bound_params(model: WeightedPoissonSum, m: SumMoments) -> BoundParams:
    n, mm = m.k_num, m.k_den
    deltas = tuple(Fraction(b) * nu / m.mu for b, nu in zip(model.weights, model.rates))
    K = tuple(_threshold(Fraction(n * b, mm)) for b in model.weights)
    r_star = 0
    for r, b in enumerate(model.weights, start=1):
        if n * b <= mm:
            r_star = r
    return BoundParams(deltas=deltas, K=K, r_star=r_star, lam=m.lam)


def moderate_deviation_bound(params: BoundParams, y: int) -> float:
    """The bracket at integer y >= lam (the bound's stated range)."""
    y = int(y)
    if y < 1 or y < params.lam:
        raise ValidationError(f"the bound requires an integer y >= lam = {params.lam}")
    return params.bracket(y)


def eta(w_dist: LatticeDistribution, m: SumMoments, y: int, from_zero: bool = False) -> float:
    """sup over integer r in [ceil(lam), y] of P(nW >= m r) / P(mA_lam >= m r).

    W thresholds are resolved by exact rational comparison: nW >= m*r is
    W >= ceil(m r / n).  from_zero extends the range down to r = 1 (the
    clamped variant that differs from the supremum by an absolute constant).
    """
    lo = 1 if from_zero else _threshold(m.lam)
    if y < lo:
        raise ValidationError(f"need y >= ceil(lam) = {lo}")
    best = 0.0
    for _, num, den in _w_tail_ratios(w_dist, m, lo, y, "r"):
        best = max(best, num / den)
    return best


def _w_tail_ratios(w_dist: LatticeDistribution, m: SumMoments, r_from: int, r_to: int, var: str):
    """(r, P(nW >= m r), P(A_lam >= r)) for integer r in [r_from, r_to], in order.

    The W tails are one _tail_sums lookup.  Raises
    NumericalRangeError at the first r whose Poisson tail underflows, naming
    it as ``var``.
    """
    rs = np.arange(r_from, r_to + 1, dtype=object)
    nums = _tail_sums(w_dist, _threshold_ratio(m.k_den * rs, m.k_num)).tolist()
    rate = float(m.lam)
    for r, num in zip(rs.tolist(), nums):
        den = poisson_tail(rate, r)
        if den < _UNDERFLOW_FLOOR:
            raise NumericalRangeError(f"Poisson tail underflow at {var}={r}")
        yield r, num, den


class ExperimentRow(NamedTuple):
    """One sweep row: its fields are the CSV columns in order, and each
    annotation is the kind that sets how the CLI writes that column."""

    y: int
    exact_tail: float
    scaled_tail: float
    normal_tail: float
    rel_error: float
    abs_error_poisson: float
    abs_error_normal: float
    bound_bracket: float
    plateau_id: int = 0
    scale_n: int = 1
    underflow: bool = False


def _rows(
    model_moments: SumMoments,
    params: BoundParams,
    dist: LatticeDistribution,
    y_from: int,
    y_to: int,
    strict: bool,
    scale_n: int = 1,
) -> list[ExperimentRow]:
    """The rows for every integer y in [y_from, y_to], y_from >= 1, built over
    the whole range at once.

    Thresholds and plateau ids are exact integer array expressions (Python
    ints, so k_num * y cannot overflow), exact tails one _tail_sums lookup,
    and the scaled tail one poisson_tail call per distinct plateau, shared by
    the rows on it.  The per-row floats are those of the scalar evaluation,
    operation for operation.
    """
    ys = np.arange(y_from, y_to + 1, dtype=object)
    exact = _tail_sums(dist, _threshold_ratio(ys, 1, strict))
    plateaus = _threshold_ratio(model_moments.k_num * ys, model_moments.k_den, strict).tolist()
    rate = float(model_moments.lam)
    plateau_tail = {t: poisson_tail(rate, t) for t in dict.fromkeys(plateaus)}
    scaled = np.array([plateau_tail[t] for t in plateaus])
    y_list = ys.tolist()
    mu, sigma_sq = float(model_moments.mu), float(model_moments.sigma_sq)
    normal = np.array([normal_tail(mu, sigma_sq, y) for y in y_list])
    underflow = exact < _UNDERFLOW_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(underflow, math.nan, np.abs(1.0 - scaled / exact))
    lam = params.lam
    in_range = [y for y in y_list if y * lam.denominator >= lam.numerator]
    brackets = [math.nan] * (len(y_list) - len(in_range)) + params._brackets(in_range)
    columns = zip(
        y_list,
        exact.tolist(),
        scaled.tolist(),
        normal.tolist(),
        rel.tolist(),
        np.abs(scaled - exact).tolist(),
        np.abs(normal - exact).tolist(),
        brackets,
        plateaus,
        underflow.tolist(),
    )
    return [
        ExperimentRow(y, e, s, nt, r, ap, an, b, p, scale_n, u)
        for y, e, s, nt, r, ap, an, b, p, u in columns
    ]


def relative_error_sweep(
    model: WeightedPoissonSum,
    y_from: int,
    y_to: int,
    epsilon: float = 1e-12,
    strict: bool = True,
) -> list[ExperimentRow]:
    """One row per integer y in [y_from, y_to] against the shared exact law.

    plateau_id is the Poisson threshold actually used by the discrete scaled
    tail, so maximal runs of equal plateau_id are exactly the flat segments
    of that tail; underflowed exact tails are flagged on the row, not dropped.
    """
    if y_from > y_to or y_from < 1:
        raise ValidationError("need 1 <= y_from <= y_to")
    m = moments(model)
    params = bound_params(model, m)
    dist = exact_distribution(model, epsilon)
    if y_to > dist.support_max:
        raise ValidationError(
            f"y_to={y_to} beyond the exact support bound {dist.support_max}"
        )
    return _rows(m, params, dist, y_from, y_to, strict)


@dataclass(frozen=True)
class ScalingSweepResult:
    rows: list[ExperimentRow]
    excluded: list[tuple[int, str]] = field(default_factory=list)


def scaling_sweep(
    model: WeightedPoissonSum,
    y: int,
    n_values: list[int],
    epsilon: float = 1e-12,
    strict: bool = True,
) -> ScalingSweepResult:
    """Relative error at fixed y while all rates scale by N (k, delta, K, r*
    are invariant; lam scales to N*lam).

    The moments and bound parameters are taken once and scaled by N in exact
    arithmetic: mu, sigma^2 and lam scale by N, k, delta, K and r* do not.
    Scales with N*lam > y fall outside the bound's range and are excluded,
    each with a note.  An empty n_values is a ValidationError.
    """
    n_values = list(n_values)
    if not n_values:
        raise ValidationError("n_values must list at least one scale N")
    base = moments(model)
    base_params = bound_params(model, base)
    rows: list[ExperimentRow] = []
    excluded: list[tuple[int, str]] = []
    for n_scale in n_values:
        if n_scale < 1:
            excluded.append((n_scale, "scale must be a positive integer"))
            continue
        lam_scaled = base.lam * n_scale
        if lam_scaled > y:
            excluded.append((n_scale, f"lam' = {lam_scaled} exceeds y = {y}"))
            continue
        m = replace(base, mu=base.mu * n_scale, sigma_sq=base.sigma_sq * n_scale, lam=lam_scaled)
        params = replace(base_params, lam=lam_scaled)
        dist = exact_distribution(model.scale_rates(n_scale), epsilon)
        rows.extend(_rows(m, params, dist, y, y, strict, scale_n=n_scale))
    return ScalingSweepResult(rows=rows, excluded=excluded)


@dataclass(frozen=True)
class ComparisonResult:
    rows: list[ExperimentRow]
    poisson_better: int
    total: int


def compare_normal(
    model: WeightedPoissonSum,
    y_from: int,
    y_to: int,
    epsilon: float = 1e-12,
    strict: bool = True,
) -> ComparisonResult:
    """Absolute errors of the scaled Poisson and normal tails side by side."""
    rows = relative_error_sweep(model, y_from, y_to, epsilon, strict)
    better = sum(1 for r in rows if r.abs_error_poisson < r.abs_error_normal)
    return ComparisonResult(rows=rows, poisson_better=better, total=len(rows))


@dataclass(frozen=True)
class EmpiricalConstant:
    c_hat: float
    rows: list[tuple[int, float, float, float]]  # (y, deviation, bracket, ratio)


def empirical_constant(
    model: WeightedPoissonSum,
    y_from: int,
    y_to: int,
    mstar: int = 100,
    w_cap: float = 1e-250,
) -> EmpiricalConstant:
    """C_hat = max_y |P(nW >= my)/P(mA >= my) - 1| / bracket(y) over the grid.

    mstar is in factor units (trials per class = mstar * ceil(max rate)).
    The per-row brackets double as the condition report: the bound holds only
    while the bracket stays below an absolute constant that is not known, so
    the bracket values themselves are returned for inspection.
    """
    m = moments(model)
    params = bound_params(model, m)
    scheme = build_scheme(model, default_trials(model, mstar))
    w_dist = w_distribution(scheme, epsilon=w_cap)
    y_lo = max(y_from, _threshold(m.lam))
    if y_lo > y_to:
        raise ValidationError("empty y grid above lam")
    rows = []
    c_hat = 0.0
    brackets = params._brackets(range(y_lo, y_to + 1))
    for (y, num, den), bracket in zip(_w_tail_ratios(w_dist, m, y_lo, y_to, "y"), brackets):
        deviation = abs(num / den - 1.0)
        ratio = deviation / bracket
        rows.append((y, deviation, bracket, ratio))
        c_hat = max(c_hat, ratio)
    return EmpiricalConstant(c_hat=c_hat, rows=rows)


def plateau_lengths(rows: list[ExperimentRow], interior_only: bool = True) -> list[int]:
    """Run lengths of constant plateau_id; boundary-truncated runs dropped by default."""
    if not rows:
        return []
    lengths = []
    run = 1
    for a, b in zip(rows, rows[1:]):
        if b.plateau_id == a.plateau_id:
            run += 1
        else:
            lengths.append(run)
            run = 1
    lengths.append(run)
    if interior_only and len(lengths) >= 2:
        lengths = lengths[1:-1]
    return lengths


def fit_error_growth(rows: list[ExperimentRow]) -> float:
    """Least-squares exponent of rel_error ~ y^alpha over non-underflow rows.

    A sweep-level growth diagnostic (an exponent near 1 indicates the
    conjectured linear growth); reported, never asserted.
    """
    pts = [(math.log(r.y), math.log(r.rel_error)) for r in rows if not r.underflow and r.rel_error > 0]
    if len(pts) < 2:
        raise ValidationError("need at least two usable rows")
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(v for _, v in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * v for x, v in pts)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)
