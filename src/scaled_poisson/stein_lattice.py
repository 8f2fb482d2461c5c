"""Stein operator on the lattice m*Z+ and numerical evaluation of its solution.

The operator is (A f)(w) = lam*m*f(w+m) - w*f(w); its characterizing property
is E(Af)(m*A_lam) = 0.  For the tail indicator h(w) = 1{w >= m*y} the
solution is the series

    f_h(w) = - sum_j (lam*m)^j / prod_{l=0..j} (w + m*l) * [h(w + m*j) - P],

with P = P(m*A_lam >= m*y) = P(A_lam >= y).

Evaluation strategy.  Term j of the series is (lam*m)^j / prod_{l=0..j} (w + m*l);
the terms with w + m*j < m*y form S0 and the rest S1, so f_h(w) = P*S0 - (1-P)*S1.
Term j at w is lam*m/w times term j-1 at w+m, so along each residue class
mod m both halves satisfy all-positive recurrences, exactly:

    S1(w) = ([w >= m*y] + lam*m*S1(w+m)) / w,
    S0(w) = ([w < m*y]  + lam*m*S0(w+m)) / w,   S0 = 0 at w >= m*y.

The integers are laid out in rows of m consecutive integers, one residue
class per column.  Both halves start from zero J rows above the top row and
every row below follows from the one above in one vector step; the series cut
after J terms is exactly this recurrence started from zero J rows up (Miller's
backward recurrence; Gautschi 1967).  J is the least depth at which a
geometric majorant of S1's omitted terms, at the top row's lowest point,
falls below 2**-53 of term 0, found in log space.  The top row lies above m*y,
so S0 starts exact, and going down a row multiplies S1's relative truncation
error by lam*m*S1(w+m) / (w*S1(w)) < 1, so every value keeps the top row's
certificate and the steps add only rounding.  Lattice-only tables and m = 1
need one column, from the first lattice point above m*y.

For w >= m*y the sum S0 is empty and S1 is the single-signed series T(w); on
the lattice T(m*j) = D_high(j)/(lam*m) with D_high(j) = lam/j + lam^2/(j(j+1))
+ ...  Below m*y off the lattice the halves do cancel in part: on the
benchmark context (lam*m = 1600, m = 31, y = 60) f falls to 4e-4 of
P*S0 + (1-P)*S1 at points near w = 1000..1320, while near w = m the values
grow to ~exp(lam) * (j-1)!/lam^j.  So the error of a value is stated relative
to P*S0 + (1-P)*S1, not to f.  A value out of float range raises
NumericalRangeError.

On lattice points at or below m*y the two signed halves cancel almost exactly
(the result is orders of magnitude below either half), so the series is
summed there in exactly regrouped form:

    f_h(m*j) = -(P/(lam*m)) * D_low(j),   j <= y,

where D_low(j) = 1 + (j-1)/lam + (j-1)(j-2)/lam^2 + ... (j terms) is an
all-positive sum satisfying the Stein recurrence identically, so the lattice
residual is pure rounding.  It is built for all j <= y by its own
all-positive recurrence D_low(j+1) = 1 + (j/lam) D_low(j), in O(y) steps.

The threshold m*y and all lattice indices stay exact integers; lam enters
series evaluation as a float only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum, lgamma

import numpy as np

from .errors import NumericalRangeError, ValidationError
from .poisson_core import _regularized_gamma_pq, poisson_tail
from .weighted_sum import _poisson_pmf_vector

__all__ = [
    "SteinContext",
    "SteinSolutionTable",
    "stein_apply",
    "operator_zero_mean",
    "solve_stein",
    "g_l",
    "g_m_via_recurrence",
    "factorial_envelope",
    "verify_f_properties",
    "PropertyCheck",
    "PropertyReport",
]


@dataclass(frozen=True)
class SteinContext:
    """Parameters of one lattice Stein problem.

    lam: Poisson rate (exact rational); lattice_step m and scale_num n are the
    reduced terms of k = n/m; threshold_y is the integer level y of the
    indicator h(w) = 1{w >= m*y}.  series_tol is the tolerance stein-check
    holds the Stein equation residual to (ten times it); solve_stein always
    evaluates to full precision.
    """

    lam: Fraction
    lattice_step: int
    scale_num: int
    threshold_y: int
    series_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.lam <= 0:
            raise ValidationError("lam must be positive")
        m, n = int(self.lattice_step), int(self.scale_num)
        if m < 1 or n < 1 or math.gcd(m, n) != 1:
            raise ValidationError(f"need coprime positive n, m; got n={n}, m={m}")
        if int(self.threshold_y) < 1:
            raise ValidationError("threshold_y must be >= 1")
        if not (0.0 < float(self.series_tol) <= 1e-6):
            raise ValidationError("series_tol must be in (0, 1e-6]")
        object.__setattr__(self, "lattice_step", m)
        object.__setattr__(self, "scale_num", n)
        object.__setattr__(self, "threshold_y", int(self.threshold_y))

    @property
    def lambda_m(self) -> Fraction:
        return self.lam * self.lattice_step

    @property
    def threshold_point(self) -> int:
        """m*y, the indicator level on the lattice."""
        return self.lattice_step * self.threshold_y


def stein_apply(ctx: SteinContext, f, w) -> float:
    """(A f)(w) = lam*m*f(w+m) - w*f(w) for a function f given as a callable."""
    lam_m = float(ctx.lambda_m)
    return lam_m * f(w + ctx.lattice_step) - w * f(w)


def operator_zero_mean(ctx: SteinContext, f, trunc: int) -> float:
    """E(A f)(m*A_lam) truncated at trunc; zero for any f on the lattice.

    Caller picks trunc so the Poisson tail beyond it is negligible for the
    growth of f (a few hundred covers polynomially bounded f comfortably).
    """
    if trunc < 0:
        raise ValidationError("trunc must be nonnegative")
    m = ctx.lattice_step
    lam = float(ctx.lam)
    pmf = _poisson_pmf_vector(lam, trunc, _regularized_gamma_pq(trunc + 1, lam)[1])
    return fsum(stein_apply(ctx, f, m * j) * p for j, p in enumerate(pmf.tolist()))


# eq=False: a generated == or hash() would raise on the array fields, so
# tables compare by identity.
@dataclass(frozen=True, eq=False)
class SteinSolutionTable:
    """f_h on integers [0, w_max]; lattice-only unless off-lattice requested.

    values[w] is NaN where not computed.  residual_max is the worst lattice
    defect |lam*m*f(w+m) - w*f(w) - (h(w) - P)|; truncation_terms[w] is the
    length of the series values[w] equals: j on lattice points m*j <= m*y,
    and Z - (w-1)//m elsewhere, Z the row the recurrence starts from zero.
    """

    ctx: SteinContext
    w_max: int
    values: np.ndarray
    truncation_terms: np.ndarray
    tail_at_threshold: float
    has_off_lattice: bool
    residual_max: float = field(default=float("nan"))

    def f(self, w: int) -> float:
        wi = int(w)
        if wi != w or wi < 0 or wi > self.w_max:
            raise ValidationError(f"point {w!r} outside table range [0, {self.w_max}]")
        v = self.values[wi]
        if math.isnan(v):
            raise ValidationError(f"f was not evaluated at {wi}; build with off-lattice points")
        return float(v)

    def __call__(self, w: int) -> float:
        return self.f(w)


# ln 2**-53: the depth at which the omitted terms fall below one rounding.
_LOG_ROUNDING = -53.0 * math.log(2.0)


def _depth(lam_m: float, m: int, w: int) -> int:
    """Least J at which the series at w, cut after J terms, is within 2**-53
    of its term 0.

    Term l is term 0 times r_1 * ... * r_l with r_l = lam*m / (w + m*l); the
    ratios fall, so the terms from J on sum to at most term J / (1 - r_J)
    once r_J < 1.  The products are summed as logarithms: at large lam they
    pass the float range before the terms start to fall.
    """
    size = 64
    while True:
        r = lam_m / (w + m * np.arange(1.0, size + 1.0))
        # r_l >= 1 makes the bound infinite, never below the target
        with np.errstate(divide="ignore"):
            bound = np.cumsum(np.log(r)) - np.log1p(-np.minimum(r, 1.0))
        done = np.flatnonzero(bound < _LOG_ROUNDING)
        if done.size:
            return int(done[0]) + 1
        size *= 2


def _halves(ctx: SteinContext, cols: np.ndarray, low: int, w_max: int):
    """(halves, Z): S0 and S1 side by side on the rows q = low .. w_max//m,
    row q at halves[q - low], and the row Z the recurrence starts from.

    Row q holds q*m + c for the columns c, one residue class each; its S0 is
    halves[q - low, :n] and its S1 halves[q - low, n:], n = len(cols).  Both
    halves start from zero at row Z = w_max//m + J, J from _depth at the
    lowest point of row w_max//m, and every row below follows from the one
    above by S(w) = ([term 0 of w in S] + lam*m*S(w+m)) / w, all terms
    positive.  Row q then equals the series cut after Z - q terms (Miller's
    backward recurrence): S0 exactly, since the top rows lie above m*y, and
    S1 within 2**-53 on row w_max//m; a step down multiplies the relative
    truncation error by lam*m*S1(w+m) / (w*S1(w)) < 1.

    Beside the returned state, the one array as large as it is the divisor
    table: the term-0 rows are shared, one for the rows wholly below m*y,
    one for those wholly at or above it, and a row of its own only for a row
    that straddles m*y.
    """
    m = ctx.lattice_step
    my = ctx.threshold_point
    lam_m = float(ctx.lambda_m)
    n = cols.size
    top = w_max // m
    c_low, c_high = int(cols[0]), int(cols[-1])
    z = top + _depth(lam_m, m, top * m + c_low)
    # exact integers, so the same floats as the integer points converted
    divisors = list(m * np.arange(low, z, dtype=float)[:, None] + np.concatenate((cols, cols)))

    # term 0 of each half: ones on S0 below m*y, on S1 at or above it
    below, above = np.repeat([1.0, 0.0], n), np.repeat([0.0, 1.0], n)
    # the first row whose last point reaches m*y, and the first whose first does
    reaching = min(max(-((c_high - my) // m), low), z)
    over = min(max(-((c_low - my) // m), low), z)
    firsts = [below] * (reaching - low)
    for q in range(reaching, over):
        w = m * q + cols
        firsts.append(np.concatenate((w < my, w >= my)).astype(float))
    firsts += [above] * (z - over)

    # one vector step per row, from the zero row Z
    halves = np.zeros((z - low + 1, 2 * n))
    rows = list(halves)
    for q in range(len(rows) - 2, -1, -1):
        row = rows[q]
        np.multiply(rows[q + 1], lam_m, out=row)
        row += firsts[q]
        row /= divisors[q]
    return halves[: top - low + 1], z


def solve_stein(
    ctx: SteinContext, w_max: int, include_off_lattice: bool = False
) -> SteinSolutionTable:
    """Evaluate the tail-indicator solution on [0, w_max].

    Lattice points at or below m*y use the regrouped all-positive D_low form.
    Every other point (off-lattice integers only when requested) is
    P*S0 - (1-P)*S1 from _halves: one backward recurrence from a zero row
    high enough that the series at the top row is cut within 2**-53 of its
    term 0.  f(0) is fixed to 0: the Stein equation at w = 0 constrains only
    f(m), and nothing downstream reads f(0).  Raises NumericalRangeError when
    a computed value is not finite.

    Row q's points q*m + c are the last len(cols) of the m entries from
    q*m + 1, so the rows of _halves are a (rows, m) view of the table, or
    its stride-m column: P*S0 - (1-P)*S1 and the series lengths are written
    there in place, the halves scaled where they lie.  The table is
    allocated through the top row's last point and handed back cut at w_max,
    so the halves and one divisor table are its only scratch as large as it.
    """
    m = ctx.lattice_step
    y = ctx.threshold_y
    my = ctx.threshold_point
    w_max = int(w_max)
    if w_max < m * (y + 10):
        raise ValidationError(f"w_max must be at least m*(y+10) = {m * (y + 10)}")
    lam = float(ctx.lam)
    lam_m = float(ctx.lambda_m)
    p_ge = poisson_tail(lam, y)

    top = w_max // m
    values = np.full((top + 1) * m + 1, np.nan)
    counts = np.zeros(values.size, dtype=np.int64)
    values[0] = 0.0

    # Column m is the lattice.  Off it every row from 0 is needed, on it only
    # the points above m*y, from row y.
    if include_off_lattice and m > 1:
        cols, low = np.arange(1, m + 1), 0
    else:
        cols, low = np.array([m]), y
    n = cols.size

    def rows_of(table):
        return table[low * m + 1 :].reshape(-1, m)[:, m - n :]

    # D_low(1) = 1 and D_low(j+1) = 1 + (j/lam) D_low(j): all terms positive.
    d_low = [1.0]
    for j in range(1, y):
        d_low.append(1.0 + j / lam * d_low[-1])
    # a value out of float range is reported below, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        halves, z = _halves(ctx, cols, low, w_max)
        s0, s1 = halves[:, :n], halves[:, n:]
        s0 *= p_ge
        s1 *= 1.0 - p_ge
        np.subtract(s0, s1, out=rows_of(values))
        values[m : my + 1 : m] = -p_ge * np.array(d_low) / lam_m
    rows_of(counts)[:] = (z - np.arange(low, top + 1))[:, None]
    counts[m : my + 1 : m] = np.arange(1, y + 1)
    values, counts = values[: w_max + 1], counts[: w_max + 1]

    bad = np.flatnonzero((counts > 0) & ~np.isfinite(values))
    if bad.size:
        raise NumericalRangeError(
            f"f_h is not finite at {bad.size} points, the first at w = {int(bad[0])},"
            f" for lam = {ctx.lam}: it leaves the float range"
        )

    # the Stein equation at w = 0, m, ..., (top - 1)*m
    lattice = np.arange(0, top) * m
    fw = values[: top * m : m]
    fwm = values[m : top * m + 1 : m]
    h = (lattice >= my).astype(float)
    residuals = np.abs(lam_m * fwm - lattice * fw - (h - p_ge))
    residual_max = float(residuals.max()) if residuals.size else 0.0

    return SteinSolutionTable(
        ctx=ctx,
        w_max=w_max,
        values=values,
        truncation_terms=counts,
        tail_at_threshold=p_ge,
        has_off_lattice=bool(include_off_lattice),
        residual_max=residual_max,
    )


def _solved_for(ctx: SteinContext, table: SteinSolutionTable) -> None:
    """Refuse a table solved for another problem: its values and P are that one's."""
    key = (ctx.lam, ctx.lattice_step, ctx.scale_num, ctx.threshold_y)
    t = table.ctx
    if key != (t.lam, t.lattice_step, t.scale_num, t.threshold_y):
        raise ValidationError("the solution table was solved for another Stein context")


def g_l(ctx: SteinContext, table: SteinSolutionTable, w: int, l: int) -> float:
    """Normalized difference (f_h(w) - f_h(w+l)) / P(m*A_lam >= m*y).

    Defined for m <= w < m*y and l = 1..m.  Below w = m the convention
    g_l := 0 applies (the w = 0 point of the series is singular); callers that
    need the clamped extension handle that case themselves.
    """
    _solved_for(ctx, table)
    if not 1 <= l <= ctx.lattice_step:
        raise ValidationError(f"l must be in 1..m, got {l}")
    if w < ctx.lattice_step:
        raise ValidationError("g_l is evaluated only at w >= m; it is 0 by convention below")
    if w >= ctx.threshold_point:
        raise ValidationError("g_l is defined below the threshold m*y")
    return (table.f(w) - table.f(w + l)) / table.tail_at_threshold


def g_m_via_recurrence(ctx: SteinContext, table: SteinSolutionTable, w: int) -> float:
    """g_m(w) from the one-step closed form 1/(lam*m) - (f(w)/P) (w/(lam*m) - 1).

    Independent of f(w+m); agreement with direct differencing certifies the
    table against the recurrence the solution must satisfy.
    """
    _solved_for(ctx, table)
    lam_m = float(ctx.lambda_m)
    p_ge = table.tail_at_threshold
    return 1.0 / lam_m - (table.f(w) / p_ge) * (w / lam_m - 1.0)


# exp of anything below this stays finite, with room for rounding of the log.
_LOG_FINITE = 709.0


def _log_factorial_envelope(ctx: SteinContext, w: int) -> float:
    """The log of factorial_envelope(ctx, w), finite for every w >= m."""
    j = w // ctx.lattice_step
    if j < 1:
        raise ValidationError("envelope needs w >= m")
    lam = float(ctx.lam)
    return lam + lgamma(j) - j * math.log(lam) - math.log(ctx.lattice_step)


def factorial_envelope(ctx: SteinContext, w: int) -> float:
    """exp(lam) * floor(w/m - 1)! / (m * lam^floor(w/m)), in log space.

    The factorial-scale envelope controlling off-lattice differences of f_h
    below the threshold; inf where it is at or above e^709.
    """
    log_b = _log_factorial_envelope(ctx, w)
    return math.exp(log_b) if log_b < _LOG_FINITE else math.inf


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    worst_margin: float
    observed_constant: float | None
    points: int


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# Relative slack for comparisons against analytic envelopes: the envelopes and
# the table values are both floats, so exact inequalities are tested with a
# billionth of headroom.
_BOUND_SLACK = 1e-9


def _envelope(g: np.ndarray, floor: float, bound: np.ndarray, log_bound: np.ndarray):
    """(bound - g, failed) for g against bound, whose scaled part is exp(log_bound).

    failed: some g > floor + exp(log_bound) * (1 + _BOUND_SLACK), decided in log
    space, so a bound past the float maximum still decides and nothing
    overflows.  Where g fails against a bound read as inf, the bound is below
    g, so finite: that margin is exp(log_bound) - g.  A NaN g fails nothing
    here; its NaN margin fails the check.
    """
    excess = g - floor
    log_excess = np.log(excess, out=np.full(g.shape, -math.inf), where=excess > 0.0)
    failed = log_excess > math.log1p(_BOUND_SLACK) + log_bound
    margins = bound - g
    past = failed & (margins == math.inf)
    margins[past] = np.exp(log_bound[past]) - g[past]
    return margins, bool(failed.any())


def _check(name: str, pieces, rule=None, observed=None) -> PropertyCheck:
    """One report line from the (margins, failed) pairs of pieces, one per shift.

    The check passes when no piece failed, the least margin is not NaN
    (np.minimum carries a NaN met anywhere through), and rule, if given, holds
    for it.  observed, if given, maps margins to values whose largest, from 0,
    is the observed constant.
    """
    least, most, points, failed = math.inf, 0.0, 0, False
    for margins, bad in pieces:
        least = np.minimum(least, margins.min(initial=math.inf))
        if observed is not None:
            most = np.maximum(most, observed(margins).max(initial=0.0))
        failed = failed or bad
        points += margins.size
    least = float(least)
    passed = not (failed or math.isnan(least)) and (rule is None or rule(least))
    return PropertyCheck(name, passed, least, None if observed is None else float(most), points)


def verify_f_properties(
    ctx: SteinContext, table: SteinSolutionTable, grid=None
) -> PropertyReport:
    """Numerical check of the structural properties of f_h over a point grid.

    (a) f_h increases on [m*y, w_max];
    (b) 0 < f_h(w+l) - f_h(w) <= C_hat/w there, C_hat the observed supremum;
    (c) the closed envelope on g_m below the threshold;
    (d) the factorial envelope on |g_l|, l = 1..m-1, below the threshold;
    (e) g_l(m j) - g_l(m j - m) >= -1e-10 on lattice steps strictly below the
        threshold (j >= 2: the first step is excluded by the w < m convention,
        whose singular behavior is documented rather than asserted).

    A check that no grid point reaches is left out of the report: (d) when
    m = 1 or the table is lattice-only, and any check whose region the grid
    misses.  Each check reads one shift l at a time, as a strided slice of
    the table where the points are an arithmetic progression (any range
    grid), by a gather otherwise.
    """
    _solved_for(ctx, table)
    m = ctx.lattice_step
    my = ctx.threshold_point
    if grid is None:
        hi = table.w_max - m
        grid = range(m, hi + 1) if table.has_off_lattice else range(m, hi + 1, m)
    as_range = isinstance(grid, range)
    pts = np.arange(grid.start, grid.stop, grid.step) if as_range else np.fromiter(grid, np.int64)
    if not pts.size or pts.min() < m:
        raise ValidationError("grid must be nonempty and start at or above m")
    # the distinct grid points, ascending, whose shifts by up to m are in range
    usable = np.flatnonzero(np.bincount(pts[pts + m <= table.w_max]))
    tail = usable[usable >= my]
    below = usable[usable < my]
    p_ge = table.tail_at_threshold
    step = 1 if table.has_off_lattice else m
    # the shifts l; all but the last, m, are off the lattice
    l_values = range(1, m + 1) if table.has_off_lattice else (m,)

    def reader(ws):
        """f at ws + l for a shift l: a strided slice of the table when ws is
        an arithmetic progression, a gather otherwise."""
        gaps = np.diff(ws)
        sliced = gaps.size and gaps.min() == gaps.max()

        def f_at(l=0):
            v = table.values[slice(ws[0] + l, ws[-1] + l + 1, gaps[0]) if sliced else ws + l]
            if np.isnan(v).any():
                bad = int(ws[np.isnan(v)][0]) + l
                raise ValidationError(f"f was not evaluated at {bad}; build with off-lattice points")
            return v

        return f_at

    f_tail_at = reader(tail)
    f_tail = f_tail_at()
    jumps = ((f_tail_at(l) - f_tail, False) for l in l_values)
    f_below_at = reader(below)
    f_below = f_below_at()
    g_m = (f_below - f_below_at(m)) / p_ge
    g_ls = (np.abs(f_below - f_below_at(l)) / p_ge for l in l_values[:-1])
    # g_l at m*j for j = 1 .. min(y, w_max // m) - 1; increments from j = 2.
    lattice = m * np.arange(1, min(ctx.threshold_y, table.w_max // m))
    f_lattice_at = reader(lattice)
    f_lattice = f_lattice_at()
    g_lattice = ((f_lattice - f_lattice_at(l)) / p_ge for l in l_values)
    increments = ((g[1:] - g[:-1], False) for g in g_lattice)

    # The envelope depends on w only through its lattice cell w // m in 1..y-1:
    # its log is taken once per cell, and its float form is exp of that log,
    # inf at or above e^709.
    log_cells = [_log_factorial_envelope(ctx, m * c) for c in range(1, ctx.threshold_y)]
    cell = below // m - 1
    log_env = np.array(log_cells)[cell]
    envelope = np.array([math.exp(b) if b < _LOG_FINITE else math.inf for b in log_cells])[cell]
    # g_m's bound is 1/lam_m + term, term = envelope * |w - lam_m| / lam_m in
    # floats, and exp(log_term) where that product overflows.
    lam_m = float(ctx.lambda_m)
    dist = np.abs(below - lam_m)
    with np.errstate(over="ignore", divide="ignore"):
        log_term = log_env + np.log(dist) - math.log(lam_m)
        term = envelope * dist / lam_m
        over = term == math.inf
        term[over] = np.exp(log_term[over])

    checks = (
        _check("tail_monotone", [(f_tail_at(step) - f_tail, False)], lambda d: d > 0.0),
        _check("tail_jump_positive_c_over_w", jumps, lambda d: d > 0.0, lambda d: tail * d),
        _check(
            "g_m_envelope",
            [_envelope(g_m, 1e-12 + (1.0 + _BOUND_SLACK) / lam_m, 1.0 / lam_m + term, log_term)],
        ),
        _check("g_l_envelope", (_envelope(g, 1e-12, envelope, log_env) for g in g_ls)),
        _check("g_l_lattice_increments", increments, lambda d: d >= -1e-10),
    )
    # A check that examined no point certifies nothing, so it is left out.
    return PropertyReport(checks=tuple(c for c in checks if c.points))
