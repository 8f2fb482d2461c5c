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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import fsum, lgamma

import numpy as np

from .errors import NumericalRangeError, ValidationError
from .poisson_core import _poisson_pmf_vector, poisson_tail

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

    def indicator(self, w) -> float:
        return 1.0 if w >= self.threshold_point else 0.0


def stein_apply(ctx: SteinContext, f, w) -> float:
    """(A f)(w) = lam*m*f(w+m) - w*f(w) for a function f given as a callable."""
    lam_m = float(ctx.lambda_m)
    return lam_m * f(w + ctx.lattice_step) - w * f(w)


def operator_zero_mean(ctx: SteinContext, f, trunc: int) -> float:
    """E(A f)(m*A_lam) truncated at trunc; zero for any f on the lattice.

    Caller picks trunc so the Poisson tail beyond it is negligible for the
    growth of f (a few hundred covers polynomially bounded f comfortably).
    Rates above ~700 raise ValidationError: pmf(0) would underflow.
    """
    if trunc < 0:
        raise ValidationError("trunc must be nonnegative")
    m = ctx.lattice_step
    pmf = _poisson_pmf_vector(float(ctx.lam), trunc)
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
    """The points q*m + c (c in cols, q >= low) up to w_max, with S0, S1 and
    the length of the series each pair equals.

    Row q holds q*m + c for the columns c, one residue class each.  Both
    halves start from zero at row Z = w_max//m + J, J from _depth at the
    lowest point of row w_max//m, and every row below follows from the one
    above by S(w) = ([term 0 of w in S] + lam*m*S(w+m)) / w, all terms
    positive.  Row q then equals the series cut after Z - q terms (Miller's
    backward recurrence): S0 exactly, since the top rows lie above m*y, and
    S1 within 2**-53 on row w_max//m; a step down multiplies the relative
    truncation error by lam*m*S1(w+m) / (w*S1(w)) < 1.
    """
    m = ctx.lattice_step
    lam_m = float(ctx.lambda_m)
    n = cols.size
    top = w_max // m
    z = top + _depth(lam_m, m, top * m + int(cols[0]))
    grid = m * np.arange(low, z)[:, None] + cols

    # the halves side by side, one vector step per row, from the zero row Z
    halves = np.zeros((grid.shape[0] + 1, 2 * n))
    at_or_above = grid >= ctx.threshold_point
    rows = list(halves)
    firsts = list(np.hstack((~at_or_above, at_or_above)).astype(float))
    divisors = list(np.hstack((grid, grid)).astype(float))
    for q in range(len(rows) - 2, -1, -1):
        row = rows[q]
        np.multiply(rows[q + 1], lam_m, out=row)
        row += firsts[q]
        row /= divisors[q]
    kept = slice(0, top - low + 1)
    needed = grid[kept] <= w_max
    terms = np.broadcast_to(z - np.arange(low, top + 1)[:, None], needed.shape)
    return grid[kept][needed], halves[kept, :n][needed], halves[kept, n:][needed], terms[needed]


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

    values = np.full(w_max + 1, np.nan)
    counts = np.zeros(w_max + 1, dtype=np.int64)
    values[0] = 0.0

    # Column m is the lattice.  Off it every row from 0 is needed, on it only
    # the points above m*y, from row y.
    if include_off_lattice and m > 1:
        cols, low = np.arange(1, m + 1), 0
    else:
        cols, low = np.array([m]), y
    # a value out of float range is reported below, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        points, s0, s1, terms = _halves(ctx, cols, low, w_max)
        values[points] = p_ge * s0 - (1.0 - p_ge) * s1
    counts[points] = terms

    # D_low(1) = 1 and D_low(j+1) = 1 + (j/lam) D_low(j): all terms positive.
    d_low = [1.0]
    for j in range(1, y):
        d_low.append(1.0 + j / lam * d_low[-1])
    lattice_low = m * np.arange(1, y + 1)
    values[lattice_low] = -p_ge * np.array(d_low) / lam_m
    counts[lattice_low] = np.arange(1, y + 1)

    bad = np.flatnonzero((counts > 0) & ~np.isfinite(values))
    if bad.size:
        raise NumericalRangeError(
            f"f_h is not finite at {bad.size} points, the first at w = {int(bad[0])},"
            f" for lam = {ctx.lam}: it leaves the float range"
        )

    lattice = np.arange(0, w_max // m + 1) * m
    fw = values[lattice[:-1]]
    fwm = values[lattice[1:]]
    h = (lattice[:-1] >= my).astype(float)
    residuals = np.abs(lam_m * fwm - lattice[:-1] * fw - (h - p_ge))
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


def g_l(ctx: SteinContext, table: SteinSolutionTable, w: int, l: int) -> float:
    """Normalized difference (f_h(w) - f_h(w+l)) / P(m*A_lam >= m*y).

    Defined for m <= w < m*y and l = 1..m.  Below w = m the convention
    g_l := 0 applies (the w = 0 point of the series is singular); callers that
    need the clamped extension handle that case themselves.
    """
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
    lam_m = float(ctx.lambda_m)
    p_ge = table.tail_at_threshold
    return 1.0 / lam_m - (table.f(w) / p_ge) * (w / lam_m - 1.0)


def factorial_envelope(ctx: SteinContext, w: int) -> float:
    """exp(lam) * floor(w/m - 1)! / (m * lam^floor(w/m)), in log space.

    The factorial-scale envelope controlling off-lattice differences of f_h
    below the threshold.
    """
    j = w // ctx.lattice_step
    if j < 1:
        raise ValidationError("envelope needs w >= m")
    lam = float(ctx.lam)
    log_b = lam + lgamma(j) - j * math.log(lam) - math.log(ctx.lattice_step)
    return math.exp(log_b) if log_b < 709.0 else math.inf


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
    misses.
    """
    m = ctx.lattice_step
    my = ctx.threshold_point
    if grid is None:
        hi = table.w_max - m
        grid = range(m, hi + 1) if table.has_off_lattice else range(m, hi + 1, m)
    pts = np.fromiter(grid, dtype=np.int64)
    if not pts.size or pts.min() < m:
        raise ValidationError("grid must be nonempty and start at or above m")
    # the distinct grid points, ascending, whose shifts by up to m are in range
    usable = np.flatnonzero(np.bincount(pts[pts + m <= table.w_max]))
    tail = usable[usable >= my]
    below = usable[usable < my]
    p_ge = table.tail_at_threshold
    step = 1 if table.has_off_lattice else m
    l_values = range(1, m + 1) if table.has_off_lattice else (m,)

    def f_at(ws):
        v = table.values[ws]
        missing = np.isnan(v)
        if missing.any():
            raise ValidationError(
                f"f was not evaluated at {int(ws[missing][0])}; build with off-lattice points"
            )
        return v

    checks = []
    f_tail = f_at(tail)
    mono_margin = float((f_at(tail + step) - f_tail).min(initial=math.inf))
    checks.append(
        PropertyCheck("tail_monotone", bool(mono_margin > 0.0), mono_margin, None, tail.size)
    )

    jump_min = math.inf
    c_hat = 0.0
    for l in l_values:
        d = f_at(tail + l) - f_tail
        jump_min = float(np.minimum(jump_min, d.min(initial=math.inf)))
        c_hat = float(np.maximum(c_hat, (tail * d).max(initial=0.0)))
    n_jump = tail.size * len(l_values)
    checks.append(
        PropertyCheck("tail_jump_positive_c_over_w", bool(jump_min > 0.0), jump_min, c_hat, n_jump)
    )

    # The envelope depends on w only through its lattice cell w // m in 1..y-1.
    cell_envelope = [factorial_envelope(ctx, m * c) for c in range(1, ctx.threshold_y)]
    envelope = np.array(cell_envelope)[below // m - 1]

    lam_m = float(ctx.lambda_m)
    f_below = f_at(below)
    g = (f_below - f_at(below + m)) / p_ge
    bound = 1.0 / lam_m + envelope * np.abs(below - lam_m) / lam_m
    gm_margin = float((bound - g).min(initial=math.inf))
    gm_ok = not np.any(g > bound * (1.0 + _BOUND_SLACK) + 1e-12)
    checks.append(PropertyCheck("g_m_envelope", gm_ok, gm_margin, None, below.size))

    gl_margin = math.inf
    gl_ok = True
    n_gl = 0
    if table.has_off_lattice and m > 1:
        for l in range(1, m):
            g = np.abs(f_below - f_at(below + l)) / p_ge
            gl_margin = float(np.minimum(gl_margin, (envelope - g).min(initial=math.inf)))
            gl_ok = gl_ok and not np.any(g > envelope * (1.0 + _BOUND_SLACK) + 1e-12)
        n_gl = below.size * (m - 1)
    checks.append(PropertyCheck("g_l_envelope", gl_ok, gl_margin, None, n_gl))

    # g_l at m*j for j = 1 .. min(y, w_max // m) - 1; increments from j = 2.
    lattice = m * np.arange(1, min(ctx.threshold_y, table.w_max // m))
    f_lattice = f_at(lattice)
    inc_margin = math.inf
    n_inc = 0
    for l in l_values:
        g = (f_lattice - f_at(lattice + l)) / p_ge
        inc = g[1:] - g[:-1]
        inc_margin = float(np.minimum(inc_margin, inc.min(initial=math.inf)))
        n_inc += inc.size
    checks.append(
        PropertyCheck(
            "g_l_lattice_increments", bool(inc_margin >= -1e-10), inc_margin, None, n_inc
        )
    )

    # A check that examined no point certifies nothing, so it is left out.  The
    # margins carry a NaN from any non-finite value met, and a NaN margin never
    # passes.
    return PropertyReport(
        checks=tuple(
            replace(c, passed=c.passed and not math.isnan(c.worst_margin))
            for c in checks
            if c.points
        )
    )
