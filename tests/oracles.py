"""Independent reference computations for the test suite.

Everything here deliberately avoids the library's own algorithms: mpmath
arbitrary precision for scalar special functions and series, the Panjer
recursion and literal exhaustive enumeration for distribution laws.  Oracles
are slow and simple on purpose.  The scalar Stein and sweep references at the
end are the point-by-point loops that the library's array forms replaced;
they do the same float arithmetic one point at a time, and the CSV reference
formats each cell by its own type, as the CLI did before column kinds.  The
routes the library replaced by cheaper ones with the same bits (suffix sums
over every table entry, and in one pass, the size-bias check over Fraction laws, the Stein
report by gathers, the Stein table through 2-D scratch tables and gathers, its
recurrence depth by one doubling search, the coupling laws as bare convolutions)
are kept here, so the new routes are held to them.  So is second_order_sum,
which only tests read.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from scaled_poisson.errors import NumericalRangeError, ValidationError
from scaled_poisson.experiments import _UNDERFLOW_FLOOR, ExperimentRow
from scaled_poisson.poisson_core import poisson_tail
from scaled_poisson.stein_lattice import (
    _BOUND_SLACK,
    _LOG_FINITE,
    PropertyCheck,
    PropertyReport,
    SteinSolutionTable,
    _depth,
    _envelope,
    _log_factorial_envelope,
    _solved_for,
    factorial_envelope,
    g_l,
)
from scaled_poisson.weighted_sum import (
    _convolve_classes,
    _threshold,
    normal_approx_tail,
    scaled_poisson_tail,
)

mp.mp.dps = 60


def mp_poisson_pmf(rate, j: int):
    lam = mp.mpf(rate.numerator) / rate.denominator if isinstance(rate, Fraction) else mp.mpf(rate)
    return mp.e ** (-lam) * lam**j / mp.factorial(j)


def _mp_poisson_tail(lam, threshold: int):
    """P(A_lam >= threshold) = P(threshold, lam), the regularized lower
    incomplete gamma, at working precision; 1 at threshold 0."""
    if threshold <= 0:
        return mp.mpf(1)
    return mp.gammainc(threshold, 0, lam, regularized=True)


def mp_poisson_tail(rate, threshold: int) -> float:
    """P(A >= threshold) in high precision."""
    lam = mp.mpf(rate.numerator) / rate.denominator if isinstance(rate, Fraction) else mp.mpf(rate)
    return float(_mp_poisson_tail(lam, threshold))


def mp_gamma_q(shape, point) -> float:
    return float(mp.gammainc(mp.mpf(shape), mp.mpf(point), mp.inf, regularized=True))


def mp_normal_tail(mean, variance, point) -> float:
    z = (mp.mpf(point) - mp.mpf(mean)) / mp.sqrt(mp.mpf(variance))
    return float(mp.erfc(z / mp.sqrt(2)) / 2)


def mp_stein_solution(lam: Fraction, m: int, y: int, w: int, terms: int = 4000) -> float:
    """Raw tail-indicator solution series at integer w > 0, high precision."""
    lam_mp = mp.mpf(lam.numerator) / lam.denominator
    lam_m = lam_mp * m
    my = m * y
    p_ge = _mp_poisson_tail(lam_mp, y)
    s = mp.mpf(0)
    prod = mp.mpf(w)
    for j in range(terms):
        h = 1 if (w + m * j) >= my else 0
        s += (lam_m**j / prod) * (h - p_ge)
        prod *= w + m * (j + 1)
    return float(-s)


def mp_stein_halves(lam: Fraction, m: int, y: int, w: int):
    """The halves S0, S1 of the tail-indicator series at integer w > 0, high precision.

    S0, the J terms with w + m*j < m*y, is summed term by term; S1 is term J
    times the closed form sum_i (lam*m)^i / prod_{l=0..i} (v + m*l)
    = 1F1(1; v/m + 1; lam) / v at v = w + m*J, times v.  The library's
    recurrences and truncation rules play no part.
    """
    lam_mp = _mp_rate(lam)
    lam_m = lam_mp * m
    first_s1 = max(-((w - m * y) // m), 0)
    s0 = mp.mpf(0)
    term = mp.mpf(1) / w
    for j in range(first_s1):
        s0 += term
        term *= lam_m / (w + m * (j + 1))
    v = w + m * first_s1
    return s0, term * mp.hyp1f1(1, mp.mpf(v) / m + 1, lam_mp)


def mp_lattice_increment(lam: Fraction, m: int, y: int, j: int, l: int):
    """g_l(m*j) - g_l(m*j - m) at working precision, never rounded to a float:
    g_l(w) = (f(w) - f(w+l)) / P, f = P*S0 - (1-P)*S1 from mp_stein_halves
    and P = P(A_lam >= y)."""
    p_ge = _mp_poisson_tail(_mp_rate(lam), y)

    def g(w):
        (a0, a1), (b0, b1) = (mp_stein_halves(lam, m, y, v) for v in (w, w + l))
        return (p_ge * (a0 - b0) - (1 - p_ge) * (a1 - b1)) / p_ge

    return g(m * j) - g(m * j - m)


def mp_stein_depth(lam: Fraction, m: int, w: int) -> int:
    """Least J at which the terms of the series at integer w > 0 from term J
    on sum to at most 2**-53 of term 0, by the majorant term_J / (1 - r_J).

    Term l is term 0 times r_1 * ... * r_l with r_l = lam*m / (w + m*l); the
    ratios fall, so the majorant holds once r_J < 1.  High precision.
    """
    lam_m = _mp_rate(lam) * m
    ratios = mp.mpf(1)
    j = 0
    while True:
        j += 1
        r = lam_m / (w + m * j)
        ratios *= r
        if r < 1 and ratios / (1 - r) < mp.mpf(2) ** -53:
            return j


def _mp_rate(rate):
    q = Fraction(rate)
    return mp.mpf(q.numerator) / q.denominator


def panjer_tail(weights, rates, y: int, strict: bool = True) -> float:
    """P(S > y) (strict) or P(S >= y) for S = sum_r b_r A(nu_r), high precision.

    The law comes from the Panjer recursion s p(s) = sum_r nu_r b_r p(s - b_r)
    with p(0) = exp(-sum nu_r); every term is positive.  The tail is one minus
    the cdf below the threshold, at 60 digits.
    """
    return panjer_tails(weights, rates, [y], strict)[0]


def panjer_tails(weights, rates, ys, strict: bool = True) -> list[float]:
    """panjer_tail at every y in ys, from one pass of the recursion."""
    nus = [_mp_rate(v) for v in rates]
    tops = [y if strict else y - 1 for y in ys]
    p = [mp.e ** (-mp.fsum(nus))]
    for s in range(1, max(tops) + 1):
        p.append(mp.fsum(nu * b * p[s - b] for b, nu in zip(weights, nus) if b <= s) / s)
    return [float(1 - mp.fsum(p[: top + 1])) for top in tops]


def mp_d_low(lam, y: int) -> list:
    """D_low(j) = sum_{d<j} (j-1)...(j-d) / lam^d for j = 1..y, high precision.

    Summed in the closed form (j-1)!/lam^(j-1) * sum_{i<j} lam^i/i!, which
    shares no recurrence with the library's.
    """
    lam_mp = _mp_rate(lam)
    out = []
    partial = mp.mpf(0)
    for j in range(1, y + 1):
        partial += lam_mp ** (j - 1) / mp.factorial(j - 1)
        out.append(mp.factorial(j - 1) / lam_mp ** (j - 1) * partial)
    return out


def enumerate_weighted_sum_pmf(weights, rates, bounds) -> dict[int, float]:
    """Law of sum b_r * j_r over the truncated boxes j_r <= bounds[r].

    Literal nested enumeration with float Poisson factors from mpmath.
    """
    pmf_tables = []
    for nu, top in zip(rates, bounds):
        pmf_tables.append([float(mp_poisson_pmf(Fraction(nu), j)) for j in range(top + 1)])
    law: dict[int, float] = {}
    for combo in itertools.product(*(range(t + 1) for t in bounds)):
        value = sum(b * j for b, j in zip(weights, combo))
        prob = 1.0
        for table, j in zip(pmf_tables, combo):
            prob *= table[j]
        law[value] = law.get(value, 0.0) + prob
    return law


def enumerate_bernoulli_w(weights, probs: list[Fraction], trials: int) -> dict[int, Fraction]:
    """Exact law of W = sum b_r (successes of class r) by 2^(R*trials) listing.

    The per-configuration probability is an honest product over individual
    trial bits; no binomial shortcut.
    """
    law: dict[int, Fraction] = {}
    per_trial = []
    for p in probs:
        per_trial.extend([p] * 0)
    flat = [(b, p) for b, p in zip(weights, probs) for _ in range(trials)]
    for bits in itertools.product((0, 1), repeat=len(flat)):
        prob = Fraction(1)
        w = 0
        for bit, (b, p) in zip(bits, flat):
            prob *= p if bit else (1 - p)
            w += b * bit
        law[w] = law.get(w, Fraction(0)) + prob
    return law


def enumerate_w_law_reference(class_trials) -> dict[int, Fraction]:
    """Law of sum_r b_r * (successes among c_r trials), one configuration at a time.

    class_trials lists (c_r, p_r, b_r).  Walks all 2^(sum c_r) bit patterns;
    each class's success count is the bit count of its slice.  A
    configuration's probability is prod_r u_r^a (d_r - u_r)^(c_r - a) over the
    common denominator prod_r d_r^c_r (p_r = u_r / d_r), so the loop sums
    integers and divides once per value of W at the end.  Values of W that
    only zero-probability configurations reach (p_r = 1) are left out.
    """
    tables = []
    denominator = 1
    offsets = []
    start = 0
    for c, p, _ in class_trials:
        u, d = p.numerator, p.denominator
        tables.append([u**a * (d - u) ** (c - a) for a in range(c + 1)])
        denominator *= d**c
        offsets.append((start, (1 << c) - 1))
        start += c
    numerators: dict[int, int] = {}
    for config in range(1 << start):
        w = 0
        num = 1
        for (shift, mask), (_, _, b), table in zip(offsets, class_trials, tables):
            a = ((config >> shift) & mask).bit_count()
            w += b * a
            num *= table[a]
        numerators[w] = numerators.get(w, 0) + num
    return {w: Fraction(num, denominator) for w, num in numerators.items() if num}


def enumerate_size_bias_rhs(weights, probs: list[Fraction], trials: int, n: int, f) -> float:
    """E[nW f(nW)] from the enumerated exact law of W."""
    law = enumerate_bernoulli_w(weights, probs, trials)
    return float(sum(float(p) * (n * w) * float(f(n * w)) for w, p in sorted(law.items())))


@functools.lru_cache(maxsize=16)
def _fraction_law(class_trials: tuple) -> dict[int, Fraction]:
    """Law of sum_r b_r * Binomial(c_r, p_r) from (c_r, p_r, b_r), as {w: Fraction},
    by direct convolution of the exact class pmfs.  Cached: one scheme's
    laws serve every f it is checked with."""
    law = {0: Fraction(1)}
    for c, p, b in class_trials:
        pmf = [math.comb(c, a) * p**a * (1 - p) ** (c - a) for a in range(c + 1)]
        out: dict[int, Fraction] = {}
        for w, q in law.items():
            for a, pa in enumerate(pmf):
                if pa:
                    out[w + b * a] = out.get(w + b * a, Fraction(0)) + q * pa
        law = out
    return law


def size_bias_check_fractions(scheme, f, m) -> tuple[float, float]:
    """size_bias_check_exact's two sides evaluated in float over Fraction laws:
    each probability is float(Fraction), each side an fsum, as the check did
    before its laws were integer numerators."""
    n, trials = m.k_num, scheme.trials_per_class
    full = tuple((trials, p, b) for p, b in zip(scheme.class_probs, scheme.replication))
    w_law = _fraction_law(full)
    rhs = math.fsum(float(prob) * (n * w) * float(f(n * w)) for w, prob in w_law.items())
    lhs_terms = []
    for r, (p, b) in enumerate(zip(scheme.class_probs, scheme.replication)):
        loo = _fraction_law(tuple((c - (s == r), q, bs) for s, (c, q, bs) in enumerate(full)))
        e_r = math.fsum(float(prob) * float(f(n * (w + b))) for w, prob in loo.items())
        lhs_terms.append(float(Fraction(b) * trials * p / m.mu) * e_r)
    return float(m.lambda_m) * math.fsum(lhs_terms), rhs


def coupling_laws_reference(full, reduced) -> tuple[np.ndarray, list[np.ndarray]]:
    """The law of W, and per class r the law with one class-r trial removed,
    as bare arrays from W = 0: coupling's laws before they were lattice laws.

    full and reduced hold the (pmf, b_r) class tables for M* and for M* - 1
    trials.  The tables' dtype is kept: float tables give float laws, object
    arrays of integer numerators the numerators of the exact laws.
    """
    loo = [_convolve_classes([reduced[r]] + full[:r] + full[r + 1 :]) for r in range(len(full))]
    return _convolve_classes(full), loo


def second_order_sum(scheme) -> Fraction:
    """sum_i b_i p_i^2 = sum_r b_r^2 nu_r^2 / M*, the O(1/M*) coupling remainder."""
    m_star = scheme.trials_per_class
    return sum(
        (Fraction(b * b) * m_star * p * p for p, b in zip(scheme.class_probs, scheme.replication)),
        Fraction(0),
    )


def enumerate_delta_joint(weights, probs: list[Fraction], trials: int):
    """Exact joint law of (W, Delta-class) by enumerating trials and the draw.

    The coupling draws a flat copy index i with probability p_i / mu; given
    the drawn trial is already one the increment keeps its same-cell value,
    otherwise it shifts by the drawn class's weight.  Returns
    (joint_same: dict w -> prob, joint_flip: list of dict w -> prob per class),
    all exact rationals.
    """
    mu = sum(Fraction(b) * trials * p for b, p in zip(weights, probs))
    flat = [(r, b, p) for r, (b, p) in enumerate(zip(weights, probs)) for _ in range(trials)]
    joint_same: dict[int, Fraction] = {}
    joint_flip = [dict() for _ in weights]
    for bits in itertools.product((0, 1), repeat=len(flat)):
        prob = Fraction(1)
        w = 0
        ones = [0] * len(weights)
        zeros = [0] * len(weights)
        for bit, (r, b, p) in zip(bits, flat):
            prob *= p if bit else (1 - p)
            w += b * bit
            if bit:
                ones[r] += 1
            else:
                zeros[r] += 1
        for r, (b, p) in enumerate(zip(weights, probs)):
            # each of the b_r copies of every matching trial can be drawn
            same = prob * Fraction(b) * p / mu * ones[r]
            flip = prob * Fraction(b) * p / mu * zeros[r]
            if same:
                joint_same[w] = joint_same.get(w, Fraction(0)) + same
            if flip:
                joint_flip[r][w] = joint_flip[r].get(w, Fraction(0)) + flip
    return joint_same, joint_flip


def exact_suffix_sums(values) -> list[float]:
    """sum(values[t:]) for every t, correctly rounded, as math.fsum gives it.

    Every float is an integer multiple of 2**-1074, so the scaled running sum
    is an exact Python int; int / int true division rounds correctly.
    """
    scale = 1 << 1074
    out = [0.0] * len(values)
    total = 0
    for t in range(len(values) - 1, -1, -1):
        num, den = float(values[t]).as_integer_ratio()
        total += num * (scale // den)
        out[t] = total / scale
    return out


def suffix_sums_dense(probs: np.ndarray) -> np.ndarray:
    """weighted_sum._suffix_sums as it was before it skipped zero ends: the
    compensated running sum from the top index down over every entry of the
    table, zeros included, with its TwoSum error terms added back."""
    x = probs[::-1]
    out = np.zeros(x.size + 1)
    s = np.cumsum(x, out=out[1:])
    if s.size > 1:
        prev, cur = s[:-1], s[1:]
        virt = cur - prev
        err = (prev - (cur - virt)) + (x[1:] - virt)
        cur += np.cumsum(err)
    return out[::-1]


def suffix_sums_reference(probs: np.ndarray) -> np.ndarray:
    """weighted_sum._suffix_sums as one pass, before it ran through blocks:
    a table with a zero at either end is summed over its nonzero span, the
    rest filled by concatenation; the span takes suffix_sums_dense."""
    if probs.size and not (probs[0] and probs[-1]):
        nonzero = probs != 0
        lo = int(nonzero.argmax())
        hi = probs.size - int(nonzero[::-1].argmax()) if nonzero[lo] else lo
        span = suffix_sums_reference(probs[lo:hi])
        return np.concatenate((np.full(lo, span[0]), span, np.zeros(probs.size - hi)))
    return suffix_sums_dense(probs)


def stein_d_high_reference(j: int, lam: float, rel_tol: float) -> float:
    """sum_{d>=1} lam^d / (j (j+1) ... (j+d-1)) for j > y, scalar loop.

    The all-positive regrouping of the series on lattice points above the
    threshold: f_h(m*j) = -((1-P)/(lam*m)) * D_high(j).
    """
    term = lam / j
    acc = term
    d = 1
    while True:
        term *= lam / (j + d)
        acc += term
        d += 1
        ratio = lam / (j + d)
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < rel_tol * acc:
            return acc


def depth_doubling(lam_m: float, m: int, w: int) -> int:
    """stein_lattice._depth as it was before it searched in blocks: the whole
    log-ratio sum from term 1 in arrays that double until the depth is found."""
    size = 64
    while True:
        r = lam_m / (w + m * np.arange(1.0, size + 1.0))
        with np.errstate(divide="ignore"):
            bound = np.cumsum(np.log(r)) - np.log1p(-np.minimum(r, 1.0))
        done = np.flatnonzero(bound < -53.0 * math.log(2.0))
        if done.size:
            return int(done[0]) + 1
        size *= 2


def stein_halves_gathered(ctx, cols: np.ndarray, low: int, w_max: int):
    """stein_lattice._halves as it was before it wrote into the table: the
    points q*m + c (c in cols, q >= low) up to w_max with S0, S1 and their
    series lengths, from an int grid, a 2-D table of first terms, a float
    copy of the stacked grid, and four gathers."""
    m = ctx.lattice_step
    lam_m = float(ctx.lambda_m)
    n = cols.size
    top = w_max // m
    z = top + _depth(lam_m, m, top * m + int(cols[0]), n)
    grid = m * np.arange(low, z)[:, None] + cols

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


def solve_stein_gathered(ctx, w_max: int, include_off_lattice: bool = False):
    """stein_lattice.solve_stein as it was before it wrote each row straight
    into the table: the same float operations in the same order, with the
    points scattered from stein_halves_gathered's gathers."""
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

    if include_off_lattice and m > 1:
        cols, low = np.arange(1, m + 1), 0
    else:
        cols, low = np.array([m]), y
    d_low = [1.0]
    for j in range(1, y):
        d_low.append(1.0 + j / lam * d_low[-1])
    lattice_low = m * np.arange(1, y + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        points, s0, s1, terms = stein_halves_gathered(ctx, cols, low, w_max)
        values[points] = p_ge * s0 - (1.0 - p_ge) * s1
        values[lattice_low] = -p_ge * np.array(d_low) / lam_m
    counts[points] = terms
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


def verify_f_properties_reference(ctx, table, grid=None) -> PropertyReport:
    """The property report of stein_lattice.verify_f_properties, by scalar loops."""
    m = ctx.lattice_step
    my = ctx.threshold_point
    if grid is None:
        hi = table.w_max - m
        grid = range(m, hi + 1) if table.has_off_lattice else range(m, hi + 1, m)
    pts = sorted({int(w) for w in grid})
    usable = [w for w in pts if w + m <= table.w_max]
    tail_pts = [w for w in usable if w >= my]
    below_pts = [w for w in usable if w < my]

    checks = []
    step = 1 if table.has_off_lattice else m
    l_values = tuple(range(1, m + 1)) if table.has_off_lattice else (m,)

    diffs = [table.f(w + step) - table.f(w) for w in tail_pts if w + step <= table.w_max]
    mono_margin = min(diffs) if diffs else math.inf
    checks.append(
        PropertyCheck("tail_monotone", bool(mono_margin > 0.0), mono_margin, None, len(diffs))
    )

    c_hat = 0.0
    jump_min = math.inf
    n_jump = 0
    for w in tail_pts:
        fw = table.f(w)
        for l in l_values:
            d = table.f(w + l) - fw
            jump_min = min(jump_min, d)
            c_hat = max(c_hat, w * d)
            n_jump += 1
    checks.append(
        PropertyCheck("tail_jump_positive_c_over_w", bool(jump_min > 0.0), jump_min, c_hat, n_jump)
    )

    lam_m = float(ctx.lambda_m)
    gm_margin = math.inf
    gm_ok = True
    for w in below_pts:
        g = g_l(ctx, table, w, m)
        bound = 1.0 / lam_m + factorial_envelope(ctx, w) * abs(w - lam_m) / lam_m
        gm_margin = min(gm_margin, bound - g)
        if g > bound * (1.0 + _BOUND_SLACK) + 1e-12:
            gm_ok = False
    checks.append(PropertyCheck("g_m_envelope", gm_ok, gm_margin, None, len(below_pts)))

    gl_margin = math.inf
    gl_ok = True
    n_gl = 0
    if table.has_off_lattice and m > 1:
        for w in below_pts:
            bound = factorial_envelope(ctx, w)
            fw = table.f(w)
            for l in range(1, m):
                g = abs(fw - table.f(w + l)) / table.tail_at_threshold
                gl_margin = min(gl_margin, bound - g)
                if g > bound * (1.0 + _BOUND_SLACK) + 1e-12:
                    gl_ok = False
                n_gl += 1
    checks.append(PropertyCheck("g_l_envelope", gl_ok, gl_margin, None, n_gl))

    inc_margin = math.inf
    n_inc = 0
    for j in range(2, ctx.threshold_y):
        if m * j + m > table.w_max:
            break
        for l in l_values:
            inc = g_l(ctx, table, m * j, l) - g_l(ctx, table, m * (j - 1), l)
            inc_margin = min(inc_margin, inc)
            n_inc += 1
    checks.append(
        PropertyCheck(
            "g_l_lattice_increments", bool(inc_margin >= -1e-10), inc_margin, None, n_inc
        )
    )
    return PropertyReport(checks=tuple(checks))


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


def verify_f_properties_gather(ctx, table, grid=None) -> PropertyReport:
    """stein_lattice.verify_f_properties as it was before it read shifts as
    slices, or took the extremes over the shifts: every shift of every point
    set is a gather table.values[ws + l], folded into each check one at a
    time."""
    _solved_for(ctx, table)
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
    # the shifts l; all but the last, m, are off the lattice
    l_values = range(1, m + 1) if table.has_off_lattice else (m,)

    def f_at(ws):
        v = table.values[ws]
        missing = np.isnan(v)
        if missing.any():
            raise ValidationError(
                f"f was not evaluated at {int(ws[missing][0])}; build with off-lattice points"
            )
        return v

    f_tail = f_at(tail)
    jumps = ((f_at(tail + l) - f_tail, False) for l in l_values)
    f_below = f_at(below)
    g_m = (f_below - f_at(below + m)) / p_ge
    g_ls = (np.abs(f_below - f_at(below + l)) / p_ge for l in l_values[:-1])
    # g_l at m*j for j = 1 .. min(y, w_max // m) - 1; increments from j = 2.
    lattice = m * np.arange(1, min(ctx.threshold_y, table.w_max // m))
    f_lattice = f_at(lattice)
    g_lattice = ((f_lattice - f_at(lattice + l)) / p_ge for l in l_values)
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
        _check("tail_monotone", [(f_at(tail + step) - f_tail, False)], lambda d: d > 0.0),
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


def bracket_reference(params, y: int) -> float:
    """BoundParams.bracket(y) with every constant converted on the call."""
    lam = float(params.lam)
    quad = 1.0 + (y - lam) ** 2 / (2.0 * lam)
    return quad * (1.0 + float(params.correction_sum)) + lam * (1.0 + math.log(y))


def experiment_row_reference(model_moments, params, dist, y: int, strict: bool, scale_n: int = 1):
    """One sweep row from scalar tail calls, the way experiments built rows per y."""
    exact, _ = dist.tail(y, strict=strict)
    scaled = scaled_poisson_tail(model_moments, y, mode="discrete", strict=strict)
    normal = normal_approx_tail(model_moments, y)
    underflow = exact < _UNDERFLOW_FLOOR
    rel = abs(1.0 - scaled / exact) if not underflow else math.nan
    plateau = _threshold(model_moments.k * y, strict)
    bracket = bracket_reference(params, y) if Fraction(y) >= params.lam else math.nan
    return ExperimentRow(
        y=y,
        exact_tail=exact,
        scaled_tail=scaled,
        normal_tail=normal,
        rel_error=rel,
        abs_error_poisson=abs(scaled - exact),
        abs_error_normal=abs(normal - exact),
        bound_bracket=bracket,
        plateau_id=plateau,
        scale_n=scale_n,
        underflow=underflow,
    )


def eta_reference(w_dist, m, y: int, from_zero: bool = False) -> float:
    """experiments.eta by one Fraction threshold and one tail query per r."""
    n, mm = m.k_num, m.k_den
    lo = 1 if from_zero else _threshold(m.lam)
    best = 0.0
    rate = float(m.lam)
    for r in range(lo, y + 1):
        num, _ = w_dist.tail(Fraction(mm * r, n), strict=False)
        den = poisson_tail(rate, r)
        if den < _UNDERFLOW_FLOOR:
            raise NumericalRangeError(f"Poisson tail underflow at r={r}")
        best = max(best, num / den)
    return best


def empirical_constant_rows_reference(w_dist, m, params, y_from: int, y_to: int):
    """The (y, deviation, bracket, ratio) rows of experiments.empirical_constant, per y."""
    n, mm = m.k_num, m.k_den
    rate = float(m.lam)
    rows = []
    for y in range(y_from, y_to + 1):
        if Fraction(y) < m.lam:
            continue
        num, _ = w_dist.tail(Fraction(mm * y, n), strict=False)
        den = poisson_tail(rate, y)
        if den < _UNDERFLOW_FLOOR:
            raise NumericalRangeError(f"Poisson tail underflow at y={y}")
        deviation = abs(num / den - 1.0)
        bracket = bracket_reference(params, y)
        rows.append((y, deviation, bracket, deviation / bracket))
    return rows


def _reference_cell(x) -> str:
    """One CSV cell by the type of x: 17 significant digits for floats and
    anything else numeric, exact digits for ints, 1/0 for bools."""
    if type(x) is float:
        return format(x, ".17g")
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def reference_csv(header, rows) -> str:
    """The CSV text of header and rows, each cell formatted by its own type
    and written by csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_reference_cell(x) for x in row] for row in rows)
    return buf.getvalue()
