"""Independent reference computations for the test suite.

Everything here deliberately avoids the library's own algorithms: mpmath
arbitrary precision for scalar special functions and series, the Panjer
recursion and literal exhaustive enumeration for distribution laws.  Oracles
are slow and simple on purpose.  The scalar Stein and sweep references at the
end are the point-by-point loops that the library's array forms replaced;
they do the same float arithmetic one point at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp

from scaled_poisson.errors import NumericalRangeError
from scaled_poisson.experiments import _UNDERFLOW_FLOOR, ExperimentRow
from scaled_poisson.poisson_core import poisson_tail
from scaled_poisson.stein_lattice import (
    _BOUND_SLACK,
    PropertyCheck,
    PropertyReport,
    factorial_envelope,
    g_l,
)
from scaled_poisson.weighted_sum import _threshold, normal_approx_tail, scaled_poisson_tail

mp.mp.dps = 60


def mp_poisson_pmf(rate, j: int):
    lam = mp.mpf(rate.numerator) / rate.denominator if isinstance(rate, Fraction) else mp.mpf(rate)
    return mp.e ** (-lam) * lam**j / mp.factorial(j)


def mp_poisson_tail(rate, threshold: int, extra: int = 4000) -> float:
    """P(A >= threshold) by direct high-precision summation."""
    lam = mp.mpf(rate.numerator) / rate.denominator if isinstance(rate, Fraction) else mp.mpf(rate)
    total = mp.mpf(0)
    for j in range(threshold, threshold + extra):
        total += mp.e ** (-lam) * lam**j / mp.factorial(j)
    return float(total)


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
    p_ge = mp.mpf(mp_poisson_tail(lam, y, extra=6000))
    # recompute tail in mp precision for consistency
    p_ge = sum(mp.e ** (-lam_mp) * lam_mp**j / mp.factorial(j) for j in range(y, y + 5000))
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
    nus = [_mp_rate(v) for v in rates]
    top = y if strict else y - 1
    p = [mp.e ** (-mp.fsum(nus))]
    for s in range(1, top + 1):
        p.append(mp.fsum(nu * b * p[s - b] for b, nu in zip(weights, nus) if b <= s) / s)
    return float(1 - mp.fsum(p[: top + 1]))


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
    integers and divides once per value of W at the end.
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
    return {w: Fraction(num, denominator) for w, num in numerators.items()}


def enumerate_size_bias_rhs(weights, probs: list[Fraction], trials: int, n: int, f) -> float:
    """E[nW f(nW)] from the enumerated exact law of W."""
    law = enumerate_bernoulli_w(weights, probs, trials)
    return float(sum(float(p) * (n * w) * float(f(n * w)) for w, p in sorted(law.items())))


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
