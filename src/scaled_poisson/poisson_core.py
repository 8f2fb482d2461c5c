"""Numerically stable scalar primitives for Poisson and Gaussian tails.

One kernel, _regularized_gamma_pq(a, x), sums every Poisson and
incomplete-gamma tail: P(A_x >= t) = P(t, x) and P(A_x <= k) = Q(k + 1, x).
It sums one side of the pair, P by an all-positive ratio series where
a > x + 1 or x < 1, Q by a continued fraction elsewhere, and returns the other
as one minus it.  Both carry the one prefactor _log_pmf, so a small summed
side neither cancels nor underflows down to ~1e-300; its relative error is
that of the prefactor's lgamma, which grows with the rate (README).

Thread safety: no module state, safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys
from math import lgamma

from .errors import NumericalRangeError, ValidationError

__all__ = [
    "poisson_log_pmf",
    "poisson_pmf",
    "poisson_cdf",
    "poisson_tail",
    "regularized_gamma_q",
    "normal_tail",
]

# Convergence targets for the internal series; chosen so the documented
# 1e-12 / 1e-10 relative-error contracts hold with headroom.
_SERIES_EPS = 1e-17
_MAX_ITER = 100_000


def _as_positive_rate(rate) -> float:
    r = float(rate)
    if not math.isfinite(r) or r <= 0.0:
        raise ValidationError(f"rate must be a positive finite number, got {rate!r}")
    return r


def _log_pmf(x: float, a) -> float:
    """log(x^a e^-x / Gamma(a + 1)) for real a >= 0; the Poisson log-pmf at
    integer a."""
    return -x + a * math.log(x) - lgamma(a + 1)


def _regularized_gamma_pq(a, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for real a >= 0 and finite x > 0, unvalidated.

    P = pmf * (1 + x/(a+1) + x^2/((a+1)(a+2)) + ...) for a > x + 1 or x < 1;
    Q = a * pmf * CF elsewhere, CF the Lentz continued fraction; pmf =
    exp(_log_pmf(x, a)).  The other is one minus it, so only the side that
    was summed keeps full relative accuracy when it is small.  An a past the
    float range gives (0, 1); past Gamma(a + 1)'s, a > 2.5e305, the pmf is 0.
    """
    try:
        a = float(a)
    except OverflowError:
        return 0.0, 1.0
    if a == 0.0:
        return 1.0, 0.0
    try:
        pmf = math.exp(_log_pmf(x, a))
    except OverflowError:
        pmf = 0.0
    if a > x + 1.0 or x < 1.0:
        acc = 1.0
        term = 1.0
        for i in range(1, _MAX_ITER):
            term *= x / (a + i)
            acc += term
            if term < _SERIES_EPS * acc:
                break
        else:
            raise NumericalRangeError(f"incomplete gamma series at ({a}, {x}) failed to converge")
        p = pmf * acc
        return p, 1.0 - p
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _SERIES_EPS:
            break
    else:
        raise NumericalRangeError(
            f"incomplete gamma continued fraction at ({a}, {x}) failed to converge"
        )
    q = a * pmf * h
    return 1.0 - q, q


def poisson_log_pmf(rate, count: int) -> float:
    """Natural log of P(A_rate = count), computed via log-gamma.

    The result is always <= 0.  Satisfies the one-step recurrence
    rate * pmf(count - 1) = count * pmf(count) to ~1e-13 relative.  A count
    past the float range gives -inf.  Where a term overflows (log-gamma past
    count ~2.5e305) NumericalRangeError is raised: the log-pmf may be finite.
    """
    r = _as_positive_rate(rate)
    k = int(count)
    if k != count or k < 0:
        raise ValidationError(f"count must be a nonnegative integer, got {count!r}")
    if k > sys.float_info.max:
        return -math.inf
    try:
        out = _log_pmf(r, k)
    except OverflowError:
        out = math.inf
    if out == math.inf:
        raise NumericalRangeError(f"log-pmf terms at ({r}, {k:.6g}) overflow")
    return out


def poisson_pmf(rate, count: int) -> float:
    """P(A_rate = count) in linear scale (may underflow to 0 below ~1e-308)."""
    return math.exp(poisson_log_pmf(rate, count))


def poisson_tail(rate, threshold: int) -> float:
    """P(A_rate >= threshold) = P(threshold, rate), the lower regularized
    incomplete gamma; 0.0 for a threshold past the float range."""
    r = _as_positive_rate(rate)
    t = int(threshold)
    if t != threshold or t < 0:
        raise ValidationError(f"threshold must be a nonnegative integer, got {threshold!r}")
    return _regularized_gamma_pq(t, r)[0]


def poisson_cdf(rate, count: int) -> float:
    """P(A_rate <= count) = Q(count + 1, rate); 1.0 for a count past the
    float range."""
    r = _as_positive_rate(rate)
    k = int(count)
    if k != count:
        raise ValidationError(f"count must be an integer, got {count!r}")
    if k < 0:
        return 0.0
    return _regularized_gamma_pq(k + 1, r)[1]


def regularized_gamma_q(shape, rate_point) -> float:
    """Regularized upper incomplete gamma Q(shape, rate_point).

    Q(x, s) = integral_s^inf t^(x-1) e^(-t) dt / Gamma(x); for integer n,
    Q(n, s) = P(A_s <= n-1).  Evaluated by _regularized_gamma_pq.
    """
    a = float(shape)
    x = float(rate_point)
    if not (math.isfinite(a) and a > 0.0):
        raise ValidationError(f"shape must be positive, got {shape!r}")
    if not (math.isfinite(x) and x > 0.0):
        raise ValidationError(f"rate_point must be positive, got {rate_point!r}")
    return _regularized_gamma_pq(a, x)[1]


def normal_tail(mean, variance, point) -> float:
    """P(Z > point) for Z ~ N(mean, variance), via the complementary error
    function; 0.0 or 1.0 for a point past the float range."""
    v = float(variance)
    if not (math.isfinite(v) and v > 0.0):
        raise ValidationError(f"variance must be positive, got {variance!r}")
    try:
        p = float(point)
    except OverflowError:  # a point past the float range
        return 0.0 if point > 0 else 1.0
    z = (p - float(mean)) / math.sqrt(v)
    return 0.5 * math.erfc(z / math.sqrt(2.0))
