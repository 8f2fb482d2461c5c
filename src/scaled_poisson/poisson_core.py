"""Numerically stable scalar primitives for Poisson and Gaussian tails.

Everything here is a pure function of its arguments.  Mass accumulation is
done on the side of the distribution where terms are small, so tails far
below the underflow threshold of a naive linear sum (down to ~1e-300) keep
full relative accuracy.  Log-gamma is the only special function required.

Thread safety: no module state, safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from math import lgamma

import numpy as np

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


def poisson_log_pmf(rate, count: int) -> float:
    """Natural log of P(A_rate = count), computed via log-gamma.

    The result is always <= 0.  Satisfies the one-step recurrence
    rate * pmf(count - 1) = count * pmf(count) to ~1e-13 relative.
    """
    r = _as_positive_rate(rate)
    k = int(count)
    if k != count or k < 0:
        raise ValidationError(f"count must be a nonnegative integer, got {count!r}")
    return -r + k * math.log(r) - lgamma(k + 1)


def poisson_pmf(rate, count: int) -> float:
    """P(A_rate = count) in linear scale (may underflow to 0 below ~1e-308)."""
    return math.exp(poisson_log_pmf(rate, count))


def _cdf_below(rate: float, j: int) -> float:
    """P(A_rate <= j), accurate when this is the smaller side (j < rate).

    Factored as pmf(j) * (1 + j/rate + j(j-1)/rate^2 + ...), an all-positive
    ratio series, so there is no cancellation; the prefactor carries the
    scale in log space.
    """
    if j < 0:
        return 0.0
    acc = 1.0
    term = 1.0
    i = j
    while i >= 1:
        term *= i / rate
        acc += term
        if term < _SERIES_EPS * acc:
            break
        i -= 1
    return math.exp(poisson_log_pmf(rate, j)) * acc


def poisson_tail(rate, threshold: int) -> float:
    """P(A_rate >= threshold).

    For threshold <= rate the complement 1 - P(A <= threshold-1) is returned,
    with the cdf summed on its own small side.  For threshold > rate the tail
    is summed directly: pmf(threshold) * (1 + q1 + q1*q2 + ...) with
    q_i = rate/(threshold+i) < 1, which preserves relative accuracy even for
    results near 1e-300.
    """
    r = _as_positive_rate(rate)
    t = int(threshold)
    if t != threshold or t < 0:
        raise ValidationError(f"threshold must be a nonnegative integer, got {threshold!r}")
    if t == 0:
        return 1.0
    if t <= r:
        return 1.0 - _cdf_below(r, t - 1)
    acc = 1.0
    term = 1.0
    i = 1
    while True:
        term *= r / (t + i)
        acc += term
        if term < _SERIES_EPS * acc:
            break
        i += 1
        if i > _MAX_ITER:  # pragma: no cover - geometric ratio < 1 guarantees exit
            raise NumericalRangeError("poisson_tail series failed to converge")
    return math.exp(poisson_log_pmf(r, t)) * acc


def _poisson_pmf_vector(rate: float, n_max: int) -> np.ndarray:
    """pmf(0..n_max) by cumulative products from pmf(0); relative drift ~n*eps."""
    log_p0 = -rate
    if log_p0 < -700.0:
        raise ValidationError(f"rate {rate} too large for a dense pmf table")
    ratios = rate / np.arange(1.0, n_max + 1.0)
    out = np.empty(n_max + 1)
    out[0] = math.exp(log_p0)
    if n_max:
        np.cumprod(ratios, out=out[1:])
        out[1:] *= out[0]
    return out


def poisson_cdf(rate, count: int) -> float:
    """P(A_rate <= count)."""
    r = _as_positive_rate(rate)
    k = int(count)
    if k != count:
        raise ValidationError(f"count must be an integer, got {count!r}")
    if k < 0:
        return 0.0
    if k + 1 <= r:
        return _cdf_below(r, k)
    return 1.0 - poisson_tail(r, k + 1)


def _gamma_p_series(shape: float, x: float) -> float:
    """Lower regularized incomplete gamma P(shape, x) by power series."""
    term = 1.0 / shape
    total = term
    n = 1
    while True:
        term *= x / (shape + n)
        total += term
        if abs(term) < abs(total) * _SERIES_EPS:
            break
        n += 1
        if n > _MAX_ITER:  # pragma: no cover
            raise NumericalRangeError("incomplete gamma series failed to converge")
    log_prefix = shape * math.log(x) - x - lgamma(shape)
    return math.exp(log_prefix) * total


def _gamma_q_contfrac(shape: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(shape, x) by Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - shape
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - shape)
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
    else:  # pragma: no cover
        raise NumericalRangeError("incomplete gamma continued fraction failed to converge")
    log_prefix = shape * math.log(x) - x - lgamma(shape)
    return math.exp(log_prefix) * h


def regularized_gamma_q(shape, rate_point) -> float:
    """Regularized upper incomplete gamma Q(shape, rate_point).

    Q(x, s) = integral_s^inf t^(x-1) e^(-t) dt / Gamma(x); for integer n,
    Q(n, s) = P(A_s <= n-1).  The continued fraction is used on and right of
    the switch line shape = rate_point + 1; the power series elsewhere and
    for rate_point < 1, where the fraction is ill-conditioned.
    """
    a = float(shape)
    x = float(rate_point)
    if not (math.isfinite(a) and a > 0.0):
        raise ValidationError(f"shape must be positive, got {shape!r}")
    if not (math.isfinite(x) and x > 0.0):
        raise ValidationError(f"rate_point must be positive, got {rate_point!r}")
    if x >= 1.0 and x >= a - 1.0:
        return _gamma_q_contfrac(a, x)
    return 1.0 - _gamma_p_series(a, x)


def normal_tail(mean, variance, point) -> float:
    """P(Z > point) for Z ~ N(mean, variance), via the complementary error function."""
    v = float(variance)
    if not (math.isfinite(v) and v > 0.0):
        raise ValidationError(f"variance must be positive, got {variance!r}")
    z = (float(point) - float(mean)) / math.sqrt(v)
    return 0.5 * math.erfc(z / math.sqrt(2.0))
