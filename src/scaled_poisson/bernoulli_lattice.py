"""Locally dependent Bernoulli array whose sum W approximates the Poisson model.

Each class r contributes M* underlying Bernoulli(nu_r/M*) trials, and every
trial appears as b_r identical copies, so W = sum_r b_r * Binomial(M*, nu_r/M*).
The flat index over the N* = sum_r b_r M* copies runs row-major, class 1
first; within a class, the b_r copies of trial j are adjacent.

The copy structure makes the first two moments of W match mu and sigma^2
exactly (rational identities, not approximations), while W's law is a stride
convolution of binomials, exact up to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum

import numpy as np

from .errors import NumericalRangeError, ValidationError
from .weighted_sum import (
    LatticeDistribution,
    WeightedPoissonSum,
    _convolve_classes,
    _suffix_sums,
    exact_distribution,
)

__all__ = [
    "BernoulliScheme",
    "build_scheme",
    "default_trials",
    "scheme_moments",
    "w_distribution",
    "tail_ratio",
]


@dataclass(frozen=True)
class BernoulliScheme:
    trials_per_class: int
    class_probs: tuple[Fraction, ...]
    replication: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return len(self.replication)

    @property
    def total_vars(self) -> int:
        """N*, the number of Bernoulli copies across all classes."""
        return self.trials_per_class * sum(self.replication)

    def index_view(self):
        """Yield (p_i, b_i) for every flat copy index, row-major, class 1 first."""
        for p, b in zip(self.class_probs, self.replication):
            for _ in range(b * self.trials_per_class):
                yield p, b


def build_scheme(model: WeightedPoissonSum, trials: int) -> BernoulliScheme:
    """Scheme with M* = trials per class; requires every nu_r/M* in (0, 1]."""
    m_star = int(trials)
    if m_star < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    for b, nu in zip(model.weights, model.rates):
        if nu > m_star:
            raise ValidationError(
                f"trials={m_star} is below rate {nu} of class with weight {b}; "
                f"need trials >= {math.ceil(nu)}"
            )
    probs = tuple(Fraction(nu, 1) / m_star for nu in model.rates)
    return BernoulliScheme(
        trials_per_class=m_star, class_probs=probs, replication=model.weights
    )


def default_trials(model: WeightedPoissonSum, factor: int = 100) -> int:
    """Experiment-grade trial count factor * ceil(max nu_r).

    Keeps every success probability at most ~1/factor so the binomial-to-
    Poisson gap is second order.  Experiment entry points quote M* in these
    factor units; the raw per-class trial count is what build_scheme takes.
    """
    if factor < 1:
        raise ValidationError("factor must be a positive integer")
    return factor * max(1, math.ceil(max(model.rates)))


def scheme_moments(scheme: BernoulliScheme) -> tuple[Fraction, Fraction]:
    """(sum_i p_i, sum_i b_i p_i), exact; equal (mu, sigma^2) of the model."""
    m_star = scheme.trials_per_class
    sum_p = sum(
        (Fraction(b) * m_star * p for p, b in zip(scheme.class_probs, scheme.replication)),
        Fraction(0),
    )
    sum_bp = sum(
        (Fraction(b * b) * m_star * p for p, b in zip(scheme.class_probs, scheme.replication)),
        Fraction(0),
    )
    return sum_p, sum_bp


def second_order_sum(scheme: BernoulliScheme) -> Fraction:
    """sum_i b_i p_i^2 = sum_r b_r^2 nu_r^2 / M*, the O(1/M*) coupling remainder."""
    m_star = scheme.trials_per_class
    return sum(
        (Fraction(b * b) * m_star * p * p for p, b in zip(scheme.class_probs, scheme.replication)),
        Fraction(0),
    )


def _binomial_shape(trials: int, p: Fraction) -> np.ndarray:
    """pmf(0..trials) of Binomial(trials, p) up to one common factor.

    Anchored at the mode floor((trials+1) p) in log space (lgamma) and built
    outward both ways by cumulative ratio products, after Loader (2000), "Fast
    and Accurate Computation of Binomial Probabilities".  The mode's pmf is at
    least ~1/(trials+1), so no rate underflows the anchor; the relative shape
    error stays at ~trials * eps.  Far tails underflow to exact zeros.
    """
    if p == 1:
        out = np.zeros(trials + 1)
        out[trials] = 1.0
        return out
    pf = float(p)
    odds = pf / (1.0 - pf)
    mode = math.floor((trials + 1) * p)
    out = np.empty(trials + 1)
    out[mode] = math.exp(
        math.lgamma(trials + 1)
        - math.lgamma(mode + 1)
        - math.lgamma(trials - mode + 1)
        + mode * math.log(pf)
        + (trials - mode) * math.log1p(-pf)
    )
    # pmf(j) / pmf(j - 1) = (trials - j + 1) / j * odds, for j above and at/below the mode
    up = np.arange(mode + 1.0, trials + 1.0)
    out[mode + 1 :] = np.cumprod((trials - up + 1.0) / up * odds) * out[mode]
    down = np.arange(mode, 0.0, -1.0)
    out[:mode] = np.cumprod(down / (trials - down + 1.0) / odds)[::-1] * out[mode]
    return out


def binomial_pmf_vector(trials: int, p: Fraction) -> np.ndarray:
    """pmf(0..trials) of Binomial(trials, p), normalized to unit mass.

    The uniform normalization removes the anchor's error.  Zeros add nothing
    to an fsum, so only the window from the first to the last nonzero entry
    is summed.
    """
    out = _binomial_shape(trials, p)
    nonzero = np.flatnonzero(out)
    return out / fsum(out[nonzero[0] : nonzero[-1] + 1].tolist())


def _cap_upper_tail(pmf: np.ndarray, budget: float) -> tuple[np.ndarray, float]:
    """Drop the highest-index entries whose total mass stays below budget."""
    if budget <= 0.0:
        return pmf, 0.0
    suffix = _suffix_sums(pmf)
    keep = np.nonzero(suffix > budget)[0]
    hi = int(keep[-1]) if keep.size else 0
    dropped = float(suffix[hi + 1])
    return pmf[: hi + 1], dropped


def _capped_class_pmfs(
    scheme: BernoulliScheme, trials: int, budget: float
) -> tuple[list[tuple[np.ndarray, int]], float]:
    """(pmf of Binomial(trials, p_r), b_r) per class, and the total mass dropped.

    Each pmf loses its highest entries within ``budget`` (none when 0).
    """
    classes = []
    dropped = 0.0
    for p, b in zip(scheme.class_probs, scheme.replication):
        pmf, lost = _cap_upper_tail(binomial_pmf_vector(trials, p), budget)
        classes.append((pmf, b))
        dropped += lost
    return classes, dropped


def w_distribution(scheme: BernoulliScheme, epsilon: float = 0.0) -> LatticeDistribution:
    """Exact law of W = sum_r b_r * Binomial(M*, p_r) by stride convolution.

    With epsilon == 0 the full finite support is kept and the deficit is 0.
    A positive epsilon caps each class's upper tail within a budget of
    epsilon / R, for large-M* work where the dense support would be wasteful.
    """
    eps = float(epsilon)
    if eps < 0.0 or eps >= 1.0:
        raise ValidationError(f"epsilon must be in [0, 1), got {epsilon!r}")
    classes, deficit = _capped_class_pmfs(
        scheme, scheme.trials_per_class, eps / scheme.class_count
    )
    return LatticeDistribution(probs=_convolve_classes(classes), mass_deficit=deficit)


def tail_ratio(
    scheme: BernoulliScheme,
    model: WeightedPoissonSum,
    y: int,
    epsilon: float = 1e-12,
    cap: float = 1e-200,
) -> float:
    """P(W > y) / P(S > y) from the two exact oracles."""
    if y < 0:
        raise ValidationError("y must be nonnegative")
    w_tail, _ = w_distribution(scheme, epsilon=cap).tail(y, strict=True)
    s_tail, _ = exact_distribution(model, epsilon).tail(y, strict=True)
    if s_tail < 1e-250:
        raise NumericalRangeError(
            f"P(S > {y}) is below 1e-250; tail ratio unavailable at this threshold"
        )
    return w_tail / s_tail
