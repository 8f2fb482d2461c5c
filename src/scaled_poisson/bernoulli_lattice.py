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

import numpy as np

from .errors import NumericalRangeError, ValidationError, _within_budget
from .weighted_sum import (
    LatticeDistribution,
    WeightedPoissonSum,
    _lattice_law,
    _mode_table,
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


def binomial_pmf_vector(trials: int, p: Fraction) -> np.ndarray:
    """pmf(0..trials) of Binomial(trials, p), normalized to unit mass.

    Built outward from the mode floor((trials+1) p) by _mode_table, with
    pmf(j) / pmf(j-1) = (trials - j + 1) * odds / j; p = 1 (infinite odds)
    puts all the mass at trials.
    """
    _within_budget(f"the Binomial({trials}, {p}) table", trials + 1, 32)
    pf = float(p)
    odds = pf / (1.0 - pf) if pf < 1.0 else math.inf
    j = np.arange(1.0, trials + 1.0)
    mode = min(math.floor((trials + 1) * p), trials)
    return _mode_table((trials + 1.0 - j) * odds, j, mode, 1.0)


def _capped_class_pmfs(
    scheme: BernoulliScheme, trials: int, budget: float
) -> tuple[list[tuple[np.ndarray, int]], list[float | None]]:
    """(pmf of Binomial(trials, p_r), b_r) per class, and per class the mass
    dropped by cutting its highest entries within budget (None when 0)."""
    classes, dropped = [], []
    for p, b in zip(scheme.class_probs, scheme.replication):
        pmf, lost = binomial_pmf_vector(trials, p), None
        if budget > 0.0:
            suffix = _suffix_sums(pmf)
            keep = np.nonzero(suffix > budget)[0]
            hi = int(keep[-1]) if keep.size else 0
            pmf, lost = pmf[: hi + 1], float(suffix[hi + 1])
        classes.append((pmf, b))
        dropped.append(lost)
    return classes, dropped


def w_distribution(scheme: BernoulliScheme, epsilon: float = 0.0) -> LatticeDistribution:
    """Exact law of W = sum_r b_r * Binomial(M*, p_r) by stride convolution.

    With epsilon == 0 the full finite support is kept and the deficit is 0.
    A positive epsilon caps each class's upper tail within a budget of
    epsilon / R, for large-M* work where the dense support would be wasteful.
    """
    eps = float(epsilon)
    if not 0.0 <= eps < 1.0:
        raise ValidationError(f"epsilon must be in [0, 1), got {epsilon!r}")
    return _lattice_law(
        *_capped_class_pmfs(scheme, scheme.trials_per_class, eps / scheme.class_count)
    )


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
