"""Independent reference computations for the test suite.

Everything here deliberately avoids the library's own algorithms: mpmath
arbitrary precision for scalar special functions and series, and literal
exhaustive enumeration for distribution laws.  Oracles are slow and simple on
purpose.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import mpmath as mp

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
