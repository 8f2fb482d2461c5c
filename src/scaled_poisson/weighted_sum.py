"""Weighted sums of independent Poisson variables and their tail approximations.

The model is S = sum_r b_r * A(nu_r) with strictly increasing positive integer
weights b_r and positive rational rates nu_r.  Moments are kept as exact
rationals so the scale k = mu/sigma^2 = n/m is produced by integer gcd, never
by float rationalization; the lattice constants (n, m) downstream depend on
that exactness.

The exact law of S (the ground-truth oracle for every experiment) is a
truncated convolution over the integer lattice with a certified mass deficit.
The stride convolution, the compensated tail sum and the integer threshold
rule defined here are shared by every lattice law in the package.  All types
are immutable values; operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .poisson_core import _poisson_pmf_vector, _regularized_gamma_pq, normal_tail, poisson_tail

__all__ = [
    "WeightedPoissonSum",
    "SumMoments",
    "LatticeDistribution",
    "normalize_weights",
    "moments",
    "exact_distribution",
    "exact_tail",
    "scaled_poisson_tail",
    "normal_approx_tail",
]


@dataclass(frozen=True)
class WeightedPoissonSum:
    """S = sum of b_r * A(nu_r) over r = 1..R, independent summands."""

    weights: tuple[int, ...]
    rates: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) == 0 or len(self.weights) != len(self.rates):
            raise ValidationError("weights and rates must be nonempty and equal length")
        ws = tuple(int(b) for b in self.weights)
        rs = tuple(Fraction(v) for v in self.rates)
        if any(b <= 0 for b in ws):
            raise ValidationError(f"weights must be positive integers, got {self.weights!r}")
        if any(ws[i] >= ws[i + 1] for i in range(len(ws) - 1)):
            raise ValidationError("weights must be strictly increasing; merge duplicates first")
        if any(v <= 0 for v in rs):
            raise ValidationError(f"rates must be positive, got {self.rates!r}")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "rates", rs)

    @property
    def class_count(self) -> int:
        return len(self.weights)

    def scale_rates(self, factor) -> "WeightedPoissonSum":
        """Same weights, every rate multiplied by an exact positive factor."""
        f = Fraction(factor)
        if f <= 0:
            raise ValidationError("rate scale factor must be positive")
        return WeightedPoissonSum(self.weights, tuple(v * f for v in self.rates))


@dataclass(frozen=True)
class SumMoments:
    """Exact moments of S and the reduced rational scale k = n/m.

    lam = k*mu is the rate of the matching Poisson; the approximating variable
    is (1/k) * A(lam), whose mean and variance equal mu and sigma_sq exactly.
    """

    mu: Fraction
    sigma_sq: Fraction
    k_num: int
    k_den: int
    lam: Fraction
    scale_B: int = 1

    @property
    def k(self) -> Fraction:
        return Fraction(self.k_num, self.k_den)

    @property
    def lambda_m(self) -> Fraction:
        """lam * m, the drift constant of the lattice Stein operator (= n*mu)."""
        return self.lam * self.k_den


def normalize_weights(
    raw_weights: Sequence, rates: Sequence
) -> tuple[WeightedPoissonSum, int]:
    """Integer-weight model for B*S, where B clears all weight denominators.

    Duplicate weights are merged by summing their rates, then classes are
    sorted by weight.  Returns (model, B) so callers can map a query y on S
    to B*y on the normalized model.
    """
    if len(raw_weights) == 0 or len(raw_weights) != len(rates):
        raise ValidationError("weights and rates must be nonempty and equal length")
    ws = [Fraction(b) for b in raw_weights]
    rs = [Fraction(v) for v in rates]
    if any(b <= 0 for b in ws) or any(v <= 0 for v in rs):
        raise ValidationError("weights and rates must all be positive")
    B = 1
    for b in ws:
        B = B * b.denominator // math.gcd(B, b.denominator)
    merged: dict[int, Fraction] = {}
    for b, v in zip(ws, rs):
        ib = int(b * B)
        merged[ib] = merged.get(ib, Fraction(0)) + v
    items = sorted(merged.items())
    model = WeightedPoissonSum(
        tuple(b for b, _ in items), tuple(v for _, v in items)
    )
    return model, B


def moments(model: WeightedPoissonSum, scale_B: int = 1) -> SumMoments:
    """Exact rational mu, sigma^2, k = n/m in lowest terms, and lam = k*mu."""
    mu = sum((Fraction(b) * v for b, v in zip(model.weights, model.rates)), Fraction(0))
    sigma_sq = sum(
        (Fraction(b * b) * v for b, v in zip(model.weights, model.rates)), Fraction(0)
    )
    k = mu / sigma_sq
    return SumMoments(
        mu=mu,
        sigma_sq=sigma_sq,
        k_num=k.numerator,
        k_den=k.denominator,
        lam=k * mu,
        scale_B=int(scale_B),
    )


def _threshold(x, strict: bool = False) -> int:
    """Least integer t with t > x (strict) or t >= x (ceil(x)), for rational x.

    Exact integer arithmetic on numerator and denominator; every lattice
    threshold in the package is resolved here or by _threshold_ratio.
    """
    q = Fraction(x)
    return _threshold_ratio(q.numerator, q.denominator, strict)


def _threshold_ratio(num, den: int, strict: bool = False):
    """_threshold(num/den, strict) for integer num and den > 0.

    num may be an integer array: pass dtype=object (Python ints) wherever
    num could pass 2**63, and floor division stays exact elementwise.
    """
    if strict:
        return num // den + 1
    return -((-num) // den)


def _suffix_at(suffix: np.ndarray, thresholds) -> np.ndarray:
    """suffix[t] at each integer threshold t (an int or an integer array),
    clamped to the table: at or below 0 reads the total, at or past the last
    entry reads its empty sum 0.0.

    The clamp runs on Python ints, so a threshold beyond int64 reads 0.0 too.
    """
    t = np.minimum(np.maximum(thresholds, 0, dtype=object), suffix.size - 1, dtype=object)
    return suffix[np.asarray(t, dtype=np.int64)]


def _suffix_sums(probs: np.ndarray) -> np.ndarray:
    """suffix[t] = sum(probs[t:]) for every t in [0, len(probs)], each within
    one ulp of exact; the last entry is the empty sum 0.0.

    A running sum from the top index down (cumsum adds strictly in order), the
    exact rounding error of every step by TwoSum, and the running sum of
    those errors added back.  At most three support-sized arrays are live.
    """
    x = probs[::-1]
    out = np.zeros(x.size + 1)
    s = np.cumsum(x, out=out[1:])
    if s.size > 1:
        prev, cur = s[:-1], s[1:]
        virt = np.subtract(cur, prev)
        err = np.subtract(cur, virt)
        np.subtract(prev, err, out=err)
        np.subtract(x[1:], virt, out=virt)
        err += virt
        del virt
        np.cumsum(err, out=err)
        cur += err
    return out[::-1]


# eq=False: a generated == or hash() would raise on the array fields, so
# tables compare by identity.
@dataclass(frozen=True, eq=False)
class LatticeDistribution:
    """Probability table on {0, 1, ..., support_max} with a certified deficit.

    Entries never exceed the true pmf by more than float rounding; the missing
    mass is at most ``mass_deficit``, so any tail query can be bracketed as
    [p, p + mass_deficit].  ``suffix`` holds the compensated tail sums of
    ``probs`` (one more entry, the empty sum 0.0), built once, so every tail
    query is a lookup.
    """

    probs: np.ndarray
    mass_deficit: float
    suffix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("probs must be a nonempty 1-d array")
        if float(p.min()) < -1e-15:
            raise ValidationError("probability table has a negative entry")
        # suffix is derived from probs once, so probs must not change after.
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "mass_deficit", float(self.mass_deficit))
        object.__setattr__(self, "suffix", _suffix_sums(p))

    @property
    def support_max(self) -> int:
        return self.probs.size - 1

    def total_mass(self) -> float:
        return float(self.suffix[0])

    def pmf(self, j: int) -> float:
        if 0 <= j <= self.support_max:
            return float(self.probs[j])
        return 0.0

    def mean(self) -> float:
        return fsum((j * p for j, p in enumerate(self.probs.tolist())))

    def tail(self, y, strict: bool = True) -> tuple[float, float]:
        """Bracketing interval for P(X > y) (strict) or P(X >= y).

        y may be rational; the integer threshold is resolved exactly.
        """
        lo = float(_suffix_at(self.suffix, _threshold(y, strict)))
        return (lo, lo + self.mass_deficit)


def _truncation_point(rate: float, tail_budget: float) -> tuple[int, float]:
    """The first n on the growth schedule with P(A_rate > n) < tail_budget,
    and that dropped tail mass."""
    n = int(math.ceil(rate + 10.0 * math.sqrt(rate) + 20.0))
    while (dropped := poisson_tail(rate, n + 1)) >= tail_budget:
        n = int(math.ceil(n * 1.25)) + 10
    return n, dropped


def _stride_convolve(acc: np.ndarray, pmf: np.ndarray, b: int) -> np.ndarray:
    """Law of X + b*Y from the pmf of X (acc) and the pmf of Y, for integer b >= 1.

    Entry i of acc only reaches outputs congruent to i mod b, so no stride-b
    array of zeros is ever multiplied.  Either each residue class of acc is
    convolved with pmf on its own (one np.convolve when b == 1), or one
    shifted slice is added per pmf entry, whichever makes fewer calls:
    min(b, len(acc), len(pmf)) in all.
    """
    out = np.zeros(acc.size + b * (pmf.size - 1))
    if min(b, acc.size) <= pmf.size:
        for c in range(min(b, acc.size)):
            out[c::b] = np.convolve(acc[c::b], pmf)
    else:
        for j, pj in enumerate(pmf.tolist()):
            out[j * b : j * b + acc.size] += pj * acc
    return out


def _convolve_classes(classes: Iterable[tuple[np.ndarray, int]]) -> np.ndarray:
    """Law of sum_r b_r X_r from (pmf of X_r, b_r) pairs, in the given order."""
    acc = np.array([1.0])
    for pmf, b in classes:
        acc = _stride_convolve(acc, pmf, b)
    return acc


def exact_distribution(model: WeightedPoissonSum, epsilon: float = 1e-12) -> LatticeDistribution:
    """Exact law of S by stride convolution of truncated Poisson tables.

    Each class is truncated at a quantile leaving tail mass t_r < epsilon/R.
    The table misses 1 - prod(1 - t_r) <= sum t_r of unit mass, so the
    deficit is that sum, rounded up; it is <= epsilon.
    """
    eps = float(epsilon)
    if not (0.0 < eps <= 1e-3):
        raise ValidationError(f"epsilon must be in (0, 1e-3], got {epsilon!r}")
    budget = eps / model.class_count
    classes = []
    dropped = []
    for b, nu in zip(model.weights, model.rates):
        rate = float(nu)
        n, tail = _truncation_point(rate, budget)
        classes.append((_poisson_pmf_vector(rate, n), b))
        dropped.append(tail)
    return LatticeDistribution(
        probs=_convolve_classes(classes), mass_deficit=math.nextafter(fsum(dropped), math.inf)
    )


def exact_tail(
    model: WeightedPoissonSum,
    y,
    strict: bool = True,
    epsilon: float = 1e-12,
    dist: LatticeDistribution | None = None,
) -> tuple[float, float]:
    """Bracketing interval for P(S > y) (strict) or P(S >= y).

    Pass a prebuilt ``dist`` when sweeping many thresholds over one model.
    """
    if Fraction(y) < 0:
        raise ValidationError("y must be nonnegative")
    if dist is None:
        dist = exact_distribution(model, epsilon)
    return dist.tail(y, strict=strict)


def scaled_poisson_tail(m: SumMoments, y, mode: str = "discrete", strict: bool = True) -> float:
    """Tail of the moment-matched scaled Poisson (1/k) * A(lam) at y.

    discrete mode: P(A_lam > k*y) (strict) or P(A_lam >= k*y), with the
    threshold resolved by exact rational floor/ceil.  continuous mode: the
    incomplete-gamma relaxation P(k*y, lam) = 1 - Q(k*y, lam), the lower
    regularized gamma, summed directly where it is small.  The two modes agree
    only approximately; both are exposed and neither is canonical.
    """
    yq = Fraction(y)
    if yq <= 0:
        raise ValidationError("y must be positive")
    ky = m.k * yq
    if mode == "discrete":
        return poisson_tail(float(m.lam), _threshold(ky, strict))
    if mode == "continuous":
        return _regularized_gamma_pq(float(ky), float(m.lam))[0]
    raise ValidationError(f"mode must be 'discrete' or 'continuous', got {mode!r}")


def normal_approx_tail(m: SumMoments, y, continuity_correction: bool = False) -> float:
    """Moment-matched normal tail P(Z > y), Z ~ N(mu, sigma^2).

    The plain uncorrected form is the reference baseline; the half-integer
    correction is available for exploration only.
    """
    point = float(y) + (0.5 if continuity_correction else 0.0)
    return normal_tail(float(m.mu), float(m.sigma_sq), point)
