"""Weighted sums of independent Poisson variables and their tail approximations.

The model is S = sum_r b_r * A(nu_r) with strictly increasing positive integer
weights b_r and positive rational rates nu_r.  Moments are kept as exact
rationals so the scale k = mu/sigma^2 = n/m is produced by integer gcd, never
by float rationalization; the lattice constants (n, m) downstream depend on
that exactness.

The exact law of S (the ground-truth oracle for every experiment) is a
truncated convolution over the integer lattice with a certified mass deficit.
The mode-anchored class table, the stride convolution, the compensated tail
sum and the integer threshold rule defined here are shared by every lattice
law in the package.  All types are immutable values; operations are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, _within_budget
from .poisson_core import _regularized_gamma_pq, normal_tail, poisson_tail

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
        # sigma^2 bounds mu, lam and every rate, so one check covers them all
        try:
            float(sum((Fraction(b * b) * v for b, v in zip(ws, rs)), Fraction(0)))
        except OverflowError:
            raise ValidationError("sigma^2 = sum b_r^2 nu_r is past the float range") from None
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


def moments(model: WeightedPoissonSum) -> SumMoments:
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


# Entries per block of the compensated running sum: its scratch buffers hold
# one block each, so a table of any length needs no input-sized temporary.
_BLOCK = 8192


def _running_sums(x: np.ndarray, out: np.ndarray | None = None) -> float:
    """Compensated running sums of x in order, out[i] = sum(x[: i + 1]), each
    within one ulp of exact; returns the total.  x must be empty (total 0.0)
    or start with a nonzero entry.

    A running sum that adds strictly in order (np.add.accumulate, which is
    np.cumsum without its Python wrapper), the exact rounding error of every
    step by TwoSum, and the running sum of those errors added back.  The sums
    run through blocks of _BLOCK entries: each block's running sum is seeded
    with the previous block's raw running sum and its error sum with the
    previous block's error sum, so every addition is the one a single pass
    over x makes, in the same order, and the sums are bit for bit those of
    one pass.  Two block-sized buffers are the only scratch: a block's sums
    are written into out and finished there, all but the last, which seeds
    the next block.  With out None only the total is kept, and a third
    block-sized window holds the running sums.
    """
    n = x.size
    if n == 0:
        return 0.0
    b = min(n, _BLOCK + 1)
    window = np.empty(b) if out is None else None
    virt, err = np.empty(b - 1), np.empty(b)
    # block [a, b): w[j] is the raw running sum at a - 1 + j, err[j] its error sum
    a, w = 1, (out if window is None else window)[:b]
    err[0] = 0.0
    np.add.accumulate(x[:b], out=w)
    while True:
        k = b - a
        prev, cur = w[:k], w[1:]
        v = np.subtract(cur, prev, out=virt[:k])
        e = np.subtract(cur, v, out=err[1 : k + 1])
        np.subtract(prev, e, out=e)
        np.subtract(x[a:b], v, out=v)
        e += v
        np.add.accumulate(err[: k + 1], out=err[: k + 1])
        if window is None:
            prev += err[:k]
        if b == n:
            break
        err[0] = err[k]
        a, b = b, min(b + _BLOCK, n)
        if window is None:
            w = out[a - 1 : b]
        else:
            window[0] = w[-1]
            w = window[: b - a + 1]
        w[1:] = x[a:b]
        np.add.accumulate(w, out=w)
    total = float(w[-1] + err[k])
    if window is None:
        out[n - 1] = total
    return total


def _nonzero_span(probs: np.ndarray) -> tuple[int, int]:
    """[lo, hi): from the first nonzero entry of probs to its last, (n, n)
    if none is; the two end entries are tested first, so a table with no
    zero end costs O(1), and the scan otherwise reads a block at a time."""
    if probs.size == 0 or (probs[0] and probs[-1]):
        return 0, probs.size

    def first(x):
        for a in range(0, x.size, _BLOCK):
            hit = np.flatnonzero(x[a : a + _BLOCK])
            if hit.size:
                return a + int(hit[0])
        return x.size

    lo = first(probs)
    return lo, probs.size - first(probs[lo:][::-1])


def _suffix_sums(probs: np.ndarray) -> np.ndarray:
    """suffix[t] = sum(probs[t:]) for every t in [0, len(probs)], each within
    one ulp of exact; the last entry is the empty sum 0.0.

    The compensated running sum of _running_sums from the top index down,
    written straight into the one output array, which is the only
    input-sized array made.  Adding an exact 0.0 leaves both the running sum
    and its error term unchanged, so the sums over the nonzero entries alone
    are the sums over the whole table, bit for bit, at every nonzero entry.
    So a table with a zero at either end (a binomial table's underflowed
    tail) is summed from its first nonzero entry to its last only: the
    suffixes above that span read 0.0, and those below repeat its total.
    """
    lo, hi = _nonzero_span(probs)
    n = probs.size
    # acc[j] = suffix[n - j], so the running sum writes it in order
    acc = np.empty(n + 1)
    acc[: n - hi + 1] = 0.0
    _running_sums(probs[lo:hi][::-1], acc[n - hi + 1 : n - lo + 1])
    if lo:
        acc[n - lo + 1 :] = acc[n - lo]
    return acc[::-1]


def _compensated_total(probs: np.ndarray) -> float:
    """_suffix_sums(probs)[0], bit for bit, with no suffix array."""
    lo, hi = _nonzero_span(probs)
    return _running_sums(probs[lo:hi][::-1])


def _mode_table(num: np.ndarray, den: np.ndarray, mode: int, mass: float) -> np.ndarray:
    """pmf(0..len(num)) of the law with pmf(j) / pmf(j-1) = num[j-1] / den[j-1],
    scaled to hold ``mass`` in all.

    1.0 at the mode and cumulative ratio products outward both ways, after
    Loader (2000), "Fast and Accurate Computation of Binomial Probabilities".
    With mode the law's mode, or the table end nearest it, every ratio taken
    away from it is at most 1: nothing overflows, no anchor pmf is computed,
    and entries far out underflow to exact zeros.  One scale by the
    compensated total, taken with no suffix array, sets the mass.
    """
    out = np.empty(num.size + 1)
    out[mode] = 1.0
    np.multiply.accumulate(num[mode:] / den[mode:], out=out[mode + 1 :])
    np.multiply.accumulate(den[:mode][::-1] / num[:mode][::-1], out=out[:mode][::-1])
    out *= mass / _compensated_total(out)
    return out


def _poisson_pmf_vector(rate: float, n: int, mass: float) -> np.ndarray:
    """pmf(0..n) of Poisson(rate), given its mass P(A_rate <= n)."""
    return _mode_table(np.full(n, rate), np.arange(1.0, n + 1.0), min(int(rate), n), mass)


# eq=False: a generated == or hash() would raise on the array fields, so
# tables compare by identity.
@dataclass(frozen=True, eq=False, init=False)
class LatticeDistribution:
    """Probability law on {0, 1, ..., support_max} with a certified deficit.

    Entries never exceed the true pmf by more than float rounding; the missing
    mass is at most ``mass_deficit``, so any tail query can be bracketed as
    [p, p + mass_deficit].  Entries must be finite and not below -1e-15; the
    deficit must be a nonnegative float, and an infinite deficit is accepted
    as the valid but vacuous bracket [p, inf].

    The law is held as its nonzero entries, however it was built:
    ``_points`` their ascending indices, ``_values`` their values, and
    ``_sums`` the compensated suffix sums of those values (one more entry,
    the empty sum 0.0), built once, when the law is made.  Every query reads
    only these and the table size, so a tail is a binary search and a
    lookup, and zero entries cost nothing.  The dense table ``probs`` is
    derived, however the law was built: its entries are scattered into a
    new read-only table on the first read only, and the caller's array is
    neither kept nor changed.
    """

    mass_deficit: float
    _size: int = field(repr=False)
    _points: np.ndarray = field(repr=False)
    _values: np.ndarray = field(repr=False)
    _sums: np.ndarray = field(repr=False)

    def __init__(self, probs, mass_deficit: float):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("probs must be a nonempty 1-d array")
        # no bool mask beside the table: with one, the heap holes a freed table
        # leaves raised the peak RSS of repeated dense builds by ~0.17 MB
        points = np.flatnonzero(p)
        self._set_entries(p.size, points, p[points], mass_deficit)

    @classmethod
    def _from_entries(
        cls, size: int, points: np.ndarray, values: np.ndarray, mass_deficit: float
    ) -> "LatticeDistribution":
        """The law on {0, ..., size - 1} whose nonzero entries are values at
        the ascending indices points; no dense table is written."""
        law = cls.__new__(cls)
        law._set_entries(size, points, values, mass_deficit)
        return law

    def _set_entries(self, size: int, points: np.ndarray, values: np.ndarray, mass_deficit) -> None:
        # zeros are always valid, and NaN and inf are nonzero, so checking the
        # entries checks the table: min and max carry a NaN through, and an
        # infinite entry reaches one of them
        if values.size:
            lo, hi = float(values.min()), float(values.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError("probability table has a non-finite entry")
            if lo < -1e-15:
                raise ValidationError("probability table has a negative entry")
        deficit = float(mass_deficit)
        if not deficit >= 0.0:
            raise ValidationError(f"mass_deficit must be >= 0, got {mass_deficit!r}")
        object.__setattr__(self, "mass_deficit", deficit)
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_points", points)
        # built eagerly: beside the block scratch of _suffix_sums, the tail
        # sums are the one array the law adds to its entries
        object.__setattr__(self, "_sums", _suffix_sums(values))
        # set last, so freed last: a law frees its arrays in the order they
        # were set, and freeing _sums before _values lets the next wide build
        # reuse the freed heap (225 minor page faults per build, 354 if not)
        object.__setattr__(self, "_values", values)

    @functools.cached_property
    def probs(self) -> np.ndarray:
        """The dense read-only table, pmf(0..support_max)."""
        p = np.zeros(_within_budget("the law's dense table", self._size))
        p[self._points] = self._values
        p.flags.writeable = False
        return p

    @property
    def support_max(self) -> int:
        return self._size - 1

    def total_mass(self) -> float:
        return float(_tail_sums(self, 0))

    def pmf(self, j: int) -> float:
        if not 0 <= j < self._size:
            return 0.0
        i = int(np.searchsorted(self._points, j))
        return float(self._values[i]) if i < self._points.size and self._points[i] == j else 0.0

    def mean(self) -> float:
        # a zero entry adds an exact 0 to the sum, so the entries alone give it
        return fsum((self._points * self._values).tolist())

    def tail(self, y, strict: bool = True) -> tuple[float, float]:
        """Bracketing interval for P(X > y) (strict) or P(X >= y).

        y may be rational; the integer threshold is resolved exactly.
        """
        lo = float(_tail_sums(self, _threshold(y, strict)))
        return (lo, lo + self.mass_deficit)


def _tail_sums(dist: LatticeDistribution, thresholds) -> np.ndarray:
    """sum(dist.probs[t:]) at each integer threshold t (an int or an integer
    array): at or below 0 the total, past the table the empty sum 0.0.

    The sum at t is that from the first nonzero entry at or above t.  The
    clamp to [0, size] runs on Python ints, so a threshold beyond int64 reads
    0.0 too.
    """
    t = np.minimum(np.maximum(thresholds, 0, dtype=object), dist._size, dtype=object)
    return dist._sums[np.searchsorted(dist._points, np.asarray(t, dtype=np.int64))]


def _truncation_point(rate: float, tail_budget: float) -> tuple[int, float]:
    """The first n on the growth schedule with P(A_rate > n) < tail_budget,
    and that dropped tail mass."""
    n = int(math.ceil(rate + 10.0 * math.sqrt(rate) + 20.0))
    what = f"the Poisson table at rate {rate:.17g}"
    while (dropped := poisson_tail(rate, _within_budget(what, n + 1, 32))) >= tail_budget:
        n = int(math.ceil(n * 1.25)) + 10
    return n, dropped


def _stride_convolve(acc: np.ndarray, pmf: np.ndarray, b: int) -> np.ndarray:
    """Law of X + b*Y from the pmf of X (acc) and the pmf of Y, for integer b >= 1.

    Entry i of acc only reaches outputs congruent to i mod b, so no stride-b
    array of zeros is ever multiplied.  Either each residue class of acc is
    convolved with pmf on its own (one np.convolve when b == 1), or one
    shifted slice is added per pmf entry, whichever makes fewer calls:
    min(b, len(acc), len(pmf)) in all.  The law keeps the common dtype of
    its inputs, so object arrays of Fractions convolve exactly.
    """
    size = _within_budget("the convolved law", acc.size + b * (pmf.size - 1))
    out = np.zeros(size, dtype=np.result_type(acc, pmf))
    if min(b, acc.size) <= pmf.size:
        for c in range(min(b, acc.size)):
            out[c::b] = np.convolve(acc[c::b], pmf)
    else:
        for j, pj in enumerate(pmf.tolist()):
            out[j * b : j * b + acc.size] += pj * acc
    return out


def _convolve_classes(classes: Iterable[tuple[np.ndarray, int]]) -> np.ndarray:
    """Law of sum_r b_r X_r from (pmf of X_r, b_r) pairs, in the given order,
    in the tables' dtype: float tables give the float law, Fraction the exact."""
    acc = np.ones(1, dtype=np.int64)
    for pmf, b in classes:
        acc = _stride_convolve(acc, pmf, b)
    return acc


def _lattice_law(classes: list[tuple[np.ndarray, int]], dropped) -> LatticeDistribution:
    """Every lattice law: sum_r b_r X_r from the (pmf of X_r, b_r) tables, in
    the given order, with dropped[r] the mass cut from table r (None: uncut).

    Cut tables missing t_r miss 1 - prod(1 - t_r) <= sum t_r of unit mass, so
    the deficit is that sum rounded up, and exactly 0.0 if no table was cut.
    The classes before the last are convolved into one dense table.  When
    the last weight b is at least its length, the last class's blocks
    j*b + [0, length) do not overlap, and each entry is the one product
    pmf_last(j) * lower(i) the stride would write there: only the nonzero
    products are formed, bit for bit the dense stride's law without its gap
    zeros; unless a product underflowed, the law's points, values and tail
    sums are the only arrays as long as its entries that it makes.
    Otherwise the last class is strided densely too.  A law past int64
    indexing is refused.
    """
    cut = [t for t in dropped if t is not None]
    deficit = math.nextafter(fsum(cut), math.inf) if cut else 0.0
    *lower, (top, b) = classes
    acc = _convolve_classes(lower)
    if b < acc.size:
        return LatticeDistribution(probs=_stride_convolve(acc, top, b), mass_deficit=deficit)
    size = acc.size + b * (top.size - 1)
    if size > np.iinfo(np.int64).max:
        raise ValidationError(f"the law spans {size} lattice points, past int64 indexing")
    nz = (acc != 0).nonzero()[0]
    _within_budget("the law's entries", top.size * nz.size, 32)
    values = np.outer(top, acc[nz]).ravel()
    points = (np.arange(top.size)[:, None] * b + nz).ravel()
    # products that underflowed are zero entries of the dense law too; the
    # mask and the gather that drop them copy both arrays, so they are made
    # only if one did
    if np.count_nonzero(values) < values.size:
        keep = values != 0
        points, values = points[keep], values[keep]
    return LatticeDistribution._from_entries(size, points, values, deficit)


def exact_distribution(model: WeightedPoissonSum, epsilon: float = 1e-12) -> LatticeDistribution:
    """Exact law of S from Poisson tables, each truncated at a quantile
    leaving tail mass t_r < epsilon/R, so the deficit is <= epsilon."""
    eps = float(epsilon)
    if not (0.0 < eps <= 1e-3):
        raise ValidationError(f"epsilon must be in (0, 1e-3], got {epsilon!r}")
    budget = eps / model.class_count
    if not budget > 0.0:
        raise ValidationError(
            f"per-class budget epsilon/R = {epsilon!r}/{model.class_count} rounds to 0"
        )
    classes, dropped = [], []
    for b, nu in zip(model.weights, model.rates):
        rate = float(nu)
        n, tail = _truncation_point(rate, budget)
        classes.append((_poisson_pmf_vector(rate, n, 1.0 - tail), b))
        dropped.append(tail)
    return _lattice_law(classes, dropped)


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
    regularized gamma, summed directly where it is small; a k*y past the
    float range reads 0, one that rounds to 0 reads 1.  The two modes agree
    only approximately; both are exposed and neither is canonical.
    """
    yq = Fraction(y)
    if yq <= 0:
        raise ValidationError("y must be positive")
    ky = m.k * yq
    if mode == "discrete":
        return poisson_tail(float(m.lam), _threshold(ky, strict))
    if mode == "continuous":
        return _regularized_gamma_pq(ky, float(m.lam))[0]
    raise ValidationError(f"mode must be 'discrete' or 'continuous', got {mode!r}")


def normal_approx_tail(m: SumMoments, y, continuity_correction: bool = False) -> float:
    """Moment-matched normal tail P(Z > y), Z ~ N(mu, sigma^2).

    The plain uncorrected form is the reference baseline; the half-integer
    correction is available for exploration only.  The point reaches
    normal_tail exact, so one past the float range reads 0 or 1.
    """
    point = y + Fraction(1, 2) if continuity_correction else y
    return normal_tail(float(m.mu), float(m.sigma_sq), point)
