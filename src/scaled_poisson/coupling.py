"""Size-bias coupling for W and the exact H-decomposition of the tail gap.

The coupled variable picks an index I with P(I = i) = p_i / mu, forces the
whole copy-group of I to one, and keeps the other trials; it satisfies

    lam * m * E[f(n W^s)] = E[n W f(n W)].

The increment Delta = n*W + m - n*W^s lands on {m} union {m - n*b_r}; writing
the Stein identity under the coupling and conditioning on Delta splits

    P(n W >= m y) - P(m A_lam >= m y) = H_0 + H_1 + ... + H_R,

which this module evaluates exactly (desk-scale supports make exact summation
over the joint law of (W, Delta) feasible, so the decomposition doubles as a
crisp numerical identity check).  Leave-one-trial-out laws are reused once per
class: all copies inside a class are exchangeable, so the N* per-index terms
collapse to R convolutions.

Exact computations are pure; Monte Carlo sampling splits its budget across
spawned child generators with a fixed merge order, so results are a
deterministic function of (seed, samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum

import numpy as np

from .bernoulli_lattice import (
    BernoulliScheme,
    _capped_class_pmfs,
    scheme_moments,
    w_distribution,
)
from .errors import ValidationError
from .poisson_core import _poisson_pmf_vector, poisson_tail
from .stein_lattice import SteinContext, SteinSolutionTable
from .weighted_sum import SumMoments, _convolve_classes, _suffix_sums, _threshold

__all__ = [
    "DeltaDistribution",
    "HDecomposition",
    "delta_distribution",
    "size_bias_check_exact",
    "size_bias_sample",
    "SizeBiasSample",
    "conditional_delta_bound",
    "h_decomposition",
    "g_expectation_ratio",
]

_EXHAUSTIVE_LIMIT = 20


@dataclass(frozen=True)
class DeltaDistribution:
    """Law of Delta = n*W + m - n*W^s, exact rationals.

    support[0] = m (the index's trial was already one); support[1 + r] =
    m - n*b_r (class r trial flipped to one).  delta_bounds are the
    conditional ceilings delta_r = b_r nu_r / mu.
    """

    support: tuple[int, ...]
    probs: tuple[Fraction, ...]
    delta_bounds: tuple[Fraction, ...]

    def __post_init__(self):
        if sum(self.probs, Fraction(0)) != 1:
            raise ValidationError("Delta probabilities must sum to 1 exactly")
        if sum(self.delta_bounds, Fraction(0)) != 1:
            raise ValidationError("delta_r must sum to 1 exactly")


def delta_distribution(scheme: BernoulliScheme, m: SumMoments) -> DeltaDistribution:
    n, mm = m.k_num, m.k_den
    m_star = scheme.trials_per_class
    mu = m.mu
    p_same = sum(
        (Fraction(b) * m_star * p * p for p, b in zip(scheme.class_probs, scheme.replication)),
        Fraction(0),
    ) / mu
    support = [mm]
    probs = [p_same]
    bounds = []
    for p, b in zip(scheme.class_probs, scheme.replication):
        support.append(mm - n * b)
        probs.append(Fraction(b) * m_star * p * (1 - p) / mu)
        bounds.append(Fraction(b) * m_star * p / mu)
    return DeltaDistribution(
        support=tuple(support), probs=tuple(probs), delta_bounds=tuple(bounds)
    )


def _enumerate_w_law(class_trials: list[tuple[int, Fraction, int]]) -> dict[int, Fraction]:
    """Exact law of sum_r b_r * (successes among the listed trials).

    Enumerates every one of the 2^(total trials) outcome configurations; the
    per-configuration probability is read off cached power tables, which is
    plain arithmetic reuse, not a distributional shortcut.
    """
    counts = [c for c, _, _ in class_trials]
    total = sum(counts)
    if total > _EXHAUSTIVE_LIMIT:
        raise ValidationError(
            f"{total} trials is too large to enumerate exhaustively "
            f"(limit {_EXHAUSTIVE_LIMIT}); use size_bias_sample instead"
        )
    pow_tables = []
    for c, p, _ in class_trials:
        pow_tables.append([p**a * (1 - p) ** (c - a) for a in range(c + 1)])
    offsets = []
    start = 0
    for c, _, _ in class_trials:
        offsets.append((start, (1 << c) - 1))
        start += c
    law: dict[int, Fraction] = {}
    for config in range(1 << total):
        w = 0
        prob = Fraction(1)
        for (shift, mask), (c, p, b), table in zip(offsets, class_trials, pow_tables):
            a = ((config >> shift) & mask).bit_count()
            w += b * a
            prob *= table[a]
        law[w] = law.get(w, Fraction(0)) + prob
    return law


def size_bias_check_exact(scheme: BernoulliScheme, f, m: SumMoments) -> tuple[float, float]:
    """Both sides of lam*m*E[f(n W^s)] = E[n W f(n W)] by exhaustive enumeration.

    Feasible only for R * M* <= 20 underlying trials; larger instances are
    refused with a pointer to the sampling variant.
    """
    m_star = scheme.trials_per_class
    n = m.k_num
    lam_m = m.lambda_m
    full = [(m_star, p, b) for p, b in zip(scheme.class_probs, scheme.replication)]
    if m_star * scheme.class_count > _EXHAUSTIVE_LIMIT:
        raise ValidationError(
            f"exhaustive check needs R*M* <= {_EXHAUSTIVE_LIMIT}, got "
            f"{m_star * scheme.class_count}; use size_bias_sample"
        )
    w_law = _enumerate_w_law(full)
    rhs = fsum(float(prob) * (n * w) * float(f(n * w)) for w, prob in sorted(w_law.items()))

    deltas = [Fraction(b) * m_star * p / m.mu for p, b in zip(scheme.class_probs, scheme.replication)]
    lhs_terms = []
    for r, (p_r, b_r) in enumerate(zip(scheme.class_probs, scheme.replication)):
        reduced = [
            (m_star - 1 if s == r else m_star, p, b)
            for s, (p, b) in enumerate(zip(scheme.class_probs, scheme.replication))
        ]
        loo_law = _enumerate_w_law(reduced)
        e_r = fsum(
            float(prob) * float(f(n * (w + b_r))) for w, prob in sorted(loo_law.items())
        )
        lhs_terms.append(float(deltas[r]) * e_r)
    lhs = float(lam_m) * fsum(lhs_terms)
    return lhs, rhs


@dataclass(frozen=True)
class SizeBiasSample:
    lhs: float
    rhs: float
    stderr_lhs: float
    stderr_rhs: float


def _apply(f, arr: np.ndarray) -> np.ndarray:
    """f over arr, whole-array when f accepts arrays, else per element.

    Only the errors a scalar-only f raises on an array fall back; any other
    error inside f propagates.
    """
    try:
        out = np.asarray(f(arr), dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is not None and out.shape == arr.shape:
        return out
    return np.asarray([float(f(v)) for v in arr.tolist()], dtype=float)


def size_bias_sample(
    scheme: BernoulliScheme, f, samples: int, seed: int, chunk: int = 250_000
) -> SizeBiasSample:
    """Monte Carlo estimates of both sides of the coupling identity.

    Each sample draws the index class with probability delta_r (the flat
    index within a class is exchangeable, so only the class matters), forces
    that copy-group to one by replacing its binomial with 1 + Binomial(M*-1),
    and keeps every other class independent.  Deterministic given
    (seed, samples): the budget is split into fixed-size chunks, each drawn
    from a spawned child generator, and merged in index order.
    """
    n_samples = int(samples)
    if n_samples < 10_000:
        raise ValidationError("use at least 1e4 samples for a meaningful standard error")
    m_star = scheme.trials_per_class
    probs = [float(p) for p in scheme.class_probs]
    weights = list(scheme.replication)
    mu = sum(b * m_star * p for b, p in zip(weights, probs))
    deltas = np.array([b * m_star * p / mu for b, p in zip(weights, probs)])
    deltas /= deltas.sum()
    # lattice constants from the scheme's exact moments
    mu_q, s2_q = scheme_moments(scheme)
    k = mu_q / s2_q
    n = k.numerator
    lam_m = float(k * mu_q * k.denominator)

    root = np.random.default_rng(seed)
    n_chunks = (n_samples + chunk - 1) // chunk
    children = root.spawn(n_chunks)
    sum_l = sumsq_l = 0.0
    sum_r = sumsq_r = 0.0
    done = 0
    for g in children:
        size = min(chunk, n_samples - done)
        done += size
        w = np.zeros(size, dtype=np.int64)
        ws = np.zeros(size, dtype=np.int64)
        idx = g.choice(len(weights), size=size, p=deltas)
        for r, (b, p) in enumerate(zip(weights, probs)):
            w += b * g.binomial(m_star, p, size=size)
            base = g.binomial(m_star, p, size=size)
            loo = g.binomial(m_star - 1, p, size=size) if m_star > 1 else np.zeros(size, dtype=np.int64)
            picked = idx == r
            ws += b * np.where(picked, loo + 1, base)
        vals_l = lam_m * _apply(f, n * ws)
        vals_r = (n * w) * _apply(f, n * w)
        sum_l += float(vals_l.sum())
        sumsq_l += float((vals_l**2).sum())
        sum_r += float(vals_r.sum())
        sumsq_r += float((vals_r**2).sum())
    mean_l = sum_l / n_samples
    mean_r = sum_r / n_samples
    var_l = max(0.0, sumsq_l / n_samples - mean_l**2)
    var_r = max(0.0, sumsq_r / n_samples - mean_r**2)
    return SizeBiasSample(
        lhs=mean_l,
        rhs=mean_r,
        stderr_lhs=math.sqrt(var_l / n_samples),
        stderr_rhs=math.sqrt(var_r / n_samples),
    )


def _leave_one_out_laws(scheme: BernoulliScheme, cap: float):
    """(law of W, per-class laws of W with one class-r trial removed)."""
    m_star = scheme.trials_per_class
    budget = cap / scheme.class_count
    full, _ = _capped_class_pmfs(scheme, m_star, budget)
    reduced, _ = _capped_class_pmfs(scheme, m_star - 1, budget)
    w_law = _convolve_classes(full)
    loo = [
        _convolve_classes([reduced[r]] + full[:r] + full[r + 1 :])
        for r in range(scheme.class_count)
    ]
    return w_law, loo


def conditional_delta_bound(
    scheme: BernoulliScheme, m: SumMoments, w: int, cap: float = 1e-250
) -> list[tuple[float, Fraction]]:
    """Pairs (P[Delta = m - n*b_r | W = w], delta_r) for every class.

    The joint probability comes from the leave-one-trial-out laws:
    P(Delta = m - n*b_r, W = w) = delta_r (1 - p_r) P(W_without_one_r = w).
    Each conditional is bounded by delta_r.
    """
    w = int(w)
    w_law, loo = _leave_one_out_laws(scheme, cap)
    p_w = float(w_law[w]) if 0 <= w < w_law.size else 0.0
    if p_w <= 0.0:
        raise ValidationError(f"P(W = {w}) is zero; conditional undefined")
    out = []
    for r, (p, b) in enumerate(zip(scheme.class_probs, scheme.replication)):
        delta_r = Fraction(b) * scheme.trials_per_class * p / m.mu
        p_loo = float(loo[r][w]) if 0 <= w < loo[r].size else 0.0
        joint = float(delta_r) * (1.0 - float(p)) * p_loo
        out.append((joint / p_w, delta_r))
    return out


@dataclass(frozen=True)
class HDecomposition:
    """H_0..H_R plus the tail difference they must reproduce."""

    H: tuple[float, ...]
    tail_diff: float
    closure_error: float


def h_decomposition(
    scheme: BernoulliScheme,
    m: SumMoments,
    ctx: SteinContext,
    table: SteinSolutionTable,
    cap: float = 1e-250,
) -> HDecomposition:
    """Exact H-terms from the joint law of (W, Delta) and the solution table.

    H_0 = lam*m*E[(f(nW+m) - f(nW)) 1{Delta=m}] and H_r likewise with the
    shift n*b_r; their sum must equal P(nW >= my) - P(A_lam >= y) up to
    accumulated float rounding.
    """
    n, mm = m.k_num, m.k_den
    if ctx.lam != m.lam or ctx.lattice_step != mm or ctx.scale_num != n:
        raise ValidationError("Stein context does not match the model's moments")
    w_law, loo = _leave_one_out_laws(scheme, cap)
    support = w_law.size - 1
    needed = n * support + max(mm, n * max(scheme.replication))
    if table.w_max < needed:
        raise ValidationError(
            f"solution table covers w <= {table.w_max}, need {needed}; rebuild with larger w_max"
        )
    if not table.has_off_lattice and mm > 1:
        raise ValidationError("h_decomposition needs a table with off-lattice points")

    lam_m = float(m.lambda_m)
    m_star = scheme.trials_per_class
    mu = m.mu

    nw = n * np.arange(support + 1)
    f_nw = table.values[nw]
    f_shift_m = table.values[nw + mm]

    # Delta = m: the drawn index's trial was already one.  Conditional on the
    # draw landing in class r, W = b_r * (1 + trials without that one).
    h0_terms = np.zeros(support + 1)
    for r, (p, b) in enumerate(zip(scheme.class_probs, scheme.replication)):
        c_r = float(Fraction(b) * m_star * p * p / mu)
        shifted = np.zeros(support + 1)
        lr = loo[r]
        hi = min(support + 1, lr.size + b)
        shifted[b:hi] = lr[: hi - b]
        h0_terms += c_r * shifted
    h_values = [lam_m * float(np.dot(f_shift_m - f_nw, h0_terms))]

    for r, (p, b) in enumerate(zip(scheme.class_probs, scheme.replication)):
        joint = float(Fraction(b) * m_star * p * (1 - p) / mu)
        lr = np.zeros(support + 1)
        lr[: min(support + 1, loo[r].size)] = loo[r][: support + 1]
        f_shift_b = table.values[nw + n * b]
        h_values.append(lam_m * float(np.dot(f_shift_m - f_shift_b, joint * lr)))

    threshold = _threshold(Fraction(ctx.threshold_point, n))  # nW >= my
    w_tail = float(_suffix_sums(w_law)[threshold]) if threshold <= support else 0.0
    tail_diff = w_tail - poisson_tail(float(m.lam), ctx.threshold_y)
    closure = abs(fsum(h_values) - tail_diff)
    return HDecomposition(H=tuple(h_values), tail_diff=tail_diff, closure_error=closure)


@dataclass(frozen=True)
class GExpectationRatio:
    lhs: float
    rhs: float
    ratio: float


def g_expectation_ratio(
    scheme: BernoulliScheme,
    m: SumMoments,
    ctx: SteinContext,
    table: SteinSolutionTable,
    l: int,
    cap: float = 1e-250,
) -> GExpectationRatio:
    """E[g_l(nW ^ my)] against E[g_l(mA ^ my)], with g_l := 0 below w = m.

    A recorded diagnostic: the ratio is reported, never asserted against a
    fixed constant.
    """
    if not 1 <= l <= ctx.lattice_step:
        raise ValidationError("l must be in 1..m")
    mm = ctx.lattice_step
    my = ctx.threshold_point
    p_ge = table.tail_at_threshold

    def g_clamped(arg: int) -> float:
        a = min(arg, my)
        if a < mm:
            return 0.0
        return (table.f(a) - table.f(a + l)) / p_ge

    w_law = w_distribution(scheme, epsilon=cap).probs
    n = m.k_num
    lhs = fsum(
        float(pw) * g_clamped(n * w) for w, pw in enumerate(w_law.tolist()) if pw > 0.0
    )
    rate = float(ctx.lam)
    pmf = _poisson_pmf_vector(rate, ctx.threshold_y - 1)
    terms = [p * g_clamped(mm * j) for j, p in enumerate(pmf.tolist())]
    terms.append(poisson_tail(rate, ctx.threshold_y) * g_clamped(my))
    rhs = fsum(terms)
    ratio = lhs / rhs if rhs != 0.0 else math.inf
    return GExpectationRatio(lhs=lhs, rhs=rhs, ratio=ratio)
