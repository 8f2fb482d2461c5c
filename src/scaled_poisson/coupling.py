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
collapse to R convolutions.  _law_classes lists the class tables of every
law here.  Each leave-one-out law is the bare table of weighted_sum's one
stride convolution, the float law of W comes from its one builder, and the
exhaustive check's laws are exact integer numerators over one denominator.

Exact computations are pure.  The Monte Carlo check draws each side's tally
by value as one multinomial over that side's law, in O(support) whatever the
sample count, so results are a deterministic function of (seed, samples).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum

import numpy as np

from .bernoulli_lattice import BernoulliScheme, _capped_class_pmfs, scheme_moments
from .errors import ValidationError
from .poisson_core import _regularized_gamma_pq, poisson_tail
from .stein_lattice import SteinContext, SteinSolutionTable, _solved_for, solve_stein
from .weighted_sum import (
    LatticeDistribution,
    SumMoments,
    _convolve_classes,
    _lattice_law,
    _poisson_pmf_vector,
)

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

# The exhaustive check's cost rule: R laws of R convolutions each over tables
# of M* + 1 entries, so R^2 * M*; and the points of the law of W.
_EXHAUSTIVE_COST = 800
_EXHAUSTIVE_POINTS = 100_000


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


def _class_deltas(scheme: BernoulliScheme, m: SumMoments | None = None) -> tuple[Fraction, ...]:
    """delta_r = b_r M* p_r / mu, the law of the size-biased index's class (exact).

    mu comes from the scheme itself; moments m, when given, must agree with its
    mu and sigma^2, and so with its k.
    """
    mu, sigma_sq = scheme_moments(scheme)
    if m is not None and (m.mu, m.sigma_sq) != (mu, sigma_sq):
        raise ValidationError("moments do not match the Bernoulli scheme")
    m_star = scheme.trials_per_class
    return tuple(
        Fraction(b) * m_star * p / mu for p, b in zip(scheme.class_probs, scheme.replication)
    )


def delta_distribution(scheme: BernoulliScheme, m: SumMoments) -> DeltaDistribution:
    n, mm = m.k_num, m.k_den
    deltas = _class_deltas(scheme, m)
    support = [mm] + [mm - n * b for b in scheme.replication]
    probs = [sum((d * p for d, p in zip(deltas, scheme.class_probs)), Fraction(0))]
    probs += [d * (1 - p) for d, p in zip(deltas, scheme.class_probs)]
    return DeltaDistribution(support=tuple(support), probs=tuple(probs), delta_bounds=deltas)


def _law_classes(full: list, reduced: list) -> list[list]:
    """The classes of the law of W, then per class r of the law with one
    class-r trial removed, from one (pmf, b_r) table per class for M* (full)
    and M* - 1 (reduced) trials."""
    return [full] + [[reduced[r]] + full[:r] + full[r + 1 :] for r in range(len(full))]


def _numerator_tables(scheme: BernoulliScheme, trials: int) -> list[tuple[np.ndarray, int]]:
    """(pmf of Binomial(trials, p_r) times d^trials, b_r) per class, for p_r =
    u/d in lowest terms: C(trials, a) u^a (d-u)^(trials-a), an object array
    of ints."""
    tables = []
    for p, b in zip(scheme.class_probs, scheme.replication):
        u, d = p.numerator, p.denominator
        pmf = [math.comb(trials, a) * u**a * (d - u) ** (trials - a) for a in range(trials + 1)]
        tables.append((np.array(pmf, dtype=object), b))
    return tables


def size_bias_check_exact(scheme: BernoulliScheme, f, m: SumMoments) -> tuple[float, float]:
    """Both sides of lam*m*E[f(n W^s)] = E[n W f(n W)] over the exact laws.

    The law of W and the R leave-one-trial-out laws are integer numerators
    over prod_r d_r^M* (one d_r less without a class-r trial), p_r = u_r/d_r,
    each probability their correctly rounded int / int.  Instances past
    R^2*M* = 800, or with a law of W past 100,000 points, are refused with a
    pointer to the sampling variant.
    """
    m_star = scheme.trials_per_class
    n = m.k_num
    cost = scheme.class_count**2 * m_star
    points = 1 + m_star * sum(scheme.replication)
    if cost > _EXHAUSTIVE_COST or points > _EXHAUSTIVE_POINTS:
        raise ValidationError(
            f"exhaustive check needs R^2*M* <= {_EXHAUSTIVE_COST} and a law of W of at most "
            f"{_EXHAUSTIVE_POINTS} points, got {cost} and {points} points; use size_bias_sample"
        )
    tables = _law_classes(_numerator_tables(scheme, m_star), _numerator_tables(scheme, m_star - 1))
    w_law, *loo = (_convolve_classes(classes) for classes in tables)
    dens = [p.denominator for p in scheme.class_probs]
    den = math.prod(dens) ** m_star
    rhs = fsum(
        num / den * (n * w) * float(f(n * w)) for w, num in enumerate(w_law.tolist()) if num
    )
    lhs_terms = []
    dens_loo = (den // d for d in dens)
    for delta_r, lr, b_r, den_r in zip(_class_deltas(scheme, m), loo, scheme.replication, dens_loo):
        e_r = fsum(num / den_r * float(f(n * (w + b_r))) for w, num in enumerate(lr.tolist()) if num)
        lhs_terms.append(float(delta_r) * e_r)
    lhs = float(m.lambda_m) * fsum(lhs_terms)
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


@functools.lru_cache(maxsize=1)
def _tables(scheme: BernoulliScheme, cap: float) -> tuple[LatticeDistribution, tuple]:
    """The laws of _law_classes from the capped float tables of
    Binomial(M*, p_r) and Binomial(M* - 1, p_r), each upper tail within
    cap / R: W's LatticeDistribution, equal to w_distribution(scheme, cap),
    and the leave-one-out laws as bare tables from W = 0, with no deficit.

    Built once for consecutive calls on the same (scheme, cap), as the
    checks of one command make; they share the laws, whose tables are
    read-only.
    """
    if not 0.0 <= cap < 1.0:
        raise ValidationError(f"cap must be in [0, 1), got {cap!r}")
    m_star, budget = scheme.trials_per_class, cap / scheme.class_count
    (full, cut), (reduced, _) = (_capped_class_pmfs(scheme, t, budget) for t in (m_star, m_star - 1))
    w_law = _lattice_law(full, cut)
    # the top class's law strides by the top weight first, so each later
    # stride holds a temporary that wide: built first, it meets only W's law
    loo = tuple(map(_convolve_classes, _law_classes(full, reduced)[:0:-1]))[::-1]
    for lr in loo:
        lr.flags.writeable = False
    return w_law, loo


def _count_sums(counts: np.ndarray, values) -> tuple[float, float]:
    """(sum, sum of squares) over the samples tallied in counts, where counts[v]
    samples take the value v and values(support) maps distinct values to
    each sample's term."""
    support = np.flatnonzero(counts)
    c = counts[support].astype(float)
    vals = values(support)
    return float(np.dot(c, vals)), float(np.dot(c, vals**2))


def _integer(value, what: str) -> int:
    """value as an int; one that is not integral (1.5, nan, inf, "7") is a
    ValidationError, where int() would truncate it or raise something else."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return n


def size_bias_sample(scheme: BernoulliScheme, f, samples: int, seed: int) -> SizeBiasSample:
    """Monte Carlo estimates of both sides of the coupling identity.

    Each side's samples are i.i.d. draws from its law, so their tally by
    value is one multinomial draw over that law.  W is drawn from the law
    of W.  W^s draws the index class r with probability delta_r (the flat
    index within a class is exchangeable, so only the class matters) and
    forces that copy-group to one: in class block r it is b_r plus a draw
    from the leave-one-out law of class r.  Both are the capped laws of
    _tables (upper tails within 1e-250 overall); the mass a law drops lands
    on its last entry.  The two sides are drawn separately, so they are
    independent.  The cost is O(support), whatever the sample count, and f
    runs once over the distinct values.

    Deterministic given (seed, samples): every draw comes from one
    generator seeded with seed, in a fixed order.
    """
    n_samples, seed = _integer(samples, "samples"), _integer(seed, "seed")
    if n_samples < 10_000:
        raise ValidationError("use at least 1e4 samples for a meaningful standard error")
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    w_law, loo = _tables(scheme, 1e-250)
    deltas = np.array([float(d) for d in _class_deltas(scheme)])
    # lattice constants from the scheme's exact moments
    mu_q, s2_q = scheme_moments(scheme)
    n = (mu_q / s2_q).numerator
    lam_m = float(n * mu_q)

    g = np.random.default_rng(seed)
    tally_w = g.multinomial(n_samples, w_law.probs)
    # largest value W^s can take, plus one
    top = max(b + lr.size for lr, b in zip(loo, scheme.replication))
    tally_s = np.zeros(top, dtype=np.int64)
    blocks = g.multinomial(n_samples, deltas).tolist()
    for picked, lr, b in zip(blocks, loo, scheme.replication):
        tally_s[b : b + lr.size] += g.multinomial(picked, lr)
    sum_l, sumsq_l = _count_sums(tally_s, lambda v: lam_m * _apply(f, n * v))
    sum_r, sumsq_r = _count_sums(tally_w, lambda v: (n * v) * _apply(f, n * v))
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


def conditional_delta_bound(
    scheme: BernoulliScheme, m: SumMoments, w: int, cap: float = 1e-250
) -> list[tuple[float, Fraction]]:
    """Pairs (P[Delta = m - n*b_r | W = w], delta_r) for every class.

    The joint probability comes from the leave-one-trial-out laws:
    P(Delta = m - n*b_r, W = w) = delta_r (1 - p_r) P(W_without_one_r = w).
    Each conditional is bounded by delta_r.
    """
    w = int(w)
    w_law, loo = _tables(scheme, cap)
    p_w = w_law.pmf(w)
    if p_w <= 0.0:
        raise ValidationError(f"P(W = {w}) is zero; conditional undefined")
    out = []
    for lr, p, delta_r in zip(loo, scheme.class_probs, _class_deltas(scheme, m)):
        # w >= 0 as P(W = w) > 0; W's law reaches past the end of lr
        joint = float(delta_r) * (1.0 - float(p)) * (float(lr[w]) if w < lr.size else 0.0)
        out.append((joint / p_w, delta_r))
    return out


@dataclass(frozen=True)
class HDecomposition:
    """H_0..H_R plus the tail difference they must reproduce."""

    H: tuple[float, ...]
    tail_diff: float
    closure_error: float


def _table_w_needed(m: SumMoments, support: int, replication) -> int:
    """The largest w at which h_decomposition reads the Stein table: f at
    n*W + m and n*W + n*b_r, for W up to the W law's support."""
    return m.k_num * support + max(m.k_den, m.k_num * max(replication))


def _stein_table(scheme: BernoulliScheme, m: SumMoments, ctx: SteinContext) -> SteinSolutionTable:
    """The Stein table, with off-lattice points, that h_decomposition reads
    for scheme at cap 1e-250: to _table_w_needed at W's support, at least
    solve_stein's m*(y + 10), and one m more.  One past int64 indexing at
    support 0 is refused before any law is built."""
    floor = m.k_den * (ctx.threshold_y + 10)

    def w_max(support: int) -> int:
        return max(_table_w_needed(m, support, scheme.replication), floor) + m.k_den

    if (points := w_max(0) + 1) > 2**63 - 1:
        raise ValidationError(
            f"the Stein table spans at least {points} points (m = {m.k_den}, n = {m.k_num}), "
            "past int64 indexing"
        )
    w_law, _ = _tables(scheme, 1e-250)
    return solve_stein(ctx, w_max(w_law.support_max), include_off_lattice=True)


def _stein_deltas(
    scheme: BernoulliScheme, m: SumMoments, ctx: SteinContext, table: SteinSolutionTable
) -> tuple[Fraction, ...]:
    """The class deltas of scheme, once m is its moments, ctx the Stein problem
    of m and table solved for ctx; ValidationError otherwise."""
    if (ctx.lam, ctx.lattice_step, ctx.scale_num) != (m.lam, m.k_den, m.k_num):
        raise ValidationError("Stein context does not match the model's moments")
    _solved_for(ctx, table)
    return _class_deltas(scheme, m)


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
    accumulated float rounding.  W's support and tail are read from its
    lattice law.
    """
    n, mm = m.k_num, m.k_den
    deltas = _stein_deltas(scheme, m, ctx, table)
    w_law, loo = _tables(scheme, cap)
    support = w_law.support_max
    needed = _table_w_needed(m, support, scheme.replication)
    if table.w_max < needed:
        raise ValidationError(
            f"solution table covers w <= {table.w_max}, need {needed}; rebuild with larger w_max"
        )
    if not table.has_off_lattice and mm > 1:
        raise ValidationError("h_decomposition needs a table with off-lattice points")

    lam_m = float(m.lambda_m)

    nw = n * np.arange(support + 1)
    f_nw = table.values[nw]
    f_shift_m = table.values[nw + mm]

    # padded holds class r's leave-one-out law at offset b.  Delta = m: the
    # drawn index's trial was already one, so W = b_r + (W without it), read
    # at padded[:support + 1].  Delta = m - n*b_r: the trial was flipped, so
    # W = (W without it), read at padded[b:].
    h0_terms = np.zeros(support + 1)
    h_r = []
    for p, b, delta_r, lr in zip(scheme.class_probs, scheme.replication, deltas, loo):
        padded = np.zeros(b + support + 1)
        padded[b : b + min(lr.size, support + 1)] = lr[: support + 1]
        h0_terms += float(delta_r * p) * padded[: support + 1]
        f_shift_b = table.values[nw + n * b]
        joint = float(delta_r * (1 - p))
        h_r.append(lam_m * float(np.dot(f_shift_m - f_shift_b, joint * padded[b:])))
    h_values = [lam_m * float(np.dot(f_shift_m - f_nw, h0_terms)), *h_r]

    w_tail = w_law.tail(Fraction(ctx.threshold_point, n), strict=False)[0]  # nW >= my
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
    _stein_deltas(scheme, m, ctx, table)
    mm = ctx.lattice_step
    my = ctx.threshold_point
    p_ge = table.tail_at_threshold

    def g_clamped(arg: int) -> float:
        a = min(arg, my)
        if a < mm:
            return 0.0
        return (table.f(a) - table.f(a + l)) / p_ge

    w_law, _ = _tables(scheme, cap)
    n = m.k_num
    lhs = fsum(
        float(pw) * g_clamped(n * w) for w, pw in enumerate(w_law.probs.tolist()) if pw > 0.0
    )
    rate = float(ctx.lam)
    tail, below = _regularized_gamma_pq(ctx.threshold_y, rate)
    pmf = _poisson_pmf_vector(rate, ctx.threshold_y - 1, below)
    terms = [p * g_clamped(mm * j) for j, p in enumerate(pmf.tolist())]
    terms.append(tail * g_clamped(my))
    rhs = fsum(terms)
    ratio = lhs / rhs if rhs != 0.0 else math.inf
    return GExpectationRatio(lhs=lhs, rhs=rhs, ratio=ratio)
