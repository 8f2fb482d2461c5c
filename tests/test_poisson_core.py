import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaled_poisson import (
    NumericalRangeError,
    ValidationError,
    normal_tail,
    poisson_cdf,
    poisson_log_pmf,
    poisson_pmf,
    poisson_tail,
    regularized_gamma_q,
)
from scaled_poisson.poisson_core import _regularized_gamma_pq

from oracles import mp_gamma_q, mp_normal_tail, mp_poisson_pmf, mp_poisson_tail

RATES = [Fraction(1, 2), Fraction(1), Fraction(9, 5), Fraction(1600, 31)]


class TestLogPmf:
    def test_at_zero_is_minus_rate(self):
        assert poisson_log_pmf(1, 0) == -1.0

    def test_frozen_value_rate_9_5_count_2(self):
        # log(0.5 * 1.8^2 * e^-1.8), high-precision reference
        assert poisson_log_pmf(Fraction(9, 5), 2) == pytest.approx(
            -1.317573850755707293, rel=1e-14
        )

    def test_matches_normalized_table_entry(self):
        # brute-force 200-term pmf table, normalized to its own mass
        rate = Fraction(1600, 31)
        table = [float(mp_poisson_pmf(rate, j)) for j in range(200)]
        total = sum(table)
        assert total == pytest.approx(1.0, abs=1e-15)
        got = math.exp(poisson_log_pmf(rate, 51))
        assert got == pytest.approx(table[51] / total, rel=1e-12)

    def test_always_nonpositive_and_roundtrip(self):
        for rate in RATES:
            for j in range(0, 120, 7):
                lp = poisson_log_pmf(rate, j)
                assert lp <= 0.0
                p = math.exp(lp)
                assert 0.0 <= p <= 1.0
                if p > 1e-300:
                    assert math.log(p) == pytest.approx(lp, rel=1e-14, abs=1e-13)

    @given(
        rate=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(200), max_denominator=97),
        j=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_step_recurrence(self, rate, j):
        # rate * pmf(j-1) = j * pmf(j)
        lhs = float(rate) * poisson_pmf(rate, j - 1)
        rhs = j * poisson_pmf(rate, j)
        if rhs > 1e-290:
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_recurrence_identity_on_stated_grid(self):
        # full accuracy holds down to the subnormal boundary; below ~1e-290
        # the linear-scale values themselves degrade
        for rate in RATES:
            for j in range(1, 201):
                lhs = float(rate) * poisson_pmf(rate, j - 1)
                rhs = j * poisson_pmf(rate, j)
                if rhs > 1e-290:
                    assert abs(lhs / rhs - 1) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            poisson_log_pmf(0, 1)
        with pytest.raises(ValidationError):
            poisson_log_pmf(-2.0, 1)
        with pytest.raises(ValidationError):
            poisson_log_pmf(1.0, -1)


class TestTail:
    def test_full_support(self):
        assert poisson_tail(1, 0) == 1.0

    def test_frozen_two_term_value(self):
        # 1 - e^-1.8 (1 + 1.8)
        assert poisson_tail(Fraction(9, 5), 2) == pytest.approx(
            0.53716311297955769277, rel=1e-13
        )

    def test_deep_tail_against_brute_force(self):
        got = poisson_tail(Fraction(1600, 31), 100)
        assert 0 < got < 1e-8
        assert got == pytest.approx(1.5738514959986450403e-9, rel=1e-10)

    def test_extreme_tail_keeps_relative_accuracy(self):
        got = poisson_tail(2.0, 150)
        ref = mp_poisson_tail(2.0, 150)
        assert got == pytest.approx(ref, rel=1e-12)
        assert got < 1e-100

    def test_complement_identity(self):
        for rate in RATES:
            top = int(5 * float(rate)) + 1
            for t in range(0, top):
                total = poisson_tail(rate, t) + poisson_cdf(rate, t - 1)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_against_mpmath_grid(self):
        for rate in RATES:
            for t in [1, 2, 5, 17, 60, 103]:
                assert poisson_tail(rate, t) == pytest.approx(
                    mp_poisson_tail(rate, t), rel=1e-12
                )

    def test_summation_side_handover(self):
        # thresholds straddling the rate exercise both summation directions
        for rate in (30.0, Fraction(1600, 31), 200.0):
            r = float(rate)
            for t in range(int(r) - 3, int(r) + 4):
                assert poisson_tail(rate, t) == pytest.approx(
                    mp_poisson_tail(rate, t), rel=1e-12
                )


class TestRegularizedGammaQ:
    def test_shape_one_is_exp(self):
        assert regularized_gamma_q(1, 1) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_frozen_q_2_1(self):
        assert regularized_gamma_q(2, 1) == pytest.approx(0.73575888234288464319, rel=1e-12)

    def test_poisson_cdf_identity(self):
        # Q(n, lam) = P(A_lam <= n - 1)
        for lam in [0.5, 1.0, 1.8, 51.612903225806448]:
            for n in range(1, 151, 7):
                q = regularized_gamma_q(n, lam)
                assert q == pytest.approx(poisson_cdf(lam, n - 1), abs=1e-10, rel=1e-10)

    def test_against_mpmath_grid(self):
        for a in [0.3, 1.0, 2.5, 7.0, 58.064516129032256, 140.0]:
            for x in [0.05, 0.7, 1.0, 3.9, 51.612903225806448, 200.0]:
                assert regularized_gamma_q(a, x) == pytest.approx(
                    mp_gamma_q(a, x), rel=1e-10
                )

    def test_switch_line_band(self):
        # both algorithm branches must agree with the reference around the
        # series/continued-fraction handover at shape = rate_point + 1
        for a in [1.5, 5.0, 20.0, 80.0]:
            for dx in [-1.5, -1.0, -0.5, -0.01, 0.0, 0.01, 0.5, 1.0, 1.5]:
                x = a + dx
                if x <= 0:
                    continue
                assert regularized_gamma_q(a, x) == pytest.approx(
                    mp_gamma_q(a, x), rel=1e-10
                )

    def test_continuous_discrete_gap_is_small_at_bench_point(self):
        # shape = k*450 = 1800/31; the relaxation and the discrete tail agree
        # approximately, not exactly
        q = regularized_gamma_q(1800 / 31, 1600 / 31)
        assert abs((1 - q) - (1 - poisson_cdf(Fraction(1600, 31), 58))) < 0.05
        # under the integer alignment Q(n, lam) = P(A <= n-1), the nearest
        # discrete counterpart of Q(ky, lam) is P(A <= ceil(ky) - 1)
        assert abs(q - poisson_cdf(Fraction(1600, 31), 57)) < 0.02

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            regularized_gamma_q(0, 1)
        with pytest.raises(ValidationError):
            regularized_gamma_q(1, 0)


# The kernel's relative error is that of its prefactor's log,
# -x + a*log(x) - lgamma(a + 1), whose terms sum to S = x + |a log x| +
# lgamma(a + 1) in magnitude: about eps * S, which grows with the rate and,
# in the deep tails, with a.  Each point is held to the larger of its rate's
# bound, set near the mean, and eps * S.
GRID_BOUNDS = {
    Fraction(1, 10): 1e-14,
    Fraction(1): 1e-14,
    Fraction(1600, 31): 3e-13,
    Fraction(100): 3e-13,
    Fraction(800): 2e-12,
    Fraction(5000): 2e-11,
}
GRID_D = [-30, -8, -3, -1, -0.5, 0, 0.5, 1, 3, 8, 30, 60]
# thresholds whose upper tail is about 1e-100, 1e-200 and 1e-300, and for the
# two largest rates, lower tails P(A <= t - 1) of about 1e-100 and 1e-300
DEEP = {
    Fraction(1, 10): [44, 80, 113],
    Fraction(1): [69, 120, 166],
    Fraction(1600, 31): [269, 393, 499],
    Fraction(100): [379, 531, 660],
    Fraction(800): [27, 281, 1473, 1796, 2057],
    Fraction(5000): [2622, 3574, 6578, 7283, 7839],
}
_MP_FLOOR = mp.mpf("1e-300")


def _grid(rate):
    lam = float(rate)
    ts = {max(1, math.ceil(lam + d * math.sqrt(lam))) for d in GRID_D}
    # the band (lam, lam + 1], summed by the continued fraction
    return sorted(ts | {math.floor(lam) + 1} | set(DEEP[rate]))


def _bound(rate, a) -> float:
    x = float(rate)
    return max(GRID_BOUNDS[rate], 2.0**-52 * (x + abs(a * math.log(x)) + math.lgamma(a + 1)))


def _assert_close(got, truth, rate, a):
    """got within _bound(rate, a) of an mpmath truth at or above 1e-300."""
    if truth >= _MP_FLOOR:
        assert abs(got / truth - 1) <= _bound(rate, a), (rate, a, got, truth)


class TestKernelAgainstMpmath:
    """poisson_tail, poisson_cdf, the continuous kernel and the log-pmf
    against 50-digit mpmath over rates 0.1 .. 5000, tails down to 1e-300."""

    @pytest.mark.parametrize("rate", list(GRID_BOUNDS))
    def test_tail_and_cdf(self, rate):
        with mp.workdps(50):
            lam = mp.mpf(rate.numerator) / rate.denominator
            for t in _grid(rate):
                p = mp.gammainc(t, 0, lam, regularized=True)
                q = mp.gammainc(t, lam, mp.inf, regularized=True)
                _assert_close(poisson_tail(rate, t), p, rate, t)
                _assert_close(poisson_cdf(rate, t - 1), q, rate, t)

    @pytest.mark.parametrize("rate", list(GRID_BOUNDS))
    def test_continuous_shapes(self, rate):
        # real shapes a = t - 1/2, both sides of the pair
        x = float(rate)
        with mp.workdps(50):
            for t in _grid(rate):
                a = t - 0.5
                p, q = _regularized_gamma_pq(a, x)
                _assert_close(p, mp.gammainc(a, 0, x, regularized=True), rate, a)
                _assert_close(q, mp.gammainc(a, x, mp.inf, regularized=True), rate, a)

    @pytest.mark.parametrize("rate", list(GRID_BOUNDS))
    def test_log_pmf(self, rate):
        # the pmf's relative error is the log-pmf's absolute error
        with mp.workdps(50):
            lam = mp.mpf(rate.numerator) / rate.denominator
            for t in _grid(rate):
                truth = -lam + t * mp.log(lam) - mp.loggamma(t + 1)
                if mp.exp(truth) >= _MP_FLOOR:
                    assert abs(poisson_log_pmf(rate, t) - truth) <= _bound(rate, t), (rate, t)

    @pytest.mark.parametrize("rate", [Fraction(1), Fraction(1600, 31), Fraction(100), Fraction(800)])
    def test_branch_rule(self, rate):
        # Q is summed, and P is one minus it, on and right of a = x + 1;
        # P is summed left of it
        x = float(rate)
        for a in [x + 0.25, x + 0.5, x + 0.75, x + 1.0, math.floor(x) + 1.0]:
            p, q = _regularized_gamma_pq(a, x)
            assert p == 1.0 - q, a
        for a in [x + 1.25, x + 1.5, x + 2.0, x + 3.0]:
            p, q = _regularized_gamma_pq(a, x)
            assert q == 1.0 - p, a


class TestPastTheFloatRange:
    def test_tail_and_cdf_read_0_and_1(self):
        for t in (10**306, 10**309, 10**400):
            assert poisson_tail(1.0, t) == 0.0
            assert poisson_cdf(1.0, t) == 1.0
            assert poisson_tail(Fraction(1600, 31), t) == 0.0

    def test_kernel_at_shape_0_and_past_the_float_range(self):
        assert _regularized_gamma_pq(0.0, 51.6) == (1.0, 0.0)
        assert _regularized_gamma_pq(Fraction(1, 10**400), 0.5) == (1.0, 0.0)
        assert _regularized_gamma_pq(Fraction(10**400, 3), 51.6) == (0.0, 1.0)
        assert _regularized_gamma_pq(1e306, 1e300) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "rate, count, expected",
        [
            (1.0, 10**400, -math.inf),
            (1e306, 10**400, -math.inf),
            (1.0, 10**309, -math.inf),
            # log-gamma overflows where the log-pmf may be finite: about -353
            # at rate = count = 1e306
            (1.0, 10**306, NumericalRangeError),
            (1e306, 10**306, NumericalRangeError),
            (1.7e308, int(2.54e305), NumericalRangeError),  # count * log(rate) overflows
        ],
    )
    def test_log_pmf_at_huge_counts(self, rate, count, expected):
        if expected is NumericalRangeError:
            with pytest.raises(NumericalRangeError):
                poisson_log_pmf(rate, count)
            with pytest.raises(NumericalRangeError):
                poisson_pmf(rate, count)
        else:
            assert poisson_log_pmf(rate, count) == expected
            assert poisson_pmf(rate, count) == 0.0

    def test_normal_tail_reads_0_and_1(self):
        assert normal_tail(0, 1, 10**400) == 0.0
        assert normal_tail(0, 1, -(10**400)) == 1.0
        assert normal_tail(400, 3100, Fraction(10**400, 3)) == 0.0


class TestNormalTail:
    def test_symmetry_at_mean(self):
        assert normal_tail(0, 1, 0) == 0.5
        assert normal_tail(400, 3100, 400) == 0.5

    def test_frozen_quantile(self):
        assert normal_tail(0, 1, 1.959964) == pytest.approx(0.025, abs=1e-6)

    def test_against_mpmath(self):
        for z in [-8.0, -3.2, -1.0, 0.3, 2.5, 5.0, 8.0]:
            assert normal_tail(0.0, 1.0, z) == pytest.approx(
                mp_normal_tail(0, 1, z), rel=1e-12
            )

    def test_scaling(self):
        assert normal_tail(400, 3100, 455.67764362830022) == pytest.approx(
            0.15865525393145705, rel=1e-12
        )

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            normal_tail(0, 0, 1)
