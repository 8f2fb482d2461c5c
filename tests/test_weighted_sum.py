import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaled_poisson import (
    ValidationError,
    WeightedPoissonSum,
    exact_distribution,
    exact_tail,
    moments,
    normal_approx_tail,
    normalize_weights,
    poisson_tail,
    scaled_poisson_tail,
)

from scaled_poisson.weighted_sum import _stride_convolve

from oracles import enumerate_weighted_sum_pmf, exact_suffix_sums, panjer_tail

WIDE_MODEL = WeightedPoissonSum((1, 100, 10000), (Fraction(5), Fraction(3), Fraction(1)))


class TestNormalizeWeights:
    def test_integer_weights_pass_through(self):
        model, b = normalize_weights([1, 10], [100, 30])
        assert model.weights == (1, 10)
        assert model.rates == (Fraction(100), Fraction(30))
        assert b == 1

    def test_rational_weights_cleared(self):
        model, b = normalize_weights([Fraction(1, 2), Fraction(3, 2)], [1, 1])
        assert b == 2
        assert model.weights == (1, 3)
        assert model.rates == (Fraction(1), Fraction(1))

    def test_duplicate_weights_merged(self):
        model, b = normalize_weights([2, 2], [1, 3])
        assert model.weights == (2,)
        assert model.rates == (Fraction(4),)
        assert b == 1

    def test_unsorted_input_sorted(self):
        model, _ = normalize_weights([5, 2], [1, 7])
        assert model.weights == (2, 5)
        assert model.rates == (Fraction(7), Fraction(1))

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValidationError):
            normalize_weights([], [])
        with pytest.raises(ValidationError):
            normalize_weights([0, 1], [1, 1])
        with pytest.raises(ValidationError):
            normalize_weights([1, 2], [1, -1])

    def test_direct_constructor_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            WeightedPoissonSum((2, 2), (Fraction(1), Fraction(1)))


class TestMoments:
    def test_bench_values_exact(self, bench_model):
        m = moments(bench_model)
        assert m.mu == 400
        assert m.sigma_sq == 3100
        assert (m.k_num, m.k_den) == (4, 31)
        assert m.lam == Fraction(1600, 31)

    def test_single_class(self):
        m = moments(WeightedPoissonSum((1,), (Fraction(7, 2),)))
        assert m.mu == m.sigma_sq == Fraction(7, 2)
        assert (m.k_num, m.k_den) == (1, 1)
        assert m.lam == Fraction(7, 2)

    def test_small_model(self, small_model):
        m = moments(small_model)
        assert (m.mu, m.sigma_sq) == (3, 5)
        assert (m.k_num, m.k_den) == (3, 5)
        assert m.lam == Fraction(9, 5)

    def test_k_in_lowest_terms_random(self):
        rng = random.Random(20240811)
        for _ in range(50):
            r = rng.randint(1, 4)
            weights = sorted(rng.sample(range(1, 21), r))
            rates = [Fraction(rng.randint(1, 200), rng.randint(1, 4)) for _ in range(r)]
            model, _ = normalize_weights(weights, rates)
            m = moments(model)
            assert math.gcd(m.k_num, m.k_den) == 1
            assert Fraction(m.k_num, m.k_den) == m.mu / m.sigma_sq

    def test_moment_matching_of_scaled_poisson(self):
        # mean of (1/k) A(k mu) is (1/k)(k mu) = mu; variance (1/k^2)(k mu)
        # = mu/k = sigma^2, both exact rational identities
        rng = random.Random(7)
        for _ in range(50):
            r = rng.randint(1, 4)
            weights = sorted(rng.sample(range(1, 21), r))
            rates = [Fraction(rng.randint(1, 50)) for _ in range(r)]
            model, _ = normalize_weights(weights, rates)
            m = moments(model)
            k = Fraction(m.k_num, m.k_den)
            assert m.lam / k == m.mu
            assert m.lam / (k * k) == m.sigma_sq


class TestExactDistribution:
    def test_pmf_at_zero(self, small_model):
        dist = exact_distribution(small_model, 1e-12)
        assert dist.pmf(0) == pytest.approx(math.exp(-2), rel=1e-13)

    def test_tail_at_two(self, small_model):
        dist = exact_distribution(small_model, 1e-12)
        lo, hi = dist.tail(2, strict=False)
        assert lo == pytest.approx(1 - 2 * math.exp(-2), rel=1e-12)
        assert hi - lo <= 1e-12

    def test_bench_pmf_zero_is_exp_minus_130(self, bench_model):
        dist = exact_distribution(bench_model, 1e-12)
        assert math.log(dist.pmf(0)) == pytest.approx(-130.0, rel=1e-12)

    def test_against_double_loop_enumeration(self, small_model):
        # truncated supports <= 30, literal nested enumeration
        dist = exact_distribution(small_model, 1e-12)
        law = enumerate_weighted_sum_pmf((1, 2), (1, 1), (30, 30))
        for v, p in law.items():
            assert abs(dist.pmf(v) - p) < 1e-13

    def test_three_class_model_against_enumeration(self):
        model = WeightedPoissonSum((1, 2, 5), (Fraction(1, 2), Fraction(1), Fraction(3, 2)))
        dist = exact_distribution(model, 1e-12)
        law = enumerate_weighted_sum_pmf(
            (1, 2, 5), (Fraction(1, 2), 1, Fraction(3, 2)), (20, 20, 20)
        )
        checked = 0
        for v, p in law.items():
            if p > 1e-12:  # enumeration boxes truncate tighter than the library
                assert dist.pmf(v) == pytest.approx(p, rel=1e-10)
                checked += 1
        assert checked > 50

    def test_mass_deficit_certified(self, bench_model):
        for eps in (1e-6, 1e-12):
            dist = exact_distribution(bench_model, eps)
            assert 0.0 <= dist.mass_deficit <= eps
            assert dist.total_mass() == pytest.approx(1.0, abs=2 * eps + 1e-13)

    @pytest.mark.parametrize(
        "weights, rates",
        [((1, 10), (100, 30)), ((1, 2, 5), (Fraction(1, 2), Fraction(1), Fraction(3, 2)))],
    )
    def test_bracket_holds_panjer_truth_at_truncation_edge(self, weights, rates):
        model = WeightedPoissonSum(weights, tuple(Fraction(v) for v in rates))
        dist = exact_distribution(model, 1e-12)
        top = dist.support_max
        queries = [(top - 1, True), (top, True), (top, False)]
        if weights == (1, 10):
            queries.append((1250, True))  # truth 4.2e-32; the table holds 5.0e-45
        for y, strict in queries:
            lo, hi = dist.tail(y, strict=strict)
            truth = panjer_tail(weights, rates, y, strict)
            assert lo <= truth <= hi, (y, strict, lo, truth, hi)

    def test_deficit_is_the_dropped_class_mass(self, bench_model):
        # class tails P(A_100 > 220) and P(A_30 > 105), summed and rounded up
        dist = exact_distribution(bench_model, 1e-12)
        dropped = math.fsum([poisson_tail(100, 221), poisson_tail(30, 106)])
        assert dist.mass_deficit == math.nextafter(dropped, math.inf)
        assert 1.3e-25 < dist.mass_deficit < 1.5e-25

    def test_epsilon_validation(self, small_model):
        with pytest.raises(ValidationError):
            exact_distribution(small_model, 0.0)
        with pytest.raises(ValidationError):
            exact_distribution(small_model, 1e-2)


@given(
    b=st.integers(min_value=1, max_value=64),
    n_acc=st.integers(min_value=1, max_value=80),
    n_pmf=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_property_stride_convolve_matches_zero_filled_convolve(b, n_acc, n_pmf, seed):
    rng = np.random.default_rng(seed)
    acc = rng.random(n_acc)
    pmf = rng.random(n_pmf)
    strided = np.zeros(b * (n_pmf - 1) + 1)
    strided[::b] = pmf
    want = np.convolve(acc, strided)
    got = _stride_convolve(acc, pmf, b)
    assert got.shape == want.shape
    # Same rounded products, summed in another order: each order of n
    # positive terms is within (n - 1) eps of the exact sum.
    terms = min(n_acc, n_pmf)
    eps = np.finfo(float).eps
    np.testing.assert_allclose(got, want, rtol=2 * terms * eps, atol=0.0)


class TestSuffixSums:
    @pytest.mark.parametrize(
        "model_name,epsilon",
        [("bench", 1e-12), ("bench", 1e-300), ("wide", 1e-12)],
    )
    def test_every_tail_within_two_ulp_of_fsum(self, bench_model, model_name, epsilon):
        model = bench_model if model_name == "bench" else WIDE_MODEL
        dist = exact_distribution(model, epsilon)
        probs = dist.probs.tolist()
        exact = np.array(exact_suffix_sums(probs))
        for t in (0, len(probs) // 3, len(probs) - 2):
            assert exact[t] == math.fsum(probs[t:])
        got = np.array([dist.tail(t, strict=False)[0] for t in range(len(probs))])
        assert np.all(np.abs(got - exact) <= 2 * np.spacing(exact))
        assert dist.total_mass() == exact[0]
        if epsilon < 1e-200:
            assert exact[exact > 0].min() < 1e-300

    def test_table_is_read_only(self, small_model):
        # tails are read from a sum built once, so the table cannot change
        dist = exact_distribution(small_model, 1e-12)
        with pytest.raises(ValueError):
            dist.probs[0] = 0.0

    def test_tables_compare_by_identity_and_hash(self, small_model):
        a = exact_distribution(small_model, 1e-12)
        b = exact_distribution(small_model, 1e-12)
        assert np.array_equal(a.probs, b.probs)
        assert a == a
        assert a != b
        assert len({a, b}) == 2

    def test_wide_weights_against_enumeration(self):
        # weights 1, 1000, 100000 decompose every y uniquely inside the box
        weights, rates = (1, 1000, 100000), (5, 3, 1)
        model = WeightedPoissonSum(weights, tuple(Fraction(r) for r in rates))
        dist = exact_distribution(model, 1e-12)
        law = enumerate_weighted_sum_pmf(weights, rates, (47, 40, 31))
        for j in [(0, 0, 0), (5, 3, 1), (47, 0, 0), (12, 40, 2), (40, 35, 25), (3, 7, 31)]:
            y = sum(b * v for b, v in zip(weights, j))
            assert dist.pmf(y) == pytest.approx(law[y], rel=1e-12)
        for y in (999, 1999, 99999):
            assert dist.pmf(y) == 0.0
        for y in (0, 5, 3005, 100000, 204003, 600000, 1_500_000):
            tail = math.fsum(p for v, p in law.items() if v > y)
            lo, hi = dist.tail(y, strict=True)
            assert lo == pytest.approx(tail, rel=1e-12)
            assert hi - lo <= 1e-12


class TestExactTail:
    def test_thresholds_past_int64_read_the_table_ends(self, small_model):
        # the clamp runs on Python ints: a y far past the support is a 0.0
        # tail, one far below it the total, not an overflow
        dist = exact_distribution(small_model, 1e-12)
        assert dist.tail(10**30) == (0.0, dist.mass_deficit)
        assert dist.tail(Fraction(-(10**30)), strict=False)[0] == dist.total_mass()
        assert dist.tail(dist.support_max) == (0.0, dist.mass_deficit)
        assert exact_tail(small_model, Fraction(10**40, 3)) == (0.0, dist.mass_deficit)

    def test_nonstrict_at_zero_is_one(self, small_model):
        lo, hi = exact_tail(small_model, 0, strict=False)
        assert hi >= 1.0 - 1e-12 and lo <= 1.0

    def test_strict_at_one(self, small_model):
        lo, hi = exact_tail(small_model, 1, strict=True)
        assert lo == pytest.approx(1 - 2 * math.exp(-2), rel=1e-12)

    def test_interval_width(self, bench_model):
        dist = exact_distribution(bench_model, 1e-12)
        lo, hi = exact_tail(bench_model, 500, strict=True, dist=dist)
        assert 0 < lo < 1 and hi - lo <= 2e-12

    def test_scale_invariance(self):
        # P(S > y) = P(B S > B y) for the denominator-cleared model
        raw_w = [Fraction(1, 2), Fraction(3, 2)]
        rates = [Fraction(2), Fraction(3)]
        model, b = normalize_weights(raw_w, rates)
        assert b == 2
        # S' = 2S with S = A(2)/2 + 3 A(3)/2; P(S > 4) = P(S' > 8)
        direct = enumerate_weighted_sum_pmf((1, 3), (2, 3), (40, 40))
        p_direct = sum(p for v, p in direct.items() if v > 8)
        lo, hi = exact_tail(model, 8, strict=True)
        assert lo == pytest.approx(p_direct, rel=1e-10)

    def test_k_scales_by_B(self):
        raw_w = [Fraction(1, 2), Fraction(3, 2)]
        rates = [Fraction(2), Fraction(3)]
        mu_raw = sum(w * v for w, v in zip(raw_w, rates))
        s2_raw = sum(w * w * v for w, v in zip(raw_w, rates))
        k_raw = mu_raw / s2_raw
        model, b = normalize_weights(raw_w, rates)
        m = moments(model)
        assert Fraction(m.k_num, m.k_den) * b == k_raw


class TestScaledPoissonTail:
    def test_single_class_is_exact(self):
        model = WeightedPoissonSum((1,), (Fraction(7, 2),))
        m = moments(model)
        dist = exact_distribution(model, 1e-12)
        for y in range(0, 18):
            approx = scaled_poisson_tail(m, y, mode="discrete", strict=False) if y else 1.0
            lo, hi = dist.tail(y, strict=False)
            assert abs(approx - lo) <= 2e-12

    def test_bench_y400_discrete(self, bench_moments):
        # k*400 = lam exactly, strict threshold 52
        got = scaled_poisson_tail(bench_moments, 400, mode="discrete", strict=True)
        assert got == pytest.approx(poisson_tail(Fraction(1600, 31), 52), rel=1e-14)
        assert got == pytest.approx(0.4969921847705825107, rel=1e-12)

    def test_bench_y450_continuous(self, bench_moments):
        got = scaled_poisson_tail(bench_moments, 450, mode="continuous")
        assert got == pytest.approx(0.2015638999712903264, rel=1e-10)
        discrete = scaled_poisson_tail(bench_moments, 450, mode="discrete", strict=True)
        assert abs(got - discrete) < 0.05

    @pytest.mark.parametrize("y", [500, 700, 900, 1250])
    def test_continuous_against_mpmath_far_tail(self, bench_moments, y):
        # P(k*y, lam) is summed on its own side: one minus the upper gamma
        # loses every digit there (it read 0 at y = 1250)
        ky, lam = bench_moments.k * y, bench_moments.lam
        truth = mp.gammainc(
            mp.mpf(ky.numerator) / ky.denominator,
            0,
            mp.mpf(lam.numerator) / lam.denominator,
            regularized=True,
        )
        got = scaled_poisson_tail(bench_moments, y, mode="continuous")
        assert abs(got - truth) <= 1e-12 * truth

    def test_strict_vs_nonstrict_thresholds(self, bench_moments):
        # at y = 403, k y = 52 exactly: strict uses 53, non-strict uses 52
        strict = scaled_poisson_tail(bench_moments, 403, mode="discrete", strict=True)
        nonstrict = scaled_poisson_tail(bench_moments, 403, mode="discrete", strict=False)
        lam = Fraction(1600, 31)
        assert strict == pytest.approx(poisson_tail(lam, 53), rel=1e-14)
        assert nonstrict == pytest.approx(poisson_tail(lam, 52), rel=1e-14)

    def test_mode_validation(self, bench_moments):
        with pytest.raises(ValidationError):
            scaled_poisson_tail(bench_moments, 10, mode="other")


class TestNormalApprox:
    def test_half_at_mean(self, bench_moments):
        assert normal_approx_tail(bench_moments, 400) == 0.5

    def test_one_sigma(self, bench_moments):
        y = 400 + math.sqrt(3100)
        assert normal_approx_tail(bench_moments, y) == pytest.approx(
            0.15865525393145705, rel=1e-12
        )

    def test_bench_y600(self, bench_moments):
        assert normal_approx_tail(bench_moments, 600) == pytest.approx(
            0.00016400815750676422, rel=1e-12
        )

    def test_continuity_correction_option(self, bench_moments):
        plain = normal_approx_tail(bench_moments, 500)
        corrected = normal_approx_tail(bench_moments, 500, continuity_correction=True)
        assert corrected < plain


@given(
    r=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_property_normalize_then_moments_consistent(r, data):
    weights = data.draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 4), max_value=Fraction(8), max_denominator=4),
            min_size=r,
            max_size=r,
            unique=True,
        )
    )
    rates = data.draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 3), max_value=Fraction(30), max_denominator=6),
            min_size=r,
            max_size=r,
        )
    )
    model, b = normalize_weights(weights, rates)
    m = moments(model)
    mu_raw = sum(w * v for w, v in zip(weights, rates))
    assert m.mu == b * mu_raw
    assert math.gcd(m.k_num, m.k_den) == 1
