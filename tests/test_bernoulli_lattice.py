from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaled_poisson import (
    NumericalRangeError,
    ValidationError,
    WeightedPoissonSum,
    build_scheme,
    default_trials,
    scheme_moments,
    tail_ratio,
    w_distribution,
)
from oracles import enumerate_bernoulli_w, second_order_sum, suffix_sums_dense


class TestBuildScheme:
    def test_small_model_two_trials(self, small_model):
        s = build_scheme(small_model, 2)
        assert s.class_probs == (Fraction(1, 2), Fraction(1, 2))

    def test_bench_thousand_trials(self, bench_model):
        s = build_scheme(bench_model, 1000)
        assert s.class_probs == (Fraction(1, 10), Fraction(3, 100))

    def test_degenerate_probability_one(self):
        model = WeightedPoissonSum((1,), (Fraction(1),))
        s = build_scheme(model, 1)
        assert s.class_probs == (Fraction(1),)
        dist = w_distribution(s)
        assert dist.pmf(1) == 1.0

    def test_rejects_trials_below_max_rate(self, bench_model):
        with pytest.raises(ValidationError, match="100"):
            build_scheme(bench_model, 50)

    def test_default_trials_factor(self, bench_model, small_model):
        assert default_trials(bench_model, 100) == 10000
        assert default_trials(small_model, 50) == 50


class TestSchemeMoments:
    def test_small_model_any_trials(self, small_model):
        for trials in (2, 5, 40):
            assert scheme_moments(build_scheme(small_model, trials)) == (3, 5)

    def test_bench_model(self, bench_model):
        for trials in (100, 1000):
            assert scheme_moments(build_scheme(bench_model, trials)) == (400, 3100)

    def test_single_class(self):
        model = WeightedPoissonSum((1,), (Fraction(9, 2),))
        s = build_scheme(model, 9)
        assert scheme_moments(s) == (Fraction(9, 2), Fraction(9, 2))

    @given(trials=st.integers(min_value=4, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_exact_for_random_trials(self, trials):
        model = WeightedPoissonSum((1, 3), (Fraction(5, 2), Fraction(4)))
        s = build_scheme(model, trials)
        mu, s2 = scheme_moments(s)
        assert mu == Fraction(5, 2) + 3 * 4
        assert s2 == Fraction(5, 2) + 9 * 4

    def test_second_order_sum_shrinks_linearly(self, small_model):
        # sum_i b_i p_i^2 = sum_r b_r^2 nu_r^2 / M*, exact
        for trials in (2, 4, 8, 16):
            s = build_scheme(small_model, trials)
            assert second_order_sum(s) == Fraction(1 + 4, trials)


class TestWDistribution:
    def test_sixteen_outcome_case(self, small_model):
        s = build_scheme(small_model, 2)
        dist = w_distribution(s)
        assert dist.pmf(0) == pytest.approx(1 / 16, rel=1e-14)

    def test_against_full_enumeration(self, small_model):
        s = build_scheme(small_model, 4)
        dist = w_distribution(s)
        law = enumerate_bernoulli_w((1, 2), list(s.class_probs), 4)
        for w, p in sorted(law.items()):
            assert dist.pmf(w) == pytest.approx(float(p), rel=1e-12, abs=1e-15)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_mass_and_mean_bench(self, bench_model):
        s = build_scheme(bench_model, default_trials(bench_model, 50))
        dist = w_distribution(s)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert dist.mean() == pytest.approx(400.0, abs=1e-9)

    def test_capped_variant_tracks_deficit(self, bench_model):
        s = build_scheme(bench_model, default_trials(bench_model, 50))
        capped = w_distribution(s, epsilon=1e-200)
        assert capped.mass_deficit <= 1e-200
        assert capped.support_max < w_distribution(s).support_max

    def test_nan_epsilon_rejected(self, bench_model):
        # NaN fails every comparison, so it must fail the range test too
        s = build_scheme(bench_model, default_trials(bench_model, 50))
        with pytest.raises(ValidationError, match="epsilon"):
            w_distribution(s, epsilon=float("nan"))
        with pytest.raises(ValidationError, match="epsilon"):
            tail_ratio(s, bench_model, 450, cap=float("nan"))


    @pytest.mark.parametrize(
        "weights,rates", [((1, 10), (100, 30)), ((1, 2, 5), (4, 3, 2))], ids=["bench", "r3"]
    )
    @pytest.mark.parametrize("epsilon", [0.0, 1e-250])
    def test_laws_equal_those_of_the_dense_suffix_sums(self, weights, rates, epsilon, monkeypatch):
        # the class tables' totals and caps, and the law's tail sums, are
        # summed over each table's nonzero span; the law is bit for bit the
        # one summed over every entry
        import scaled_poisson.bernoulli_lattice as bernoulli_lattice
        import scaled_poisson.weighted_sum as weighted_sum

        model = WeightedPoissonSum(weights, tuple(Fraction(r) for r in rates))
        scheme = build_scheme(model, default_trials(model, 50))
        law = w_distribution(scheme, epsilon)
        if epsilon == 0.0:
            # the full support, the underflowed top entries included
            assert law.support_max == scheme.trials_per_class * sum(weights)
            assert law.probs[-1] == 0.0
        monkeypatch.setattr(weighted_sum, "_suffix_sums", suffix_sums_dense)
        monkeypatch.setattr(bernoulli_lattice, "_suffix_sums", suffix_sums_dense)
        dense = w_distribution(scheme, epsilon)
        assert law.support_max == dense.support_max
        assert law.mass_deficit == dense.mass_deficit
        for field in ("probs", "_points", "_values", "_sums"):
            assert getattr(law, field).tobytes() == getattr(dense, field).tobytes(), field

    def test_far_apart_weights_take_the_entry_route(self):
        # the top class's blocks lie apart: the law is built from its 9
        # nonzero products, with no dense table, entry for entry the
        # enumerated law
        s = build_scheme(WeightedPoissonSum((1, 1000), (Fraction(1), Fraction(1))), 2)
        dist = w_distribution(s)
        law = enumerate_bernoulli_w((1, 1000), list(s.class_probs), 2)
        assert dist.support_max == 2002
        assert dist._points.tolist() == sorted(law)
        for w, p in law.items():
            assert dist.pmf(w) == pytest.approx(float(p), rel=1e-15), w
        assert dist.mass_deficit == 0.0
        assert "probs" not in vars(dist)

    def test_far_apart_weights_past_int64_refused(self):
        # 2**61 spans 2**62 + 3 points and is built; 2**62 passes int64
        for top, fits in ((2**61, True), (2**62, False)):
            s = build_scheme(WeightedPoissonSum((1, top), (Fraction(1), Fraction(1))), 2)
            if fits:
                assert w_distribution(s, 1e-250).support_max == 2 * top + 2
            else:
                with pytest.raises(ValidationError, match="int64"):
                    w_distribution(s, 1e-250)


class TestTailRatio:
    def test_small_model_midrange(self, small_model):
        s = build_scheme(small_model, 50)
        ratio = tail_ratio(s, small_model, 3)
        assert 0.5 < ratio < 1.5

    def test_closed_form_at_zero(self, small_model):
        import math

        s = build_scheme(small_model, 50)
        ratio = tail_ratio(s, small_model, 0)
        num = 1 - (1 - 1 / 50.0) ** 100  # both classes: (1-p)^(M*), p=1/50
        den = 1 - math.exp(-2.0)
        assert ratio == pytest.approx(num / den, rel=1e-9)

    def test_bench_converges_to_one(self, bench_model):
        devs = []
        for factor in (50, 100, 200):
            s = build_scheme(bench_model, default_trials(bench_model, factor))
            devs.append(abs(tail_ratio(s, bench_model, 450) - 1.0))
        assert devs[1] <= devs[0] * 1.05
        assert devs[2] <= devs[1] * 1.05

    def test_underflow_reported(self, small_model):
        s = build_scheme(small_model, 25)
        with pytest.raises(NumericalRangeError):
            tail_ratio(s, small_model, 200)  # past the certified S support


def _mp_binomial_pmf(trials, p, j):
    import mpmath as mp

    with mp.workdps(40):
        pm = mp.mpf(p.numerator) / p.denominator
        return mp.binomial(trials, j) * pm**j * (1 - pm) ** (trials - j)


class TestBinomialPmfVector:
    @pytest.mark.parametrize(
        "trials,p",
        [
            (5000, Fraction(1, 50)),
            (5000, Fraction(3, 500)),
            (80000, Fraction(1, 100)),
            (8000, Fraction(1, 10)),  # nu = 800: pmf(0) = 0.9^8000 ~ 1e-366
            (50000, Fraction(1, 10)),  # nu = 5000
            (7, Fraction(2, 3)),
        ],
    )
    def test_against_mpmath_at_zero_mode_and_both_tails(self, trials, p):
        import math

        from scaled_poisson.bernoulli_lattice import binomial_pmf_vector

        pmf = binomial_pmf_vector(trials, p)
        assert pmf.size == trials + 1
        mean = trials * p
        sd = math.sqrt(mean * (1 - p))
        mode = math.floor((trials + 1) * p)
        points = {0, 1, mode, trials}
        for z in (-12, -6, -3, 3, 6, 12, 30):
            j = math.floor(mean + z * sd)
            if 0 <= j <= trials:
                points.add(j)
        checked = 0
        for j in sorted(points):
            truth = _mp_binomial_pmf(trials, p, j)
            if truth < 1e-300:
                # below the normal range: the table may only read 0 or tiny
                assert pmf[j] < 1e-290
                continue
            assert abs(pmf[j] - float(truth)) <= 1e-12 * float(truth), (j, pmf[j], truth)
            checked += 1
        assert checked >= 4

    def test_rate_800_no_longer_refused(self):
        from scaled_poisson.bernoulli_lattice import binomial_pmf_vector

        pmf = binomial_pmf_vector(8000, Fraction(1, 10))
        assert pmf[0] == 0.0  # 1e-366 underflows; the mode anchor does not
        assert pmf.argmax() == 800

    def test_w_distribution_at_rate_800_moments(self):
        import numpy as np

        model = WeightedPoissonSum((1, 3), (Fraction(800), Fraction(5)))
        s = build_scheme(model, default_trials(model, 10))
        dist = w_distribution(s)
        mean_exact, _ = scheme_moments(s)
        # Var W = sum_r b_r^2 M* p_r (1 - p_r) = sigma^2 - sum_i b_i p_i^2
        var_exact = scheme_moments(s)[1] - second_order_sum(s)
        support = np.arange(dist.probs.size, dtype=float)
        mean = float(np.dot(support, dist.probs))
        var = float(np.dot((support - float(mean_exact)) ** 2, dist.probs))
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-14)
        assert mean == pytest.approx(float(mean_exact), rel=1e-12)
        assert var == pytest.approx(float(var_exact), rel=1e-12)
