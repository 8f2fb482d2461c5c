import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    empirical_constant_rows_reference,
    eta_reference,
    experiment_row_reference,
)
from scaled_poisson import (
    ExperimentRow,
    NumericalRangeError,
    ValidationError,
    WeightedPoissonSum,
    bound_params,
    build_scheme,
    compare_normal,
    default_trials,
    empirical_constant,
    eta,
    exact_distribution,
    fit_error_growth,
    moderate_deviation_bound,
    moments,
    normalize_weights,
    plateau_lengths,
    relative_error_sweep,
    scaling_sweep,
    w_distribution,
)
from scaled_poisson.experiments import _rows


class TestBoundParams:
    def test_bench_exact(self, bench_model, bench_moments):
        p = bound_params(bench_model, bench_moments)
        assert p.deltas == (Fraction(1, 4), Fraction(3, 4))
        assert p.K == (1, 2)
        assert p.r_star == 1
        assert p.correction_sum == 0

    def test_small_model(self, small_model, small_moments):
        p = bound_params(small_model, small_moments)
        # k = 3/5: K = (1, 2), n b = (3, 6) vs m = 5 so r* = 1
        assert p.K == (1, 2)
        assert p.r_star == 1

    def test_single_class(self):
        model = WeightedPoissonSum((1,), (Fraction(4),))
        p = bound_params(model, moments(model))
        assert p.deltas == (Fraction(1),)
        assert p.K == (1,)
        assert p.r_star == 1
        assert p.correction_sum == 0

    def test_r_star_boundary_semantics(self):
        # the smallest weight always satisfies n b_1 <= m (b_1 mu <= sigma^2),
        # so r* >= 1; and n b_r <= m exactly for r <= r*
        import random

        rng = random.Random(31337)
        for _ in range(40):
            r = rng.randint(1, 4)
            weights = tuple(sorted(rng.sample(range(1, 25), r)))
            rates = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 3)) for _ in range(r))
            model = WeightedPoissonSum(weights, rates)
            m = moments(model)
            p = bound_params(model, m)
            assert 1 <= p.r_star <= len(weights)
            for i, b in enumerate(weights, start=1):
                assert (m.k_num * b <= m.k_den) == (i <= p.r_star)

    def test_invariant_under_rate_scaling(self, bench_model, bench_moments):
        p1 = bound_params(bench_model, bench_moments)
        scaled = bench_model.scale_rates(6)
        p2 = bound_params(scaled, moments(scaled))
        assert (p1.deltas, p1.K, p1.r_star) == (p2.deltas, p2.K, p2.r_star)
        assert moments(scaled).lam == 6 * bench_moments.lam


class TestModerateDeviationBound:
    def test_bench_value_frozen(self, bench_model, bench_moments):
        p = bound_params(bench_model, bench_moments)
        # independent high-precision recomputation: 264.6153645017858418
        assert moderate_deviation_bound(p, 60) == pytest.approx(
            264.6153645017858418, rel=1e-13
        )

    def test_quadratic_term_vanishes_at_integer_lam(self):
        model = WeightedPoissonSum((1,), (Fraction(4),))
        p = bound_params(model, moments(model))
        # lam = 4 integer: bracket(4) = 1 + 4 (1 + log 4)
        assert moderate_deviation_bound(p, 4) == pytest.approx(
            1 + 4 * (1 + math.log(4)), rel=1e-14
        )

    def test_k2_equal_2_matches_unit_multiplier(self, small_model, small_moments):
        p = bound_params(small_model, small_moments)
        assert p.correction_sum == 0  # K_2 = 2 cancels
        y = 5
        lam = float(small_moments.lam)
        expect = (1 + (y - lam) ** 2 / (2 * lam)) + lam * (1 + math.log(y))
        assert moderate_deviation_bound(p, y) == pytest.approx(expect, rel=1e-14)

    def test_strictly_increasing_in_y(self, bench_model, bench_moments):
        p = bound_params(bench_model, bench_moments)
        vals = [moderate_deviation_bound(p, y) for y in range(52, 200)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_error_below_lam(self, bench_model, bench_moments):
        p = bound_params(bench_model, bench_moments)
        with pytest.raises(ValidationError):
            moderate_deviation_bound(p, 51)


class TestEta:
    def test_degenerate_single_point(self, small_model, small_moments):
        scheme = build_scheme(small_model, 100)
        wd = w_distribution(scheme)
        # ceil(lam) = 2: y = 2 gives a one-point supremum
        val = eta(wd, small_moments, 2)
        n = small_moments.k_num
        thr = -((-small_moments.k_den * 2) // n)
        lo, _ = wd.tail(thr, strict=False)
        from scaled_poisson import poisson_tail

        assert val == pytest.approx(lo / poisson_tail(Fraction(9, 5), 2), rel=1e-12)

    def test_small_model_finite(self, small_model, small_moments):
        scheme = build_scheme(small_model, 100)
        wd = w_distribution(scheme)
        val = eta(wd, small_moments, 6)
        assert 0 < val < math.inf

    def test_bench_finite_and_clamped_variant(self, bench_model, bench_moments):
        scheme = build_scheme(bench_model, default_trials(bench_model, 100))
        wd = w_distribution(scheme, epsilon=1e-250)
        val = eta(wd, bench_moments, 70)
        full = eta(wd, bench_moments, 70, from_zero=True)
        assert 0 < val < math.inf
        assert full >= val - 1e-15

    def test_matches_direct_ratio_maximum(self, small_model, small_moments):
        from scaled_poisson import poisson_tail

        scheme = build_scheme(small_model, 80)
        wd = w_distribution(scheme)
        y = 7
        n, mm = small_moments.k_num, small_moments.k_den
        direct = max(
            wd.tail(-((-mm * r) // n), strict=False)[0]
            / poisson_tail(Fraction(9, 5), r)
            for r in range(2, y + 1)
        )
        assert eta(wd, small_moments, y) == pytest.approx(direct, rel=1e-14)

    def test_empty_range_rejected(self, bench_model, bench_moments):
        scheme = build_scheme(bench_model, default_trials(bench_model, 25))
        wd = w_distribution(scheme, epsilon=1e-250)
        with pytest.raises(ValidationError):
            eta(wd, bench_moments, 40)


@pytest.fixture(scope="module")
def bench_rows(bench_model):
    return relative_error_sweep(bench_model, 401, 700)


class TestRelativeErrorSweep:
    def test_plateaus_are_exactly_thresholds(self, bench_rows):
        for a, b in zip(bench_rows, bench_rows[1:]):
            if a.plateau_id == b.plateau_id:
                assert a.scaled_tail == b.scaled_tail
            else:
                assert a.scaled_tail != b.scaled_tail

    def test_interior_plateau_lengths(self, bench_rows):
        lengths = plateau_lengths(bench_rows)
        assert set(lengths) == {7, 8}

    def test_block_means_strictly_increase(self, bench_rows):
        rel = [r.rel_error for r in bench_rows]
        blocks = [sum(rel[i : i + 31]) / 31 for i in range(0, len(rel) - 30, 31)]
        assert len(blocks) >= 9
        assert all(b > a for a, b in zip(blocks, blocks[1:]))

    def test_growth_exponent_reported(self, bench_rows):
        alpha = fit_error_growth(bench_rows)
        assert 0.5 < alpha < 8.0

    def test_single_class_error_vanishes(self):
        model = WeightedPoissonSum((1,), (Fraction(8),))
        rows = relative_error_sweep(model, 1, 30, strict=False)
        for r in rows:
            assert r.rel_error <= 1e-10

    def test_plateau_run_lengths_generic_model(self, small_model):
        # k = 3/5: run lengths are floor(5/3) or ceil(5/3)
        rows = relative_error_sweep(small_model, 4, 40)
        assert set(plateau_lengths(rows)) <= {1, 2}

    def test_range_validation(self, bench_model):
        with pytest.raises(ValidationError):
            relative_error_sweep(bench_model, 10, 5)
        with pytest.raises(ValidationError):
            relative_error_sweep(bench_model, 0, 10**7)


class TestScalingSweep:
    def test_bench_trend_with_noise_floor(self, bench_model):
        result = scaling_sweep(bench_model, 400, [1, 2, 3, 4, 5, 6, 7])
        errs = [r.rel_error for r in result.rows]
        assert len(errs) == 7
        # non-increasing within 10% slack per step, above the double-precision
        # resolution floor of a ratio of near-one tails
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.10 + 1e-13
        assert not result.excluded

    def test_small_model_decreasing(self, small_model):
        result = scaling_sweep(small_model, 30, [1, 2, 4, 8])
        errs = [r.rel_error for r in result.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_n1_matches_plain_sweep(self, bench_model):
        row_scaled = scaling_sweep(bench_model, 430, [1]).rows[0]
        row_plain = relative_error_sweep(bench_model, 430, 430)[0]
        assert row_scaled.exact_tail == row_plain.exact_tail
        assert row_scaled.scaled_tail == row_plain.scaled_tail
        assert row_scaled.rel_error == row_plain.rel_error

    @pytest.mark.parametrize("y", [400, 430, 600])
    def test_rows_equal_those_of_each_scaled_model(self, bench_model, y):
        # the sweep scales mu, sigma^2 and lam by N from one moments call; the
        # rows equal those built from each scaled model's own moments
        n_values = list(range(1, 12))
        expected = []
        for n_scale in n_values:
            scaled = bench_model.scale_rates(n_scale)
            m = moments(scaled)
            if m.lam <= y:
                dist = exact_distribution(scaled)
                expected += _rows(m, bound_params(scaled, m), dist, y, y, True, scale_n=n_scale)
        assert len(expected) >= 7
        assert scaling_sweep(bench_model, y, n_values).rows == expected

    def test_infeasible_scale_excluded_with_note(self, bench_model):
        result = scaling_sweep(bench_model, 400, [1, 8])
        assert len(result.rows) == 1
        assert result.excluded and result.excluded[0][0] == 8

    def test_empty_scale_list_is_an_error(self, bench_model):
        with pytest.raises(ValidationError, match="n_values"):
            scaling_sweep(bench_model, 400, [])
        with pytest.raises(ValidationError, match="n_values"):
            scaling_sweep(bench_model, 400, np.array([], dtype=int))

    def test_scale_array_runs_like_a_list(self, bench_model):
        assert scaling_sweep(bench_model, 400, np.array([1, 2])) == scaling_sweep(bench_model, 400, [1, 2])


class TestCompareNormal:
    def test_poisson_wins_uniformly_in_far_tail(self, bench_model):
        res = compare_normal(bench_model, 505, 650)
        assert res.poisson_better == res.total

    def test_second_instance_mostly_better(self, small_model):
        # verified frontier for this instance: the >= 90% dominance holds from
        # two sigma out (closer in, lattice plateaus of width ~m/n dominate)
        scaled = small_model.scale_rates(100)
        m = moments(scaled)
        mu, sigma = float(m.mu), math.sqrt(float(m.sigma_sq))
        res = compare_normal(scaled, int(mu + 2 * sigma), int(mu + 4 * sigma))
        assert res.poisson_better >= 0.9 * res.total
        wider = compare_normal(scaled, int(mu + sigma), int(mu + 4 * sigma))
        assert wider.poisson_better > 0.6 * wider.total

    def test_no_claim_near_mean(self, bench_model):
        # near mu both errors are small; no ordering asserted
        res = compare_normal(bench_model, 395, 405)
        for r in res.rows:
            assert r.abs_error_poisson < 0.05 and r.abs_error_normal < 0.05


class TestEmpiricalConstant:
    def test_bench_stable_in_mstar(self, bench_model):
        c100 = empirical_constant(bench_model, 52, 80, mstar=100)
        c200 = empirical_constant(bench_model, 52, 80, mstar=200)
        assert c100.c_hat > 0 and math.isfinite(c100.c_hat)
        assert abs(c100.c_hat / c200.c_hat - 1.0) < 0.20

    def test_single_class_small(self):
        model = WeightedPoissonSum((1,), (Fraction(5),))
        res = empirical_constant(model, 5, 25, mstar=100)
        assert 0 < res.c_hat < 0.1

    def test_bounded_under_rate_scaling(self, small_model):
        values = []
        for n_scale in (1, 2, 4):
            scaled = small_model.scale_rates(n_scale)
            lam = moments(scaled).lam
            y_lo = -((-lam.numerator) // lam.denominator)
            values.append(empirical_constant(scaled, y_lo, y_lo + 15, mstar=150).c_hat)
        assert all(v < 10 * values[0] + 1.0 for v in values)

    def test_rows_carry_condition_report(self, bench_model):
        res = empirical_constant(bench_model, 52, 60, mstar=50)
        ys = [y for y, _, _, _ in res.rows]
        assert ys == list(range(52, 61))
        for _, dev, bracket, ratio in res.rows:
            assert bracket > 0 and ratio == pytest.approx(dev / bracket, rel=1e-15)

    def test_nan_w_cap_rejected(self, bench_model):
        with pytest.raises(ValidationError, match="epsilon"):
            empirical_constant(bench_model, 52, 55, mstar=50, w_cap=float("nan"))


class TestCsvRoundTrip:
    def test_seventeen_digits_round_trip(self, bench_model):
        rows = relative_error_sweep(bench_model, 440, 470)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(ExperimentRow._fields)
        for r in rows:
            writer.writerow(
                [
                    str(r.y),
                    format(r.exact_tail, ".17g"),
                    format(r.scaled_tail, ".17g"),
                    format(r.normal_tail, ".17g"),
                    format(r.rel_error, ".17g"),
                    format(r.abs_error_poisson, ".17g"),
                    format(r.abs_error_normal, ".17g"),
                    format(r.bound_bracket, ".17g"),
                    str(r.plateau_id),
                    str(r.scale_n),
                    "1" if r.underflow else "0",
                ]
            )
        buf.seek(0)
        reader = csv.reader(buf)
        header = next(reader)
        assert header == list(ExperimentRow._fields)
        for r, line in zip(rows, reader):
            assert int(line[0]) == r.y
            assert float(line[1]) == r.exact_tail
            assert float(line[2]) == r.scaled_tail
            assert float(line[3]) == r.normal_tail
            assert float(line[4]) == r.rel_error
            assert float(line[7]) == r.bound_bracket


def _same(a, b) -> bool:
    """Bit-equal floats (NaN equal to NaN) and equal values of the same type."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def assert_rows_match_reference(model, rows, y_from, y_to, strict, epsilon=1e-12):
    m = moments(model)
    params = bound_params(model, m)
    dist = exact_distribution(model, epsilon)
    assert [r.y for r in rows] == list(range(y_from, y_to + 1))
    for row in rows:
        ref = experiment_row_reference(m, params, dist, row.y, strict)
        for name in ExperimentRow._fields:
            assert _same(getattr(row, name), getattr(ref, name)), (row.y, name)


# Rates whose moments have ~20-digit denominators: k_num = 16000000064000000021,
# so k_num * y passes 2**63 on every row.
HUGE_K_MODEL = WeightedPoissonSum(
    (1, 3), (Fraction(10**10 + 7, 10**9), Fraction(2 * 10**9 + 9, 10**9 + 3))
)


class TestArrayRowsAgainstScalarReference:
    """Sweep rows built over whole ranges against the scalar row per y."""

    @pytest.mark.parametrize("strict", [True, False])
    def test_bench_model_whole_support(self, bench_model, strict):
        top = exact_distribution(bench_model).support_max
        rows = relative_error_sweep(bench_model, 1, top, strict=strict)
        assert_rows_match_reference(bench_model, rows, 1, top, strict)
        # the range covers y below lam, nan brackets and underflowed edge rows
        assert math.isnan(rows[0].bound_bracket) and not math.isnan(rows[-1].bound_bracket)
        underflowed = [r for r in rows if r.underflow]
        assert all(math.isnan(r.rel_error) for r in underflowed)
        assert bool(underflowed) == strict  # P(S > support_max) reads 0.0

    def test_y_zero_is_refused_as_before(self, bench_model):
        m = moments(bench_model)
        with pytest.raises(ValidationError):
            experiment_row_reference(
                m, bound_params(bench_model, m), exact_distribution(bench_model), 0, True
            )
        with pytest.raises(ValidationError):
            relative_error_sweep(bench_model, 0, 10)

    @pytest.mark.parametrize("y_from, y_to", [(1, 400), (20000, 20035), (313848, 314148)])
    def test_wide_model(self, y_from, y_to):
        model = WeightedPoissonSum((1, 100, 10000), (Fraction(5), Fraction(3), Fraction(1)))
        for strict in (True, False):
            rows = relative_error_sweep(model, y_from, y_to, strict=strict)
            assert_rows_match_reference(model, rows, y_from, y_to, strict)

    def test_rational_weights_via_normalize(self):
        model, scale_b = normalize_weights(
            [Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)],
            [Fraction(7, 2), Fraction(3), Fraction(4, 3)],
        )
        assert scale_b == 6
        for strict in (True, False):
            rows = relative_error_sweep(model, 1, 828, strict=strict)
            assert_rows_match_reference(model, rows, 1, 828, strict)

    def test_row_at_integer_lam_has_a_bracket(self):
        model = WeightedPoissonSum((1,), (Fraction(8),))
        assert moments(model).lam == 8
        rows = relative_error_sweep(model, 1, 30, strict=False)
        assert_rows_match_reference(model, rows, 1, 30, False)
        assert math.isnan(rows[6].bound_bracket) and not math.isnan(rows[7].bound_bracket)

    def test_k_num_times_y_beyond_int64(self):
        m = moments(HUGE_K_MODEL)
        assert m.k_num * 1 > 2**63
        top = exact_distribution(HUGE_K_MODEL).support_max
        for strict in (True, False):
            rows = relative_error_sweep(HUGE_K_MODEL, 1, top, strict=strict)
            assert_rows_match_reference(HUGE_K_MODEL, rows, 1, top, strict)

    def test_one_tail_per_distinct_plateau(self, bench_model, monkeypatch):
        import scaled_poisson.experiments as experiments

        calls = []
        real = experiments.poisson_tail
        monkeypatch.setattr(
            experiments, "poisson_tail", lambda rate, t: calls.append(t) or real(rate, t)
        )
        rows = relative_error_sweep(bench_model, 401, 700)
        assert sorted(calls) == sorted({r.plateau_id for r in rows})
        assert len(calls) < len(rows) / 7

    @pytest.mark.parametrize("y", [400, 430])
    def test_scaling_sweep(self, bench_model, y):
        result = scaling_sweep(bench_model, y, list(range(1, 8)))
        assert [r.scale_n for r in result.rows] == list(range(1, 8))
        for row in result.rows:
            scaled = bench_model.scale_rates(row.scale_n)
            m = moments(scaled)
            ref = experiment_row_reference(
                m, bound_params(scaled, m), exact_distribution(scaled), y, True, row.scale_n
            )
            for name in ExperimentRow._fields:
                assert _same(getattr(row, name), getattr(ref, name)), (row.scale_n, name)

    @pytest.mark.parametrize("from_zero", [False, True])
    def test_eta(self, bench_model, bench_moments, small_model, small_moments, from_zero):
        bench_w = w_distribution(
            build_scheme(bench_model, default_trials(bench_model, 100)), epsilon=1e-250
        )
        small_w = w_distribution(build_scheme(small_model, 80))
        for wd, m, y in ((bench_w, bench_moments, 70), (small_w, small_moments, 7)):
            assert eta(wd, m, y, from_zero) == eta_reference(wd, m, y, from_zero)

    def test_eta_underflow_names_first_r(self):
        model = WeightedPoissonSum((1,), (Fraction(1),))
        m = moments(model)
        wd = w_distribution(build_scheme(model, 50), epsilon=1e-250)
        with pytest.raises(NumericalRangeError) as got:
            eta(wd, m, 400)
        with pytest.raises(NumericalRangeError) as want:
            eta_reference(wd, m, 400)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "name, y_from, y_to, mstar",
        [("bench", 52, 80, 100), ("bench", 40, 60, 25), ("small", 1, 30, 50)],
    )
    def test_empirical_constant(self, bench_model, small_model, name, y_from, y_to, mstar):
        model = bench_model if name == "bench" else small_model
        m = moments(model)
        wd = w_distribution(build_scheme(model, default_trials(model, mstar)), epsilon=1e-250)
        want = empirical_constant_rows_reference(wd, m, bound_params(model, m), y_from, y_to)
        got = empirical_constant(model, y_from, y_to, mstar=mstar)
        assert got.rows == want
        assert got.c_hat == max(ratio for _, _, _, ratio in want)
