import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from scaled_poisson import (
    SteinContext,
    ValidationError,
    WeightedPoissonSum,
    build_scheme,
    conditional_delta_bound,
    default_trials,
    delta_distribution,
    g_expectation_ratio,
    h_decomposition,
    moments,
    poisson_tail,
    size_bias_check_exact,
    size_bias_sample,
    solve_stein,
    SteinSolutionTable,
    w_distribution,
)

from scaled_poisson.coupling import _stein_table, _table_w_needed

from oracles import (
    _mp_rate,
    coupling_laws_reference,
    enumerate_delta_joint,
    enumerate_size_bias_rhs,
    enumerate_w_law_reference,
    mp_d_low,
    mp_stein_halves,
    size_bias_check_fractions,
)

# exhaustive test matrix: (weights, rates, trials), R * trials <= 16
EXHAUSTIVE_MATRIX = [
    ((1,), (Fraction(1),), 1),
    ((1,), (Fraction(3, 4),), 3),
    ((1, 2), (Fraction(1), Fraction(1)), 2),
    ((1, 2), (Fraction(1), Fraction(1)), 8),
    ((1, 3), (Fraction(1, 2), Fraction(3, 2)), 4),
    ((2, 5), (Fraction(1), Fraction(1)), 2),
]

F_FAMILY = [
    ("identity", lambda x: float(x)),
    ("indicator", lambda x: 1.0 if x >= 5 else 0.0),
    ("capped", lambda x: float(min(x, 10))),
]


def _stein_setup(model, m, y, mstar_factor):
    scheme = build_scheme(model, default_trials(model, mstar_factor))
    ctx = SteinContext(lam=m.lam, lattice_step=m.k_den, scale_num=m.k_num, threshold_y=y)
    return scheme, ctx, _stein_table(scheme, m, ctx)


class TestDeltaDistribution:
    def test_small_model_hundred_trials(self, small_model, small_moments):
        dd = delta_distribution(build_scheme(small_model, 100), small_moments)
        assert dd.support == (5, 2, -1)
        assert dd.probs == (Fraction(1, 100), Fraction(33, 100), Fraction(33, 50))
        assert dd.delta_bounds == (Fraction(1, 3), Fraction(2, 3))

    def test_single_class(self):
        model = WeightedPoissonSum((1,), (Fraction(2),))
        m = moments(model)
        dd = delta_distribution(build_scheme(model, 8), m)
        assert dd.support == (1, 0)
        assert dd.probs == (Fraction(1, 4), Fraction(3, 4))

    def test_probabilities_sum_to_one_exactly(self, bench_model, bench_moments):
        dd = delta_distribution(build_scheme(bench_model, 200), bench_moments)
        assert sum(dd.probs, Fraction(0)) == 1
        assert sum(dd.delta_bounds, Fraction(0)) == 1

    def test_support_sign_matches_r_star(self, bench_moments, bench_model):
        # m - n b_r < 0 exactly for classes past the last with n b_r <= m
        dd = delta_distribution(build_scheme(bench_model, 100), bench_moments)
        n, mm = bench_moments.k_num, bench_moments.k_den
        for b, value in zip(bench_model.weights, dd.support[1:]):
            assert (value < 0) == (n * b > mm)
            assert value < mm

    def test_moments_of_another_model_rejected(self, small_model, bench_moments):
        with pytest.raises(ValidationError, match="do not match"):
            delta_distribution(build_scheme(small_model, 10), bench_moments)


class TestSizeBiasExact:
    @pytest.mark.parametrize("weights,rates,trials", EXHAUSTIVE_MATRIX)
    @pytest.mark.parametrize("fname,f", F_FAMILY)
    def test_identity_holds(self, weights, rates, trials, fname, f):
        model = WeightedPoissonSum(weights, rates)
        m = moments(model)
        scheme = build_scheme(model, trials)
        lhs, rhs = size_bias_check_exact(scheme, f, m)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_rhs_against_independent_enumeration(self):
        model = WeightedPoissonSum((1, 2), (Fraction(1), Fraction(1)))
        m = moments(model)
        scheme = build_scheme(model, 2)
        for _, f in F_FAMILY:
            _, rhs = size_bias_check_exact(scheme, f, m)
            ref = enumerate_size_bias_rhs((1, 2), list(scheme.class_probs), 2, m.k_num, f)
            assert rhs == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_single_variable_coupling(self):
        # R=1, b=1, M*=1: lhs = rhs = p f(1) with n = 1
        model = WeightedPoissonSum((1,), (Fraction(3, 4),))
        m = moments(model)
        scheme = build_scheme(model, 1)
        lhs, rhs = size_bias_check_exact(scheme, lambda x: float(x), m)
        assert lhs == pytest.approx(0.75, rel=1e-14)
        assert rhs == pytest.approx(0.75, rel=1e-14)

    def test_refuses_large_instances(self, bench_model, bench_moments):
        # R^2*M* = 804, past the 800 the exact route is sized for
        scheme = build_scheme(bench_model, 201)
        with pytest.raises(ValidationError, match="size_bias_sample"):
            size_bias_check_exact(scheme, lambda x: 1.0, bench_moments)

    def test_refuses_a_law_past_the_point_cap(self):
        # one trial per class, but the law of W spans 1 + 100,000 points
        model = WeightedPoissonSum((1, 99_999), (Fraction(1), Fraction(1)))
        with pytest.raises(ValidationError, match="size_bias_sample"):
            size_bias_check_exact(build_scheme(model, 1), lambda x: 1.0, moments(model))

    @pytest.mark.parametrize(
        "weights,rate,trials",
        [((1, 2), Fraction(1), 200), ((1, 99_998), Fraction(1, 2), 1)],
        ids=["400_trials", "100000_points"],
    )
    def test_runs_at_the_limits(self, weights, rate, trials):
        model = WeightedPoissonSum(weights, (rate, rate))
        m = moments(model)
        lhs, rhs = size_bias_check_exact(build_scheme(model, trials), lambda x: float(x), m)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("trials, admitted", [(50, True), (51, False)])
    def test_cost_rule_at_four_classes(self, trials, admitted):
        # at R = 4 the rule admits M* = 50 (R^2*M* = 800) and refuses 51 (816)
        rates = (Fraction(1, 7), Fraction(1, 3), Fraction(2, 9), Fraction(1, 11))
        model = WeightedPoissonSum((1, 2, 3, 4), rates)
        m, scheme = moments(model), build_scheme(model, trials)
        if admitted:
            lhs, rhs = size_bias_check_exact(scheme, lambda x: float(x), m)
            assert lhs == pytest.approx(rhs, rel=1e-12)
        else:
            with pytest.raises(ValidationError, match=r"R\^2\*M\* <= 800.*got 816"):
                size_bias_check_exact(scheme, lambda x: float(x), m)

    @pytest.mark.parametrize(
        "weights,rates,trials",
        [((1, 2), (Fraction(1), Fraction(1)), 6), ((1, 2), (Fraction(1), Fraction(1)), 100)],
        ids=["12_trials", "200_trials"],
    )
    def test_numerator_laws_equal_the_bare_convolutions(self, weights, rates, trials):
        from scaled_poisson.coupling import _convolve_classes, _law_classes, _numerator_tables

        scheme = build_scheme(WeightedPoissonSum(weights, rates), trials)
        full, reduced = _numerator_tables(scheme, trials), _numerator_tables(scheme, trials - 1)
        got = [_convolve_classes(classes) for classes in _law_classes(full, reduced)]
        w_law, loo = coupling_laws_reference(full, reduced)
        assert len(got) == 1 + len(loo)
        for law, want in zip(got, [w_law, *loo]):
            assert law.dtype == object and np.array_equal(law, want)

    @pytest.mark.parametrize(
        "weights,rates,trials",
        [
            ((1, 2), (Fraction(1), Fraction(1)), 6),  # R*M* = 12
            ((1, 2), (Fraction(1), Fraction(1)), 20),  # 40
            ((1, 10), (Fraction(100), Fraction(30)), 100),  # 200, p_1 = 1
            ((1, 2), (Fraction(1), Fraction(1)), 100),  # 200
            ((1, 3, 5), (Fraction(1), Fraction(2), Fraction(1)), 10),  # R = 3
        ],
    )
    def test_equals_the_fraction_route_bit_for_bit(self, weights, rates, trials):
        model = WeightedPoissonSum(weights, rates)
        m = moments(model)
        scheme = build_scheme(model, trials)
        for _, f in F_FAMILY + [("cli", lambda x: min(x, 10.0))]:
            assert size_bias_check_exact(scheme, f, m) == size_bias_check_fractions(scheme, f, m)


class TestEnumerationReference:
    CASES = EXHAUSTIVE_MATRIX + [
        ((1, 3, 5), (Fraction(1), Fraction(2), Fraction(1)), 3),  # R = 3
        ((1, 2), (Fraction(1), Fraction(1)), 10),  # 20 trials
    ]

    @staticmethod
    def _class_trials(weights, rates, trials):
        scheme = build_scheme(WeightedPoissonSum(weights, rates), trials)
        return scheme, [(trials, p, b) for p, b in zip(scheme.class_probs, scheme.replication)]

    @staticmethod
    def _reduced(full, r):
        """full's (c_r, p_r, b_r) with one class-r trial removed."""
        return [(c - 1, p, b) if s == r else (c, p, b) for s, (c, p, b) in enumerate(full)]

    @staticmethod
    def _denominators(scheme, trials):
        """The denominator of the law of W, prod_r d_r^trials for p_r = u_r/d_r,
        then that of each leave-one-out law, one d_r less."""
        dens = [p.denominator for p in scheme.class_probs]
        den = math.prod(dens) ** trials
        return [den] + [den // d for d in dens]

    @classmethod
    def _exact_laws(cls, scheme, trials):
        """The law of W and the leave-one-out laws the exhaustive check reads,
        each numerator read over its law's denominator as a Fraction."""
        from scaled_poisson.coupling import _convolve_classes, _law_classes, _numerator_tables

        tables = _law_classes(_numerator_tables(scheme, trials), _numerator_tables(scheme, trials - 1))
        laws = [
            np.array([Fraction(num, den) for num in law.tolist()], dtype=object)
            for law, den in zip(map(_convolve_classes, tables), cls._denominators(scheme, trials))
        ]
        return laws[0], laws[1:]

    @pytest.mark.parametrize("weights,rates,trials", CASES)
    def test_laws_equal_reference(self, weights, rates, trials):
        scheme, full = self._class_trials(weights, rates, trials)
        w_law, loo = self._exact_laws(scheme, trials)
        assert _nonzero(w_law) == enumerate_w_law_reference(full)
        if trials * len(weights) <= 16:
            # the leave-one-trial-out laws the lhs enumerates
            for r, law in enumerate(loo):
                assert _nonzero(law) == enumerate_w_law_reference(self._reduced(full, r))

    @pytest.mark.parametrize("weights,rates,trials", CASES)
    def test_laws_are_exact_and_sum_to_one(self, weights, rates, trials):
        scheme, _ = self._class_trials(weights, rates, trials)
        w_law, loo = self._exact_laws(scheme, trials)
        for law in [w_law, *loo]:
            assert all(type(prob) in (Fraction, int) for prob in law.tolist())
            assert sum(law.tolist()) == 1

    @pytest.mark.parametrize("weights,rates,trials", CASES[:-1])
    def test_check_equals_check_through_reference(self, weights, rates, trials, monkeypatch):
        import scaled_poisson.coupling as coupling

        scheme, full = self._class_trials(weights, rates, trials)
        m = moments(WeightedPoissonSum(weights, rates))
        got = [size_bias_check_exact(scheme, f, m) for _, f in F_FAMILY]

        def enumerated_laws(_full, _reduced):
            # each law as the one class table of its numerators, at weight 1
            laws = [enumerate_w_law_reference(full)]
            laws += [enumerate_w_law_reference(self._reduced(full, r)) for r in range(len(full))]
            return [
                [(_numerators(law, den), 1)]
                for law, den in zip(laws, self._denominators(scheme, trials))
            ]

        monkeypatch.setattr(coupling, "_law_classes", enumerated_laws)
        want = [size_bias_check_exact(scheme, f, m) for _, f in F_FAMILY]
        assert got == want

    def test_refusal_above_limit_names_sampler(self):
        # R^2*M* = 1206
        model = WeightedPoissonSum((1, 2, 3), (Fraction(1), Fraction(1), Fraction(1)))
        with pytest.raises(ValidationError, match="size_bias_sample"):
            size_bias_check_exact(build_scheme(model, 134), lambda x: 1.0, moments(model))


def _nonzero(law) -> dict:
    """The nonzero entries of a law array, by value of W."""
    return {w: prob for w, prob in enumerate(law.tolist()) if prob}


def _numerators(law: dict, den: int) -> np.ndarray:
    """A law given by its nonzero entries, as an object array from W = 0 of
    the integer numerators over den."""
    out = np.zeros(max(law) + 1, dtype=object)
    for w, prob in law.items():
        num = prob * den
        assert num.denominator == 1
        out[w] = num.numerator
    return out


def _exact_sides(scheme, m, f):
    """(lhs, rhs) of the coupling identity in float from the laws the sampler
    draws from: rhs over the law of W, lhs over each class block's
    leave-one-out law shifted by b_r."""
    from scaled_poisson.coupling import _class_deltas, _tables

    n = m.k_num
    w_law, loo = _tables(scheme, 1e-250)
    rhs = math.fsum(
        float(p) * (n * w) * f(n * w) for w, p in enumerate(w_law.probs.tolist())
    )
    lhs = float(m.lambda_m) * math.fsum(
        float(d) * float(np.dot(lr, f(n * (np.arange(lr.size) + b))))
        for d, lr, b in zip(_class_deltas(scheme), loo, scheme.replication)
    )
    return lhs, rhs


def _bench_sampled_check(model):
    """The scheme and f of the benchmark's sampled coupling-check: M* factor
    50 and f = 1{x >= m*y} at y = 60, m = 31."""
    scheme = build_scheme(model, default_trials(model, 50))
    return scheme, lambda x: (x >= 31 * 60) * 1.0


class TestSizeBiasSample:
    def test_dense_leave_one_out_law_past_the_budget_raises(self):
        # the weight-1 class's leave-one-out law strides the 2**40 class
        # densely: 2**40 + 1 points, refused before it is allocated
        scheme = build_scheme(WeightedPoissonSum((1, 2**40), (1, 1)), 2)
        with pytest.raises(ValidationError, match=r"spans 1099511627777 points, past the budget"):
            size_bias_sample(scheme, lambda x: float(x), 10_000, seed=7)

    def test_degenerate_all_ones(self):
        model = WeightedPoissonSum((1,), (Fraction(1),))
        m = moments(model)
        scheme = build_scheme(model, 1)
        res = size_bias_sample(scheme, lambda x: float(x), 10_000, seed=1)
        assert res.lhs == res.rhs == 1.0

    def test_capped_function_against_exact_rhs(self, small_model, small_moments):
        import numpy as np

        scheme = build_scheme(small_model, 100)

        def f(x):
            return np.minimum(x, 10.0)

        res = size_bias_sample(scheme, f, 1_000_000, seed=7)
        dist = w_distribution(scheme)
        n = small_moments.k_num
        rhs_exact = sum(
            p * (n * w) * min(n * w, 10.0) for w, p in enumerate(dist.probs.tolist())
        )
        combined = math.hypot(res.stderr_lhs, res.stderr_rhs)
        assert abs(res.lhs - res.rhs) <= 4 * combined
        assert abs(res.rhs - rhs_exact) <= 4 * res.stderr_rhs

    def test_deterministic_given_seed(self, small_model):
        scheme = build_scheme(small_model, 20)
        a = size_bias_sample(scheme, lambda x: x * 1.0, 50_000, seed=42)
        b = size_bias_sample(scheme, lambda x: x * 1.0, 50_000, seed=42)
        assert a == b

    def test_error_inside_f_propagates(self, small_model):
        import numpy as np

        scheme = build_scheme(small_model, 20)

        def f(x):
            if isinstance(x, np.ndarray):
                raise RuntimeError("defect inside f")
            return float(x)

        with pytest.raises(RuntimeError, match="defect inside f"):
            size_bias_sample(scheme, f, 10_000, seed=1)

    def test_scalar_only_f_falls_back_per_element(self, small_model):
        scheme = build_scheme(small_model, 20)
        # float() of a multi-element array raises TypeError
        scalar = size_bias_sample(scheme, lambda x: float(x), 10_000, seed=3)
        vector = size_bias_sample(scheme, lambda x: x * 1.0, 10_000, seed=3)
        assert scalar == vector

    def test_sample_floor(self, small_model):
        scheme = build_scheme(small_model, 20)
        with pytest.raises(ValidationError):
            size_bias_sample(scheme, lambda x: 1.0, 100, seed=1)

    def test_negative_seed_refused(self, small_model):
        scheme = build_scheme(small_model, 20)
        with pytest.raises(ValidationError, match="seed"):
            size_bias_sample(scheme, lambda x: 1.0, 10_000, seed=-1)

    @pytest.mark.parametrize(
        "samples, seed",
        [
            (10_000.7, 1),
            (math.nan, 1),
            (math.inf, 1),
            ("10000", 1),
            (10_000, 1.5),
            (10_000, np.float64(2.5)),
            (10_000, None),
        ],
    )
    def test_non_integer_arguments_refused(self, small_model, samples, seed):
        # once 10000.7 was truncated to 10000, nan raised ValueError and a
        # seed of 1.5 raised numpy's TypeError
        scheme = build_scheme(small_model, 20)
        with pytest.raises(ValidationError, match="must be an integer"):
            size_bias_sample(scheme, lambda x: 1.0, samples, seed)

    def test_numpy_integers_accepted(self, small_model):
        scheme = build_scheme(small_model, 20)
        f = lambda x: x * 1.0  # noqa: E731
        got = size_bias_sample(scheme, f, np.int64(10_000), np.uint32(3))
        assert got == size_bias_sample(scheme, f, 10_000, 3)

    def test_each_side_against_its_exact_value(self, bench_model, bench_moments):
        # the benchmark workload's configuration; both sides are checked on
        # their own, so a sampler drawing a wrong law on one side is caught
        # even if the two sides still agree
        scheme, f = _bench_sampled_check(bench_model)
        n = bench_moments.k_num
        res = size_bias_sample(scheme, f, 200_000, seed=11)
        w_law = w_distribution(scheme).probs
        rhs_exact = math.fsum(
            float(p) * (n * w) * f(n * w) for w, p in enumerate(w_law.tolist())
        )
        lhs_exact, rhs_tables = _exact_sides(scheme, bench_moments, f)
        assert rhs_tables == pytest.approx(rhs_exact, rel=1e-12)
        assert abs(res.rhs - rhs_exact) <= 4 * res.stderr_rhs
        assert abs(res.lhs - lhs_exact) <= 4 * res.stderr_lhs
        assert lhs_exact == pytest.approx(rhs_exact, rel=1e-12)

    def test_stated_stderr_is_calibrated_over_seeds(self, bench_model, bench_moments):
        # the benchmark workload's configuration at 1000 seeds: each side's
        # z-score against its exact value should be close to standard normal,
        # so the stated standard error is neither too small nor too large
        scheme, f = _bench_sampled_check(bench_model)
        lhs_exact, rhs_exact = _exact_sides(scheme, bench_moments, f)
        seeds = 1000
        z = np.array(
            [
                ((r.lhs - lhs_exact) / r.stderr_lhs, (r.rhs - rhs_exact) / r.stderr_rhs)
                for r in (size_bias_sample(scheme, f, 200_000, seed=s) for s in range(seeds))
            ]
        )
        # mean of z^2 over 1000 chi-square(1) draws: sd sqrt(2/1000) ~ 0.045
        assert np.all(np.abs(np.mean(z**2, axis=0) - 1.0) <= 4 * math.sqrt(2 / seeds))
        # P(|z| > 2) = 4.55% for a standard normal, within 4 binomial sd
        p = math.erfc(2 / math.sqrt(2))
        share = np.mean(np.abs(z) > 2, axis=0)
        assert np.all(np.abs(share - p) <= 4 * math.sqrt(p * (1 - p) / seeds))

    def test_hundred_million_samples_against_exact(self, bench_model, bench_moments):
        # cost O(support), whatever the sample count; at this stderr a law
        # off by more than ~1e-4 relative on either side shows
        scheme, f = _bench_sampled_check(bench_model)
        lhs_exact, rhs_exact = _exact_sides(scheme, bench_moments, f)
        res = size_bias_sample(scheme, f, 100_000_000, seed=3)
        assert abs(res.lhs - lhs_exact) <= 4 * res.stderr_lhs
        assert abs(res.rhs - rhs_exact) <= 4 * res.stderr_rhs

    def test_pairing_at_three_classes(self):
        # Each side's values must follow the law of a sum over all three
        # classes: W^s in block r is b_r plus class r's leave-one-out law.  A
        # block tallied at the wrong shift or from the wrong law, or W drawn
        # from a law missing a class, moves a side's spread even where the
        # means agree (with f(x) = x the lhs is linear in W^s): each side's
        # mean and sample variance are checked against their exact values.
        import numpy as np

        from scaled_poisson import scheme_moments
        from scaled_poisson.coupling import _class_deltas, _tables

        model = WeightedPoissonSum((1, 2, 5), (Fraction(4), Fraction(3), Fraction(2)))
        m = moments(model)
        n = m.k_num
        scheme = build_scheme(model, 40)
        samples = 200_000
        res = size_bias_sample(scheme, lambda x: x * 1.0, samples, seed=21)

        # rhs = E[(nW)^2] = n^2 (Var W + mu^2), exact
        mu, _ = scheme_moments(scheme)
        var_w = sum(
            (b * b * scheme.trials_per_class * p * (1 - p)
             for p, b in zip(scheme.class_probs, scheme.replication)),
            Fraction(0),
        )
        rhs_exact = n * n * (var_w + mu * mu)

        # lhs = lam*m*E[n W^s]; W^s is class r's leave-one-out law shifted by
        # b_r, with probability delta_r
        w_dist, loo = _tables(scheme, 1e-250)
        w_law = w_dist.probs
        ws_law = np.zeros(w_law.size + max(scheme.replication))
        for d, lr, b in zip(_class_deltas(scheme), loo, scheme.replication):
            ws_law[b : b + lr.size] += float(d) * lr
        lam_m = float(m.lambda_m)
        lhs_values = lam_m * n * np.arange(ws_law.size)
        lhs_exact = float(np.dot(ws_law, lhs_values))
        assert lhs_exact == pytest.approx(float(rhs_exact), rel=1e-12)
        rhs_values = (n * np.arange(w_law.size, dtype=float)) ** 2

        sides = (
            (res.lhs, res.stderr_lhs, float(lhs_exact), ws_law, lhs_values),
            (res.rhs, res.stderr_rhs, float(rhs_exact), w_law, rhs_values),
        )
        for mean, stderr, exact, law, values in sides:
            assert abs(mean - exact) <= 4 * stderr
            # the sample variance against the exact one, within 4 of its
            # standard error sqrt((mu_4 - var^2) / samples)
            var = float(np.dot(law, (values - exact) ** 2))
            mu4 = float(np.dot(law, (values - exact) ** 4))
            assert abs(stderr**2 * samples - var) <= 4 * math.sqrt((mu4 - var**2) / samples)

    def test_seed_alone_determines_the_result(self, small_model):
        scheme = build_scheme(small_model, 20)
        runs = [size_bias_sample(scheme, lambda x: x * 1.0, 25_001, seed=9) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0] != size_bias_sample(scheme, lambda x: x * 1.0, 25_001, seed=10)

    def test_rate_800_runs_and_sides_agree(self):
        model = WeightedPoissonSum((1, 3), (Fraction(800), Fraction(5)))
        m = moments(model)
        scheme = build_scheme(model, default_trials(model, 10))
        threshold = m.k_den * 850
        res = size_bias_sample(scheme, lambda x: (x >= threshold) * 1.0, 200_000, seed=4)
        assert res.rhs > 0.0
        assert abs(res.lhs - res.rhs) <= 4 * math.hypot(res.stderr_lhs, res.stderr_rhs)

    @pytest.mark.parametrize(
        "weights,rates,factor",
        [((1, 10), (Fraction(100), Fraction(30)), 50), ((1, 3), (Fraction(800), Fraction(5)), 10)],
    )
    def test_no_runtime_warning(self, weights, rates, factor):
        import warnings

        model = WeightedPoissonSum(weights, rates)
        scheme = build_scheme(model, default_trials(model, factor))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            size_bias_sample(scheme, lambda x: (x >= 1000) * 1.0, 20_000, seed=1)
        # M* = 1: the leave-one-out table is the point mass at 0
        scheme = build_scheme(WeightedPoissonSum((1, 2), (Fraction(1, 2), Fraction(1, 3))), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            size_bias_sample(scheme, lambda x: x * 1.0, 10_000, seed=1)


class TestConditionalDeltaBound:
    def test_w_zero_is_tight(self, small_model, small_moments):
        scheme = build_scheme(small_model, 4)
        for cond, delta in conditional_delta_bound(scheme, small_moments, 0):
            assert cond == pytest.approx(float(delta), rel=1e-12)

    def test_all_conditionals_below_delta(self, small_model, small_moments):
        scheme = build_scheme(small_model, 4)
        for w in (1, 2, 3, 5, 8):
            for cond, delta in conditional_delta_bound(scheme, small_moments, w):
                assert cond <= float(delta) * (1 + 1e-12)

    def test_bench_at_mean(self, bench_model, bench_moments):
        scheme = build_scheme(bench_model, default_trials(bench_model, 50))
        pairs = conditional_delta_bound(scheme, bench_moments, 400)
        assert [float(d) for _, d in pairs] == [0.25, 0.75]
        for cond, delta in pairs:
            assert cond <= float(delta)

    def test_zero_probability_point_rejected(self, small_model, small_moments):
        scheme = build_scheme(small_model, 4)
        with pytest.raises(ValidationError):
            conditional_delta_bound(scheme, small_moments, 10_000)

    @pytest.mark.parametrize(
        "weights,rates,trials",
        [
            ((1, 2), (Fraction(1), Fraction(1)), 4),
            ((2, 5), (Fraction(1), Fraction(1)), 3),
            ((1, 2, 5), (Fraction(1), Fraction(1, 2), Fraction(1)), 3),
        ],
    )
    def test_past_the_end_of_a_leave_one_out_table(self, weights, rates, trials):
        # at cap 0 the law of W reaches b_r points past class r's
        # leave-one-out table, and at its top point no class-r trial is
        # zero, so every flipped-trial joint there is 0
        from scaled_poisson.coupling import _tables

        model = WeightedPoissonSum(weights, rates)
        m = moments(model)
        scheme = build_scheme(model, trials)
        w_law, loo = _tables(scheme, 0.0)
        top = w_law.support_max
        assert [top + 1 - lr.size for lr in loo] == list(weights)
        _, joint_flip = enumerate_delta_joint(weights, list(scheme.class_probs), trials)
        full = [(trials, p, b) for p, b in zip(scheme.class_probs, weights)]
        w_law_exact = enumerate_w_law_reference(full)
        for w in (top - weights[0], top):
            pairs = conditional_delta_bound(scheme, m, w, cap=0.0)
            for r, (cond, _) in enumerate(pairs):
                want = float(joint_flip[r].get(w, Fraction(0)) / w_law_exact[w])
                assert cond == pytest.approx(want, rel=1e-12, abs=0.0), (w, r)
        assert [cond for cond, _ in pairs] == [0.0] * len(weights)


class TestHDecomposition:
    def test_single_class_reduces_to_classical(self):
        model = WeightedPoissonSum((1,), (Fraction(2),))
        m = moments(model)
        scheme, ctx, table = _stein_setup(model, m, y=4, mstar_factor=25)
        hd = h_decomposition(scheme, m, ctx, table)
        assert hd.closure_error <= 1e-10

    def test_small_model_closure(self, small_model, small_moments):
        scheme, ctx, table = _stein_setup(small_model, small_moments, y=5, mstar_factor=50)
        hd = h_decomposition(scheme, small_moments, ctx, table)
        assert hd.closure_error <= 1e-8
        # independent check of the tail difference itself
        wd = w_distribution(scheme, epsilon=1e-250)
        lo, _ = wd.tail(Fraction(25, 3), strict=False)
        assert hd.tail_diff == pytest.approx(
            lo - poisson_tail(Fraction(9, 5), 5), abs=1e-12
        )

    def test_bench_closure_and_h2_inequality(self, bench_model, bench_moments):
        scheme, ctx, table = _stein_setup(bench_model, bench_moments, y=60, mstar_factor=50)
        hd = h_decomposition(scheme, bench_moments, ctx, table)
        assert hd.closure_error <= 1e-8
        h0, h1, h2 = hd.H
        # K_2 = 2 makes the first term vanish: |H_2| <= (delta_2/delta_1) |H_1|
        assert abs(h2) <= 3 * abs(h1) + 1e-15

    def test_exhaustive_scheme_against_mpmath_table(self):
        # coupling-check --weights 1,2 --rates 1,1 --mstar 6 --y 5: the H terms
        # from the solved table against the same terms from a 50-digit f table
        # with the same float P.  At lattice points at or below m*y the table
        # holds -(P/(lam*m)) D_low(j), equal to P*S0 - (1-P)*S1 only for the
        # exact P, so the 50-digit table takes the same form there.
        model = WeightedPoissonSum((1, 2), (Fraction(1), Fraction(1)))
        m = moments(model)
        y = 5
        scheme, ctx, table = _stein_setup(model, m, y=y, mstar_factor=6)
        assert table.w_max == 80
        step = ctx.lattice_step
        p_mp = mp.mpf(table.tail_at_threshold)
        exact = np.zeros(table.w_max + 1)
        for w in range(1, table.w_max + 1):
            s0, s1 = mp_stein_halves(ctx.lam, step, y, w)
            exact[w] = float(p_mp * s0 - (1 - p_mp) * s1)
        for j, d in enumerate(mp_d_low(ctx.lam, y), start=1):
            exact[step * j] = float(-p_mp * d / (_mp_rate(ctx.lam) * step))
        truth = SteinSolutionTable(
            ctx=ctx,
            w_max=table.w_max,
            values=exact,
            truncation_terms=table.truncation_terms,
            tail_at_threshold=table.tail_at_threshold,
            has_off_lattice=True,
        )
        got = h_decomposition(scheme, m, ctx, table).H
        want = h_decomposition(scheme, m, ctx, truth).H
        for g, h in zip(got, want):
            assert abs(g - h) <= 5e-15 * abs(h)

    def test_small_model_h2_inequality(self, small_model, small_moments):
        scheme, ctx, table = _stein_setup(small_model, small_moments, y=5, mstar_factor=50)
        hd = h_decomposition(scheme, small_moments, ctx, table)
        h0, h1, h2 = hd.H
        # K_2 = ceil(6/5) = 2, delta_2/delta_1 = 2
        assert abs(h2) <= 2 * abs(h1) + 1e-15

    def test_table_coverage_validated(self, small_model, small_moments):
        scheme = build_scheme(small_model, 50)
        ctx = SteinContext(lam=small_moments.lam, lattice_step=5, scale_num=3, threshold_y=5)
        short = solve_stein(ctx, 5 * 15, include_off_lattice=True)
        with pytest.raises(ValidationError, match="rebuild"):
            h_decomposition(scheme, small_moments, ctx, short)

    def test_table_ending_at_the_sizing_rule(self, small_model, small_moments):
        # f is read at n*W + m and n*W + n*b_r up to the top of W's support
        # (24 with 8 trials of weights 1, 2): a table ending exactly there
        # is enough, one point shorter is refused
        scheme = build_scheme(small_model, 8)
        ctx = SteinContext(lam=small_moments.lam, lattice_step=5, scale_num=3, threshold_y=5)
        need = _table_w_needed(small_moments, 24, scheme.replication)
        assert need == 3 * 24 + max(5, 3 * 2)
        table = solve_stein(ctx, need, include_off_lattice=True)
        assert h_decomposition(scheme, small_moments, ctx, table).closure_error <= 1e-8
        short = solve_stein(ctx, need - 1, include_off_lattice=True)
        with pytest.raises(ValidationError, match="rebuild"):
            h_decomposition(scheme, small_moments, ctx, short)

    def test_closure_on_randomized_models(self):
        # seeded configurations across different lattice shapes
        rng = __import__("random").Random(404)
        for _ in range(4):
            r = rng.randint(1, 3)
            weights = tuple(sorted(rng.sample(range(1, 8), r)))
            rates = tuple(Fraction(rng.randint(1, 6), rng.choice((1, 2))) for _ in range(r))
            model = WeightedPoissonSum(weights, rates)
            m = moments(model)
            lam_ceil = -((-m.lam.numerator) // m.lam.denominator)
            y = lam_ceil + rng.randint(1, 4)
            scheme, ctx, table = _stein_setup(model, m, y=y, mstar_factor=rng.choice((20, 40)))
            hd = h_decomposition(scheme, m, ctx, table)
            assert hd.closure_error <= 1e-8, (weights, rates, y, hd)

    def test_context_mismatch_rejected(self, small_model, small_moments, bench_moments):
        scheme = build_scheme(small_model, 10)
        ctx = SteinContext(
            lam=bench_moments.lam, lattice_step=31, scale_num=4, threshold_y=60
        )
        table = solve_stein(ctx, 31 * 80, include_off_lattice=True)
        with pytest.raises(ValidationError, match="moments"):
            h_decomposition(scheme, small_moments, ctx, table)
        with pytest.raises(ValidationError, match="moments"):
            g_expectation_ratio(scheme, small_moments, ctx, table, 1)

    def test_scheme_of_another_model_with_the_same_mu_is_refused(self, bench_model):
        # weights 1,2 at rates 200,100 share mu = 400 with the benchmark
        # model, but not sigma^2 = 600 or k = 2/3; the benchmark scheme was
        # read under their moments, with no error
        other = moments(WeightedPoissonSum((1, 2), (Fraction(200), Fraction(100))))
        scheme = build_scheme(bench_model, 200)
        ctx = SteinContext(
            lam=other.lam, lattice_step=other.k_den, scale_num=other.k_num, threshold_y=300
        )
        table = solve_stein(ctx, 3 * 310, include_off_lattice=True)
        for check in (
            lambda: h_decomposition(scheme, other, ctx, table),
            lambda: g_expectation_ratio(scheme, other, ctx, table, 1),
            lambda: delta_distribution(scheme, other),
        ):
            with pytest.raises(ValidationError, match="do not match"):
                check()

    def test_table_of_another_context_is_refused(self, bench_model, bench_moments):
        # a y = 60 table read under y = 70 gave a closure_error of 0.012
        scheme, ctx, table = _stein_setup(bench_model, bench_moments, y=60, mstar_factor=25)
        y70 = SteinContext(lam=ctx.lam, lattice_step=31, scale_num=4, threshold_y=70)
        assert h_decomposition(scheme, bench_moments, ctx, table).closure_error <= 1e-12
        for check in (
            lambda: h_decomposition(scheme, bench_moments, y70, table),
            lambda: g_expectation_ratio(scheme, bench_moments, y70, table, 27),
        ):
            with pytest.raises(ValidationError, match="another Stein context"):
                check()


class TestJointLawOracle:
    @pytest.mark.parametrize(
        "weights,rates,trials",
        [
            ((1, 2), (Fraction(1), Fraction(1)), 4),
            ((2, 5), (Fraction(1), Fraction(1)), 3),
            ((1,), (Fraction(3, 4),), 6),
            # R >= 3, one of them with classes ({2, 4}) on the stride-2 lattice
            ((1, 2, 5), (Fraction(1), Fraction(1, 2), Fraction(1)), 3),
            ((2, 4, 5), (Fraction(1), Fraction(1, 2), Fraction(2, 3)), 3),
            ((1, 2, 3, 5), (Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(1)), 2),
        ],
    )
    def test_leave_one_out_joints_match_enumeration(self, weights, rates, trials):
        # the H-terms integrate f against these joint laws, so pin them
        # against a literal enumeration over trials and the index draw
        from scaled_poisson.coupling import _tables

        model = WeightedPoissonSum(weights, rates)
        m = moments(model)
        scheme = build_scheme(model, trials)
        _, loo = _tables(scheme, 0.0)
        joint_same, joint_flip = enumerate_delta_joint(weights, list(scheme.class_probs), trials)

        # flipped-trial branch, per class: delta_r (1 - p_r) P(W_loo_r = w)
        for r, (p, b) in enumerate(zip(scheme.class_probs, scheme.replication)):
            delta_r = Fraction(b) * trials * p / m.mu
            for w, prob in joint_flip[r].items():
                got = float(delta_r) * (1 - float(p)) * float(loo[r][w])
                assert got == pytest.approx(float(prob), rel=1e-12, abs=1e-16)

        # same-cell branch, aggregated: sum_r (b_r M* p_r^2 / mu) P(W_loo_r = w - b_r)
        import numpy as np

        support = max(joint_same, default=0) + max(scheme.replication) + 1
        agg = np.zeros(support + max(lr.size for lr in loo))
        for r, (p, b) in enumerate(zip(scheme.class_probs, scheme.replication)):
            c_r = float(Fraction(b) * trials * p * p / m.mu)
            agg[b : b + loo[r].size] += c_r * loo[r]
        for w, prob in joint_same.items():
            assert agg[w] == pytest.approx(float(prob), rel=1e-12, abs=1e-16)


class TestCouplingTables:
    @pytest.mark.parametrize("cap", [-1e-3, 1.0, 2.5])
    def test_cap_outside_unit_interval_is_refused(self, small_model, small_moments, cap):
        scheme, ctx, table = _stein_setup(small_model, small_moments, y=5, mstar_factor=10)
        with pytest.raises(ValidationError, match="cap"):
            h_decomposition(scheme, small_moments, ctx, table, cap=cap)
        with pytest.raises(ValidationError, match="cap"):
            conditional_delta_bound(scheme, small_moments, 2, cap=cap)
        with pytest.raises(ValidationError, match="cap"):
            g_expectation_ratio(scheme, small_moments, ctx, table, 1, cap=cap)

    @pytest.mark.parametrize(
        "weights, rates, trials, cap",
        [
            # the benchmark's sampled check, --mstar 50: capped, with a deficit
            ((1, 10), (100, 30), 5000, 1e-250),
            ((1, 2, 5), (4, 3, 2), 40, 1e-250),
            ((1, 2), (1, 1), 20, 0.0),
        ],
    )
    def test_w_law_is_the_one_law_of_w(self, weights, rates, trials, cap):
        from scaled_poisson.coupling import _tables

        model = WeightedPoissonSum(weights, tuple(Fraction(r) for r in rates))
        scheme = build_scheme(model, trials)
        w_law, _ = _tables(scheme, cap)
        want = w_distribution(scheme, cap)
        assert np.array_equal(w_law.probs, want.probs)
        assert w_law.mass_deficit == want.mass_deficit
        assert w_law.support_max == want.support_max
        # every check of a command reads this one cached law
        with pytest.raises(ValueError):
            w_law.probs[0] = 0.0

    @pytest.mark.parametrize("cap", [1e-250, 0.0])
    def test_leave_one_out_laws_are_read_only(self, small_model, small_moments, cap):
        # the checks of a command share these cached laws, so a write by one
        # would change what every later check reads
        from scaled_poisson.coupling import _tables

        scheme = build_scheme(small_model, 6)
        before = conditional_delta_bound(scheme, small_moments, 3, cap=cap)
        _, loo = _tables(scheme, cap)
        for law in loo:
            with pytest.raises(ValueError):
                law[3] *= 2
        assert conditional_delta_bound(scheme, small_moments, 3, cap=cap) == before

    @pytest.mark.parametrize(
        "weights, rates, trials",
        [
            ((1, 10), (100, 30), 600),  # the benchmark model at --mstar 6, 50 and 100
            ((1, 10), (100, 30), 5000),
            ((1, 10), (100, 30), 10000),
            ((1, 2, 5), (4, 3, 2), 40),
        ],
    )
    @pytest.mark.parametrize("cap", [1e-250, 0.0])
    def test_laws_equal_the_bare_convolutions(self, weights, rates, trials, cap):
        # the law of W, from the one builder, and the leave-one-out tables
        # hold the bare convolutions' entries; W's law states its deficit,
        # exactly 0.0 when no table was cut
        from scaled_poisson.bernoulli_lattice import _capped_class_pmfs
        from scaled_poisson.coupling import _tables

        model = WeightedPoissonSum(weights, tuple(Fraction(r) for r in rates))
        scheme = build_scheme(model, trials)
        w_law, loo = _tables(scheme, cap)
        budget = cap / len(weights)
        full, _ = _capped_class_pmfs(scheme, trials, budget)
        reduced, _ = _capped_class_pmfs(scheme, trials - 1, budget)
        want_w, want_loo = coupling_laws_reference(full, reduced)
        assert np.array_equal(w_law.probs, want_w)
        if cap == 0.0:
            assert w_law.mass_deficit == 0.0
        else:
            assert 0.0 < w_law.mass_deficit <= cap
        assert len(loo) == len(want_loo)
        for law, want in zip(loo, want_loo):
            assert type(law) is np.ndarray and not law.flags.writeable
            assert np.array_equal(law, want)

    @pytest.mark.parametrize(
        "weights, rates, trials", [((1, 10), (100, 30), 5000), ((1, 2, 5), (4, 3, 2), 40)]
    )
    def test_cold_build_sums_only_the_tails_it_reads(self, weights, rates, trials, monkeypatch):
        # one compensated sum per class table for its cap (2R), and the law
        # of W's tail sums; the leave-one-out tables have none
        from scaled_poisson import bernoulli_lattice, weighted_sum
        from scaled_poisson.coupling import _tables

        calls = []
        original = weighted_sum._suffix_sums

        def counted(probs):
            calls.append(probs.size)
            return original(probs)

        for module in (weighted_sum, bernoulli_lattice):
            monkeypatch.setattr(module, "_suffix_sums", counted)
        scheme = build_scheme(WeightedPoissonSum(weights, tuple(map(Fraction, rates))), trials)
        _tables.cache_clear()
        _tables(scheme, 1e-250)
        assert len(calls) == 2 * len(weights) + 1

    def test_far_apart_build_peaks_at_what_it_keeps(self):
        # the top class's leave-one-out law strides by 2**16 first, so its
        # later strides hold 0.5 MiB temporaries; it is built first, while
        # only W's law is held, so the build peaks at the 1.5 MiB it keeps
        # (2.5 MiB when the laws were built in class order)
        import tracemalloc

        from scaled_poisson.coupling import _tables

        scheme = build_scheme(WeightedPoissonSum((1, 2**16), (Fraction(1), Fraction(1))), 2)
        _tables.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, loo = _tables(scheme, 1e-250)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _tables.cache_clear()
        assert [lr.size for lr in loo] == [2**17 + 2, 2**16 + 3]
        assert peak - kept <= 64 * 1024

    def test_shared_tables_give_the_same_results(self, bench_model, bench_moments):
        # the checks of one command share one build of the tables; each
        # check must leave it as a fresh build would, so running every check
        # twice on one build reproduces the results of fresh builds
        from scaled_poisson.coupling import _tables

        scheme, ctx, table = _stein_setup(bench_model, bench_moments, y=60, mstar_factor=25)

        def f(x):
            return (x >= 31 * 60) * 1.0

        checks = [
            lambda: h_decomposition(scheme, bench_moments, ctx, table),
            lambda: size_bias_sample(scheme, f, 20_000, seed=5),
            lambda: conditional_delta_bound(scheme, bench_moments, 400),
            lambda: g_expectation_ratio(scheme, bench_moments, ctx, table, 27),
        ]
        fresh = []
        for check in checks:
            _tables.cache_clear()
            fresh.append(check())
        _tables.cache_clear()
        assert [check() for check in checks * 2] == fresh * 2
        assert _tables.cache_info().misses == 1


class TestGExpectationRatio:
    def test_ratio_finite_and_recorded(self, small_model, small_moments):
        scheme, ctx, table = _stein_setup(small_model, small_moments, y=5, mstar_factor=50)
        for l in (1, 3, 5):
            res = g_expectation_ratio(scheme, small_moments, ctx, table, l)
            assert math.isfinite(res.ratio)
            assert math.isfinite(res.lhs) and math.isfinite(res.rhs)

    def test_bench_ratio_finite(self, bench_model, bench_moments):
        scheme, ctx, table = _stein_setup(bench_model, bench_moments, y=60, mstar_factor=25)
        res = g_expectation_ratio(scheme, bench_moments, ctx, table, 27)
        assert math.isfinite(res.ratio)
