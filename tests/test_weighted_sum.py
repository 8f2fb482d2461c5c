import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaled_poisson import (
    LatticeDistribution,
    ValidationError,
    WeightedPoissonSum,
    exact_distribution,
    exact_tail,
    moments,
    normal_approx_tail,
    normalize_weights,
    poisson_tail,
    relative_error_sweep,
    scaled_poisson_tail,
)

from scaled_poisson.bernoulli_lattice import binomial_pmf_vector
from scaled_poisson.poisson_core import _regularized_gamma_pq
import scaled_poisson.weighted_sum as weighted_sum
from scaled_poisson.weighted_sum import (
    _BLOCK,
    _compensated_total,
    _convolve_classes,
    _poisson_pmf_vector,
    _stride_convolve,
    _suffix_sums,
    _tail_sums,
    _truncation_point,
)

from oracles import (
    enumerate_weighted_sum_pmf,
    exact_suffix_sums,
    panjer_tail,
    panjer_tails,
    suffix_sums_dense,
    suffix_sums_reference,
)

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
        # 5e-324 / 2 rounds to 0.0, and no tail is below a zero budget
        with pytest.raises(ValidationError, match="rounds to 0"):
            exact_distribution(small_model, 5e-324)
        # 1e-323 / 2 is the least subnormal, 5e-324: the tails are cut where they underflow
        dist = exact_distribution(small_model, 1e-323)
        assert 0.0 <= dist.mass_deficit <= 1e-323
        assert dist.tail(2) == pytest.approx(exact_distribution(small_model).tail(2), rel=1e-15)


def _poisson_table(rate):
    """The class table exact_distribution builds at epsilon 1e-12, and its mass."""
    n, _ = _truncation_point(float(rate), 1e-12)
    mass = _regularized_gamma_pq(n + 1, float(rate))[1]
    return _poisson_pmf_vector(float(rate), n, mass), mass


class TestModeTable:
    """Every class table comes from one mode-anchored recurrence."""

    @pytest.mark.parametrize("rate", [Fraction(1600, 31), 100, 690, 800, 5000, 10**5])
    def test_poisson_table_against_mpmath(self, rate):
        # no rate ceiling: pmf(0) = exp(-800) underflows, the mode does not
        table, _ = _poisson_table(rate)
        r = float(rate)
        points = {0, table.size - 1}
        for d in (-30, -12, -8, -3, -1, 0, 1, 3, 8, 12):
            k = math.floor(r + d * math.sqrt(r))
            if 0 <= k < table.size:
                points.add(k)
        with mp.workdps(50):
            lam = mp.mpf(r)
            for k in sorted(points):
                truth = mp.exp(-lam + k * mp.log(lam) - mp.loggamma(k + 1))
                if truth < 1e-300:
                    assert table[k] < 1e-290, (k, table[k])
                    continue
                assert abs(table[k] - truth) <= 1e-14 * truth, (k, table[k], truth)

    @pytest.mark.parametrize(
        "case",
        [
            (5000, Fraction(1, 50)),
            (5000, Fraction(3, 500)),
            (10000, Fraction(1, 100)),
            (8000, Fraction(1, 10)),
            (80000, Fraction(1, 100)),
            (6, Fraction(1, 2)),
            (1, Fraction(1, 3)),
            (20, Fraction(1)),
            Fraction(1, 10),
            1,
            Fraction(1600, 31),
            800,
            5000,
            10**5,
        ],
    )
    def test_table_mass_within_one_ulp(self, case):
        # one scale by the compensated sum sets each table's mass: the
        # binomial's 1, the Poisson's P(A <= n)
        if isinstance(case, tuple):
            table, mass = binomial_pmf_vector(*case), 1.0
        else:
            table, mass = _poisson_table(case)
        assert abs(math.fsum(table.tolist()) - mass) <= math.ulp(mass)

    def test_rate_800_brackets_hold_panjer_truth(self):
        # exact-tail --rates 800,30 exited 2 under the pmf(0) recurrence
        model = WeightedPoissonSum((1, 10), (Fraction(800), Fraction(30)))
        dist = exact_distribution(model, 1e-12)
        ys = range(1000, 1501)
        for y, truth in zip(ys, panjer_tails((1, 10), (800, 30), ys)):
            lo, hi = dist.tail(y, strict=True)
            slack = 4 * 2.0**-52 * truth
            assert lo - slack <= truth <= hi + slack, (y, lo, truth, hi)


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


def test_convolution_keeps_the_tables_dtype():
    # float tables give a float64 law; Fraction tables an exact object-array law
    half = [Fraction(1, 2), Fraction(1, 2)]
    third = [Fraction(2, 3), Fraction(1, 3)]
    exact = _convolve_classes([(np.array(half, dtype=object), 1), (np.array(third, dtype=object), 3)])
    assert exact.dtype == object
    assert exact.tolist() == [Fraction(1, 3), Fraction(1, 3), 0, Fraction(1, 6), Fraction(1, 6)]
    floats = _convolve_classes([(np.array([0.5, 0.5]), 1), (np.array([2 / 3, 1 / 3]), 3)])
    assert floats.dtype == np.float64
    assert floats.tolist() == [float(x) for x in exact.tolist()]


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

    @given(
        head=st.integers(min_value=0, max_value=4),
        body=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=5e-324, max_value=1.0),
                st.floats(min_value=1e-12, max_value=1e-3),
            ),
            max_size=40,
        ),
        tail=st.integers(min_value=0, max_value=4),
    )
    @example(head=0, body=[0.25], tail=0)  # length 1
    @example(head=0, body=[0.0], tail=0)  # one zero
    @example(head=3, body=[], tail=2)  # all zeros
    @example(head=2, body=[0.5, 0.0, 0.0, 0.125], tail=3)  # zero ends and interior zeros
    @example(head=0, body=[0.5, 0.0, 0.125], tail=0)  # interior zeros only
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_span_sums_equal_the_dense_sums(self, head, body, tail):
        # zero ends are skipped, every suffix still bit for bit the dense sum
        probs = np.array([0.0] * head + body + [0.0] * tail)
        got, want = _suffix_sums(probs), suffix_sums_dense(probs)
        assert got.size == want.size == probs.size + 1
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

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


def _random_table(size, seed, zero_share=0.0, decades=300):
    """Entries spread over some decades below 1, a share of them exact zeros."""
    rng = np.random.default_rng(seed)
    probs = rng.random(size) * 10.0 ** rng.integers(-decades, 1, size)
    probs[rng.random(size) < zero_share] = 0.0
    return probs


def _assert_blocked_sums_equal_reference(probs):
    """_suffix_sums and _compensated_total bit for bit the one-pass sums."""
    want = suffix_sums_reference(probs)
    got = _suffix_sums(probs)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    total = _compensated_total(probs)
    assert type(total) is float
    assert np.float64(total).tobytes() == want[0].tobytes()


def _traced_peak(f, *args):
    """Bytes f(*args) holds at its peak beyond what was held before it, and
    its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = f(*args)
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


class TestBlockedSums:
    """The compensated sums run through fixed blocks, bit for bit one pass."""

    @pytest.mark.parametrize(
        "size",
        [0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, 2 * _BLOCK + 2,
         3 * _BLOCK + 5],
    )
    @pytest.mark.parametrize("zero_share,decades", [(0.0, 0), (0.0, 300), (0.3, 300)])
    def test_sizes_at_block_edges(self, size, zero_share, decades):
        # entries of one decade make a rounding error at nearly every step
        probs = _random_table(size, seed=size, zero_share=zero_share, decades=decades)
        if size:
            # a nonzero end entry at each end, so the whole table is summed
            probs[0], probs[-1] = 0.25, 0.5
        _assert_blocked_sums_equal_reference(probs)

    @pytest.mark.parametrize(
        "lead,trail",
        [
            (_BLOCK + 3, _BLOCK // 2 + 7),
            (1, _BLOCK + 1),
            (_BLOCK, 0),
            (0, _BLOCK + 2),
            (2 * _BLOCK + 1, 1),
            (1, 2 * _BLOCK + 1),
            (3 * _BLOCK + 4, 0),  # one nonzero entry, at the top
        ],
    )
    def test_zero_ended_spans_across_block_edges(self, lead, trail):
        size = 3 * _BLOCK + 5
        probs = _random_table(size, seed=lead + 7 * trail, zero_share=0.2)
        probs[:lead] = 0.0
        probs[size - trail :] = 0.0
        probs[lead], probs[size - trail - 1] = 0.125, 0.375
        _assert_blocked_sums_equal_reference(probs)

    @pytest.mark.parametrize("size", [1, 2, 2 * _BLOCK + 3])
    def test_all_zero_table(self, size):
        probs = np.zeros(size)
        _assert_blocked_sums_equal_reference(probs)
        assert not _suffix_sums(probs).any()
        assert _compensated_total(probs) == 0.0

    @given(
        block=st.integers(min_value=1, max_value=5),
        size=st.integers(min_value=0, max_value=40),
        zero_share=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_small_blocks(self, block, size, zero_share, seed):
        # blocks of a few entries put many block edges inside a small table
        probs = _random_table(size, seed, zero_share)
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(weighted_sum, "_BLOCK", block)
            _assert_blocked_sums_equal_reference(probs)

    def test_mode_table_totals(self):
        # a Poisson table of rate 1e5 spans 13 blocks; a binomial table has
        # an underflowed upper tail, so its total is over the nonzero span
        for table in (
            _poisson_pmf_vector(1e5, 103183, 1.0),
            binomial_pmf_vector(10000, Fraction(1, 100)),
        ):
            assert table.size > _BLOCK
            _assert_blocked_sums_equal_reference(table)


class TestBlockedSumsMemory:
    """The output is the only input-sized array the tail sums make."""

    @pytest.mark.parametrize("lead", [0, 5])
    def test_suffix_sums_peak_is_the_output_and_three_blocks(self, lead):
        probs = _random_table(4 * _BLOCK, seed=4)
        probs[0], probs[-1] = 0.25, 0.5
        probs[:lead] = 0.0
        peak, sums = _traced_peak(_suffix_sums, probs)
        assert peak <= sums.nbytes + 3 * (_BLOCK + 1) * 8

    def test_total_peak_is_three_blocks(self):
        probs = _random_table(4 * _BLOCK, seed=5)
        probs[0], probs[-1] = 0.25, 0.5
        peak, _ = _traced_peak(_compensated_total, probs)
        assert peak <= 3 * (_BLOCK + 1) * 8 + 4096

    def test_wide_build_peak(self):
        # 65,856 entries: points, values and tail sums are 1.51 MiB of it
        exact_distribution(WIDE_MODEL, 1e-12)
        peak, dist = _traced_peak(exact_distribution, WIDE_MODEL, 1e-12)
        assert dist._points.size == 65856
        assert peak <= 1.8 * 2**20


def _assert_tails_equal_dense_suffix(dist, thresholds):
    """tail(t, strict=False) and total_mass() bit-equal to the compensated
    suffix over the whole table, zeros included, clamped to its ends."""
    dense = _suffix_sums(dist.probs)
    top = dense.size - 1
    for t in thresholds:
        want = dense[min(max(t, 0), top)]
        assert dist.tail(t, strict=False)[0] == want, t
    assert dist.total_mass() == dense[0]


class TestSparseTailSums:
    """Tails summed over the nonzero entries only, against the dense suffix."""

    def test_wide_model_every_threshold(self):
        dist = exact_distribution(WIDE_MODEL, 1e-12)
        # most of the table cannot be reached, so most entries are exact zeros
        assert dist.support_max == 314148
        assert dist._points.size == 65856
        thresholds = [-1, *range(dist.support_max + 2), 2**70]
        _assert_tails_equal_dense_suffix(dist, thresholds)
        dense = _suffix_sums(dist.probs)
        ts = np.arange(-1, dist.support_max + 3)
        np.testing.assert_array_equal(
            _tail_sums(dist, ts), dense[np.clip(ts, 0, dense.size - 1)]
        )

    @pytest.mark.parametrize("epsilon", [1e-12, 1e-300])
    def test_bench_model_every_threshold(self, bench_model, epsilon):
        dist = exact_distribution(bench_model, epsilon)
        _assert_tails_equal_dense_suffix(dist, [-1, *range(dist.support_max + 2), 2**70])

    @pytest.mark.parametrize(
        "probs",
        [
            [0.0, 0.0, 0.0, 0.3, 0.2, 0.5],  # leading zeros
            [0.3, 0.2, 0.5, 0.0, 0.0, 0.0],  # trailing zeros
            [0.1, 0.0, 0.0, 0.2, 0.0, 0.3, 0.0, 0.0, 0.4, 0.0],  # interior gaps
            [0.0, 0.0, 1.0, 0.0],  # a single nonzero entry
            [1.0],
            [0.0],
            [0.0, 0.0, 0.0],
            # -0.0 is no point; -1e-16, accepted as rounding, is one
            [0.5, -0.0, 0.25, -1e-16, 0.25, 0.0],
            [1e-300, 0.0, 1e-310, 0.0, 0.5, 1e-17, 0.0, 0.5],  # subnormal, small
        ],
    )
    def test_hand_built_laws(self, probs):
        dist = LatticeDistribution(probs=probs, mass_deficit=0.0)
        _assert_tails_equal_dense_suffix(dist, [-1, *range(len(probs) + 2), 2**70])
        np.testing.assert_array_equal(dist._points, [j for j, p in enumerate(probs) if p != 0])
        # a law built from probs reads its pmf from its entries too
        for j, p in enumerate(probs):
            assert dist.pmf(j) == p, j
        for j in (-1, len(probs), 2**70):
            assert dist.pmf(j) == 0.0, j

    @given(
        size=st.integers(min_value=1, max_value=60),
        zero_share=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_random_zero_patterns(self, size, zero_share, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(size) * 10.0 ** rng.integers(-300, 1, size)
        probs[rng.random(size) < zero_share] = 0.0
        dist = LatticeDistribution(probs=probs, mass_deficit=0.0)
        _assert_tails_equal_dense_suffix(dist, range(-1, size + 2))

    def test_wide_model_sweep_rows_read_the_dense_suffix(self):
        # the exact-tail column of the rows against the full-table suffix
        dist = exact_distribution(WIDE_MODEL, 1e-12)
        dense = _suffix_sums(dist.probs)
        for y_from, y_to in [(1, 400), (20000, 20035), (313848, 314148)]:
            for strict in (True, False):
                rows = relative_error_sweep(WIDE_MODEL, y_from, y_to, strict=strict)
                for row in rows:
                    t = min(row.y + strict, dense.size - 1)
                    assert row.exact_tail == dense[t], (row.y, strict)


def _class_tables(model, epsilon):
    """exact_distribution's class tables and its rounded-up deficit."""
    budget = epsilon / model.class_count
    tables, dropped = [], []
    for b, nu in zip(model.weights, model.rates):
        n, tail = _truncation_point(float(nu), budget)
        tables.append((_poisson_pmf_vector(float(nu), n, 1.0 - tail), b))
        dropped.append(tail)
    return tables, math.nextafter(math.fsum(dropped), math.inf)


class TestEntryBuild:
    """exact_distribution builds a law whose top blocks do not overlap from
    its nonzero products alone, bit for bit the law of the dense stride."""

    # weights, rates, epsilon, the length of the lower classes' law, and the
    # products of nonzero entries that underflow to 0 (None: overlapping
    # blocks, built densely)
    MODELS = {
        "wide": ((1, 100, 10000), (5, 3, 1), 1e-12, 4149, 0),
        "adjacent": ((1, 49), (5, 3), 1e-12, 49, 0),
        "overlap_by_one": ((1, 48), (5, 3), 1e-12, 49, None),
        "underflow": ((1, 1000), (5, 3), 1e-300, 301, 17406),
        "one_class": ((3,), (2,), 1e-12, 1, 0),
        "bench": ((1, 10), (100, 30), 1e-12, 221, None),
    }

    @pytest.mark.parametrize("name", MODELS)
    def test_bit_identical_to_the_dense_stride(self, name):
        weights, rates, epsilon, span, underflowed = self.MODELS[name]
        model = WeightedPoissonSum(weights, tuple(Fraction(r) for r in rates))
        tables, deficit = _class_tables(model, epsilon)
        (top, b), lower = tables[-1], _convolve_classes(tables[:-1])
        # the model is in the regime its row names
        assert lower.size == span
        assert (b >= span) == (underflowed is not None)
        if underflowed is not None:
            lost = (np.outer(top, lower) == 0) & np.outer(top != 0, lower != 0)
            assert np.count_nonzero(lost) == underflowed
        dense = LatticeDistribution(probs=_convolve_classes(tables), mass_deficit=deficit)
        dist = exact_distribution(model, epsilon)
        # on either route the law holds its entries, and no dense table
        assert "probs" not in vars(dist)
        assert dist.support_max == dense.support_max
        assert dist.mass_deficit == dense.mass_deficit
        for attr in ("_points", "_sums"):
            assert np.array_equal(getattr(dist, attr), getattr(dense, attr)), attr
        top_j = dist.support_max
        for j in (-1, 0, 1, span - 1, span, b, b + 1, top_j - 1, top_j, top_j + 1, 2**70):
            assert dist.pmf(j) == dense.pmf(j), j
        assert np.array_equal(dist.probs, dense.probs)

    def test_tail_queries_never_build_the_dense_table(self):
        dist = exact_distribution(WIDE_MODEL, 1e-12)
        dist.tail(20000)
        dist.tail(Fraction(1, 3), strict=False)
        dist.total_mass()
        dist.pmf(10000)
        dist.mean()
        assert dist.support_max == 314148
        _tail_sums(dist, np.arange(-1, 400))
        assert "probs" not in vars(dist)
        probs = dist.probs
        assert not probs.flags.writeable
        with pytest.raises(ValueError):
            probs[0] = 0.0
        assert dist.probs is probs

    def test_law_built_from_probs_holds_only_its_entries(self, bench_model):
        # the law takes its entries from the caller's table and keeps none of
        # it: the table stays writable, and a later write moves no query
        table = np.array([0.25, 0.0, 0.75])
        dist = LatticeDistribution(probs=table, mass_deficit=0.0)
        assert table.flags.writeable
        assert "probs" not in vars(dist)
        table[:] = [0.5, 0.5, 0.0]
        assert dist.tail(0, strict=False) == (1.0, 1.0)
        assert dist.tail(1, strict=False) == (0.75, 0.75)
        assert [dist.pmf(j) for j in range(3)] == [0.25, 0.0, 0.75]
        assert "probs" not in vars(dist)
        probs = dist.probs
        assert probs is not table and not probs.flags.writeable
        assert probs.tolist() == [0.25, 0.0, 0.75]
        # the builder's dense route keeps no table either
        dist = exact_distribution(bench_model, 1e-12)
        assert "probs" not in vars(dist)
        assert dist.probs.size == dist.support_max + 1
        assert "probs" in vars(dist)

    def test_dense_route_law_retains_only_its_entries(self):
        # 24 bytes per nonzero point (its position, value and tail sum) and
        # a small fixed slack: the table the classes were convolved into is
        # not kept
        model = WeightedPoissonSum((1, 10), (Fraction(10_000), Fraction(3_000)))
        exact_distribution(model, 1e-12)  # fills any cache first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dist = exact_distribution(model, 1e-12)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the dense table would take 8 bytes for each of 46,701 points
        assert dist.support_max == 46_700
        assert retained <= 24 * dist._points.size + 4096

    @pytest.mark.parametrize(
        "law",
        [
            "wide",
            "bench",
            [0.0, 0.0, 0.0, 0.3, 0.2, 0.5],
            [0.1, 0.0, 0.0, 0.2, 0.0, 0.3, 0.0, 0.0, 0.4, 0.0],
            [0.5, -0.0, 0.25, -1e-16, 0.25, 0.0],
            [0.0],
        ],
    )
    def test_mean_over_the_entries_equals_the_sum_over_the_table(self, bench_model, law):
        if law == "wide":
            dist = exact_distribution(WIDE_MODEL, 1e-12)
        elif law == "bench":
            dist = exact_distribution(bench_model, 1e-12)
        else:
            dist = LatticeDistribution(probs=law, mass_deficit=0.0)
        # taken first, while a law built from its entries has no dense table
        mean = dist.mean()
        assert mean == math.fsum(j * p for j, p in enumerate(dist.probs.tolist()))

    def test_far_apart_weights_need_no_dense_table(self):
        # a dense table of 3.1e9 entries would take 23 GiB; the law has
        # 32 x 32 nonzero entries, each class cut at 31
        model = WeightedPoissonSum((1, 10**8), (Fraction(1), Fraction(1)))
        dist = exact_distribution(model, 1e-12)
        assert dist.support_max == 31 * 10**8 + 31
        assert dist._points.size == 32 * 32
        # S > 5 unless A_2 = 0 and A_1 <= 5
        below = math.exp(-2) * math.fsum(1 / math.factorial(k) for k in range(6))
        assert dist.tail(5)[0] == pytest.approx(1 - below, rel=1e-14)
        assert dist.pmf(10**8) == pytest.approx(math.exp(-2), rel=1e-14)
        assert dist.tail(dist.support_max) == (0.0, dist.mass_deficit)
        assert "probs" not in vars(dist)

    def test_law_past_int64_indexing_refused(self):
        model = WeightedPoissonSum((1, 4 * 10**18), (Fraction(1), Fraction(1)))
        with pytest.raises(ValidationError, match="int64"):
            exact_distribution(model, 1e-12)


class TestLatticeDistributionValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_refused(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            LatticeDistribution(probs=[0.5, bad], mass_deficit=0.0)
        with pytest.raises(ValidationError, match="non-finite"):
            LatticeDistribution(probs=[0.0, 0.0, bad, 0.5], mass_deficit=0.0)

    def test_negative_entry_refused(self):
        with pytest.raises(ValidationError, match="negative"):
            LatticeDistribution(probs=[0.5, -1e-14], mass_deficit=0.0)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, -math.inf])
    def test_negative_or_nan_deficit_refused(self, bad):
        with pytest.raises(ValidationError, match="mass_deficit"):
            LatticeDistribution(probs=[0.5, 0.5], mass_deficit=bad)

    def test_infinite_deficit_is_a_vacuous_bracket(self):
        dist = LatticeDistribution(probs=[0.5, 0.5], mass_deficit=math.inf)
        assert dist.tail(0) == (0.5, math.inf)
        assert dist.total_mass() == 1.0


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

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("corrected", [False, True])
    def test_point_past_the_float_range(self, bench_moments, sign, corrected):
        got = normal_approx_tail(bench_moments, sign * 10**400, continuity_correction=corrected)
        assert got == (0.0 if sign > 0 else 1.0)

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
