import dataclasses
import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaled_poisson import (
    NumericalRangeError,
    SteinContext,
    ValidationError,
    g_l,
    g_m_via_recurrence,
    operator_zero_mean,
    poisson_tail,
    solve_stein,
    stein_apply,
    verify_f_properties,
)
from scaled_poisson.stein_lattice import factorial_envelope

from oracles import (
    mp_d_low,
    mp_stein_depth,
    mp_stein_halves,
    mp_stein_solution,
    stein_d_high_reference,
    verify_f_properties_reference,
)

SMALL_CTX = SteinContext(lam=Fraction(9, 5), lattice_step=5, scale_num=3, threshold_y=3)
BENCH_CTX = SteinContext(lam=Fraction(1600, 31), lattice_step=31, scale_num=4, threshold_y=60)


@pytest.fixture(scope="module")
def small_table():
    return solve_stein(SMALL_CTX, 5 * 80, include_off_lattice=True)


@pytest.fixture(scope="module")
def bench_table():
    return solve_stein(BENCH_CTX, 31 * 115, include_off_lattice=True)


class TestContext:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SteinContext(lam=Fraction(0), lattice_step=5, scale_num=3, threshold_y=3)
        with pytest.raises(ValidationError):
            SteinContext(lam=Fraction(1), lattice_step=4, scale_num=2, threshold_y=3)
        with pytest.raises(ValidationError):
            SteinContext(lam=Fraction(1), lattice_step=5, scale_num=3, threshold_y=0)
        with pytest.raises(ValidationError):
            SteinContext(lam=Fraction(1), lattice_step=5, scale_num=3, threshold_y=3, series_tol=1e-5)

    def test_lambda_m_is_n_mu(self):
        assert BENCH_CTX.lambda_m == 1600


class TestOperator:
    def test_constant_function(self):
        # A c = c (lam m - w)
        for w in (0, 31, 62):
            assert stein_apply(BENCH_CTX, lambda _: 2.5, w) == pytest.approx(
                2.5 * (1600 - w), rel=1e-14
            )

    def test_identity_function(self):
        w = 93
        got = stein_apply(BENCH_CTX, lambda x: float(x), w)
        assert got == pytest.approx(1600 * (w + 31) - w * w, rel=1e-14)

    def test_zero_mean_constant_exact_reasoning(self):
        # f = 1: E[A f] = lam m - m E A = 0
        ctx = SteinContext(lam=Fraction(2), lattice_step=3, scale_num=1, threshold_y=2)
        val = operator_zero_mean(ctx, lambda _: 1.0, 200)
        assert abs(val) <= 1e-10 * (1 + 6 + 3 * 200)

    def test_zero_mean_refuses_rate_whose_pmf_zero_underflows(self):
        # exp(-800) underflows: the truncated mean would silently read 0
        ctx = SteinContext(lam=Fraction(800), lattice_step=1, scale_num=1, threshold_y=2)
        with pytest.raises(ValidationError):
            operator_zero_mean(ctx, lambda _: 1.0, 1000)

    def test_zero_mean_linear_and_indicator(self):
        ctx = SteinContext(lam=Fraction(9, 5), lattice_step=5, scale_num=3, threshold_y=3)
        for f in (lambda w: float(w), lambda w: 1.0 if w >= 10 else 0.0):
            vals = [abs(stein_apply(ctx, f, 5 * j)) for j in range(200)]
            assert abs(operator_zero_mean(ctx, f, 200)) <= 1e-10 * (1 + max(vals))


class TestSolveStein:
    def test_residual_small_ctx(self, small_table):
        assert small_table.residual_max <= 1e-9

    def test_residual_bench(self, bench_table):
        assert bench_table.residual_max <= 1e-9

    def test_wmax_validation(self):
        with pytest.raises(ValidationError):
            solve_stein(SMALL_CTX, 5 * 12)

    def test_f_zero_convention(self, small_table):
        assert small_table.f(0) == 0.0

    def test_against_raw_series_oracle_small(self, small_table):
        for w in [5, 10, 15, 14, 16, 3, 7, 23, 40, 101, 250]:
            ref = mp_stein_solution(Fraction(9, 5), 5, 3, w)
            assert small_table.f(w) == pytest.approx(ref, rel=5e-11)

    def test_against_raw_series_oracle_bench(self, bench_table):
        for w in [31, 62, 32, 35, 63, 300, 900, 1500, 1829, 1859, 1860, 1861, 2790, 3500]:
            ref = mp_stein_solution(Fraction(1600, 31), 31, 60, w)
            assert bench_table.f(w) == pytest.approx(ref, rel=5e-10)

    def test_negative_beyond_threshold(self, small_table, bench_table):
        for table, ctx in ((small_table, SMALL_CTX), (bench_table, BENCH_CTX)):
            for w in range(ctx.threshold_point, table.w_max + 1):
                assert table.f(w) < 0.0

    def test_lattice_monotone_beyond_threshold(self, bench_table):
        pts = range(BENCH_CTX.threshold_point, bench_table.w_max - 31, 31)
        for w in pts:
            assert bench_table.f(w + 31) > bench_table.f(w)

    def test_threshold_below_mean_regime(self):
        # m y < lam m flips which series terms grow before decaying
        ctx = SteinContext(lam=Fraction(1600, 31), lattice_step=31, scale_num=4, threshold_y=40)
        table = solve_stein(ctx, 31 * 95, include_off_lattice=True)
        assert table.residual_max <= 1e-9
        for w in [31, 32, 40, 1200, 1240, 1241, 1600, 2500]:
            ref = mp_stein_solution(Fraction(1600, 31), 31, 40, w)
            assert table.f(w) == pytest.approx(ref, rel=5e-10)

    def test_beyond_float_range_raises(self):
        # f_h grows like exp(lam) near w = m: past the float range at lam = 720
        ctx = SteinContext(lam=Fraction(720), lattice_step=7, scale_num=1, threshold_y=900)
        with pytest.raises(NumericalRangeError, match="first at w = 1, for lam = 720"):
            solve_stein(ctx, 7 * 910, include_off_lattice=True)

    @pytest.mark.parametrize("off", [True, False])
    def test_overflowing_series_terms_stop(self, off):
        # the series terms pass the float range before they start to fall,
        # so the recurrence's depth must be found in log space
        ctx = SteinContext(lam=Fraction(5000), lattice_step=1, scale_num=1, threshold_y=600)
        with pytest.raises(NumericalRangeError, match="lam = 5000"):
            solve_stein(ctx, 2000, include_off_lattice=off)

    def test_lattice_only_table(self):
        t = solve_stein(SMALL_CTX, 5 * 40)
        assert t.f(5) < 0
        with pytest.raises(ValidationError):
            t.f(7)

    def test_uncovered_point_rejected(self, small_table):
        with pytest.raises(ValidationError):
            small_table.f(small_table.w_max + 1)

    def test_tables_compare_by_identity_and_hash(self):
        a = solve_stein(SMALL_CTX, 5 * 40)
        b = solve_stein(SMALL_CTX, 5 * 40)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert a == a
        assert a != b
        assert len({a, b}) == 2


class TestGFunctions:
    def test_recurrence_matches_differencing_on_lattice(self, bench_table):
        for j in range(1, 60):
            direct = g_l(BENCH_CTX, bench_table, 31 * j, 31)
            via = g_m_via_recurrence(BENCH_CTX, bench_table, 31 * j)
            assert via == pytest.approx(direct, abs=1e-8)

    def test_recurrence_matches_differencing_off_lattice(self, bench_table):
        for w in [32, 47, 100, 500, 1000, 1500, 1858]:
            direct = g_l(BENCH_CTX, bench_table, w, 31)
            via = g_m_via_recurrence(BENCH_CTX, bench_table, w)
            assert via == pytest.approx(direct, rel=1e-8, abs=1e-8)

    def test_g_m_envelope_small_ctx(self, small_table):
        # closed bound at w = 5, l = 5
        lam_m = 9.0
        g = g_l(SMALL_CTX, small_table, 5, 5)
        bound = 1 / lam_m + factorial_envelope(SMALL_CTX, 5) * abs(5 - lam_m) / lam_m
        assert g <= bound * (1 + 1e-12)

    def test_g_l_envelope_small_ctx(self, small_table):
        for w in range(5, 15):
            b = factorial_envelope(SMALL_CTX, w)
            for l in range(1, 5):
                assert abs(g_l(SMALL_CTX, small_table, w, l)) <= b * (1 + 1e-12)

    def test_domain_checks(self, small_table):
        with pytest.raises(ValidationError):
            g_l(SMALL_CTX, small_table, 3, 1)  # below first lattice point
        with pytest.raises(ValidationError):
            g_l(SMALL_CTX, small_table, 15, 1)  # at the threshold
        with pytest.raises(ValidationError):
            g_l(SMALL_CTX, small_table, 5, 6)  # l out of range


class TestVerifyProperties:
    def test_small_ctx_all_pass(self, small_table):
        report = verify_f_properties(SMALL_CTX, small_table, range(5, 201))
        assert report.all_passed
        assert report["tail_jump_positive_c_over_w"].observed_constant > 0

    def test_bench_all_pass(self, bench_table):
        report = verify_f_properties(BENCH_CTX, bench_table, range(31, 31 * 90 + 1))
        for check in report.checks:
            assert check.passed, check

    def test_non_finite_table_never_passes(self, small_table):
        # inf - inf differences give NaN margins, which must not read as passed
        values = small_table.values.copy()
        values[1:] = np.inf
        table = dataclasses.replace(small_table, values=values)
        with np.errstate(invalid="ignore"):
            report = verify_f_properties(SMALL_CTX, table, range(5, 201))
        assert len(report.checks) == 5
        for check in report.checks:
            assert math.isnan(check.worst_margin), check
            assert not check.passed, check

    def test_degenerate_unit_lattice(self):
        # m = 1 collapses to the classical integer case
        ctx = SteinContext(lam=Fraction(2), lattice_step=1, scale_num=1, threshold_y=4)
        table = solve_stein(ctx, 80, include_off_lattice=True)
        assert table.residual_max <= 1e-12
        report = verify_f_properties(ctx, table, range(1, 60))
        assert report.all_passed


class TestFactorialSandwich:
    def test_exact_integer_inequality(self):
        # m^(j+1) prod(l + floor(w/m)) <= prod(w + m l) <= m^(j+1) prod(l + floor(w/m) + 1)
        rng = random.Random(123)
        for _ in range(300):
            w = rng.randint(1, 1000)
            j = rng.randint(0, 50)
            m = rng.choice([1, 2, 5, 31, 97])
            mid = math.prod(w + m * l for l in range(j + 1))
            q = w // m
            lo = m ** (j + 1) * math.prod(l + q for l in range(j + 1))
            hi = m ** (j + 1) * math.prod(l + q + 1 for l in range(j + 1))
            assert lo <= mid <= hi

    @given(
        w=st.integers(min_value=1, max_value=1000),
        j=st.integers(min_value=0, max_value=50),
        m=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_sandwich(self, w, j, m):
        mid = math.prod(w + m * l for l in range(j + 1))
        q = w // m
        lo = m ** (j + 1) * math.prod(l + q for l in range(j + 1))
        hi = m ** (j + 1) * math.prod(l + q + 1 for l in range(j + 1))
        assert lo <= mid <= hi


class TestSplitIndex:
    def test_floor_interaction_inequality_chain(self):
        # j' is the last series index with w + m j' < m y; the two floor
        # roundings interact: floor(w/m) + j' < y <= floor(w/m) + j' + 2
        rng = random.Random(99)
        for _ in range(500):
            m = rng.choice([2, 5, 31, 97])
            y = rng.randint(1, 120)
            w = rng.randint(1, m * y - 1)
            j_prime = -((w - m * y) // m) - 1
            assert w + m * j_prime < m * y <= w + m * (j_prime + 1)
            assert w // m + j_prime < y <= w // m + j_prime + 2


class TestSeriesCertificates:
    def test_truncation_counts_recorded(self, bench_table):
        # every evaluated point carries a positive series length
        import numpy as np

        covered = ~np.isnan(bench_table.values)
        covered[0] = False  # convention point
        assert (bench_table.truncation_terms[covered] > 0).all()

    def test_threshold_tail_value(self, bench_table):
        assert bench_table.tail_at_threshold == pytest.approx(
            poisson_tail(Fraction(1600, 31), 60), rel=1e-14
        )


Y40_CTX = SteinContext(lam=Fraction(1600, 31), lattice_step=31, scale_num=4, threshold_y=40)
UNIT_CTX = SteinContext(lam=Fraction(2), lattice_step=1, scale_num=1, threshold_y=4)

# (context, w_max, off-lattice points, grid); grid None is the default grid.
# "stein_check" is the README's stein-check invocation.
REFERENCE_CASES = {
    "stein_check": (BENCH_CTX, 5000, True, None),
    "bench": (BENCH_CTX, 31 * 115, True, None),
    "bench_grid": (BENCH_CTX, 31 * 115, True, range(31, 31 * 90 + 1)),
    "small": (SMALL_CTX, 5 * 80, True, range(5, 201)),
    "unit_lattice": (UNIT_CTX, 80, True, range(1, 60)),
    "y40": (Y40_CTX, 31 * 95, True, None),
    "lattice_only": (BENCH_CTX, 31 * 115, False, None),
}


# lam*m = 1500 below m*y = 1800, 700 rows of m = 3: every point below 1800
# has both halves, and below 1500 its series terms grow before they fall.
Y600_CTX = SteinContext(lam=Fraction(500), lattice_step=3, scale_num=1, threshold_y=600)

# (context, w_max, off-lattice points) for the checks of the table layout;
# the last three are tall: hundreds of rows above m*y, or below it.
LAYOUT_CASES = {
    **{case: (ctx, w_max, True) for case, (ctx, w_max, _, _) in REFERENCE_CASES.items()},
    "lattice_only": (BENCH_CTX, 31 * 115, False),
    "coupling_table": (BENCH_CTX, 16728, True),
    "lattice_only_wide": (BENCH_CTX, 31 * 1000, False),
    "tall_off_lattice": (Y600_CTX, 3 * 700, True),
}
# the distinct tables among them
TABLE_CASES = sorted(set(LAYOUT_CASES) - {"bench", "bench_grid"})


def _layout(ctx, w_max, off):
    """solve_stein's recurrence points with their rows, and the lowest point
    of the top row w_max // m.

    Row q holds q*m + c for the columns c: 1..m from row 0 with off-lattice
    points, m alone from row y without them or at m = 1.  The lattice points
    at or below m*y take D_low values and are left out.
    """
    m, my = ctx.lattice_step, ctx.threshold_point
    cols, low = (range(1, m + 1), 0) if off and m > 1 else ((m,), ctx.threshold_y)
    top = w_max // m
    points = [(q * m + c, q) for q in range(low, top + 1) for c in cols]
    recurrence = [(w, q) for w, q in points if w <= w_max and not (w % m == 0 and w <= my)]
    return recurrence, top * m + cols[0]


def _solve_quietly(ctx, w_max, off):
    # ratio = lam*m / (w + m*(j+1)) is exactly 1 at w = 19 + 31k on the
    # benchmark context; neither the solve nor the report may warn there.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve_stein(ctx, w_max, include_off_lattice=off)


class TestArrayFormsAgainstScalarReference:
    """The array forms against the scalar loops they replaced."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_report_equals_scalar_loop(self, case):
        ctx, w_max, off, grid = REFERENCE_CASES[case]
        table = _solve_quietly(ctx, w_max, off)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_f_properties(ctx, table, grid)
        # the report leaves out the checks that examined no point
        reference = verify_f_properties_reference(ctx, table, grid)
        assert report.checks == tuple(c for c in reference.checks if c.points)
        assert report.all_passed

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_recurrence_points_against_mpmath(self, case):
        # Every value off the D_low points is P*S0 - (1-P)*S1 to within 2e-15
        # of the halves, against 60-digit halves with the same float P.
        ctx, w_max, off = LAYOUT_CASES[case]
        table = _solve_quietly(ctx, w_max, off)
        m, y = ctx.lattice_step, ctx.threshold_y
        p_mp = mp.mpf(table.tail_at_threshold)
        worst = 0.0
        for w, _ in _layout(ctx, w_max, off)[0]:
            s0, s1 = mp_stein_halves(ctx.lam, m, y, w)
            err = abs(mp.mpf(table.values[w]) - (p_mp * s0 - (1 - p_mp) * s1))
            worst = max(worst, float(err / (p_mp * s0 + (1 - p_mp) * s1)))
        assert worst <= 2e-15

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_truncation_terms_count_rows_below_zero_row(self, case):
        # The recurrence starts from zero at row Z = w_max//m + J, J the least
        # depth whose omitted-term majorant at the top row's lowest point is
        # below 2**-53 of term 0, so row q holds the series cut after Z - q
        # terms.
        ctx, w_max, off = LAYOUT_CASES[case]
        table = _solve_quietly(ctx, w_max, off)
        m = ctx.lattice_step
        recurrence, lowest_top = _layout(ctx, w_max, off)
        z = w_max // m + mp_stein_depth(ctx.lam, m, lowest_top)
        for w, q in recurrence:
            assert table.truncation_terms[w] == z - q, w

    @pytest.mark.parametrize("case", ["stein_check", "small", "unit_lattice", "y40"])
    @pytest.mark.parametrize("off", [True, False])
    def test_lattice_above_threshold_matches_regrouped_series(self, case, off):
        ctx, w_max, _, _ = REFERENCE_CASES[case]
        table = _solve_quietly(ctx, w_max, off)
        m, y = ctx.lattice_step, ctx.threshold_y
        lam, lam_m = float(ctx.lam), float(ctx.lambda_m)
        p_ge = table.tail_at_threshold
        for j in range(y + 1, w_max // m + 1):
            # the reference summed past one rounding
            ref = -(1.0 - p_ge) * stein_d_high_reference(j, lam, 2.0**-53) / lam_m
            assert table.values[m * j] == pytest.approx(ref, rel=1e-14, abs=0.0), j

    @pytest.mark.parametrize("case", ["unit_lattice", "lattice_only"])
    def test_check_over_no_point_is_left_out(self, case):
        # m = 1 has no off-lattice shift and a lattice-only table no
        # off-lattice point, so g_l_envelope examines nothing there
        ctx, w_max, off, grid = REFERENCE_CASES[case]
        table = _solve_quietly(ctx, w_max, off)
        report = verify_f_properties(ctx, table, grid)
        names = [c.name for c in report.checks]
        assert names == [
            "tail_monotone",
            "tail_jump_positive_c_over_w",
            "g_m_envelope",
            "g_l_lattice_increments",
        ]
        assert all(c.points > 0 for c in report.checks)
        with pytest.raises(KeyError):
            report["g_l_envelope"]
        ref = {c.name: c for c in verify_f_properties_reference(ctx, table, grid).checks}
        assert ref["g_l_envelope"].points == 0

    def test_off_lattice_grid_on_lattice_only_table_rejected(self):
        ctx, w_max, _, _ = REFERENCE_CASES["lattice_only"]
        table = solve_stein(ctx, w_max)
        with pytest.raises(ValidationError):
            verify_f_properties(ctx, table, range(31, 31 * 90 + 1))


class TestLatticeRecurrence:
    """f_h(m*j) = -(P/(lam*m)) D_low(j) for j <= y, D_low from its O(y) recurrence."""

    @pytest.mark.parametrize(
        "lam, m, n, y",
        [(Fraction(1600, 31), 31, 4, 60), (Fraction(2000), 1, 1, 3000)],
    )
    def test_against_mpmath(self, lam, m, n, y):
        ctx = SteinContext(lam=lam, lattice_step=m, scale_num=n, threshold_y=y)
        table = solve_stein(ctx, m * (y + 10))
        p_ge = table.tail_at_threshold
        lam_m = mp.mpf(lam.numerator) / lam.denominator * m
        worst = 0.0
        for j, d in enumerate(mp_d_low(lam, y), start=1):
            truth = -p_ge * d / lam_m
            worst = max(worst, float(abs((table.values[m * j] - truth) / truth)))
            assert table.truncation_terms[m * j] == j
        assert worst <= 4e-15
        assert table.residual_max <= 1e-9
