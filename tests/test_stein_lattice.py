import dataclasses
import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, reject, settings
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
from scaled_poisson import stein_lattice
from scaled_poisson.stein_lattice import SteinSolutionTable, _depth, _halves, factorial_envelope

from oracles import (
    depth_doubling,
    mp_d_low,
    mp_stein_depth,
    mp_stein_halves,
    mp_stein_solution,
    mp_lattice_increment,
    solve_stein_gathered,
    stein_d_high_reference,
    stein_halves_gathered,
    verify_f_properties_gather,
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

    def test_zero_mean_at_rate_whose_pmf_zero_underflows(self):
        # exp(-800) underflows; the mode-anchored table needs no pmf(0)
        ctx = SteinContext(lam=Fraction(800), lattice_step=1, scale_num=1, threshold_y=2)
        for f in (lambda _: 1.0, lambda w: float(w)):
            vals = [abs(stein_apply(ctx, f, j)) for j in range(1001)]
            assert abs(operator_zero_mean(ctx, f, 1000)) <= 1e-10 * (1 + max(vals))

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

    @pytest.mark.parametrize("off", [True, False])
    def test_overflowing_d_low_raises_without_a_warning(self, off):
        # P(A >= 1000) underflows to 0 and D_low passes the float range, so
        # the lattice points below m*y hold 0 * inf: reported, never warned
        ctx = SteinContext(lam=Fraction(1600, 31), lattice_step=31, scale_num=4, threshold_y=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalRangeError, match="for lam = 1600/31"):
                solve_stein(ctx, 31 * 1010, include_off_lattice=off)

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

    @pytest.mark.parametrize(
        "change",
        [
            {"lam": Fraction(1601, 31)},
            {"lattice_step": 29},
            {"scale_num": 5},
            {"threshold_y": 70},
        ],
    )
    def test_table_of_another_context_is_refused(self, bench_table, change):
        # the table's values and P belong to the context it was solved for:
        # read under y = 70, the y = 60 table failed g_l_lattice_increments
        ctx = dataclasses.replace(BENCH_CTX, **change)
        for read in (
            lambda: verify_f_properties(ctx, bench_table),
            lambda: g_l(ctx, bench_table, 31, 1),
            lambda: g_m_via_recurrence(ctx, bench_table, 31),
        ):
            with pytest.raises(ValidationError, match="another Stein context"):
                read()

    def test_context_differing_in_tolerance_only_is_accepted(self, bench_table):
        ctx = dataclasses.replace(BENCH_CTX, series_tol=1e-8)
        assert verify_f_properties(ctx, bench_table) == verify_f_properties(BENCH_CTX, bench_table)

    def test_degenerate_unit_lattice(self):
        # m = 1 collapses to the classical integer case
        ctx = SteinContext(lam=Fraction(2), lattice_step=1, scale_num=1, threshold_y=4)
        table = solve_stein(ctx, 80, include_off_lattice=True)
        assert table.residual_max <= 1e-12
        report = verify_f_properties(ctx, table, range(1, 60))
        assert report.all_passed


def _mp_g_m_bounds(ctx, table, points):
    """(w, B(w), g_m(w)) at each point, B the closed g_m envelope in 50 digits
    and g_m from the table's floats."""
    m, lam = ctx.lattice_step, mp.mpf(ctx.lam.numerator) / ctx.lam.denominator
    out = []
    with mp.workdps(50):
        lam_m = lam * m
        p_ge = mp.mpf(table.tail_at_threshold)
        for w in points:
            j = w // m
            envelope = mp.exp(lam) * mp.factorial(j - 1) / (m * lam**j)
            bound = 1 / lam_m + envelope * abs(w - lam_m) / lam_m
            g = (mp.mpf(table.values[w]) - mp.mpf(table.values[w + m])) / p_ge
            out.append((w, bound, g, envelope * abs(w - lam_m)))
    return out


class TestEnvelopesInLogSpace:
    """The g_m and g_l envelopes decide in log space, past the float range too."""

    @pytest.mark.parametrize("lam, bound_over", [(712, 0), (720, 1)])
    def test_g_m_envelope_against_mpmath_past_float_range(self, lam, bound_over):
        # m = 1, y = 900: the envelope near w = 1 is ~exp(lam)/lam, so
        # envelope * |w - lam*m| passes the float maximum there
        ctx = SteinContext(lam=Fraction(lam), lattice_step=1, scale_num=1, threshold_y=900)
        fmax = sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = solve_stein(ctx, 1000)
            report = verify_f_properties(ctx, table)
            rows = _mp_g_m_bounds(ctx, table, range(1, 900))
            over = [r for r in rows if r[3] > fmax]
            assert over and sum(r[1] > fmax for r in rows) == bound_over
            for w, bound, g, _ in over:
                check = verify_f_properties(ctx, table, [w])["g_m_envelope"]
                assert check.passed and g <= bound
                if bound - g > fmax:
                    assert check.worst_margin == math.inf
                else:
                    assert check.worst_margin == pytest.approx(float(bound - g), rel=1e-12)
        check = report["g_m_envelope"]
        assert check.passed and check.points == 899
        w, bound, g, _ = min(rows, key=lambda r: r[1] - r[2])
        assert abs(check.worst_margin - float(bound - g)) <= 8 * np.spacing(float(bound))

    def test_g_m_above_an_overflowing_bound_fails(self):
        # g_m at w = 1 set to twice its bound, ~2.3e306, whose float form
        # envelope * |w - lam*m| / (lam*m) once overflowed to inf and passed
        ctx = SteinContext(lam=Fraction(712), lattice_step=1, scale_num=1, threshold_y=900)
        table = solve_stein(ctx, 1000)
        ((_, bound, _, _),) = _mp_g_m_bounds(ctx, table, [1])
        values = table.values.copy()
        values[1] = values[2] + 2.0 * float(bound) * table.tail_at_threshold
        bad = dataclasses.replace(table, values=values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check = verify_f_properties(ctx, bad, [1])["g_m_envelope"]
        assert not check.passed
        assert check.worst_margin == pytest.approx(-float(bound), rel=1e-12)

    def test_g_l_above_an_infinite_envelope_fails(self):
        # At lam = 718, m = 7 the envelope of the first cell is ~1.32e308:
        # factorial_envelope reads inf there, and a g_l of 1.7e308 once
        # passed against it.
        ctx = SteinContext(lam=Fraction(718), lattice_step=7, scale_num=1, threshold_y=2)
        assert factorial_envelope(ctx, 7) == math.inf
        values = np.zeros(31)
        values[7] = 1.7e308
        table = SteinSolutionTable(
            ctx=ctx,
            w_max=30,
            values=values,
            truncation_terms=np.zeros(31, dtype=np.int64),
            tail_at_threshold=1.0,
            has_off_lattice=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_f_properties(ctx, table, [7])
        assert report["g_l_envelope"].points == 6
        assert not report["g_l_envelope"].passed
        assert not report["g_m_envelope"].passed
        # the margins are finite: the bound is below g, so inside the float range
        with mp.workdps(50):
            envelope = mp.e**718 / (7 * 718)
            truths = {
                "g_l_envelope": envelope - mp.mpf(1.7e308),
                "g_m_envelope": 1 / mp.mpf(7 * 718) + envelope * (7 * 718 - 7) / (7 * 718)
                - mp.mpf(1.7e308),
            }
            for name, truth in truths.items():
                margin = report[name].worst_margin
                assert math.isfinite(margin) and margin < 0.0
                assert abs(margin / truth - 1) <= 1e-11, name
        # one below the envelope passes
        values[7] = 1.2e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_f_properties(ctx, table, [7])
        assert report["g_l_envelope"].passed and report["g_m_envelope"].passed


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


def _edge_case(lam, m, n, y, w_max):
    ctx = SteinContext(lam=Fraction(lam), lattice_step=m, scale_num=n, threshold_y=y)
    return ctx, w_max, True, None


# Reports whose envelopes pass the float range near w = m, on stein-check's
# default grid.  At lam 700 and 690 g_l_lattice_increments fails (margins
# -1.04e6 and -0.024, near the threshold, for l < m), and the property fails
# there in exact arithmetic too (TestLatticeIncrementsAgainstMpmath), so
# these cases hold the report to the scalar loops without asserting that it
# passes.
FLOAT_EDGE_CASES = {
    "lam700": _edge_case(700, 7, 1, 900, 6370),
    "lam690": _edge_case(690, 5, 2, 800, 4500),
    "lam712": _edge_case(712, 1, 1, 900, 1000),
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

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES) + sorted(FLOAT_EDGE_CASES))
    def test_report_equals_scalar_loop(self, case):
        ctx, w_max, off, grid = {**REFERENCE_CASES, **FLOAT_EDGE_CASES}[case]
        table = _solve_quietly(ctx, w_max, off)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_f_properties(ctx, table, grid)
        # the report leaves out the checks that examined no point
        reference = verify_f_properties_reference(ctx, table, grid)
        assert report.checks == tuple(c for c in reference.checks if c.points)
        assert report.all_passed or case in FLOAT_EDGE_CASES

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


# (context, w_max, off-lattice points, grid) of the slice reads: grids that
# are arithmetic progressions (default, stepped range, m = 1), and a list
# that is not one.
SLICE_CASES = {
    "default": REFERENCE_CASES["bench"],
    "stein_check": REFERENCE_CASES["stein_check"],
    "stepped_range": (BENCH_CTX, 31 * 115, True, range(40, 31 * 100, 3)),
    "non_progression": (BENCH_CTX, 31 * 115, True, [3000, 45, 31, 32, 45, 1859, 1860, 1890, 2000]),
    "lattice_only": REFERENCE_CASES["lattice_only"],
    "lattice_only_list": (BENCH_CTX, 31 * 115, False, [31 * j for j in (1, 2, 5, 59, 60, 61, 90)]),
    "unit_lattice": REFERENCE_CASES["unit_lattice"],
    "unit_default": (UNIT_CTX, 80, True, None),
    "lam690": FLOAT_EDGE_CASES["lam690"],
}


def _same(a, b) -> bool:
    """a == b, with NaN equal to NaN."""
    both_nan = isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    return a == b or both_nan


class TestSliceReads:
    """The report read by strided slices against the per-shift gathers."""

    @pytest.mark.parametrize("case", sorted(SLICE_CASES))
    def test_report_equals_gathered_report(self, case):
        ctx, w_max, off, grid = SLICE_CASES[case]
        table = _solve_quietly(ctx, w_max, off)
        got = verify_f_properties(ctx, table, grid).checks
        want = verify_f_properties_gather(ctx, table, grid).checks
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for field in ("name", "passed", "worst_margin", "observed_constant", "points"):
                assert _same(getattr(a, field), getattr(b, field)), (a.name, field)

    @pytest.mark.parametrize(
        "grid",
        [range(31, 31 * 90 + 1), range(40, 31 * 90, 31), [31, 62, 40, 93]],
        ids=["range", "stepped_off_lattice", "list"],
    )
    def test_off_lattice_grid_on_lattice_only_table_names_the_same_point(self, grid):
        ctx, w_max, _, _ = REFERENCE_CASES["lattice_only"]
        table = solve_stein(ctx, w_max)
        with pytest.raises(ValidationError) as want:
            verify_f_properties_gather(ctx, table, grid)
        with pytest.raises(ValidationError) as got:
            verify_f_properties(ctx, table, grid)
        assert str(got.value) == str(want.value)
        assert "f was not evaluated at" in str(got.value)


@st.composite
def _report_cases(draw):
    """(context, table, grid) over lam in 1/2..700, m in 1..40 with a coprime
    n, tables on and off the lattice, solved, negated or with noise on f,
    some with a NaN in f, and grids of
    None, a range, a stepped range and a list, some reaching points a
    lattice-only table lacks."""
    m = draw(st.sampled_from(range(1, 41)))
    n = draw(st.integers(1, 60).filter(lambda n: math.gcd(m, n) == 1))
    lam = draw(st.fractions(Fraction(1, 2), 700, max_denominator=50))
    y = draw(st.integers(1, 70))
    ctx = SteinContext(lam=lam, lattice_step=m, scale_num=n, threshold_y=y)
    w_max = m * (y + 10) + draw(st.integers(0, 3 * m))
    off = draw(st.booleans())
    points = st.integers(m, w_max)
    a, b = sorted((draw(points), draw(points)))
    grid = {
        "none": None,
        "range": range(a, b + 1),
        "stepped_range": range(a, b + 1, draw(st.integers(2, 2 * m + 1))),
        "list": draw(st.lists(points, min_size=1, max_size=40)),
    }[draw(st.sampled_from(["none", "range", "stepped_range", "list"]))]
    try:
        table = solve_stein(ctx, w_max, include_off_lattice=off)
    except NumericalRangeError:
        reject()
    # -f falls above m*y, so its least jump is at l = m; noise of about
    # 10**scale * P makes g_l of order 10**scale, near its envelope in some
    # cells, and puts f's shifts out of order
    sign = draw(st.sampled_from([1.0, -1.0]))
    scale = draw(st.one_of(st.none(), st.integers(-8, 12)))
    noise = 0.0
    if scale is not None:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        noise = rng.standard_normal(table.values.size) * 10.0**scale * table.tail_at_threshold
    values = sign * table.values + noise
    # now and then f not evaluated just past a grid point, which the report
    # must refuse
    if draw(st.integers(0, 3)) == 0:
        hole = draw(st.sampled_from(grid or range(m, w_max + 1))) + draw(st.integers(1, m))
        values[min(hole, w_max)] = math.nan
    table = dataclasses.replace(table, values=values)
    return ctx, table, grid


class TestExtremesOverShifts:
    """The report from the extremes of f over the shifts against the report
    folded one gathered shift at a time."""

    @given(_report_cases())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_report_equals_gathered_report(self, case):
        ctx, table, grid = case
        try:
            want = verify_f_properties_gather(ctx, table, grid).checks
        except ValidationError as e:
            with pytest.raises(ValidationError) as got:
                verify_f_properties(ctx, table, grid)
            assert str(got.value) == str(e)
            return
        got = verify_f_properties(ctx, table, grid).checks
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for field in ("name", "passed", "worst_margin", "observed_constant", "points"):
                assert _same(getattr(a, field), getattr(b, field)), (a.name, field)


    @pytest.mark.parametrize(
        "grid",
        [[31 * 70 + 3], range(31 * 70 + 3, 31 * 80, 40), range(31 * 70 + 3, 31 * 80)],
        ids=["one_point", "sparse_range", "dense_range"],
    )
    def test_nan_among_the_shifts_is_refused(self, grid):
        # f(w + 5) is read only through the extremes over the shifts of the
        # sparse grids, past every lattice increment
        table = solve_stein(BENCH_CTX, 5000, include_off_lattice=True)
        values = table.values.copy()
        values[31 * 70 + 8] = math.nan
        table = dataclasses.replace(table, values=values)
        with pytest.raises(ValidationError) as want:
            verify_f_properties_gather(BENCH_CTX, table, grid)
        with pytest.raises(ValidationError) as got:
            verify_f_properties(BENCH_CTX, table, grid)
        assert str(got.value) == str(want.value)


class TestLatticeIncrementsAgainstMpmath:
    """Property (e), g_l(m*j) - g_l(m*j - m) >= -1e-10, where the report
    fails it: every increment summed in 50-digit mpmath, from f to g_l."""

    @pytest.mark.parametrize(
        "case, j, shifts, least",
        [("lam690", 794, [4], 4), ("lam700", 897, range(1, 7), 6)],
    )
    def test_failing_increments_fail_in_exact_arithmetic(self, case, j, shifts, least):
        ctx, w_max, off, grid = FLOAT_EDGE_CASES[case]
        table = solve_stein(ctx, w_max, include_off_lattice=off)
        check = verify_f_properties(ctx, table, grid)["g_l_lattice_increments"]
        assert not check.passed
        m, v, p_ge = ctx.lattice_step, table.values, table.tail_at_threshold

        def rounded(l):
            """The report's increment, g_l from the table's floats."""
            return (v[m * j] - v[m * j + l]) / p_ge - (v[m * j - m] - v[m * j - m + l]) / p_ge

        for l in [*shifts, m]:
            with mp.workdps(50):
                exact = float(mp_lattice_increment(ctx.lam, m, ctx.threshold_y, j, l))
            # negative for l < m in exact arithmetic as in the report; positive
            # at l = m, where g_m(m*j) = (D_low(j+1) - D_low(j)) / (lam*m)
            assert (exact < -1e-10) == (rounded(l) < -1e-10) == (l < m), l
            assert exact == pytest.approx(rounded(l), rel=1e-8), l
        assert check.worst_margin == rounded(least)


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


# (context, w_max) of the tables written in place, each solved on both
# routes: coupling-check's and stein-check's benchmark tables, m = 1, a full
# and a partial top row (w_max % m of 0 and m - 1), and the float edges.
IN_PLACE_CASES = {
    "coupling_table": (BENCH_CTX, 16727),
    "stein_check": (BENCH_CTX, 5000),
    "full_top_row": (BENCH_CTX, 31 * 115),
    "partial_top_row": (BENCH_CTX, 31 * 116 - 1),
    "small_full_top_row": (SMALL_CTX, 5 * 80),
    "small_partial_top_row": (SMALL_CTX, 5 * 81 - 1),
    "unit_lattice": (UNIT_CTX, 80),
    "y40": (Y40_CTX, 31 * 95),
    "tall_off_lattice": (Y600_CTX, 3 * 700),
    **{case: (ctx, w_max) for case, (ctx, w_max, _, _) in FLOAT_EDGE_CASES.items()},
}

# tables with values out of float range: near w = 1 at lam 720 and 5000, and
# below m*y where P underflows and D_low overflows
OUT_OF_RANGE_CASES = {
    "lam720": (SteinContext(lam=Fraction(720), lattice_step=7, scale_num=1, threshold_y=900), 6370),
    "lam5000": (SteinContext(lam=Fraction(5000), lattice_step=1, scale_num=1, threshold_y=600), 2000),
    "d_low": (
        SteinContext(lam=Fraction(1600, 31), lattice_step=31, scale_num=4, threshold_y=1000),
        31 * 1010,
    ),
}


def _outcome(solve, ctx, w_max, off):
    """The table's bytes and scalars, or the text of its NumericalRangeError."""
    try:
        t = solve(ctx, w_max, include_off_lattice=off)
    except NumericalRangeError as e:
        return str(e)
    return (
        t.values.tobytes(),
        t.truncation_terms.dtype,
        t.truncation_terms.tobytes(),
        t.residual_max,
        t.tail_at_threshold,
        t.values.size == t.truncation_terms.size == w_max + 1,
    )


class TestRecurrenceInBlocks:
    """_depth sums its terms and _halves keeps its row views one block of
    _ROW_BLOCK rows at a time: the same depths and tables as one pass, a
    refusal before a depth past the size budget is searched to its end, and
    a table within 64 bytes a point, its budget's."""

    @given(
        lam=st.floats(1e-3, 1e5),
        m=st.sampled_from([1, 2, 3, 7, 31, 100]),
        w=st.one_of(st.integers(1, 100), st.integers(1, 10**7)),
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_depth_equals_the_doubling_search(self, lam, m, w):
        # lam past 24,000 at a small w takes J past one block of 2**16
        assert _depth(lam * m, m, w, 1) == depth_doubling(lam * m, m, w)

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_any_block_gives_the_same_depths_and_tables(self, monkeypatch, block):
        cases = [IN_PLACE_CASES[c] for c in ("coupling_table", "unit_lattice", "tall_off_lattice")]
        before = [_outcome(solve_stein, ctx, w_max, off) for ctx, w_max in cases for off in (True, False)]
        monkeypatch.setattr(stein_lattice, "_ROW_BLOCK", block)
        for lam_m, m, w in ((1600.0, 31, 3565), (3000.0, 1, 11), (0.5, 1, 1)):
            assert _depth(lam_m, m, w, 1) == depth_doubling(lam_m, m, w)
        assert before == [_outcome(solve_stein, ctx, w_max, off) for ctx, w_max in cases for off in (True, False)]

    def test_depth_past_the_budget_is_refused_early(self):
        # at --m 1 --wmax 11 the depth is about e*lam: 24,464,395 rows at lam
        # 9e6 fit the budget's 26,843,545 points of one column, not of two,
        # and none fit at 1e7
        tracemalloc.start()
        try:
            assert _depth(9e6, 1, 11, 1) == 24_464_395
            with pytest.raises(ValidationError) as two_columns:
                _depth(9e6, 1, 11, 2)
            with pytest.raises(ValidationError) as deeper:
                _depth(1e7, 1, 11, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(two_columns.value) == (
            "the Stein recurrence, at least 13434817 rows above the table, spans 26869634"
            " points, past the budget of 26843545"
        )
        assert str(deeper.value) == (
            "the Stein recurrence, at least 26869697 rows above the table, spans 26869697"
            " points, past the budget of 26843545"
        )
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "ctx, w_max, off",
        [(SteinContext(Fraction(5), 1, 1, 1), 20_000, False), (BENCH_CTX, 31 * 2000, True)],
        ids=["unit_step", "off_lattice"],
    )
    def test_table_peaks_within_its_budget_a_point(self, monkeypatch, ctx, w_max, off):
        # at m = 1 a row is one point: a list of views over every row held
        # about 300 bytes a point
        monkeypatch.setattr(stein_lattice, "_ROW_BLOCK", 256)
        tracemalloc.start()
        try:
            solve_stein(ctx, w_max, include_off_lattice=off)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * (w_max + 1) + 2**20


class TestTableWrittenInPlace:
    """solve_stein writes each row of the recurrence straight into its table,
    bit for bit the table the 2-D scratch tables and gathers built."""

    @pytest.mark.parametrize("off", [True, False])
    @pytest.mark.parametrize("case", sorted(IN_PLACE_CASES))
    def test_table_equals_gathered_table(self, case, off):
        ctx, w_max = IN_PLACE_CASES[case]
        got = _outcome(solve_stein, ctx, w_max, off)
        assert got == _outcome(solve_stein_gathered, ctx, w_max, off)
        assert got[-1] is True

    @pytest.mark.parametrize("off", [True, False])
    @pytest.mark.parametrize("case", sorted(IN_PLACE_CASES))
    def test_halves_equal_gathered_halves(self, case, off):
        # the table's lattice points at or below m*y take D_low values, so the
        # halves there, on the row straddling m*y among them, are held here
        ctx, w_max = IN_PLACE_CASES[case]
        m, top = ctx.lattice_step, w_max // ctx.lattice_step
        cols, low = (np.arange(1, m + 1), 0) if off and m > 1 else (np.array([m]), ctx.threshold_y)
        with np.errstate(over="ignore", invalid="ignore"):
            halves, z = _halves(ctx, cols, low, w_max)
            points, s0, s1, terms = stein_halves_gathered(ctx, cols, low, w_max)
        grid = m * np.arange(low, top + 1)[:, None] + cols
        needed = grid <= w_max
        assert np.array_equal(grid[needed], points)
        assert halves[:, : cols.size][needed].tobytes() == s0.tobytes()
        assert halves[:, cols.size :][needed].tobytes() == s1.tobytes()
        rows = np.broadcast_to(z - np.arange(low, top + 1)[:, None], needed.shape)
        assert np.array_equal(rows[needed], terms)

    @pytest.mark.parametrize("off", [True, False])
    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_CASES))
    def test_out_of_range_text_equals_gathered(self, case, off):
        # the same count of non-finite points and the same first w
        ctx, w_max = OUT_OF_RANGE_CASES[case]
        got = _outcome(solve_stein, ctx, w_max, off)
        assert got == _outcome(solve_stein_gathered, ctx, w_max, off)
        if off:
            assert got.startswith("f_h is not finite at ")

    def test_peak_memory_within_the_table(self):
        # coupling-check's table: 16,728 points, 62 columns, 556 rows.  The
        # halves and one divisor table, each about twice the values, are its
        # only input-sized scratch: 3.6 times the table's arrays, against
        # 7.5 through 2-D scratch tables and gathers.
        ctx, w_max = IN_PLACE_CASES["coupling_table"]
        solve_stein(ctx, w_max, include_off_lattice=True)
        tracemalloc.start()
        try:
            table = solve_stein(ctx, w_max, include_off_lattice=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * (table.values.nbytes + table.truncation_terms.nbytes)
