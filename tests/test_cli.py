import csv
import io
import math
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from scaled_poisson import cli
from scaled_poisson.cli import build_parser, main

from oracles import panjer_tail, reference_csv


# weights 2**61 apart: the top class's leave-one-out law once strided 2**61
# zeros before the Stein table was ever sized
COUPLING_FAR_APART = ["coupling-check", "--weights", "1,2305843009213693952", "--rates", "1,1",
                      "--mstar", "2", "--y", "2"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


# CSV text of the exact coupling-check and empirical-constant rows, pinned
# byte for byte.  test_coupling.py checks the exhaustive scheme's H terms
# against a 50-digit f table (test_exhaustive_scheme_against_mpmath_table).
_COUPLING_EXACT_ROWS = (
    "field,value\r\n"
    "trials_per_class,5000\r\n"
    "H_0,-0.0023581311069418714\r\n"
    "H_1,-0.063115342720437367\r\n"
    "H_2,0.053008121297458868\r\n"
    "tail_diff,-0.012465352529919357\r\n"
    "closure_error,1.0130785099704553e-15\r\n"
)
_COUPLING_EXHAUSTIVE = (
    "field,value\r\n"
    "trials_per_class,6\r\n"
    "H_0,-0.014330882743751501\r\n"
    "H_1,-0.014814943752591143\r\n"
    "H_2,0.0022204010137010779\r\n"
    "tail_diff,-0.026925425482641568\r\n"
    "closure_error,3.4694469519536142e-18\r\n"
    "sizebias_lhs,80.713428983833865\r\n"
    "sizebias_rhs,80.713428983833865\r\n"
)
_EMPIRICAL_CONSTANT = (
    "y,deviation,bracket,ratio\r\n"
    "52,0.053110680586391901,256.54951450742851,0.00020701922078614598\r\n"
    "53,0.062278407801068081,257.54983465107722,0.00024181109603677861\r\n"
    "54,0.072000982454001883,258.55115240331736,0.00027847867543706243\r\n"
    "55,0.082208321975283161,259.55414222167593,0.00031672899253933681\r\n"
    "56,0.073140612622163759,260.55944210245934,0.00028070605322144801\r\n"
    "57,0.08282337614378088,261.56765616242842,0.00031664226899807968\r\n"
    "58,0.092811472046341326,262.57935699594418,0.00035346065703015223\r\n"
    "59,0.10304138100726701,263.59508783061779,0.0003909078194715064\r\n"
    "60,0.088349989550791874,264.61536450178579,0.0003338807998437129\r\n"
    "61,0.097677531369763759,265.6406772637838,0.00036770547483873871\r\n"
    "62,0.10711290514469674,266.67149245394017,0.00040166612546032606\r\n"
    "63,0.11660581763450162,267.70825402343394,0.00043557049841389829\r\n"
    "64,0.095568480236023157,268.75138494759597,0.00035560181486937498\r\n"
    "65,0.10390242879732847,269.80128852687159,0.00038510723712492585\r\n"
    "66,0.11220016701797375,270.85834958846067,0.00041423927742471114\r\n"
    "67,0.12042368058218356,271.92293559759821,0.00044285959298553268\r\n"
    "68,0.092398824995417628,272.99539768650874,0.00033846294032224968\r\n"
    "69,0.099272791421292972,274.07607160824563,0.00036220889637965148\r\n"
    "70,0.10600550169255474,275.16527862190242,0.00038524301548312055\r\n"
    "71,0.11256809556555825,276.26332631503561,0.00040746666257537108\r\n"
    "72,0.076810860451629881,277.37050936857054,0.00027692511589097398\r\n"
    "73,0.081847586061634781,278.48711026894921,0.00029390080561570835\r\n"
    "74,0.086660606977052468,279.61339997182813,0.00030993009271295215\r\n"
    "75,0.091226957283992882,280.74963852122892,0.00032494060460596015\r\n"
    "76,0.046741621265592337,281.89607562768157,0.00016581153590561874\r\n"
    "77,0.049577242066556448,283.05295120857721,0.00017515182885347754\r\n"
    "78,0.052114748805741629,284.22049589365628,0.00018336027682268503\r\n"
    "79,0.054334184379072559,285.39893149829783,0.00019037977505321046\r\n"
    "80,0.00025829394897414204,286.58847146703903,9.0127124671813194e-07\r\n"
)

class TestMoments:
    def test_bench_defaults(self):
        code, out, _ = run_cli(["moments"])
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["mu"] == "400"
        assert row["sigma_sq"] == "3100"
        assert (row["k_num"], row["k_den"]) == ("4", "31")
        assert float(row["lambda"]) == pytest.approx(1600 / 31, rel=1e-16)

    def test_csv_text(self):
        # exact rationals print as floats with 17 significant digits
        _, out, _ = run_cli(["moments"])
        assert out == (
            "mu,sigma_sq,k_num,k_den,lambda,scale_B\r\n"
            "400,3100,4,31,51.612903225806448,1\r\n"
        )

    def test_rational_weights(self):
        code, out, _ = run_cli(["moments", "--weights", "1/2,3/2", "--rates", "1,1"])
        assert code == 0
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["scale_B"] == "2"

    def test_rational_weights_print_the_moments_of_s(self):
        # S = A(1)/2 + 3A(1)/2: mu 2, sigma^2 1/4 + 9/4 = 5/2, k = mu/sigma^2
        # = 4/5 and lambda = k*mu = 8/5, not the moments 4, 10, 2/5 of B*S
        _, out, _ = run_cli(["moments", "--weights", "1/2,3/2", "--rates", "1,1"])
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["mu"], row["sigma_sq"]) == ("2", "2.5")
        assert (row["k_num"], row["k_den"]) == ("4", "5")
        assert float(row["lambda"]) == 8 / 5
        assert row["scale_B"] == "2"


class TestTails:
    def test_exact_tail_strict(self):
        code, out, _ = run_cli(
            ["exact-tail", "--weights", "1,2", "--rates", "1,1", "--y", "1", "--strict"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        lo = float(dict(zip(header, rows[0]))["tail_lo"])
        assert lo == pytest.approx(1 - 2 * math.exp(-2), rel=1e-12)

    def test_exact_tail_at_rate_800(self):
        code, out, err = run_cli(["exact-tail", "--y", "1300", "--strict", "--rates", "800,30"])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        lo, hi = float(row["tail_lo"]), float(row["tail_hi"])
        truth = panjer_tail((1, 10), (800, 30), 1300)
        slack = 4 * 2.0**-52 * truth
        assert lo - slack <= truth <= hi + slack

    def test_rational_weights_read_y_on_s(self):
        # S = A(1)/2 + A(2)/3, so 6S = 3 A(1) + 2 A(2) and P(S > 1) = P(6S > 6)
        code, out, err = run_cli(
            ["exact-tail", "--y", "1", "--strict", "--weights", "1/2,1/3", "--rates", "1,2"]
        )
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["y"] == "1"
        assert float(row["tail_lo"]) == pytest.approx(panjer_tail((2, 3), (2, 1), 6), rel=1e-14)
        _, scaled, _ = run_cli(
            ["exact-tail", "--y", "6", "--strict", "--weights", "3,2", "--rates", "1,2"]
        )
        assert parse_csv(scaled)[1][0][1:] == rows[0][1:]

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_rational_weights_approx_tail_reads_y_on_s(self, mode):
        base = ["approx-tail", "--strict", "--mode", mode]
        code, out, _ = run_cli(base + ["--y", "1/2", "--weights", "1/2,1/3", "--rates", "1,2"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == "1/2"
        _, scaled, _ = run_cli(base + ["--y", "3", "--weights", "2,3", "--rates", "2,1"])
        assert parse_csv(scaled)[1][0][1:] == rows[0][1:]

    def test_approx_tail_modes_agree_roughly(self):
        _, out_d, _ = run_cli(["approx-tail", "--y", "450", "--mode", "discrete", "--strict"])
        _, out_c, _ = run_cli(["approx-tail", "--y", "450", "--mode", "continuous"])
        vd = float(parse_csv(out_d)[1][0][3])
        vc = float(parse_csv(out_c)[1][0][3])
        assert abs(vd - vc) < 0.05


class TestSweeps:
    def test_sweep_relerr_columns_and_values(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep-relerr", "--y-from", "440", "--y-to", "460", "--out", str(out_file)]
        )
        assert code == 0
        header, rows = parse_csv(out_file.read_text())
        assert header[:5] == ["y", "exact_tail", "scaled_tail", "normal_tail", "rel_error"]
        assert len(rows) == 21
        parsed = [dict(zip(header, r)) for r in rows]
        for row in parsed:
            assert 0 < float(row["exact_tail"]) < 1
            assert float(row["rel_error"]) == pytest.approx(
                abs(1 - float(row["scaled_tail"]) / float(row["exact_tail"])), rel=1e-12
            )

    def test_sweep_scaling_notes_excluded(self):
        code, out, err = run_cli(
            ["sweep-scaling", "--y", "400", "--n-values", "1,2,8"]
        )
        assert code == 0
        assert "N=8" in err
        _, rows = parse_csv(out)
        assert len(rows) == 2

    def test_sweep_scaling_past_rate_700(self):
        # N = 8..11 scale the class rates to 800..1100; N = 12 has lam' > y
        code, out, err = run_cli(["sweep-scaling", "--y", "600", "--n-values", "8,9,10,11,12"])
        assert code == 0
        assert err == "note: N=12 excluded: lam' = 19200/31 exceeds y = 600\n"
        header, rows = parse_csv(out)
        assert [r[header.index("scale_n")] for r in rows] == ["8", "9", "10", "11"]
        for row in rows:
            n = int(row[header.index("scale_n")])
            truth = panjer_tail((1, 10), (100 * n, 30 * n), 600)
            assert abs(float(row[header.index("exact_tail")]) - truth) <= 4 * 2.0**-52 * truth

    def test_compare_normal_summary(self):
        code, out, err = run_cli(["compare-normal", "--y-from", "505", "--y-to", "520"])
        assert code == 0
        assert "16/16" in err.replace(" ", "").replace("rows", "") or "16/16" in err
        _, rows = parse_csv(out)
        assert len(rows) == 16


class TestSteinAndCoupling:
    def test_stein_check_small(self):
        code, out, _ = run_cli(
            [
                "stein-check",
                "--lambda-num", "9", "--lambda-den", "5",
                "--m", "5", "--n", "3", "--y", "3",
                "--wmax", "400", "--tol", "1e-10",
            ]
        )
        assert code == 0
        header, rows = parse_csv(out)
        report = {r[0]: r[1] for r in rows}
        assert report["tail_monotone"] == "1"
        assert report["stein_equation_residual"] == "1"
        # only the jump check observes a constant; the others print nan
        constants = {r[0]: r[header.index("observed_constant")] for r in rows}
        assert float(constants.pop("tail_jump_positive_c_over_w")) > 0.0
        assert set(constants.values()) == {"nan"}

    def test_stein_check_unit_lattice_omits_empty_check(self):
        # with m = 1 no off-lattice shift exists: g_l_envelope examines no
        # point, so it has no row rather than a vacuous passed = 1
        code, out, _ = run_cli(
            [
                "stein-check",
                "--lambda-num", "2", "--m", "1", "--n", "1", "--y", "4", "--wmax", "80",
            ]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert [r[0] for r in rows] == [
            "tail_monotone",
            "tail_jump_positive_c_over_w",
            "g_m_envelope",
            "g_l_lattice_increments",
            "stein_equation_residual",
        ]
        assert all(int(r[header.index("points")]) > 0 for r in rows)

    def test_stein_check_benchmark_invocation(self):
        code, out, _ = run_cli(
            [
                "stein-check",
                "--lambda-num", "1600", "--lambda-den", "31",
                "--m", "31", "--n", "4", "--y", "60",
                "--wmax", "5000", "--tol", "1e-10",
            ]
        )
        assert code == 0
        header, rows = parse_csv(out)
        report = {r[0]: dict(zip(header, r)) for r in rows}
        for name in (
            "tail_monotone",
            "tail_jump_positive_c_over_w",
            "g_m_envelope",
            "g_l_envelope",
            "g_l_lattice_increments",
            "stein_equation_residual",
        ):
            assert report[name]["passed"] == "1", name
        assert float(report["stein_equation_residual"]["worst_margin"]) <= 1e-9

    def test_coupling_check_exhaustive(self):
        code, out, _ = run_cli(
            [
                "coupling-check",
                "--weights", "1,2", "--rates", "1,1",
                "--mstar", "8", "--y", "5", "--exhaustive",
            ]
        )
        assert code == 0
        _, rows = parse_csv(out)
        fields = {r[0]: float(r[1]) for r in rows}
        assert fields["closure_error"] <= 1e-8
        assert fields["sizebias_lhs"] == pytest.approx(fields["sizebias_rhs"], abs=1e-12)

    def test_coupling_check_sampled(self):
        code, out, _ = run_cli(
            [
                "coupling-check",
                "--weights", "1,2", "--rates", "1,1",
                "--mstar", "30", "--y", "4",
                "--samples", "20000", "--seed", "11",
            ]
        )
        assert code == 0
        _, rows = parse_csv(out)
        fields = {r[0]: float(r[1]) for r in rows}
        spread = abs(fields["sizebias_lhs"] - fields["sizebias_rhs"])
        combined = math.hypot(fields["sizebias_stderr_lhs"], fields["sizebias_stderr_rhs"])
        assert spread <= 5 * combined + 1e-12


class TestCouplingCheckText:
    """coupling-check builds its class tables once per command, and its exact
    rows, like empirical-constant's, keep their text."""

    SAMPLED = ["coupling-check", "--mstar", "50", "--y", "60", "--samples", "200000", "--seed", "7"]

    def test_one_table_build_per_command(self, monkeypatch):
        from scaled_poisson import bernoulli_lattice
        from scaled_poisson.coupling import _tables

        calls = []
        original = bernoulli_lattice.binomial_pmf_vector

        def counted(trials, p):
            calls.append((trials, p))
            return original(trials, p)

        monkeypatch.setattr(bernoulli_lattice, "binomial_pmf_vector", counted)
        # a build left over from an earlier call on the same scheme is not counted
        _tables.cache_clear()
        code, out, _ = run_cli(self.SAMPLED)
        assert code == 0
        # one Binomial(M*) and one Binomial(M* - 1) table per class, R = 2
        assert len(calls) == 2 * 2
        assert out.startswith(_COUPLING_EXACT_ROWS)
        _, rows = parse_csv(out)
        assert [r[0] for r in rows[-4:]] == [
            "sizebias_lhs", "sizebias_rhs", "sizebias_stderr_lhs", "sizebias_stderr_rhs",
        ]

    def test_exhaustive_rows(self):
        code, out, _ = run_cli(
            ["coupling-check", "--weights", "1,2", "--rates", "1,1", "--mstar", "6", "--y", "5", "--exhaustive"]
        )
        assert code == 0
        assert out == _COUPLING_EXHAUSTIVE

    def test_empirical_constant_rows(self):
        code, out, err = run_cli(["empirical-constant", "--y-from", "52", "--y-to", "80", "--mstar", "100"])
        assert code == 0
        assert out == _EMPIRICAL_CONSTANT
        assert err == "note: C_hat = 0.00044285959298553268\n"


class TestBound:
    def test_bench_bracket(self):
        code, out, _ = run_cli(["bound", "--y", "60"])
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["bracket"]) == pytest.approx(264.6153645017858418, rel=1e-13)
        assert row["r_star"] == "1"
        assert row["deltas"] == "1/4;3/4"
        assert row["K"] == "1;2"

    def test_empirical_constant(self):
        code, out, err = run_cli(
            ["empirical-constant", "--y-from", "52", "--y-to", "56", "--mstar", "25"]
        )
        assert code == 0
        assert "C_hat" in err
        header, rows = parse_csv(out)
        assert header == ["y", "deviation", "bracket", "ratio"]
        assert len(rows) == 5

    FAR_APART = ["empirical-constant", "--rates", "1,1", "--mstar", "2", "--y-from", "1", "--y-to", "2"]

    def test_empirical_constant_at_far_apart_weights(self):
        # the law of W spans 2**62 + 3 points, so only its 9 nonzero entries
        # can be held
        from scaled_poisson import poisson_tail

        top = 2**61
        code, out, err = run_cli(self.FAR_APART + ["--weights", f"1,{top}"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["2"]
        # P(nW >= m*y) is P(W * mu >= y * sigma^2), each class Binomial(2, 1/2)
        mu, sigma_sq = 1 + top, 1 + top * top
        binom = {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)}
        p_w = sum(
            binom[a] * binom[c] for a in binom for c in binom if (a + top * c) * mu >= 2 * sigma_sq
        )
        p_a = poisson_tail(float(Fraction(mu * mu, sigma_sq)), 2)
        assert float(rows[0][1]) == pytest.approx(abs(float(p_w) / p_a - 1), rel=1e-12)

    def test_empirical_constant_past_int64_is_2(self):
        code, out, err = run_cli(self.FAR_APART + ["--weights", f"1,{2**62}"])
        assert code == 2
        assert out == ""
        assert err == "error: the law spans 9223372036854775811 lattice points, past int64 indexing\n"

    def test_coupling_check_at_far_apart_weights_is_2(self, monkeypatch):
        # k = n/m has m near 2**122, so the Stein table over n*W spans more
        # points than int64 indexes, whatever W's support: refused before
        # any law is built
        from scaled_poisson import coupling

        def no_tables(*args):
            raise AssertionError("a law was built for a table past int64")

        monkeypatch.setattr(coupling, "_tables", no_tables)
        code, out, err = run_cli(COUPLING_FAR_APART)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the Stein table spans at least 6911985578081562539")
        assert err.endswith(
            "(m = 5316911983139663491615228241121378305, n = 2305843009213693953), "
            "past int64 indexing\n"
        )


class TestSharedParser:
    """main parses with one parser per process; reuse must not carry state."""

    SWEEP = ["sweep-relerr", "--y-from", "440", "--y-to", "470"]
    COMPARE = ["compare-normal", "--y-from", "20", "--y-to", "40", "--weights", "1,2", "--rates", "9,4"]

    def test_rejected_argv_between_commands(self):
        first = run_cli(self.SWEEP)
        with pytest.raises(SystemExit) as rejected, redirect_stderr(io.StringIO()):
            main(["compare-normal", "--y-from", "oops", "--y-to", "520"])
        assert rejected.value.code == 2
        second = run_cli(self.COMPARE)
        cli._parser.cache_clear()
        assert run_cli(self.SWEEP) == first
        cli._parser.cache_clear()
        assert run_cli(self.COMPARE) == second
        assert first[0] == second[0] == 0

    def test_parser_built_once(self):
        cli._parser.cache_clear()
        run_cli(["moments"])
        run_cli(["bound", "--y", "60"])
        assert cli._parser.cache_info().misses == 1

    def test_shared_option_names_keep_their_defaults(self):
        # --y, --eps, --strict, --out and the model options appear in several
        # subcommands; values given to one command must not become defaults
        sequence = [
            ["exact-tail", "--y", "7", "--strict", "--eps", "1e-6", "--weights", "1,2", "--out", "a.csv"],
            ["exact-tail", "--y", "8"],
            ["approx-tail", "--y", "9", "--mode", "continuous"],
            ["approx-tail", "--y", "9"],
            ["sweep-relerr", "--y-from", "1", "--y-to", "2", "--non-strict", "--eps", "1e-9"],
            ["compare-normal", "--y-from", "1", "--y-to", "2"],
            ["sweep-relerr", "--y-from", "1", "--y-to", "2"],
            ["coupling-check", "--y", "5", "--exhaustive", "--seed", "3", "--mstar", "6"],
            ["coupling-check", "--y", "5"],
            ["empirical-constant", "--y-from", "52", "--y-to", "53", "--mstar", "7"],
            ["stein-check", "--lambda-num", "9", "--m", "5", "--n", "3", "--y", "3", "--wmax", "400", "--out", "s.csv"],
            ["stein-check", "--lambda-num", "9", "--m", "5", "--n", "3", "--y", "3", "--wmax", "400"],
        ]
        cli._parser.cache_clear()
        shared = cli._parser()
        for argv in sequence:
            assert shared.parse_args(argv) == build_parser().parse_args(argv), argv


class TestExitCodes:
    def test_validation_error_is_2(self):
        code, _, err = run_cli(["exact-tail", "--weights", "0,1", "--rates", "1,1", "--y", "3"])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact-tail", "--y", "abc"],
            ["approx-tail", "--y", "1/0"],
            ["sweep-scaling", "--y", "400", "--n-values", "1,x"],
            ["stein-check", "--lambda-num", "1600", "--lambda-den", "0", "--m", "31",
             "--n", "4", "--y", "60", "--wmax", "5000"],
        ],
    )
    def test_malformed_number_is_2(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse ")

    @pytest.mark.parametrize("n_values", [",", ""])
    def test_empty_n_values_is_2(self, n_values):
        code, out, err = run_cli(["sweep-scaling", "--y", "400", "--n-values", n_values])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-relerr", "--y-from", "1", "--y-to", "3"],
            ["sweep-scaling", "--y", "2", "--n-values", "1"],
            ["compare-normal", "--y-from", "1", "--y-to", "3"],
            ["bound", "--y", "4"],
            ["coupling-check", "--y", "2", "--mstar", "2", "--exhaustive"],
            ["empirical-constant", "--y-from", "2", "--y-to", "4", "--mstar", "2"],
        ],
    )
    def test_integer_grid_refuses_rational_weights(self, argv):
        code, out, err = run_cli(argv + ["--weights", "1/2,1/3", "--rates", "1,2"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {argv[0]} needs integer weights")
        assert "6*S" in err and "--weights 2,3 --rates 2,1" in err

    def test_negative_seed_is_2(self):
        argv = ["coupling-check", "--weights", "1,2", "--rates", "1,1", "--mstar", "6", "--y", "5",
                "--samples", "10000", "--seed", "-1"]
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a nonnegative integer, got -1\n"

    def test_epsilon_below_the_class_budget_is_2(self):
        code, out, err = run_cli(["exact-tail", "--y", "500", "--eps", "5e-324"])
        assert code == 2
        assert out == ""
        assert err == "error: per-class budget epsilon/R = 5e-324/2 rounds to 0\n"
        code, out, err = run_cli(["exact-tail", "--y", "500", "--eps", "1e-323"])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        _, default_rows = parse_csv(run_cli(["exact-tail", "--y", "500"])[1])
        assert float(rows[0][1]) == pytest.approx(float(default_rows[0][1]), rel=1e-15)

    def test_bound_below_lambda_is_2(self):
        code, _, _ = run_cli(["bound", "--y", "40"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments"],
            ["exact-tail", "--y", "5"],
            ["approx-tail", "--y", "5"],
            ["sweep-relerr", "--y-from", "1", "--y-to", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rates_past_the_float_range_are_2(self, argv):
        # sigma^2 = 1e400 has no float; the model is refused where it is built
        code, out, err = run_cli(argv + ["--weights", "1", "--rates", "1e400"])
        assert code == 2
        assert out == ""
        assert err == "error: sigma^2 = sum b_r^2 nu_r is past the float range\n"

    def test_numerical_range_is_3(self):
        # empirical constant over a grid whose Poisson tails underflow
        code, _, err = run_cli(
            ["empirical-constant", "--weights", "1", "--rates", "1", "--y-from", "1", "--y-to", "400", "--mstar", "100"]
        )
        assert code == 3
        assert "range" in err

    @pytest.mark.parametrize(
        "argv, code, value",
        [
            (["approx-tail", "--y", "1e400"], 0, "0"),
            (["approx-tail", "--y", "1e400", "--mode", "continuous"], 0, "0"),
            (["approx-tail", "--y", "1e-400", "--mode", "continuous"], 0, "1"),
            (["bound", "--y", "1" + "0" * 160], 3, None),
            (["sweep-scaling", "--y", "1" + "0" * 160, "--n-values", "1"], 3, None),
        ],
    )
    def test_past_the_float_range(self, argv, code, value):
        # a tail past the float range reads 0 or 1; a bracket there exits 3
        got, out, err = run_cli(argv)
        assert got == code
        if value is None:
            assert out == ""
            assert err.startswith("numerical range error: the bound bracket at y=1000")
        else:
            header, rows = parse_csv(out)
            assert dict(zip(header, rows[0]))["value"] == value
            assert err == ""

    def test_seventeen_digit_round_trip(self):
        _, out, _ = run_cli(["approx-tail", "--y", "450", "--mode", "continuous"])
        header, rows = parse_csv(out)
        text = dict(zip(header, rows[0]))["value"]
        assert text == format(float(text), ".17g")
        import scaled_poisson as sp
        from fractions import Fraction

        m = sp.moments(sp.WeightedPoissonSum((1, 10), (Fraction(100), Fraction(30))))
        assert float(text) == sp.scaled_poisson_tail(m, 450, mode="continuous")


# One row per edge value of each kind.
_EDGE_COLUMNS = (
    ("f", float),
    ("n", int),
    ("b", bool),
    ("q", Fraction),
    ("s", str),
)
_EDGE_ROWS = [
    (math.nan, 2**63, True, Fraction(1, 3), "plain"),
    (math.inf, -(2**64) - 1, False, Fraction(-7, 2), "a,b"),
    (-math.inf, 0, True, Fraction(10**20), 'say "hi"'),
    (-0.0, 10**30, False, Fraction(0), " 500\n"),
    (5e-324, -1, True, Fraction(1, 10**400), "line\rbreak"),
    (0.0, 1, False, Fraction(2**70 + 1), ""),
    (7514894054169240.0, 2**53 + 1, True, Fraction(5, 3), "x" * 40),
    (1e16, 10**19, False, Fraction(-1, 7), '"'),
]

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
README_ARGVS = [
    shlex.split(line)[1:]
    for line in re.findall(r"^scaled-poisson .*$", _README.replace("\\\n", " "), re.M)
]


def _cell_matches(kind, x) -> bool:
    """Whether x is a cell that its column's kind writes without loss: an
    int column takes Python ints (a bool is one), never numpy integers or
    floats."""
    return isinstance(x, kind)


class TestEmitter:
    """_emit writes each cell by its column's kind; every byte must be the
    text that formatting each cell by its own type would write."""

    def test_stdout_matches_the_reference(self):
        out = io.StringIO()
        with redirect_stdout(out):
            cli._emit(_EDGE_COLUMNS, _EDGE_ROWS, None)
        names = [n for n, _ in _EDGE_COLUMNS]
        assert out.getvalue() == reference_csv(names, _EDGE_ROWS)

    def test_out_file_matches_the_reference(self, tmp_path):
        path = tmp_path / "edge.csv"
        cli._emit(_EDGE_COLUMNS, iter(_EDGE_ROWS), str(path))
        names = [n for n, _ in _EDGE_COLUMNS]
        assert path.read_bytes() == reference_csv(names, _EDGE_ROWS).encode()

    def test_quoted_cell_stays_one_cell(self):
        code, out, _ = run_cli(["exact-tail", "--y", " 500\n", "--strict"])
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0][0] == " 500\n"
        assert len(rows[0]) == len(header)

    def test_readme_covers_every_command(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        assert {argv[0] for argv in README_ARGVS} == set(commands)

    @pytest.mark.parametrize(
        "argv",
        README_ARGVS
        + [
            ["moments", "--weights", "1/2,3/2", "--rates", "1,1"],
            ["exact-tail", "--y", " 500\n", "--strict"],
            ["sweep-relerr", "--y-from", "1266", "--y-to", "1270"],
        ],
        ids=shlex.join,
    )
    def test_every_cell_matches_its_declared_kind(self, argv):
        args = cli._parser().parse_args(argv)
        with redirect_stderr(io.StringIO()):
            columns, rows = args.run(args)
        rows = list(rows)
        assert rows
        for row in rows:
            assert len(row) == len(columns)
            for (name, kind), x in zip(columns, row):
                assert _cell_matches(kind, x), (name, kind, type(x), x)

    @pytest.mark.parametrize("t", [0, 1, 10**15, 2**53 - 1, 2**53])
    def test_trial_count_as_float_keeps_its_digits(self, t):
        # coupling-check writes trials_per_class in its float value column
        assert "%.17g" % float(t) == "%d" % t

    @pytest.mark.parametrize(
        "kind, x",
        [(float, 10**20), (float, 1), (int, 2.0), (bool, 1), (str, 1.5), (Fraction, 0.5)],
    )
    def test_a_cell_of_another_kind_is_refused(self, kind, x):
        # the check above is not vacuous: a float column holding 10**20 would
        # print 1e+20, not the exact digits
        assert not _cell_matches(kind, x)


class TestProcess:
    """The installed entry point runs main under sys.exit; check it as a process."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["moments"], 0),
            (["bound", "--y", "40"], 2),
            (["approx-tail", "--y", "1/0"], 2),
            (COUPLING_FAR_APART, 2),
        ],
    )
    def test_exit_code_without_traceback(self, argv, code):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "scaled_poisson.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert proc.stderr.startswith("error: ")
        else:
            assert proc.stdout.startswith("mu,sigma_sq,k_num,k_den,lambda,scale_B")

    def test_stein_check_beyond_float_range_is_3(self):
        # f_h grows like exp(lam) near w = m, past the float range at lam = 720.
        # A series that never met its stopping test once hung here, hence the
        # subprocess and its timeout.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["stein-check", "--lambda-num", "720", "--m", "7", "--n", "1", "--y", "900",
                "--wmax", "6370"]
        proc = subprocess.run(
            [sys.executable, "-m", "scaled_poisson.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("numerical range error: ")
        assert "lam = 720" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
