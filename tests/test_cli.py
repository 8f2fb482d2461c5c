import csv
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from scaled_poisson import cli
from scaled_poisson.cli import build_parser, main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


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


class TestTails:
    def test_exact_tail_strict(self):
        code, out, _ = run_cli(
            ["exact-tail", "--weights", "1,2", "--rates", "1,1", "--y", "1", "--strict"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        lo = float(dict(zip(header, rows[0]))["tail_lo"])
        assert lo == pytest.approx(1 - 2 * math.exp(-2), rel=1e-12)

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

    def test_bound_below_lambda_is_2(self):
        code, _, _ = run_cli(["bound", "--y", "40"])
        assert code == 2

    def test_numerical_range_is_3(self):
        # empirical constant over a grid whose Poisson tails underflow
        code, _, err = run_cli(
            ["empirical-constant", "--weights", "1", "--rates", "1", "--y-from", "1", "--y-to", "400", "--mstar", "100"]
        )
        assert code == 3
        assert "range" in err

    def test_seventeen_digit_round_trip(self):
        _, out, _ = run_cli(["approx-tail", "--y", "450", "--mode", "continuous"])
        header, rows = parse_csv(out)
        text = dict(zip(header, rows[0]))["value"]
        assert text == format(float(text), ".17g")
        import scaled_poisson as sp
        from fractions import Fraction

        m = sp.moments(sp.WeightedPoissonSum((1, 10), (Fraction(100), Fraction(30))))
        assert float(text) == sp.scaled_poisson_tail(m, 450, mode="continuous")


class TestProcess:
    """The installed entry point runs main under sys.exit; check it as a process."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["moments"], 0),
            (["bound", "--y", "40"], 2),
            (["approx-tail", "--y", "1/0"], 2),
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
