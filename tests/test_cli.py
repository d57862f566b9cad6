import gc
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eulerdist import cli, errors, solver, theta
from eulerdist.cli import main
from eulerdist.limits import MAX_BITS, MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSolveCommand:
    def test_resonant_example(self, capsys):
        code, out = run(capsys, "solve", "-P", "t1+1", "-T", "delta(x1,0)", "-d", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["solution"] == "x1^-1*H(x1)"
        assert rep["outputs"]["verified"] is True
        assert rep["wall_time_ms"] is None

    def test_timing_flag(self, capsys):
        code, out = run(
            capsys, "--timing", "solve", "-P", "t1+1", "-T", "delta(x1,0)", "-d", "1"
        )
        assert code == 0
        assert json.loads(out)["wall_time_ms"] is not None


class TestVerifyCommand:
    def test_valid(self, capsys):
        code, out = run(
            capsys,
            "verify",
            "-P", "t1+1",
            "-U", "x1^-1*H(x1)",
            "-T", "delta(x1,0)",
            "-d", "1",
        )
        assert code == 0
        assert json.loads(out)["outputs"]["verified"] is True

    def test_corrupted_solution_exit_1(self, capsys):
        code, out = run(
            capsys,
            "verify",
            "-P", "t1+1",
            "-U", "2*x1^-1*H(x1)",
            "-T", "delta(x1,0)",
            "-d", "1",
        )
        assert code == 1
        assert json.loads(out)["outputs"]["verified"] is False


    def test_negative_leading_coefficient_round_trip(self, capsys):
        code, out = run(capsys, "solve", "-P", "t1+1", "-T", "-delta(x1,0)", "-d", "1")
        assert code == 0
        solution = json.loads(out)["outputs"]["solution"]
        assert solution.startswith("-")
        code, out = run(
            capsys,
            "verify",
            "-P", "t1+1",
            "-U", solution,
            "-T", "-delta(x1,0)",
            "-d", "1",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["inputs"]["U"] == solution
        assert rep["outputs"]["verified"] is True


class TestParseCommand:
    def test_round_trip_check(self, capsys):
        code, out = run(capsys, "parse", "-P", "t1^2*t2 - 3*t1 + 2")
        assert code == 0
        rep = json.loads(out)
        assert rep["checks"][0]["name"] == "round_trip"
        assert rep["checks"][0]["pass"] is True

    @pytest.mark.parametrize(
        "src, canonical",
        [("t1 + t2^0", "1 + t1"), ("t1 - 0*t3", "t1"), ("t3^0*t2^0 + 1", "2")],
    )
    def test_round_trip_when_the_largest_variable_drops_out(
        self, capsys, src, canonical
    ):
        # Without -d the dimension comes from the largest t<j> in the text,
        # which the canonical text need not name.
        code, out = run(capsys, "parse", "-P", src)
        assert code == 0
        assert json.loads(out)["outputs"]["canonical"] == canonical

    def test_distribution_without_dim_is_read_at_d_1(self, capsys):
        code, out = run(capsys, "parse", "-T", "delta(x1,2)")
        assert code == 0
        assert json.loads(out)["inputs"]["d"] == 1

    def test_parse_error_exit_2(self, capsys):
        code, out = run(capsys, "parse", "-P", "t1*(t1+1")
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ParseError" and err["position"] == 8

    @pytest.mark.parametrize(
        "argv",
        [("-T", "delta(x\u0661,\u0663)", "-d", "1"), ("-P", "t\u0661^\u0662")],
        ids=["dist", "poly"],
    )
    def test_non_ascii_digits_exit_2(self, capsys, argv):
        # Arabic-Indic digits are Unicode decimals; the grammar reads 0-9 only.
        code, out = run(capsys, "parse", *argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["parse", "-T", "delta(x1,3)", "-d", "\u0661"], id="parse-d"),
            pytest.param(
                ["solve", "-P", "t1+1", "-T", "delta(x1,0)", "-d", "\u0661"], id="solve-d"
            ),
            pytest.param(["oracle-suite", "--nmax", "\u0661"], id="nmax"),
            pytest.param(["oracle-suite", "--tol", "\u0661"], id="suite-tol"),
            pytest.param(
                ["wagner-check", "-P", "t1", "--grid", "\u0665\u0661\u0662"], id="grid"
            ),
            pytest.param(
                ["wagner-check", "-P", "t1", "--grid", "512", "--tol", "\u0661"], id="tol"
            ),
            pytest.param(["wagner-check", "-P", "t1", "--cutoff", "\u0664\u0660"], id="cutoff"),
            pytest.param(["wagner-check", "-P", "t1", "--width", "\u0661"], id="width"),
            pytest.param(["wagner-check", "-P", "t1", "--center", "\u0660"], id="center"),
        ],
    )
    def test_non_ascii_digits_in_options_exit_2(self, capsys, argv):
        # int, float and Fraction read any Unicode decimal digit.
        code, out = run(capsys, *argv)
        assert code == 2 and out == ""

    def test_usage_error_exit_2(self, capsys):
        code, _ = run(capsys, "nonsense")
        assert code == 2


class TestWagnerCommand:
    def test_first_order(self, capsys):
        code, out = run(
            capsys,
            "wagner-check",
            "-P", "t1",
            "--grid", "1024",
            "--tol", "1e-4",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["eta"] == [1]
        assert rep["checks"][0]["value"] <= 1e-4

    def test_width_and_center_echoed_as_given(self, capsys):
        code, out = run(
            capsys,
            "wagner-check",
            "-P", "t1",
            "--width", "3/2",
            "--center", "1/2",
            "--grid", "512",
        )
        assert code in (0, 1)
        rep = json.loads(out)
        assert rep["inputs"]["width"] == "3/2"
        assert rep["inputs"]["center"] == "1/2"

    def test_dimension_zero_exits_2(self):
        # Dimension 0 has no nonzero lattice vector, so choose_eta's shell
        # scan would never end; a subprocess bounds the run.
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "eulerdist.cli", "wagner-check", "-P", "3", "-d", "0"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=30,
        )
        assert out.returncode == 2
        assert json.loads(out.stdout)["error"]["type"] == "DimensionError"

    def test_product_of_nine_variables_finishes(self):
        # The first shell with P_m(eta) != 0 is |eta|_1 = 9, whose bounding
        # box has 19^9 points; a subprocess bounds the run.
        src = Path(__file__).resolve().parent.parent / "src"
        P = "*".join(f"t{j}" for j in range(1, 10))
        out = subprocess.run(
            [sys.executable, "-m", "eulerdist.cli", "wagner-check", "-P", P, "--grid", "3"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=30,
        )
        assert out.returncode in (0, 1)
        assert json.loads(out.stdout)["outputs"]["eta"] == [1] * 9

    def test_report_does_not_depend_on_the_blas_thread_count(self):
        # A multithreaded BLAS splits a matrix product's sums by its thread
        # count, which moves the last bits of the residual; the pairing's
        # sums run in a fixed order.
        src = Path(__file__).resolve().parent.parent / "src"
        argv = [
            sys.executable, "-m", "eulerdist.cli", "wagner-check", "-P", "(t1+1)^40",
            "--grid", "39900", "--cutoff", "1e-3", "--width", "1e-3",
        ]
        outs = [
            subprocess.run(
                argv, capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(n)),
            ).stdout
            for n in (1, 2)
        ]
        assert json.loads(outs[0])["checks"]
        assert outs[0] == outs[1]

    def test_polynomial_parsed_once_without_dim(self, capsys, monkeypatch):
        # d comes from the one parse, and N from --grid.
        calls = []
        parse_poly = cli.parse_poly

        def counted(*args):
            calls.append(args)
            return parse_poly(*args)

        monkeypatch.setattr(cli, "parse_poly", counted)
        code, out = run(capsys, "wagner-check", "-P", "t1^2+t2^2+1", "--grid", "32")
        assert code in (0, 1) and len(calls) == 1
        rep = json.loads(out)
        assert rep["inputs"]["d"] == 2
        assert rep["inputs"]["grid"] == rep["outputs"]["N"] == 32

    def test_parse_error_without_dim_exit_2(self, capsys):
        code, out = run(capsys, "wagner-check", "-P", "t1 +")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["wagner-check", "-P", "t1", flag, value], id=f"{flag}-{value}")
            for flag, value in [
                ("--grid", "1"),
                ("--grid", "0"),
                ("--grid", "-3"),
                ("--cutoff", "0"),
                ("--cutoff", "-1"),
                ("--cutoff", "nan"),
                ("--width", "0"),
                ("--width", "abc"),
                ("--width", "-1"),
                ("--width", "1e400"),
                ("--center", "a"),
                ("--center", "1/0"),
            ]
        ]
        + [
            pytest.param(["wagner-check", "-P", "0", "-d", "1"], id="zero-P-wagner"),
            pytest.param(
                ["solve", "-P", "0*t1", "-T", "delta(x1,0)", "-d", "1"],
                id="zero-P-solve",
            ),
        ]
        + [
            pytest.param(
                ["wagner-check", "-P", P, *opts], id="-".join(["overflow", *opts])
            )
            for P, opts in [
                ("t1^2+1", ["--center", "300"]),
                ("t1^2+1", ["--width", "60"]),
                ("t1^2+t2^2-1", ["--center", "400,0", "--grid", "64"]),
                ("t1^2+1", ["--width", "1e200"]),
            ]
        ]
        + [
            pytest.param(["oracle-suite", flag, "-1"], id=f"oracle-suite{flag}-neg")
            for flag in ("--nmax", "--pmax", "--kmax")
        ]
        + [
            pytest.param(["oracle-suite", flag, value], id=f"oracle-suite{flag}-{value}")
            for flag, value in [("--nmax", "41"), ("--pmax", "171"), ("--kmax", "171")]
        ],
    )
    def test_bad_grid_or_cutoff_exit_2(self, capsys, argv):
        code, _ = run(capsys, *argv)
        assert code == 2

    @pytest.mark.parametrize(
        "P, cutoff",
        [
            ("t1", "1e300"),
            ("t1", "1e160"),
            ("t1^4+1", "1e100"),
        ],
    )
    def test_huge_cutoff_is_a_quiet_float_overflow(self, capsys, P, cutoff):
        argv = ["wagner-check", "-P", P, "--cutoff", cutoff, "--grid", "64"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["error"]["type"] == "FloatOverflow"
        assert err == ""

    def test_huge_cutoff_that_misses_the_gaussian_fails_quietly(self, capsys):
        # P is never summed on the grid, so xi ~ 1e154 stays in float range;
        # the 64 nodes, 3e152 apart, miss the Gaussian and the pairing is 0.
        argv = ["wagner-check", "-P", "t1^2+t2^2-1", "--cutoff", "1e154", "--grid", "64"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert check["name"] == "me_residual" and not check["pass"]
        assert check["value"] == 1.0
        assert err == ""

    def test_high_degree_overflow_is_quick(self, capsys):
        # P(-d)phi is never formed symbolically, so t1^1000 reaches the
        # overflow of (beta - i xi)^1000 at once.
        start = time.monotonic()
        code, out = run(capsys, "wagner-check", "-P", "t1^1000", "--grid", "8")
        assert time.monotonic() - start < 0.5
        assert code == 2
        assert json.loads(out)["error"]["type"] == "FloatOverflow"

    def test_default_grid_at_d3_passes(self, capsys):
        # N = 512 per axis: no array over the 512^3 grid is formed.
        code, out = run(capsys, "wagner-check", "-P", "t1^2+t2^2+t3^2+1")
        assert code == 0
        rep = json.loads(out)
        assert rep["inputs"]["grid"] == 512 and rep["checks"][0]["pass"]


@pytest.mark.parametrize("command", [["oracle-suite"], ["wagner-check", "-P", "t1"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
def test_tol_must_be_finite_and_nonnegative(capsys, command, tol):
    code, out = run(capsys, *command, f"--tol={tol}")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        "parse -P --",
        "parse -T -- -d 2",
        "solve -P t1+2 -T -- -d 2",
        "verify -P t1 -U -- -T x1 -d 1",
        "wagner-check -P=--",
        "wagner-check -P t1 --width=--",
        "oracle-suite --nmax=--",
        "parse -d=-- -T x1",
        "wagner-check -P t1 --center --",
    ],
)
def test_option_value_of_double_dash_is_a_usage_error(capsys, argv):
    # argparse stores [] for such a value and applies no type.
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "expected a value, found '--'" in captured.err


BIG = "7" * 5000
ONES = "1" * 5000


class TestInputLimits:
    @pytest.mark.parametrize(
        "argv, error",
        [
            pytest.param(
                ["parse", "-T", "delta(x1,0)", "-d", "12"], "DimensionError", id="d12"
            ),
            pytest.param(
                ["solve", "-P", "t1+1", "-T", "delta(x1,0)", "-d", "16"],
                "DimensionError",
                id="d16",
            ),
            pytest.param(
                ["parse", "-P", f"({'+'.join(f't{j}' for j in range(1, 10))})^5"],
                "InputTooLarge",
                id="power",
            ),
            pytest.param(
                ["parse", "-P", "(t1+t2+t3+t4+t5+t6)^4*(t1+t2+t3+t4+t5+t6)^4"],
                "InputTooLarge",
                id="product",
            ),
            # More than limits.MAX_GRID_POINTS nodes per axis.
            pytest.param(
                ["wagner-check", "-P", "t1", "--grid", "3000000"],
                "InputTooLarge",
                id="grid-d1",
            ),
            pytest.param(
                ["wagner-check", "-P", "t1^2+t2^2+t3^2+1", "--grid", "3000000"],
                "InputTooLarge",
                id="grid-d3",
            ),
            # More than limits.MAX_PAIR_WORK: 41 lambdas times 41 exponents on
            # each of 2 axes times N.
            pytest.param(
                ["wagner-check", "-P", "(t1+t2)^40", "--grid", "262144"]
                + ["--cutoff", "1e-3", "--width", "1e-3"],
                "InputTooLarge",
                id="pair-work",
            ),
            # Each literal is longer than Python's 4300-digit int-string limit.
            pytest.param(["parse", "-P", f"t1^{BIG}"], "InputTooLarge", id="exponent"),
            pytest.param(
                ["parse", "-T", f"delta(x1,{BIG})", "-d", "1"],
                "InputTooLarge",
                id="delta-order",
            ),
            pytest.param(
                ["parse", "-T", f"2/{BIG}*H(x1)", "-d", "1"],
                "InputTooLarge",
                id="denominator",
            ),
            # Names whose index is longer than that limit.
            pytest.param(
                ["parse", "-T", f"x{ONES}", "-d", "1"], "InputTooLarge", id="x-name"
            ),
            pytest.param(["parse", "-P", f"t{ONES}"], "InputTooLarge", id="t-name"),
            pytest.param(
                ["solve", "-P", "t1", "-T", f"H(x{ONES})", "-d", "1"],
                "InputTooLarge",
                id="H-name",
            ),
            # Without -d the dimension is the largest t<j>, at most 9.
            pytest.param(
                ["parse", "-P", f"1+t{'9' * 30}"], "ParseError", id="t-index"
            ),
            pytest.param(
                ["parse", "-P", "(2*t1)^200000"], "InputTooLarge", id="degree"
            ),
            pytest.param(
                ["parse", "-P", f"({'7' * 2000}*t1)^9"],
                "InputTooLarge",
                id="coefficient-bits",
            ),
            pytest.param(
                ["solve", "-P", f"{'7' * 2999}*t1^1000", "-T", "log(x1)^3*H(x1)"]
                + ["-d", "1"],
                "InputTooLarge",
                id="printed-coefficient-bits",
            ),
            # Atom orders one above limits.MAX_ORDER.
            pytest.param(
                ["solve", "-P", "t1+1", "-T", "x1^-1001*H(x1)", "-d", "1"],
                "InputTooLarge",
                id="power-order",
            ),
            pytest.param(
                ["solve", "-P", "t1+1002", "-T", "delta(x1,1001)", "-d", "1"],
                "InputTooLarge",
                id="delta-order-cap",
            ),
            pytest.param(
                ["solve", "-P", "t1", "-T", "log(x1)^1001*H(x1)", "-d", "1"],
                "InputTooLarge",
                id="log-power",
            ),
            pytest.param(
                ["solve", "-P", "t1+t2", "-T", "log(x1)^500*log(x2)^501*H(x1)*H(x2)"]
                + ["-d", "2"],
                "InputTooLarge",
                id="total-log-power",
            ),
            pytest.param(
                ["parse", "-T", "mono(x1,1001)", "-d", "1"],
                "InputTooLarge",
                id="mono-order",
            ),
            pytest.param(
                ["solve", "-P", "t1", "-T", f"log(x1)^{'7' * 2999}*H(x1)", "-d", "1"],
                "InputTooLarge",
                id="log-power-digits",
            ),
            pytest.param(
                ["verify", "-P", "t1", "-U", "log(x1)^2001*H(x1)", "-T", "H(x1)"]
                + ["-d", "1"],
                "InputTooLarge",
                id="solution-order",
            ),
        ],
    )
    def test_oversized_input_is_a_quick_usage_error(self, capsys, argv, error):
        start = time.monotonic()
        code, out = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert json.loads(out)["error"]["type"] == error

    @pytest.mark.parametrize(
        "P, T, d",
        [
            ("t1+1001", "delta(x1,1000)", "1"),
            ("t1^2", "log(x1)^1000*H(x1)", "1"),
            ("t1+t2", "log(x1)^500*log(x2)^500*H(x1)*H(x2)", "2"),
            ("t1+t2", "log(x1)^1000*H(x1)*H(x2)", "2"),
        ],
        ids=["power", "log-power", "total-log-power", "moved-log-power"],
    )
    def test_every_printed_solution_reads_back(self, capsys, P, T, d):
        # Solving raises orders past limits.MAX_ORDER (x1^-1001*H(x1),
        # log(x1)^1002*H(x1) and log(x2)^1001*H(x2) here), and verify reads
        # them back.
        code, out = run(capsys, "solve", "-P", P, "-T", T, "-d", d)
        assert code == 0
        U = json.loads(out)["outputs"]["solution"]
        code, out = run(capsys, "verify", "-P", P, f"-U={U}", "-T", T, "-d", d)
        assert code == 0 and json.loads(out)["outputs"]["verified"]

    @pytest.mark.parametrize("bound, code", [(5, 0), (4, 2)])
    def test_solve_prints_only_what_verify_reads(self, capsys, monkeypatch, bound, code):
        # The residual of the continuous class is solved again, and that
        # raises the total log power once more: this solution has a
        # log(x3)^5 term from |p| = 3 and deg P = 1.  Below that, solve
        # refuses its own solution instead of printing it.
        monkeypatch.setattr(cli, "MAX_SOLUTION_ORDER", bound)
        T = "x1^-1*log(x1)^2*H(x1)*x2^2*log(x2)*H(x2)*H(x3)"
        got, out = run(capsys, "solve", "-P", "-t1+t2-t3-3", "-T", T, "-d", "3")
        assert got == code
        if code:
            assert json.loads(out)["error"]["type"] == "InputTooLarge"
        else:
            assert "log(x3)^5" in json.loads(out)["outputs"]["solution"]

    @pytest.mark.parametrize(
        "module, message",
        [(theta, "theta-action"), (solver, "a solution")],
        ids=["walk", "solver"],
    )
    def test_term_bound_is_kept_by_the_walk_and_the_solver(
        self, capsys, monkeypatch, module, message
    ):
        # The solution has 9 * 9 = 81 terms: the solver holds them, and
        # verifying it walks as many.  Either side refuses them past its bound.
        argv = ["solve", "-P", "(t1+9)*(t2+9)", "-T", "delta(x1,8)*delta(x2,8)"]
        assert run(capsys, *argv, "-d", "2")[0] == 0
        monkeypatch.setattr(module, "MAX_HELD_TERMS", 40)
        code, out = run(capsys, *argv, "-d", "2")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InputTooLarge",
            "message": f"{message} reaches over 40 terms",
        }

    @pytest.mark.parametrize(
        "P, T",
        [
            ("t1*t2+1", "x1^-160*x2^-160*H(x1)*H(x2)"),
            ("(t1+201)*(t2+201)", "delta(x1,200)*delta(x2,200)"),
        ],
        ids=["finite-parts", "resonant-deltas"],
    )
    def test_deep_orders_in_two_coordinates_are_a_quick_usage_error(self, capsys, P, T):
        # 160^2 delta terms in the residual, 201^2 terms in the solution:
        # both are over limits.MAX_HELD_TERMS.
        start = time.monotonic()
        code, out = run(capsys, "solve", "-P", P, "-T", T, "-d", "2")
        assert time.monotonic() - start < 5.0
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InputTooLarge"

    @pytest.mark.parametrize(
        "P, T, d",
        [
            ("+".join(f"t{j}" for j in range(1, 10)), "log(x1)^8*H(x1)", "9"),
            ("t1+t2", "log(x1)^1000*H(x1)", "2"),
        ],
        ids=["d9", "log-power-1000"],
    )
    def test_log_power_systems_are_solved_quickly(self, capsys, P, T, d):
        # Division by the lowest-order term of P touches only the monomials
        # the remainder reaches, not the whole total-degree box.
        start = time.monotonic()
        code, out = run(capsys, "solve", "-P", P, "-T", T, "-d", d)
        assert time.monotonic() - start < 10.0
        assert code == 0 and json.loads(out)["outputs"]["verified"]

    def test_high_power_is_solved(self, capsys):
        # theta^1000 on the solution's one term is one divided difference of
        # P per path, by synthetic division, with no step or recursion per
        # power of theta.
        start = time.monotonic()
        argv = ["solve", "-P", "t1^1000", "-T", "log(x1)*H(x1)", "-d", "1"]
        code, out = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 0 and json.loads(out)["outputs"]["verified"]

    def test_high_degree_resonant_path_is_quick(self, capsys):
        # factor_out shifts a degree-300 polynomial twice and verify divides
        # it by (z + 1) once per step down the log ladder of the solution's
        # one term x1^-1*log(x1)^299*H(x1), all on integers over one
        # denominator; with a Fraction per coefficient this took about 2 s.
        start = time.monotonic()
        argv = ["solve", "-P", "(t1+1)^300", "-T", "delta(x1,0)", "-d", "1"]
        code, out = run(capsys, *argv)
        assert time.monotonic() - start < 1.5
        assert code == 0 and json.loads(out)["outputs"]["verified"]

    @pytest.mark.parametrize(
        "argv",
        [["parse"], ["solve", "-T", "delta(x1,0)", "-d", "1"], ["wagner-check"]],
        ids=lambda argv: argv[0],
    )
    def test_deep_nesting_is_a_usage_error(self, capsys, argv):
        # The reader recurses once per parenthesis, so past MAX_NESTING it
        # refuses the text before it recurses, not as an internal error.
        depth = 10 * MAX_NESTING
        code, out = run(capsys, *argv, "-P", "(" * depth + "t1+1" + ")" * depth)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InputTooLarge"

    def test_long_unary_minus_run_is_read(self, capsys):
        # A run of unary minus signs is counted in a loop, not by recursion.
        code, out = run(capsys, "parse", "-P", "-" * 10_000 + "t1")
        assert code == 0
        assert json.loads(out)["outputs"]["canonical"] == "t1"

    @pytest.mark.parametrize(
        "m, T, code, bits",
        [
            (1000, "x1^-1000*H(x1)", 2, 10966),
            (320, "x1^-320*log(x1)^5*H(x1)", 2, 10653),
            (400, "x1^-400*H(x1)", 0, None),
        ],
        ids=["over-bits", "over-bits-with-logs", "largest-9738-bits"],
    )
    def test_solution_coefficients_are_checked_as_they_are_made(
        self, capsys, m, T, code, bits
    ):
        # MAX_BITS bounds every coefficient the solver makes, so a solution
        # that could not be printed is refused before verify applies P to
        # it; the largest coefficient of the m = 400 solution is under the
        # bound.  A continuous class is refused at the first coefficient it
        # makes that is sure to pass the bound, and the message names it;
        # otherwise it names the coefficient of the canonically first term
        # over the bound.
        start = time.monotonic()
        got, out = run(capsys, "solve", "-P", f"t1^{m}+1", "-T", T, "-d", "1")
        assert time.monotonic() - start < 20.0
        assert got == code
        if code:
            error = json.loads(out)["error"]
            assert error["type"] == "InputTooLarge"
            assert error["message"] == (
                f"a solution coefficient of {bits} bits is above {MAX_BITS}"
            )
        else:
            assert json.loads(out)["outputs"]["verified"]

    def test_coefficients_a_resonant_inversion_rescales_are_not_checked(self, capsys):
        # P = 1000! (t1+1001) vanishes at -1001: delta(x1,1000) is solved for
        # W with 1000! W = T, and W is inverted through t1+1001.  W's
        # coefficient 1/(2^1475 1000!) has 10005 bits, but every coefficient
        # of the solution is within MAX_BITS.
        P = f"{math.factorial(1000)}*(t1+1001)"
        T = f"1/{2 ** 1475}*delta(x1,1000)"
        code, out = run(capsys, "solve", "-P", P, "-T", T, "-d", "1")
        assert code == 0 and json.loads(out)["outputs"]["verified"]

    def test_negated_power_is_solved(self, capsys):
        argv = ["solve", "-P", "-t1^2+1", "-T", "delta(x1,0)", "-d", "1"]
        code, out = run(capsys, *argv)
        assert code == 0
        # (1 - theta^2)(1/2 x^-1 H) = delta; read as t1^2 + 1, the
        # solution would be 1/2*delta(x1,0).
        assert json.loads(out)["outputs"]["solution"] == "1/2*x1^-1*H(x1)"


_EXIT_CODES = {
    errors.EulerDistError("base"): 3,
    errors.DimensionError("dim"): 2,
    errors.ZeroPolynomial("zero"): 2,
    errors.UnsupportedInput("unsupported"): 3,
    errors.QuadratureNoConvergence("no convergence"): 3,
    errors.FloatOverflow("overflow"): 2,
    errors.InputTooLarge("too large"): 2,
    errors.ParseError("unexpected token", 4): 2,
    errors.CoordinateConflict("conflict"): 2,
}


def test_every_error_type_has_an_exit_code_case():
    types = {
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.EulerDistError)
    }
    assert {type(e) for e in _EXIT_CODES} == types


@pytest.mark.parametrize(
    "exc, code", _EXIT_CODES.items(), ids=lambda x: type(x).__name__
)
def test_typed_error_report_and_exit_code(capsys, monkeypatch, exc, code):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "parse_poly", fail)
    got, out = run(capsys, "solve", "-P", "t1", "-T", "H(x1)", "-d", "1")
    assert got == code
    err = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, errors.ParseError):
        err["position"] = 4
    assert out == json.dumps({"error": err}, indent=2) + "\n"


class TestOracleSuiteCommand:
    def test_factorial_sized_pairings_pass(self, capsys):
        # Pairings of log(x)^15 and delta^(20) are near 15! and 20!; their
        # float rounding alone is above 1e-6 in absolute terms.
        argv = ["oracle-suite", "--nmax", "0", "--pmax", "15", "--kmax", "20"]
        code, out = run(capsys, *argv)
        assert code == 0, json.loads(out)["outputs"]["worst_atom"]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        argv = ["solve", "-P", "(t1+1)^2", "-T", "delta(x1,1)", "-d", "1"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second
        assert first.encode() == second.encode()

    def test_oracle_suite_small(self, capsys):
        argv = ["oracle-suite", "--nmax", "1", "--pmax", "1", "--kmax", "1"]
        code, first = run(capsys, *argv)
        assert code == 0
        _, second = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize(
        "value",
        [
            {"a": [], "b": {}, "c": [1, 2.5, None, True], "d": {"e": ["\u00e9", -0.0]}},
            {"x": float("nan"), "y": (1, [float("inf")]), "z": 'q"\n'},
            [],
            "text",
        ],
    )
    def test_report_text_is_json_dumps_indent_2(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "-P", "t1+1", "-T", "delta(x1,0)", "-d", "1"],
            ["wagner-check", "-P", "t1*t2 + 4", "--grid", "64"],
            ["parse", "-P", "t1+"],
        ],
    )
    def test_a_call_leaves_no_cyclic_garbage(self, capsys, argv):
        # Garbage in reference cycles drives the collector's full passes,
        # which then land inside later in-process calls.
        run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            run(capsys, *argv)
            assert gc.collect() == 0
        finally:
            gc.enable()


# -- fuzzing: no generated argv may end in an internal error (exit 3) -------
#
# Texts stay small (d <= 3, exponents, log powers and delta orders <= 3) so
# every example runs in well under a second; coordinates and variables may
# exceed -d, and factors may conflict, to reach the usage errors too.

_small = st.integers(0, 3)
_coeff = st.sampled_from(["", "-", "2*", "-1/3*", "3/2*", "0*"])


def _coord(d):
    """Mostly 1..d, now and then d + 1 for the dimension errors."""
    return st.integers(0, 9).flatmap(lambda r: st.integers(1, d + (r == 0)))


@st.composite
def _poly_text(draw, d):
    monomials = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [f"t{j}^{draw(_small)}" for j in draw(st.lists(_coord(d), max_size=3))]
        monomials.append(draw(_coeff) + ("*".join(factors) or "1"))
    text = draw(st.sampled_from([" + ", " - "])).join(monomials)
    if draw(st.booleans()):
        text = f"({text})^{draw(st.integers(1, 2))}"
    return text


def _factor(j):
    return st.one_of(
        st.builds(lambda n: f"x{j}^{n}", st.integers(-3, 3)),
        st.builds(lambda p: f"log(x{j})^{p}", _small),
        st.just(f"H(x{j})"),
        st.just(f"H(-x{j})"),
        st.builds(lambda k: f"delta(x{j},{k})", _small),
        st.builds(lambda n: f"mono(x{j},{n})", _small),
    )


@st.composite
def _dist_text(draw, d):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coords = draw(st.lists(_coord(d), min_size=1, max_size=d, unique=True))
        if draw(st.integers(0, 9)) == 0:
            coords.append(coords[0])  # a conflicting second factor
        terms.append(draw(_coeff) + "*".join(draw(_factor(j)) for j in coords))
    return draw(st.sampled_from([" + ", " - "])).join(terms)


@st.composite
def _deep_poly_text(draw, d):
    """_poly_text, now and then inside up to 10 * MAX_NESTING parentheses or
    after as many unary minus signs."""
    text = draw(_poly_text(d))
    depth = draw(st.integers(0, 10 * MAX_NESTING))
    wrap = draw(st.sampled_from(["", "(", "-"]))
    if wrap == "(":
        return "(" * depth + text + ")" * depth
    return wrap * depth + text


@st.composite
def _argv(draw):
    d = draw(st.integers(1, 3))
    dim = ["-d", str(d)]
    command = draw(st.sampled_from(["solve", "verify", "parse-P", "parse-T"]))
    P = draw(_deep_poly_text(d))
    if command == "solve":
        return ["solve", "-P", P, "-T", draw(_dist_text(d))] + dim
    if command == "verify":
        U, T = draw(_dist_text(d)), draw(_dist_text(d))
        return ["verify", "-P", P, "-U", U, "-T", T] + dim
    if command == "parse-P":
        return ["parse", "-P", P] + draw(st.sampled_from([[], dim]))
    return ["parse", "-T", draw(_dist_text(d))] + dim


@settings(
    max_examples=150,
    deadline=5000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(_argv())
def test_fuzzed_argv_never_exits_3(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2), f"exit {code} for {argv}: {out}"


# -- fuzzing wagner-check: every report is finite JSON ----------------------

# Half the draws stay below 100, where most runs get past the float range.
_magnitude = (st.floats(-3.0, 2.0) | st.floats(-3.0, 300.0)).map(lambda e: repr(10.0**e))


@st.composite
def _wagner_argv(draw):
    d = draw(st.integers(1, 3))
    monomials = []
    for _ in range(draw(st.integers(1, 4))):
        axes = draw(st.lists(st.integers(1, d), max_size=4))
        factors = [f"t{j}^{axes.count(j)}" for j in sorted(set(axes))]
        monomials.append(draw(_coeff) + ("*".join(factors) or "1"))
    center = ",".join(
        draw(st.sampled_from(["", "-"])) + draw(st.sampled_from(["0", "1/3"]) | _magnitude)
        for _ in range(d)
    )
    return [
        "wagner-check", "-P", " + ".join(monomials), "-d", str(d),
        "--center", center, "--width", draw(_magnitude),
        "--cutoff", draw(_magnitude), "--grid", str(draw(st.integers(2, 4096))),
    ]


def _no_constant(name):
    raise ValueError(f"{name} in a report")


@settings(
    max_examples=150,
    deadline=5000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(_wagner_argv())
def test_fuzzed_wagner_check_reports_are_finite(capsys, argv):
    # P of degree <= 4 at d <= 3; center, width and cutoff from 1e-3 to 1e300.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2), f"exit {code} for {argv}: {out}"
    rep = json.loads(out, parse_constant=_no_constant)
    if code != 2:
        residual = rep["outputs"]["residual"]
        assert math.isfinite(residual) and rep["checks"][0]["value"] == residual
