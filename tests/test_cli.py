import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eulerdist.cli import main


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
            ("t1^2+t2^2-1", "1e154"),
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


@pytest.mark.parametrize("command", [["oracle-suite"], ["wagner-check", "-P", "t1"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
def test_tol_must_be_finite_and_nonnegative(capsys, command, tol):
    code, out = run(capsys, *command, f"--tol={tol}")
    assert code == 2
    assert out == ""


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
            pytest.param(
                ["wagner-check", "-P", "t1^2+t2^2+t3^2-1"],
                "InputTooLarge",
                id="grid-d3-default",
            ),
            pytest.param(
                ["wagner-check", "-P", "t1", "--grid", "3000000"],
                "InputTooLarge",
                id="grid-d1",
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
            # Atom orders one above grammar.MAX_ORDER.
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
        # Solving raises orders past grammar.MAX_ORDER (x1^-1001*H(x1),
        # log(x1)^1002*H(x1) and log(x2)^1001*H(x2) here), and verify reads
        # them back.
        code, out = run(capsys, "solve", "-P", P, "-T", T, "-d", d)
        assert code == 0
        U = json.loads(out)["outputs"]["solution"]
        code, out = run(capsys, "verify", "-P", P, f"-U={U}", "-T", T, "-d", d)
        assert code == 0 and json.loads(out)["outputs"]["verified"]

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
        # theta^1000 is walked iteratively, not by one recursion per power.
        start = time.monotonic()
        argv = ["solve", "-P", "t1^1000", "-T", "log(x1)*H(x1)", "-d", "1"]
        code, out = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 0 and json.loads(out)["outputs"]["verified"]

    def test_negated_power_is_solved(self, capsys):
        argv = ["solve", "-P", "-t1^2+1", "-T", "delta(x1,0)", "-d", "1"]
        code, out = run(capsys, *argv)
        assert code == 0
        # (1 - theta^2)(1/2 x^-1 H) = delta; read as t1^2 + 1, the
        # solution would be 1/2*delta(x1,0).
        assert json.loads(out)["outputs"]["solution"] == "1/2*x1^-1*H(x1)"


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
def _argv(draw):
    d = draw(st.integers(1, 3))
    dim = ["-d", str(d)]
    command = draw(st.sampled_from(["solve", "verify", "parse-P", "parse-T"]))
    if command == "solve":
        return ["solve", "-P", draw(_poly_text(d)), "-T", draw(_dist_text(d))] + dim
    if command == "verify":
        U, T = draw(_dist_text(d)), draw(_dist_text(d))
        return ["verify", "-P", draw(_poly_text(d)), "-U", U, "-T", T] + dim
    if command == "parse-P":
        return ["parse", "-P", draw(_poly_text(d))] + draw(st.sampled_from([[], dim]))
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
