import json
import time

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
        ],
    )
    def test_bad_grid_or_cutoff_exit_2(self, capsys, argv):
        code, _ = run(capsys, *argv)
        assert code == 2


BIG = "7" * 5000


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
        ],
    )
    def test_oversized_input_is_a_quick_usage_error(self, capsys, argv, error):
        start = time.monotonic()
        code, out = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert json.loads(out)["error"]["type"] == error

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
