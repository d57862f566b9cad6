from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from eulerdist.atoms import Delta, MonLog, TensorTerm, dist, full_monomial, single
from eulerdist.errors import CoordinateConflict, DimensionError, ParseError
from eulerdist.grammar import format_dist, format_poly, parse_dist, parse_poly
from eulerdist.poly import Polynomial


def zvar(d, j):
    return Polynomial.variable(d, j)


class TestParsePoly:
    def test_mixed(self):
        got = parse_poly("t1^2*t2 - 3*t1 + 2")
        want = zvar(2, 1) ** 2 * zvar(2, 2) - 3 * zvar(2, 1) + Polynomial.constant(2, 2)
        assert got == want

    def test_sum(self):
        assert parse_poly("t1 + t2 + 2") == (
            zvar(2, 1) + zvar(2, 2) + Polynomial.constant(2, 2)
        )

    def test_unbalanced_paren_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("t1*(t1+1")
        assert exc.value.position == 8

    def test_rational_and_unary_minus(self):
        got = parse_poly("-3/4*t1 + (t1 - 1)^2", 1)
        z = zvar(1, 1)
        assert got == z**2 - z * F(11, 4) + Polynomial.constant(1, 1)

    def test_whitespace_insignificant(self):
        assert parse_poly(" t1 ^2* t2", 2) == parse_poly("t1^2*t2", 2)

    def test_dim_override(self):
        assert parse_poly("t1", 3).dim == 3

    def test_variable_beyond_dim(self):
        with pytest.raises(DimensionError):
            parse_poly("t3", 2)


class TestParseDist:
    def test_delta_tensor(self):
        got = parse_dist("delta(x1,2) * x2^3*H(x2)", 2)
        assert got == single((Delta(2), MonLog(3, 0, 1)))

    def test_finite_part(self):
        assert parse_dist("x1^-1*H(x1)", 1) == single((MonLog(-1, 0, 1),))

    def test_mono_sugar(self):
        got = parse_dist("1/2 * mono(x1,2) + delta(x1,0)", 1)
        assert got == full_monomial((2,)).scaled(F(1, 2)) + single((Delta(0),))

    def test_conflict(self):
        with pytest.raises(CoordinateConflict):
            parse_dist("delta(x1,0)*H(x1)", 1)

    def test_absent_coordinate_full_line(self):
        got = parse_dist("delta(x1,1)", 2)
        want = single((Delta(1), MonLog(0, 0, 1))) + single(
            (Delta(1), MonLog(0, 0, -1))
        )
        assert got == want

    def test_bare_monomial_expands(self):
        assert parse_dist("x1^3", 1) == full_monomial((3,))

    def test_reflected_group(self):
        got = parse_dist("x1^-2*log(x1)^2*H(-x1)", 1)
        assert got == single((MonLog(-2, 2, -1),))

    def test_unknown_factor(self):
        with pytest.raises(ParseError):
            parse_dist("spline(x1)", 1)


# One factor of each kind on x1, and the message of the CoordinateConflict it
# raises when it cannot join an earlier factor there.
FACTOR_KINDS = {
    "power": ("x1^2", "power factor conflicts with an earlier factor for x1"),
    "log": ("log(x1)^2", "log factor conflicts with an earlier factor for x1"),
    "H": ("H(-x1)", "half-line factor conflicts with an earlier factor for x1"),
    "delta": ("delta(x1,1)", "delta combined with another factor for x1"),
    "mono": ("mono(x1,3)", "mono combined with another factor for x1"),
}


@pytest.mark.parametrize("first", sorted(FACTOR_KINDS))
@pytest.mark.parametrize("second", sorted(FACTOR_KINDS))
def test_factor_pair_on_one_coordinate(first, second):
    first_src, _ = FACTOR_KINDS[first]
    second_src, message = FACTOR_KINDS[second]
    src = f"2*x2*{first_src} * {second_src}"
    owners = {"delta", "mono"}
    if first == second or first in owners or second in owners:
        with pytest.raises(CoordinateConflict) as exc:
            parse_dist(src, 2)
        offset = src.index(second_src, len(src) - len(second_src))
        assert str(exc.value) == f"{message} (at offset {offset})"
    else:
        reordered = f"2*x2*{second_src} * {first_src}"
        assert parse_dist(src, 2) == parse_dist(reordered, 2)


class TestRoundTrip:
    CORPUS_POLY = [
        "t1",
        "t1 + 1",
        "-t1^4 + 2/3*t1^2 - 5",
        "t1*t2",
        "t1^2*t2 - 3*t1 + 2",
        "1/2",
        "t1^2 + t2^2 - 1",
        "t1*t2 + 1",
        "(t1 + 1)^2*(t2 - 3)",
        "7*t1^3*t2^2 - t2",
    ]
    CORPUS_DIST = [
        ("delta(x1,0)", 1),
        ("x1^-1*H(x1)", 1),
        ("x1^2*log(x1)*H(x1) - 2*delta(x1,3)", 1),
        ("x1^-3*log(x1)^2*H(-x1)", 1),
        ("mono(x1,2)", 1),
        ("H(x1) + H(-x1)", 1),
        ("delta(x1,2)*x2^3*H(x2)", 2),
        ("delta(x1,0)*delta(x2,1)", 2),
        ("3/7*x1*H(x1)*x2^-2*log(x2)*H(x2)", 2),
        ("x1*x2", 2),
    ]

    def test_poly_round_trip(self):
        for src in self.CORPUS_POLY:
            P = parse_poly(src)
            assert parse_poly(format_poly(P), P.dim) == P

    def test_expanded_power_round_trip(self):
        # 792 canonical terms; the sum is accumulated in one term map, so
        # this parse is linear in the text length.
        P = parse_poly("(t1+t2+t3+t4+t5+t6)^7")
        assert len(P.terms) == 792
        assert parse_poly(format_poly(P), 6) == P

    def test_signed_sum_merges_terms(self):
        assert parse_poly("t1 - 2*t2 + 3 - t1 + t2^2 - (1 - t2)", 2) == (
            zvar(2, 2) ** 2 - zvar(2, 2) + Polynomial.constant(2, 2)
        )

    def test_dist_round_trip(self):
        for src, d in self.CORPUS_DIST:
            e = parse_dist(src, d)
            assert parse_dist(format_dist(e), d) == e


atoms = st.one_of(
    st.builds(Delta, st.integers(0, 4)),
    st.builds(
        MonLog, st.integers(-4, 4), st.integers(0, 3), st.sampled_from((1, -1))
    ),
)
exprs = st.lists(
    st.builds(
        TensorTerm,
        st.fractions(min_value=-6, max_value=6, max_denominator=7),
        st.tuples(atoms, atoms),
    ),
    min_size=0,
    max_size=4,
).map(lambda ts: dist(2, ts))


@settings(max_examples=80, deadline=None)
@given(exprs)
def test_format_parse_identity(e):
    assert parse_dist(format_dist(e), 2) == e
