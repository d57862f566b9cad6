from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from eulerdist.errors import DimensionError, ZeroPolynomial
from eulerdist.poly import (
    Polynomial,
    factor_out,
    poly_eval,
    principal_part,
    substitute_coord,
    taylor_shift,
    vanishing_order,
)


def v(d, j):
    return Polynomial.variable(d, j)


def c(d, x):
    return Polynomial.constant(d, x)


class TestEval:
    def test_linear_at_root(self):
        P = v(2, 1) + v(2, 2) + c(2, 2)
        assert poly_eval(P, (-1, -1)) == 0

    def test_shifted_variable_root(self):
        a = F(5, 3)
        P = v(1, 1) - c(1, a)
        assert poly_eval(P, (a,)) == 0

    def test_mixed(self):
        P = v(2, 1) ** 2 * v(2, 2) - 3 * v(2, 1) + c(2, 2)
        assert poly_eval(P, (2, F(1, 2))) == -2

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            poly_eval(v(2, 1), (1,))


class TestSubstitute:
    def test_linear(self):
        P = v(2, 1) + v(2, 2) + c(2, 2)
        assert substitute_coord(P, 1, -1) == v(1, 1) + c(1, 1)

    def test_divisible_gives_zero(self):
        P = (v(2, 1) + c(2, 1)) * v(2, 2)
        assert substitute_coord(P, 1, -1).is_zero()

    def test_other_coordinate(self):
        P = v(2, 1) ** 2 + v(2, 2)
        assert substitute_coord(P, 2, 3) == v(1, 1) ** 2 + c(1, 3)


class TestFactorOut:
    def test_double_root(self):
        P = (v(2, 1) + c(2, 2)) ** 2 * (v(2, 2) - c(2, 1))
        r, Q = factor_out(P, 1, 2)
        assert r == 2 and Q == v(2, 2) - c(2, 1)

    def test_no_factor(self):
        P = v(2, 1) + v(2, 2)
        r, Q = factor_out(P, 1, 0)
        assert r == 0 and Q == P

    def test_scaled_linear(self):
        P = (v(1, 1) + c(1, 4)) * 5
        r, Q = factor_out(P, 1, 4)
        assert r == 1 and Q == c(1, 5)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_out(Polynomial.zero(1), 1, 0)


class TestPrincipalPart:
    def test_plain(self):
        P = v(2, 1) ** 2 + v(2, 2) + c(2, 5)
        assert principal_part(P) == v(2, 1) ** 2

    def test_mixed_top(self):
        P = v(2, 1) * v(2, 2) + v(2, 1)
        assert principal_part(P) == v(2, 1) * v(2, 2)

    def test_homogeneous_fixed_point(self):
        P = v(2, 1) ** 3 + v(2, 1) * v(2, 2) ** 2
        assert principal_part(P) == P


class TestVanishingOrder:
    def test_product(self):
        P = v(2, 1) * v(2, 2)
        assert vanishing_order(P, (0, 0)) == (2, (1, 1))

    def test_simple_root(self):
        P = v(1, 1) - c(1, 2)
        assert vanishing_order(P, (2,)) == (1, (1,))

    def test_nonresonant(self):
        P = v(2, 1) + v(2, 2) + c(2, 2)
        assert vanishing_order(P, (0, 0)) == (0, (0, 0))

    def test_bounded_by_degree(self):
        P = (v(1, 1) - c(1, 1)) ** 3
        val, _ = vanishing_order(P, (1,))
        assert val == 3 == P.degree


rational = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def polys(dim, max_deg=3):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(dim)]).filter(
        lambda a: sum(a) <= max_deg
    )
    return st.dictionaries(exps, rational, min_size=0, max_size=5).map(
        lambda d: Polynomial(dim, d)
    )


@settings(max_examples=60, deadline=None)
@given(
    polys(2),
    st.integers(1, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(0, 3),
)
def test_factor_out_reconstructs(P, j, cval, k):
    if P.is_zero():
        return
    lin = Polynomial.variable(2, j) + Polynomial.constant(2, cval)
    P = lin**k * P
    r, Q = factor_out(P, j, cval)
    assert r >= k
    assert lin**r * Q == P
    assert not substitute_coord(Q, j, -cval).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys(2), st.integers(1, 2), rational, rational)
def test_substitute_agrees_with_eval(P, j, vj, other):
    Q = substitute_coord(P, j, vj)
    full = [vj, other] if j == 1 else [other, vj]
    assert poly_eval(Q, (other,)) == poly_eval(P, full)


@settings(max_examples=60, deadline=None)
@given(polys(2), st.tuples(rational, rational))
def test_vanishing_order_invariants(P, mu):
    if P.is_zero():
        return
    val, beta = vanishing_order(P, mu)
    assert (val == 0) == (poly_eval(P, mu) != 0)
    assert val <= P.degree
    assert sum(beta) == val
    shifted = taylor_shift(P, mu)
    assert shifted.terms.get(beta, F(0)) != 0


def test_power_makes_no_product_larger_than_its_result(monkeypatch):
    sizes = []
    mul = Polynomial.__mul__

    def recording_mul(self, other):
        out = mul(self, other)
        sizes.append(len(out.terms))
        return out

    monkeypatch.setattr(Polynomial, "__mul__", recording_mul)
    L = 2 * v(3, 1) - v(3, 2) + 3 * v(3, 3) + c(3, 1)
    sizes.clear()
    result = L**4
    assert len(result.terms) == 35
    assert sizes and max(sizes) <= 35
