import copy
import pickle
from fractions import Fraction as F
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from eulerdist.errors import DimensionError, ZeroPolynomial
from eulerdist.gausspoly import GaussPoly
from eulerdist.poly import (
    Polynomial,
    factor_out,
    poly_eval,
    poly_sum,
    principal_part,
    substitute_coord,
    taylor_shift,
    vanishing_order,
)


def v(d, j):
    return Polynomial.variable(d, j)


def c(d, x):
    return Polynomial.constant(d, x)


def test_terms_is_a_copy():
    P = v(2, 1) - F(1, 2) * v(2, 2) + c(2, 3)
    Q = v(2, 1) - F(1, 2) * v(2, 2) + c(2, 3)
    before = hash(P)
    terms = P.terms
    terms[(0, 0)] = F(7)
    terms[(5, 5)] = F(1)
    assert P.terms == {(1, 0): 1, (0, 1): F(-1, 2), (0, 0): 3}
    assert P == Q and hash(P) == hash(Q) == before


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
        assert vanishing_order(taylor_shift(P, (0, 0))) == (2, (1, 1))

    def test_simple_root(self):
        P = v(1, 1) - c(1, 2)
        assert vanishing_order(taylor_shift(P, (2,))) == (1, (1,))

    def test_nonresonant(self):
        P = v(2, 1) + v(2, 2) + c(2, 2)
        assert vanishing_order(taylor_shift(P, (0, 0))) == (0, (0, 0))

    def test_bounded_by_degree(self):
        P = (v(1, 1) - c(1, 1)) ** 3
        val, _ = vanishing_order(taylor_shift(P, (1,)))
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
    shifted = taylor_shift(P, mu)
    val, beta = vanishing_order(shifted)
    assert (val == 0) == (poly_eval(P, mu) != 0)
    assert val <= P.degree
    assert sum(beta) == val
    assert shifted.terms.get(beta, F(0)) != 0


def _to_sympy(P, zs):
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * prod(z**a for z, a in zip(zs, alpha))
            for alpha, c in P.terms.items()
        ),
        sympy.Integer(0),
    )


def _from_sympy(expr, zs):
    expr = sympy.expand(expr)
    if not zs:
        return Polynomial(0, {(): F(int(expr.p), int(expr.q))})
    return Polynomial(
        len(zs),
        {m: F(int(c.p), int(c.q)) for m, c in sympy.Poly(expr, *zs).terms()},
    )


@st.composite
def high_degree_polys(draw, dim, max_deg=8):
    """Up to 6 terms of total degree <= max_deg, coefficient denominators <= 6."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        alpha, left = [], max_deg
        for _ in range(dim):
            alpha.append(draw(st.integers(0, left)))
            left -= alpha[-1]
        terms[tuple(alpha)] = draw(rational)
    return Polynomial(dim, terms)


shifts = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shifts_match_sympy(data):
    # Shifts with denominators up to 5 exercise the b^(n-t) scaling of the
    # integer Horner shift on every slice.
    d = data.draw(st.integers(1, 3))
    P = data.draw(high_degree_polys(d))
    mu = data.draw(st.tuples(*[shifts] * d))
    j = data.draw(st.integers(1, d))
    zs = sympy.symbols(f"z1:{d + 1}")
    expr = _to_sympy(P, zs)
    ms = [sympy.Rational(m.numerator, m.denominator) for m in mu]
    moved = expr.subs({z: z + m for z, m in zip(zs, ms)}, simultaneous=True)
    assert taylor_shift(P, mu) == _from_sympy(moved, zs)
    z, m = zs[j - 1], ms[j - 1]
    rest = zs[: j - 1] + zs[j:]
    assert substitute_coord(P, j, mu[j - 1]) == _from_sympy(expr.subs(z, m), rest)
    if P.is_zero():
        return
    # (z_j + m)^k P has exactly the cofactor that sympy's division leaves.
    k = data.draw(st.integers(0, 3))
    lin = z + m
    r, Q = factor_out(_from_sympy(expr * lin**k, zs), j, mu[j - 1])
    q, rem = sympy.div(sympy.expand(expr * lin**k), sympy.expand(lin**r), *zs)
    assert r >= k and rem == 0
    assert Q == _from_sympy(q, zs)
    assert sympy.expand(q.subs(z, -m)) != 0


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


def _assert_canonical(R):
    assert R.den > 0
    assert all(R.nums.values())
    assert gcd(R.den, *R.nums.values()) == 1
    S = Polynomial(R.dim, R.terms)
    assert R == S and hash(R) == hash(S)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_result_is_in_the_one_stored_form(data):
    d = data.draw(st.integers(1, 3))
    P = data.draw(high_degree_polys(d))
    Q = data.draw(high_degree_polys(d))
    mu = data.draw(st.tuples(*[shifts] * d))
    j = data.draw(st.integers(1, d))
    there_and_back = taylor_shift(taylor_shift(P, mu), tuple(-m for m in mu))
    assert there_and_back == P
    results = [
        P + Q,
        P - Q,
        P - P,
        P * Q,
        P.scale(data.draw(rational)),
        P.partial(j),
        substitute_coord(P, j, mu[j - 1]),
        there_and_back,
    ]
    if not P.is_zero():
        lin = Polynomial.variable(d, j) + Polynomial.constant(d, mu[j - 1])
        results.append(factor_out(lin**2 * P, j, mu[j - 1])[1])
    for R in results:
        _assert_canonical(R)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_poly_sum_equals_the_fraction_sum(data):
    d = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        # Each polynomial beside its negation: the sum cancels to zero.
        base = data.draw(st.lists(polys(d), max_size=2))
        ps = data.draw(st.permutations(base + [-P for P in base]))
    else:
        ps = data.draw(st.lists(polys(d), max_size=4))
    want: dict = {}
    for P in ps:
        for alpha, coeff in P.terms.items():
            want[alpha] = want.get(alpha, 0) + coeff
    R = poly_sum(d, ps)
    assert R.dim == d and R == Polynomial(d, want)
    _assert_canonical(R)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_poly_eval_equals_the_per_term_fraction_loop(data):
    d = data.draw(st.integers(0, 3))
    P = data.draw(high_degree_polys(d))
    mu = data.draw(st.tuples(*[rational] * d))
    want = F(0)
    for alpha, coeff in P.terms.items():
        term = coeff
        for a, m in zip(alpha, mu):
            term *= m**a
        want += term
    assert poly_eval(P, mu) == want


@pytest.mark.parametrize(
    "obj",
    [
        Polynomial.zero(2),
        Polynomial.constant(0, F(-3, 4)),
        F(1, 6) * v(2, 1) ** 2 - c(2, F(2, 3)),
        GaussPoly(F(1, 2) * v(1, 1) + c(1, 1), (F(1, 3),), F(5, 4)),
    ],
    ids=["zero", "dim-0 constant", "den 6", "GaussPoly"],
)
def test_pickle_and_copy_round_trip(obj):
    clones = [pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)]
    for clone in clones:
        assert clone == obj and hash(clone) == hash(obj)
