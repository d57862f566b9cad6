from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings, strategies as st

from eulerdist.atoms import (
    Delta,
    DistExpr,
    MonLog,
    TensorTerm,
    dist,
    full_monomial,
    single,
)
from eulerdist.poly import Polynomial, poly_eval
from eulerdist.theta import (
    apply_polynomial,
    apply_theta,
    apply_theta_expr,
    closure,
    equal,
)


H = MonLog(0, 0, 1)


class TestThetaTable:
    def test_delta_eigen(self):
        assert apply_theta(1, Delta(2)) == [(F(-3), Delta(2))]

    def test_heaviside_killed(self):
        assert apply_theta(1, H) == []

    def test_finite_part_correction(self):
        out = dict((a, c) for c, a in apply_theta(1, MonLog(-1, 0, 1)))
        assert out == {MonLog(-1, 0, 1): F(-1), Delta(0): F(1)}

    def test_log_ladder(self):
        out = dict((a, c) for c, a in apply_theta(1, MonLog(2, 1, 1)))
        assert out == {MonLog(2, 1, 1): F(2), MonLog(2, 0, 1): F(1)}

    def test_no_correction_with_log(self):
        # For p >= 1 the regularization absorbs the boundary term.
        out = dict((a, c) for c, a in apply_theta(1, MonLog(-2, 1, 1)))
        assert out == {MonLog(-2, 1, 1): F(-2), MonLog(-2, 0, 1): F(1)}

    def test_reflected_correction_sign(self):
        # Reflected finite parts leak into deltas with all-positive weights;
        # the coefficients are locked to the adjoint-identity oracle.
        out = dict((a, c) for c, a in apply_theta(1, MonLog(-2, 0, -1)))
        assert out == {
            MonLog(-2, 0, -1): F(-2),
            Delta(0): F(1),
            Delta(1): F(1),
        }


class TestApplyPolynomial:
    def test_monomial_eigen(self):
        a = F(1, 3)
        P = Polynomial.variable(1, 1) - Polynomial.constant(1, a)
        for n in range(4):
            e = full_monomial((n,))
            assert apply_polynomial(P, e) == e.scaled(n - a)

    def test_resonant_generator(self):
        P = Polynomial.variable(1, 1) + Polynomial.constant(1, 1)
        assert apply_polynomial(P, single((MonLog(-1, 0, 1),))) == single((Delta(0),))

    def test_delta_tensor_kernel(self):
        P = (
            Polynomial.variable(2, 1)
            + Polynomial.variable(2, 2)
            + Polynomial.constant(2, 2)
        )
        e = single((Delta(0), Delta(0)))
        assert apply_polynomial(P, e).is_zero()


class TestEqual:
    def test_permutation(self):
        a = single((Delta(0),)) + single((H,), 2)
        b = single((H,), 2) + single((Delta(0),))
        assert equal(a, b)

    def test_constant_forms(self):
        assert equal(
            single((H,)) + single((MonLog(0, 0, -1),)), full_monomial((0,))
        )

    def test_scaling_distinguished(self):
        assert not equal(single((Delta(0),)), single((Delta(0),), 2))

    def test_non_canonical_operands(self):
        # Built directly: a repeated factor tuple, a zero coefficient and
        # an unsorted order, on either side.
        raw = DistExpr(
            1,
            (
                TensorTerm(F(1), (H,)),
                TensorTerm(F(0), (MonLog(2, 0, 1),)),
                TensorTerm(F(1), (Delta(0),)),
                TensorTerm(F(2), (H,)),
            ),
        )
        canon = single((Delta(0),)) + single((H,), 3)
        assert equal(raw, canon) and equal(canon, raw)
        assert not equal(raw, single((H,), 3))
        assert not equal(raw, canon + single((MonLog(2, 0, 1),)))
        cancelled = DistExpr(1, (TensorTerm(F(1), (H,)), TensorTerm(F(-1), (H,))))
        assert equal(cancelled, dist(1, []))
        assert equal(dist(1, []), cancelled)


class TestClosure:
    def test_log_ladder(self):
        got = closure([MonLog(3, 2, 1)])
        assert set(got) == {MonLog(3, 2, 1), MonLog(3, 1, 1), MonLog(3, 0, 1)}

    def test_delta_fixed(self):
        assert closure([Delta(4)]) == (Delta(4),)

    def test_finite_part_leak(self):
        got = closure([MonLog(-2, 0, 1)])
        assert set(got) == {MonLog(-2, 0, 1), Delta(0), Delta(1)}

    def test_theta_stable(self):
        base = closure([MonLog(-3, 2, -1), Delta(1)])
        span = set(base)
        for a in base:
            for _, b in apply_theta(1, a):
                assert b in span


atom_strategy = st.one_of(
    st.builds(Delta, st.integers(0, 3)),
    st.builds(
        MonLog, st.integers(-3, 3), st.integers(0, 2), st.sampled_from((1, -1))
    ),
)


@settings(max_examples=60, deadline=None)
@given(atom_strategy, atom_strategy)
def test_theta_coordinates_commute(a, b):
    e = single((a, b))
    t12 = apply_theta_expr(1, apply_theta_expr(2, e))
    t21 = apply_theta_expr(2, apply_theta_expr(1, e))
    assert t12 == t21


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.builds(
            TensorTerm,
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            st.tuples(atom_strategy),
        ),
        min_size=0,
        max_size=4,
    )
)
def test_apply_polynomial_linear(ts):
    P = Polynomial.variable(1, 1) ** 2 - Polynomial.constant(1, F(1, 2))
    e = dist(1, ts)
    split = sum(
        (apply_polynomial(P, single(t.factors, t.coeff)) for t in e.terms),
        start=dist(1, []),
    )
    assert apply_polynomial(P, e) == split


def test_eigen_suite_exhaustive_small():
    P = (
        Polynomial.variable(2, 1) * Polynomial.variable(2, 2)
        - 2 * Polynomial.variable(2, 1)
        + Polynomial.constant(2, F(3, 4))
    )
    for alpha in product(range(3), repeat=2):
        e = full_monomial(alpha, 2)
        assert apply_polynomial(P, e) == e.scaled(poly_eval(P, alpha))


def _reference_apply(P, e):
    """sum_alpha c_alpha theta^alpha e, one monomial at a time."""
    out = dist(e.dim, [])
    for alpha, c in P.terms.items():
        x = e
        for j, a in enumerate(alpha, start=1):
            for _ in range(a):
                x = apply_theta_expr(j, x)
        out = out + x.scaled(c)
    return out


polys_2d = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=5,
).map(lambda terms: Polynomial(2, terms))


@settings(max_examples=60, deadline=None)
@given(
    polys_2d,
    st.lists(
        st.builds(
            TensorTerm,
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            st.tuples(atom_strategy, atom_strategy),
        ),
        max_size=5,
    ),
)
def test_apply_polynomial_matches_monomial_reference(P, ts):
    # atom_strategy covers n <= -1 finite parts (with delta corrections)
    # and deltas; the raw term list may repeat factors or carry zeros.
    e = DistExpr(2, tuple(ts))
    assert apply_polynomial(P, e) == _reference_apply(P, e)
