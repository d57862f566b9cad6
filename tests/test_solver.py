from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from eulerdist.atoms import Delta, MonLog, TensorTerm, dist, full_monomial, single
from eulerdist.errors import UnsupportedInput, ZeroPolynomial
from eulerdist.grammar import format_dist, parse_dist, parse_poly
from eulerdist.poly import Polynomial
from eulerdist.solver import (
    resonant_1d,
    solve,
    solve_continuous_term,
    solve_delta_term,
    verify,
)
from eulerdist.theta import apply_polynomial


H = MonLog(0, 0, 1)
PF = MonLog(-1, 0, 1)


def zvar(d=1, j=1):
    return Polynomial.variable(d, j)


def const(d, x):
    return Polynomial.constant(d, x)


class TestSolve:
    def test_eigen_division(self):
        a = F(1, 2)
        P = zvar() - const(1, a)
        for n in range(4):
            T = full_monomial((n,))
            rep = solve(P, T)
            assert rep.verified
            assert rep.solution == T.scaled(1 / (F(n) - a))

    def test_resonant_delta(self):
        rep = solve(zvar() + const(1, 1), single((Delta(0),)))
        assert rep.verified
        assert rep.solution == single((PF,))

    def test_two_dim_log_lift(self):
        P = zvar(2, 1) - zvar(2, 2)
        T = full_monomial((1, 1), 2)
        rep = solve(P, T)
        assert rep.verified
        assert apply_polynomial(P, rep.solution) == T

    def test_delta_tensor_substitution(self):
        P = zvar(2, 1) + zvar(2, 2) + const(2, 2)
        T = single((Delta(0), Delta(0)))
        rep = solve(P, T)
        assert rep.verified
        assert rep.solution == single((Delta(0), PF))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            solve(Polynomial.zero(1), single((Delta(0),)))

    def test_zero_rhs(self):
        rep = solve(zvar() + const(1, 1), dist(1, []))
        assert rep.verified and rep.solution.is_zero()

    def test_trace_cap(self):
        P = (zvar() + const(1, 1)) ** 2 * (zvar() + const(1, 2))
        T = single((Delta(0),)) + single((Delta(1),), 3)
        rep = solve(P, T)
        assert rep.verified
        assert len(rep.recursion_trace) <= 1 * (P.degree + 1) * len(T.terms) * 4

    def test_escalation_bounded_by_degree(self):
        P = zvar(2, 1) * zvar(2, 2)
        T = single((H, H))
        rep = solve(P, T)
        assert rep.verified
        assert rep.escalation_depth <= P.degree

    @pytest.mark.parametrize(
        "P, T, d, solution, depth",
        [
            # v = 0 with a log power: a square triangular system.
            ("t1+1", "log(x1)*H(x1)", 1, "-H(x1) + log(x1)*H(x1)", 0),
            (
                "(t1+t2)^2*(t1^2+1)",
                "log(x1)*H(x1)*log(x2)^2*H(-x2)",
                2,
                "-1/30*H(x1)*log(x2)^5*H(-x2)"
                " + 1/12*log(x1)*H(x1)*log(x2)^4*H(-x2)",
                2,
            ),
        ],
    )
    def test_pinned_log_solutions(self, P, T, d, solution, depth):
        rep = solve(parse_poly(P, d), parse_dist(T, d))
        assert rep.verified
        assert format_dist(rep.solution) == solution
        assert rep.escalation_depth == depth


class TestSolveContinuousTerm:
    def test_simple_resonance(self):
        P = zvar() - const(1, 2)
        U, residual, v = solve_continuous_term(P, [TensorTerm(F(1), (MonLog(2, 0, 1),))])
        assert U == single((MonLog(2, 1, 1),))
        assert residual.is_zero()
        assert v == 1

    def test_mixed_bump(self):
        P = zvar(2, 1) * zvar(2, 2)
        U, residual, v = solve_continuous_term(P, [TensorTerm(F(1), (H, H))])
        assert U == single((MonLog(0, 1, 1), MonLog(0, 1, 1)))
        assert residual.is_zero()
        assert v == 2

    def test_finite_part_log_branch(self):
        # Under this regularization the p >= 1 ladder carries no delta
        # correction, so the residual of the lifted finite part vanishes.
        P = zvar() + const(1, 1)
        U, residual, v = solve_continuous_term(P, [TensorTerm(F(1), (PF,))])
        assert U == single((MonLog(-1, 1, 1),))
        assert residual.is_zero()

    def test_rejects_delta(self):
        with pytest.raises(UnsupportedInput):
            solve_continuous_term(zvar(), [TensorTerm(F(1), (Delta(0),))])

    def test_rejects_delta_among_continuous_terms(self):
        ts = [TensorTerm(F(1), (H, H)), TensorTerm(F(2), (H, Delta(0)))]
        with pytest.raises(UnsupportedInput):
            solve_continuous_term(zvar(2, 1), ts)

    def test_rejects_two_classes(self):
        P = zvar(2, 1) + const(2, 1)
        # Same eigenvalue, different log powers; then different eigenvalues.
        for other in (MonLog(0, 1, -1), MonLog(1, 0, 1)):
            ts = [TensorTerm(F(1), (H, H)), TensorTerm(F(1), (H, other))]
            with pytest.raises(UnsupportedInput):
                solve_continuous_term(P, ts)

    def test_class_shares_one_solution_vector(self):
        # The two sign patterns of one class get the same u, scaled by
        # their own coefficients.
        P = zvar(2, 1) * zvar(2, 2)
        ts = [TensorTerm(F(3), (H, MonLog(0, 0, -1))), TensorTerm(F(-1, 2), (H, H))]
        U, residual, v = solve_continuous_term(P, ts)
        L1 = MonLog(0, 1, 1)
        assert U == dist(
            2,
            [TensorTerm(F(3), (L1, MonLog(0, 1, -1))), TensorTerm(F(-1, 2), (L1, L1))],
        )
        assert residual.is_zero()
        assert v == 2


# A delta-free class: per coordinate (eigenvalue n, log power p).
classes = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.tuples(st.integers(-3, 3), st.integers(0, 2))] * d),
        min_size=1,
        max_size=3,
        unique=True,
    )
)
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@settings(max_examples=30, deadline=None)
@given(classes, st.data())
def test_solution_is_additive_over_terms(cls, data):
    """solve(P, T) is the canonical sum of the solves of T's terms, for T
    with several sign patterns per (eigenvalue, log powers) class."""
    d = len(cls[0])
    terms = []
    for key in cls:
        signs = data.draw(
            st.lists(
                st.tuples(*[st.sampled_from((1, -1))] * d),
                min_size=2,
                max_size=min(2**d, 3),
                unique=True,
            )
        )
        for sv in signs:
            factors = tuple(MonLog(n, p, s) for (n, p), s in zip(key, sv))
            terms.append(TensorTerm(data.draw(coeffs), factors))
    T = dist(d, terms)
    # P vanishes to order r at the first class's eigenvalue (r = 0: generic).
    mu = [n for n, _ in cls[0]]
    P = const(d, data.draw(st.integers(1, 3)))
    for j in range(1, d + 1):
        P = P + zvar(d, j) * data.draw(st.integers(-2, 2))
    for _ in range(data.draw(st.integers(0, 2))):
        j = data.draw(st.integers(1, d))
        P = P * (zvar(d, j) - const(d, mu[j - 1]))
    rep = solve(P, T)
    assert rep.verified
    pieces = [s for t in T.terms for s in solve(P, dist(d, [t])).solution.terms]
    assert rep.solution == dist(d, pieces)


class TestSolveDeltaTerm:
    def test_substitution_path(self):
        P = zvar(2, 1) + zvar(2, 2) + const(2, 2)
        U = solve_delta_term(P, TensorTerm(F(1), (Delta(0), H)))
        assert U == single((Delta(0), H))

    def test_scaled_linear_factor(self):
        P = (zvar() + const(1, 4)) * 5
        t = TensorTerm(F(1), (Delta(3),))
        U = solve_delta_term(P, t)
        assert apply_polynomial(P, U) == dist(1, [t])

    def test_double_resonance(self):
        P = (zvar() + const(1, 1)) ** 2
        t = TensorTerm(F(1), (Delta(0),))
        U = solve_delta_term(P, t)
        assert apply_polynomial(P, U) == dist(1, [t])

    def test_rejects_continuous(self):
        with pytest.raises(UnsupportedInput):
            solve_delta_term(zvar(), TensorTerm(F(1), (H,)))


class TestResonant1D:
    def test_k0(self):
        W = resonant_1d(1, 0, single((Delta(0),)))
        assert W == single((PF,))

    def test_k1_closed_form(self):
        W = resonant_1d(1, 1, single((Delta(1),)))
        as_map = {t.factors[0]: t.coeff for t in W.terms}
        assert as_map == {MonLog(-2, 0, 1): F(-1), Delta(0): F(1)}
        P = zvar() + const(1, 2)
        assert apply_polynomial(P, W) == single((Delta(1),))

    def test_lower_delta_eigen_division(self):
        for k in range(1, 4):
            for i in range(k):
                W = resonant_1d(1, k, single((Delta(i),)))
                assert W == single((Delta(i),), F(1, k - i))

    def test_closed_form_matches_forward_all_k(self):
        for k in range(6):
            W = resonant_1d(1, k, single((Delta(k),)))
            P = zvar() + const(1, k + 1)
            assert apply_polynomial(P, W) == single((Delta(k),))


class TestVerify:
    def test_valid_triple(self):
        assert verify(zvar() + const(1, 1), single((PF,)), single((Delta(0),)))

    def test_corrupted_rhs(self):
        P = zvar() + const(1, 1)
        assert not verify(P, single((PF,)), single((Delta(0),), 2))


def test_forward_linearity_and_kernel():
    P = (zvar() + const(1, 2)) * (zvar() - const(1, 1))
    T1 = single((Delta(1),))
    T2 = full_monomial((3,))
    U1 = solve(P, T1).solution
    U2 = solve(P, T2).solution
    assert apply_polynomial(P, U1 + U2) == T1 + T2
    # Two solves of the same instance are identical, so the kernel element
    # they span is exactly zero.
    again = solve(P, T1).solution
    assert apply_polynomial(P, again - U1).is_zero()
    assert again == U1
