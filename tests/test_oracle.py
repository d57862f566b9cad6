import math
from fractions import Fraction as F

import pytest

from eulerdist.atoms import (
    Delta,
    DistExpr,
    MonLog,
    TensorTerm,
    dist,
    full_monomial,
    single,
)
from eulerdist.gausspoly import GaussPoly
from eulerdist import oracle, theta
from eulerdist.grammar import parse_dist, parse_poly
from eulerdist.oracle import (
    adjoint_check,
    compare_symbolic_numeric,
    derivative_of_x_phi,
    pair,
)
from eulerdist.poly import Polynomial
from eulerdist.solver import solve

EULER_GAMMA = 0.5772156649015329

GAUSS = GaussPoly.gaussian(1, (F(0),), F(1))


class TestPair:
    def test_delta_second_derivative(self):
        assert pair(single((Delta(2),)), GAUSS) == pytest.approx(-2.0, abs=1e-12)

    def test_heaviside_half_gaussian(self):
        got = pair(single((MonLog(0, 0, 1),)), GAUSS)
        assert got == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-10)

    def test_finite_part_euler_gamma(self):
        got = pair(single((MonLog(-1, 0, 1),)), GAUSS)
        assert got == pytest.approx(-EULER_GAMMA / 2, abs=1e-9)

    def test_reflection_symmetry(self):
        # An even test function pairs equally against the two half-lines.
        plus = pair(single((MonLog(2, 1, 1),)), GAUSS)
        minus = pair(single((MonLog(2, 1, -1),)), GAUSS)
        assert plus == pytest.approx(minus, abs=1e-10)

    def test_tensor_factorizes(self):
        phi = GaussPoly.gaussian(2, (F(0), F(1, 2)), F(1))
        e = single((Delta(0), MonLog(0, 0, 1)))
        slice1 = GaussPoly.gaussian(1, (F(1, 2),), F(1))
        expected = math.exp(0.0) * pair(single((MonLog(0, 0, 1),)), slice1)
        assert pair(e, phi) == pytest.approx(expected, abs=1e-9)

    def test_linearity_in_expression(self):
        a = single((MonLog(1, 0, 1),))
        b = single((Delta(1),))
        lhs = pair(a + b.scaled(3), GAUSS)
        rhs = pair(a, GAUSS) + 3 * pair(b, GAUSS)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDerivativeOfXPhi:
    def test_plain_gaussian(self):
        g = derivative_of_x_phi(GAUSS)
        assert g.poly == Polynomial(1, {(0,): F(1), (2,): F(-2)})

    def test_x_gaussian(self):
        phi = GaussPoly(Polynomial(1, {(1,): F(1)}), (F(0),), F(1))
        g = derivative_of_x_phi(phi)
        assert g.poly == Polynomial(1, {(1,): F(2), (3,): F(-2)})

    def test_degree_structure(self):
        phi = GaussPoly(Polynomial(1, {(2,): F(1)}), (F(1, 3),), F(2))
        assert derivative_of_x_phi(phi).poly.degree == phi.poly.degree + 2


class TestAdjointCheck:
    @pytest.mark.parametrize("k", range(5))
    def test_delta(self, k):
        assert adjoint_check(Delta(k), GAUSS) <= 1e-8

    def test_plain_monomial(self):
        assert adjoint_check(MonLog(3, 0, 1), GAUSS) <= 1e-8

    def test_finite_part_reflected_log(self):
        assert adjoint_check(MonLog(-2, 1, -1), GAUSS) <= 1e-8

    def test_shifted_test_function(self):
        phi = GaussPoly(
            Polynomial(1, {(1,): F(1), (0,): F(1)}), (F(1, 2),), F(3, 2)
        )
        assert adjoint_check(MonLog(-3, 0, 1), phi) <= 1e-8


class TestCompareSymbolicNumeric:
    def suite(self):
        return [
            GAUSS,
            GaussPoly.gaussian(1, (F(1, 2),), F(3, 2)),
            GaussPoly(Polynomial(1, {(2,): F(1), (0,): F(1)}), (F(-1, 4),), F(1)),
        ]

    def test_resonant_triple(self):
        P = Polynomial.variable(1, 1) + Polynomial.constant(1, 1)
        U = single((MonLog(-1, 0, 1),))
        T = single((Delta(0),))
        assert compare_symbolic_numeric(P, U, T, self.suite()) <= 1e-6

    def test_eigen_triple(self):
        P = Polynomial.variable(1, 1)
        e = full_monomial((1,))
        assert compare_symbolic_numeric(P, e, e, self.suite()) <= 1e-6

    SUITE_2D = [
        GaussPoly.gaussian(2, (F(1, 3), F(-1, 4)), F(3, 2)),
        GaussPoly(
            Polynomial(2, {(1, 0): F(1), (0, 0): F(2)}), (F(-1, 2), F(1, 5)), F(1)
        ),
    ]

    @pytest.mark.parametrize(
        "P, T",
        [
            ("(t1+t2)^2*(t1^2+1)", "log(x1)*H(x1)*log(x2)^2*H(-x2)"),
            ("(t1+1)^2*(t2-1)", "delta(x1,0)*x2*H(x2)"),
            ("t1^2+t2^2-1", "x1^-2*H(x1)*log(x2)*H(x2) + delta(x2,1)"),
        ],
    )
    def test_sabotaged_coefficient_detected(self, P, T):
        P, T = parse_poly(P, 2), parse_dist(T, 2)
        U = solve(P, T).solution
        assert compare_symbolic_numeric(P, U, T, self.SUITE_2D) <= 1e-9
        t = U.terms[0]
        bad = DistExpr(2, (TensorTerm(t.coeff * F(11, 10), t.factors),) + U.terms[1:])
        assert compare_symbolic_numeric(P, bad, T, self.SUITE_2D) > 1e-3

    def test_theta_table_error_detected(self, monkeypatch):
        # Double every finite-part delta correction.  The solver and verify
        # share the table, so the wrong solution still verifies; the
        # numerical check does not use the table and must flag it.
        right = theta.apply_theta

        def wrong(j, a):
            return [
                (c * 2 if isinstance(b, Delta) and b != a else c, b)
                for c, b in right(j, a)
            ]

        P = Polynomial.variable(1, 1) - Polynomial.constant(1, 2)
        T = single((MonLog(-1, 0, 1),))
        U = solve(P, T).solution
        assert compare_symbolic_numeric(P, U, T, self.suite()) <= 1e-9
        monkeypatch.setattr(theta, "apply_theta", wrong)
        rep = solve(P, T)
        assert rep.verified and rep.solution != U
        assert compare_symbolic_numeric(P, rep.solution, T, self.suite()) > 1e-3


class TestPairingCache:
    def test_value_does_not_depend_on_an_earlier_tolerance(self):
        # A shifted finite-part atom: the outer quadrature does real work.
        phi = GaussPoly(Polynomial(1, {(0,): F(1), (2,): F(1)}), (F(2, 3),), F(5, 4))
        e = single((MonLog(-2, 1, 1),))
        oracle._pair1d.cache_clear()
        pair(e, phi, tol=1e-3)
        after_loose = pair(e, phi, tol=1e-12)
        oracle._pair1d.cache_clear()
        fresh = pair(e, phi, tol=1e-12)
        assert after_loose == fresh
