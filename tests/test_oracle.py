import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

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

    def test_seed_303_sweep_atom(self):
        # Once failed its accumulated error gate: per-slice estimates of an
        # adaptive rule summed to 1.37e-9 at the default tol 1e-9.
        phi = GaussPoly(
            Polynomial(1, {(0,): F(3), (1,): F(1, 3), (2,): F(-1, 2)}),
            (F(886, 997),),
            F(1513, 899),
        )
        assert adjoint_check(MonLog(2, 1, 1), phi) <= 1e-6

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

        def wrong(a):
            return [
                (c * 2 if isinstance(b, Delta) and b != a else c, b)
                for c, b in right(a)
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
        oracle._moment.cache_clear()
        pair(e, phi, tol=1e-3)
        after_loose = pair(e, phi, tol=1e-12)
        oracle._moment.cache_clear()
        fresh = pair(e, phi, tol=1e-12)
        assert after_loose == fresh


def _dec(q: F) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def _finite_part_reference(n: int, p: int, s: int, phi: GaussPoly) -> float:
    """<MonLog(n,p,s), phi> from the finite-part definition by scipy's quad.

    Near 0 the Taylor-subtracted integrand cancels, so it is evaluated in
    40-digit decimals; the Taylor coefficients come from exact derivatives.
    """
    c, w2 = phi.center[0], phi.width**2
    taylor, g = [], phi
    for i in range(-n):
        taylor.append(_dec(s**i * g.poly.terms.get((0,), F(0)) / math.factorial(i)))
        g = g.derivative(1)

    def outer(x):
        return x**n * math.log(x) ** p * phi.value((s * x,))

    def inner(x):
        if n >= 0:
            return outer(x)
        with localcontext() as ctx:
            ctx.prec = 40
            X = Decimal(x)
            poly = sum(_dec(b * s**k) * X**k for (k,), b in phi.poly.terms.items())
            value = poly * (-((X - _dec(s * c)) ** 2) / _dec(w2)).exp()
            taylor_part = sum(t * X**i for i, t in enumerate(taylor))
            rest = value - taylor_part * (-_dec(c * c / w2)).exp()
        return x**n * math.log(x) ** p * float(rest)

    cut = max(2.0, abs(float(c)) + 12 * float(phi.width))
    peak = [float(s * c)] if 1 < s * c < cut else None
    opts = dict(epsabs=1e-14, epsrel=1e-11, limit=200)
    return quad(inner, 0, 1, **opts)[0] + quad(outer, 1, cut, points=peak, **opts)[0]


class TestAgainstScipy:
    # A sharp off-centre, a wide centred and a wide off-centre Gaussian.  The
    # reflected sharp one pairs to about 1e-60, where both sides are rounding
    # noise; such values are compared absolutely.
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize(
        "c, w",
        [(F(3), F(1, 4)), (F(0), F(16)), (F(-3), F(8))],
        ids=["sharp", "wide", "wide-off-centre"],
    )
    @pytest.mark.parametrize("s", [1, -1], ids=["right", "left"])
    def test_monlog_pairings(self, c, w, s):
        poly = Polynomial(1, {(0,): F(1), (1,): F(-1, 2), (2,): F(1, 3)})
        phi = GaussPoly(poly, (c,), w)
        for n in range(-3, 3):
            for p in range(4):
                got = pair(single((MonLog(n, p, s),)), phi)
                want = _finite_part_reference(n, p, s, phi)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (n, p)
