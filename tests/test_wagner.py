import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import quad

from eulerdist.atoms import MonLog, single
from eulerdist.errors import DuplicateLambda, PoleOnGrid
from eulerdist.gausspoly import GaussPoly
from eulerdist.poly import Polynomial
from eulerdist.wagner import (
    SeminormSpec,
    WagnerParams,
    choose_eta,
    exp_conjugation_check,
    fourier_transform_values,
    hy_strip_check,
    me_check,
    pair_E,
    wagner_coefficients,
    y_seminorm,
)


def zvar(d=1, j=1):
    return Polynomial.variable(d, j)


GAUSS1 = GaussPoly.gaussian(1, (F(0),), F(1))


class TestChooseEta:
    def test_circle_operator(self):
        P = zvar(2, 1) ** 2 + zvar(2, 2) ** 2 - Polynomial.constant(2, 1)
        assert choose_eta(P) == (1, 0)

    def test_hyperbolic(self):
        assert choose_eta(zvar(2, 1) * zvar(2, 2)) == (1, 1)

    def test_one_dim(self):
        assert choose_eta(zvar()) == (1,)


class TestWagnerCoefficients:
    def test_m1(self):
        assert wagner_coefficients(1, (1, 2)) == (F(-1), F(1))

    def test_m0(self):
        assert wagner_coefficients(0, (1,)) == (F(1),)

    def test_m2(self):
        assert wagner_coefficients(2, (1, 2, 3)) == (F(1, 2), F(-1), F(1, 2))

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateLambda):
            wagner_coefficients(2, (1, 2, 2))

    @pytest.mark.parametrize("m", range(7))
    def test_vandermonde_exact(self, m):
        lam = tuple(F(j + 1) for j in range(m + 1))
        a = wagner_coefficients(m, lam)
        for i in range(m + 1):
            assert sum(aj * lj**i for aj, lj in zip(a, lam)) == (1 if i == m else 0)


class TestPairE:
    def test_linearity_zero(self):
        P = zvar()
        params = WagnerParams.for_polynomial(P)
        chi = GAUSS1.with_poly(Polynomial.zero(1))
        assert pair_E(P, params, chi, (512, 40.0)) == 0.0

    def test_reproduces_point_value(self):
        P = zvar()
        params = WagnerParams.for_polynomial(P)
        chi = GAUSS1.derivative(1).with_poly(GAUSS1.derivative(1).poly.scale(-1))
        got = pair_E(P, params, chi, (2048, 40.0))
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_pole_shift_recovers(self):
        # With eta = (1,) and lambda_0 = 1 the symbol z at i*xi + 1 never
        # vanishes, so shrink the margin artificially via a symbol with a
        # root on the default grid line instead: P = z^2 + 1 has
        # P(i*xi + lam) = 0 only off the real grid, so this documents the
        # non-raising path.
        P = zvar() ** 2 + Polynomial.constant(1, 1)
        params = WagnerParams.for_polynomial(P)
        val = pair_E(P, params, GAUSS1, (512, 40.0))
        assert math.isfinite(val)


class TestMeCheck:
    def test_first_order(self):
        P = zvar()
        assert me_check(P, WagnerParams.for_polynomial(P), GAUSS1, (4096, 40.0)) <= 1e-4

    def test_second_order(self):
        P = zvar() ** 2
        assert me_check(P, WagnerParams.for_polynomial(P), GAUSS1, (4096, 40.0)) <= 1e-3

    def test_circle_2d(self):
        P = zvar(2, 1) ** 2 + zvar(2, 2) ** 2 - Polynomial.constant(2, 1)
        phi = GaussPoly.gaussian(2, (F(0), F(0)), F(1))
        assert me_check(P, WagnerParams.for_polynomial(P), phi, (512, 40.0)) <= 1e-3


class TestYSeminorm:
    def test_weighted_gaussian(self):
        got = y_seminorm(GAUSS1, SeminormSpec((0,), 1))
        assert got == pytest.approx(math.exp(0.25), abs=1e-3)

    def test_unweighted_peak(self):
        assert y_seminorm(GAUSS1, SeminormSpec((0,), 0)) == pytest.approx(1.0)

    def test_constant_not_in_y(self):
        one = lambda x: 1.0
        small = y_seminorm(one, SeminormSpec((0,), 1), box=4.0, n=41)
        large = y_seminorm(one, SeminormSpec((0,), 1), box=8.0, n=81)
        assert large > small

    def test_callable_matches_symbolic(self):
        spec = SeminormSpec((1,), 0)
        sym = y_seminorm(GAUSS1, spec)
        num = y_seminorm(lambda x: math.exp(-x[0] ** 2), spec)
        assert num == pytest.approx(sym, rel=1e-4)


class TestExpConjugation:
    def test_first_order(self):
        f = single((MonLog(1, 0, 1),))
        assert exp_conjugation_check(zvar(), f, [(0.0,), (0.5,), (-1.0,)]) <= 1e-6

    def test_second_order(self):
        f = single((MonLog(2, 0, 1),))
        assert exp_conjugation_check(zvar() ** 2, f, [(0.0,), (0.4,)]) <= 1e-5

    def test_mixed_log(self):
        P = zvar(2, 1) * zvar(2, 2)
        f = single((MonLog(1, 1, 1), MonLog(1, 0, 1)))
        assert exp_conjugation_check(P, f, [(0.1, -0.2), (0.0, 0.3)]) <= 1e-4


class TestStripCheck:
    def test_gaussian_passes(self):
        rep = hy_strip_check(GAUSS1, 2)
        assert math.isfinite(rep.strip_max) and rep.decaying

    def test_x_gaussian_passes(self):
        phi = GaussPoly(Polynomial(1, {(1,): F(1)}), (F(0),), F(1))
        rep = hy_strip_check(phi, 3)
        assert math.isfinite(rep.strip_max) and rep.decaying

    def test_negative_control_flagged(self):
        rep = hy_strip_check(
            GAUSS1, 2, transform=lambda z: 1.0 / (1.0 + np.abs(z) ** 2)
        )
        assert not rep.decaying


class TestFourierTransformValues:
    PHI = GaussPoly(
        Polynomial(1, {(0,): F(1), (1,): F(-2), (3,): F(1, 2)}), (F(1, 3),), F(3, 2)
    )

    @staticmethod
    def by_quadrature(phi, z):
        # (2 pi)^{-1/2} int phi(x) e^{-i z x} dx, real and imaginary parts.
        def f(x):
            return phi.value((x,)) * np.exp(-1j * z * x)

        c, lim = float(phi.center[0]), 40.0
        re, _ = quad(lambda x: f(x).real, c - lim, c + lim, limit=400, epsabs=1e-13)
        im, _ = quad(lambda x: f(x).imag, c - lim, c + lim, limit=400, epsabs=1e-13)
        return (re + 1j * im) / math.sqrt(2.0 * math.pi)

    @pytest.mark.parametrize("z", [0.0, 0.7, -2.5, 1.5 + 0.5j, -0.3 - 1.2j, 2j])
    def test_matches_quadrature(self, z):
        got = fourier_transform_values(self.PHI, np.array([z]))
        assert got.shape == (1,)
        want = self.by_quadrature(self.PHI, z)
        assert abs(got[0] - want) <= 1e-9 * max(1.0, abs(want))

    def test_zero_polynomial_gives_zero_array(self):
        phi = GaussPoly(Polynomial(1, {}), (F(1, 3),), F(3, 2))
        z = np.array([[0.0, 1j], [2.0, -1.0]])
        got = fourier_transform_values(phi, z)
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        assert not got.any()
