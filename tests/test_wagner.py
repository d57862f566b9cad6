import math
import time
import tracemalloc
from fractions import Fraction as F
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eulerdist.atoms import MonLog, single
from eulerdist.gausspoly import GaussPoly, apply_transposed
from eulerdist.grammar import parse_poly
from eulerdist.poly import Polynomial
from eulerdist.wagner import (
    WagnerParams,
    choose_eta,
    me_check,
    pair_E,
    wagner_coefficients,
)
from paperchecks import (
    SeminormSpec,
    SymbolZeroOnGrid,
    choose_eta_scan,
    exp_conjugation_check,
    fourier_transform_values,
    hy_strip_check,
    pair_E_grid,
    y_seminorm,
)


def zvar(d=1, j=1):
    return Polynomial.variable(d, j)


GAUSS1 = GaussPoly.gaussian(1, (F(0),), F(1))


def _products(d):
    factor = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * d),
        st.sampled_from([-2, -1, 1, 2]),
        min_size=1,
        max_size=3,
    ).map(lambda terms: Polynomial(d, terms))
    return st.lists(factor, min_size=1, max_size=3).map(
        lambda fs: math.prod(fs[1:], start=fs[0])
    )


class TestChooseEta:
    def test_circle_operator(self):
        P = zvar(2, 1) ** 2 + zvar(2, 2) ** 2 - Polynomial.constant(2, 1)
        assert choose_eta(P) == (1, 0)

    def test_hyperbolic(self):
        assert choose_eta(zvar(2, 1) * zvar(2, 2)) == (1, 1)

    def test_one_dim(self):
        assert choose_eta(zvar()) == (1,)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(_products))
    @example(parse_poly("t1*t2*t3*t4", 4))
    @example(parse_poly("(t1-t2)*(t1+t2-t3)^2", 3))
    @example(parse_poly("t1*t2-t3*t4", 4))
    def test_matches_brute_force_scan(self, P):
        # Products of sparse factors give principal parts that vanish on
        # whole lattice hyperplanes, so the search cuts many branches.
        assert choose_eta(P) == choose_eta_scan(P)


class TestWagnerCoefficients:
    def test_m1(self):
        assert wagner_coefficients(1) == (F(-1), F(1))

    def test_m0(self):
        assert wagner_coefficients(0) == (F(1),)

    def test_m2(self):
        assert wagner_coefficients(2) == (F(1, 2), F(-1), F(1, 2))

    @pytest.mark.parametrize("m", [*range(7), 30, 60])
    def test_vandermonde_exact(self, m):
        lam = tuple(F(j + 1) for j in range(m + 1))
        a = wagner_coefficients(m)
        for i in range(m + 1):
            assert sum(aj * lj**i for aj, lj in zip(a, lam)) == (1 if i == m else 0)

    def test_params_at_degree_400_are_fast(self):
        P = parse_poly("t1^400", 1)
        t0 = time.monotonic()
        params = WagnerParams.for_polynomial(P)
        assert time.monotonic() - t0 < 1.0
        assert len(params.a) == 401
        assert params.a[0] == params.a[-1] == F(1, math.factorial(400))


class TestPairE:
    def test_linearity_zero(self):
        P = zvar()
        params = WagnerParams.for_polynomial(P)
        phi = GAUSS1.with_poly(Polynomial.zero(1))
        assert pair_E(P, params, phi, (512, 40.0)) == 0.0

    def test_reproduces_point_value(self):
        # P = t1, so P(-d)phi = -phi'; pair_E forms it implicitly, the grid
        # reference explicitly.
        P = zvar()
        params = WagnerParams.for_polynomial(P)
        chi = GAUSS1.derivative(1).with_poly(GAUSS1.derivative(1).poly.scale(-1))
        assert pair_E(P, params, GAUSS1, (2048, 40.0)) == pytest.approx(1.0, abs=1e-6)
        assert pair_E_grid(P, params, chi, (2048, 40.0)) == pytest.approx(1.0, abs=1e-6)

    def test_node_on_a_symbol_zero_is_harmless(self):
        # P = t1 - 1 has eta = (1,), so at lambda_0 = 1 the symbol
        # P(i xi + 1) = i xi vanishes at the node xi = 0 of an odd grid.  The
        # quotient conj(Pj)/Pj is undefined there, but pair_E never forms it.
        P = zvar() - Polynomial.constant(1, 1)
        params = WagnerParams.for_polynomial(P)
        chi = apply_transposed(P, GAUSS1, GaussPoly.derivative)
        with pytest.raises(SymbolZeroOnGrid):
            pair_E_grid(P, params, chi, (2049, 40.0))
        assert pair_E(P, params, GAUSS1, (2049, 40.0)) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(
                st.dictionaries(
                    st.lists(st.integers(0, d - 1), max_size=4).map(
                        lambda axes: tuple(axes.count(k) for k in range(d))
                    ),
                    st.sampled_from([F(-3), F(-2), F(-1), F(1, 2), F(1), F(3, 2), F(3)]),
                    min_size=1,
                    max_size=5,
                ).map(lambda terms: Polynomial(d, terms)),
                st.lists(st.fractions(-1, 1, max_denominator=8), min_size=d, max_size=d),
            )
        ),
        st.fractions(F(1, 2), 2, max_denominator=8),
        st.integers(2, 40),
        st.floats(0.5, 20.0),
    )
    def test_matches_grid_reference(self, P_center, width, N, R):
        # The two paths sum the same node values, so they differ only by
        # rounding: at most 1e-12 of a bound on the summed magnitudes,
        # sum_j |a_j| e^{beta.c + |beta|^2 w^2/4} (w sqrt(pi))^d
        # sum_gamma |c_gamma| (|beta|_max + R)^|gamma| (2R)^d,
        # over (2 pi)^d |P_m(2 eta)|.
        P, center = P_center
        d = P.dim
        params = WagnerParams.for_polynomial(P)
        phi = GaussPoly.gaussian(d, center, width)
        chi = apply_transposed(P, phi, GaussPoly.derivative)
        try:
            want = pair_E_grid(P, params, chi, (N, R))
        except SymbolZeroOnGrid:
            assume(False)
        got = pair_E(P, params, phi, (N, R))
        w = float(width)
        scale = 0.0
        for lam, a in zip(params.lam, params.a):
            beta = [float(lam) * e for e in params.eta]
            top = max(abs(b) for b in beta) + R
            twist = sum(b * float(c) + b * b * w * w / 4.0 for b, c in zip(beta, center))
            sym = sum(abs(float(c)) * top ** sum(g) for g, c in P.terms.items())
            scale += abs(float(a)) * math.exp(twist) * sym
        scale *= (w * math.sqrt(math.pi) * 2.0 * R / (2.0 * math.pi)) ** d
        scale /= abs(float(params.normalizer))
        assert abs(got - want) <= 1e-12 * scale


# An asymmetric P and an off-centre Gaussian polynomial whose powers differ
# per axis: a 1-D factor applied along the wrong axis changes the pairing.
P3 = Polynomial(
    3,
    {
        (2, 0, 0): F(1),
        (0, 2, 0): F(2),
        (0, 0, 2): F(3),
        (1, 1, 0): F(1),
        (0, 0, 1): F(-1),
        (0, 0, 0): F(1),
    },
)
CHI3 = GaussPoly(
    Polynomial(3, {(2, 0, 0): F(1), (0, 1, 0): F(-2), (1, 0, 3): F(1, 2), (0, 0, 0): F(1)}),
    (F(1, 4), F(-1, 3), F(1, 5)),
    F(5, 4),
)


@cache
def twisted_transform(a, beta, c, w, xi):
    """int x^a e^{beta x} e^{-(x-c)^2/w^2} e^{i xi x} dx by quadrature."""
    mu = c + beta * w * w / 2.0  # the peak of e^{beta x} e^{-(x-c)^2/w^2}

    def part(x, trig):
        return x**a * math.exp(beta * x - (x - c) ** 2 / w**2) * trig(xi * x)

    lo, hi = mu - 12.0 * w, mu + 12.0 * w
    re = quad(part, lo, hi, args=(math.cos,), limit=200, epsabs=1e-13)[0]
    im = quad(part, lo, hi, args=(math.sin,), limit=200, epsabs=1e-13)[0]
    return complex(re, im)


class TestPairEAtDim3:
    def test_matches_explicit_trapezoid_sum(self):
        # Node by node, with psi_j a product of quadrature transforms of
        # e^{beta.x} CHI3 and wt the trapezoid weights:
        # sum_j a_j Re sum_xi wt(xi) conj(Pj)/Pj psi_j(xi) / ((2 pi)^3 P_m(2 eta))
        # is <E, CHI3>, the grid reference's pairing, and the same sum with
        # conj(Pj) in place of conj(Pj)/Pj is <E, P3(-d)CHI3>, pair_E's.
        N, R = 14, 6.0
        params = WagnerParams.for_polynomial(P3)
        w = float(CHI3.width)
        h = 2.0 * R / (N - 1)
        nodes = [-R + i * h for i in range(N)]
        wts = [h / 2.0 if i in (0, N - 1) else h for i in range(N)]
        quotient = product_only = 0.0
        for lam, a in zip(params.lam, params.a):
            beta = [float(lam) * e for e in params.eta]
            s_quotient = s_product = 0j
            for idx in product(range(N), repeat=3):
                z = [1j * nodes[i] + b for i, b in zip(idx, beta)]
                Pj = sum(
                    float(c) * math.prod(zk**ak for zk, ak in zip(z, alpha))
                    for alpha, c in P3.terms.items()
                )
                psi = sum(
                    float(pc)
                    * math.prod(
                        twisted_transform(ak, bk, float(ck), w, nodes[i])
                        for ak, bk, ck, i in zip(alpha, beta, CHI3.center, idx)
                    )
                    for alpha, pc in CHI3.poly.terms.items()
                )
                wt = math.prod(wts[i] for i in idx)
                s_quotient += wt * Pj.conjugate() / Pj * psi
                s_product += wt * Pj.conjugate() * psi
            quotient += float(a) * s_quotient.real
            product_only += float(a) * s_product.real
        norm = (2.0 * math.pi) ** 3 * float(params.normalizer)
        want, got = quotient / norm, pair_E_grid(P3, params, CHI3, (N, R))
        assert abs(got - want) <= 1e-9 * abs(want)
        want, got = product_only / norm, pair_E(P3, params, CHI3, (N, R))
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_peak_memory_is_a_few_grid_arrays(self):
        # The arrays live on one axis: a few of N x (top + 1) complex values,
        # top = 3 being CHI3's highest power on an axis.  One array over the
        # 1024^3 grid would take 17 GB.
        N = 1024
        params = WagnerParams.for_polynomial(P3)
        tracemalloc.start()
        try:
            pair_E(P3, params, CHI3, (N, 12.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * np.dtype(complex).itemsize * N * 4

    def test_peak_memory_with_more_powers_than_nodes(self):
        # phi carries x_k^0..x_k^7 on each of 6 axes against 5 nodes per axis:
        # keeping every power combination would take 8^6 values.  The terms
        # are contracted one product of 1-D sums at a time, so the peak stays
        # below a single complex array over the 5^6 grid.
        d, N = 6, 5
        P = Polynomial.constant(d, 1)
        for k in range(1, d + 1):
            P = P + zvar(d, k) ** 7
        gauss = GaussPoly.gaussian(d, tuple(F(k, 7) - F(1, 3) for k in range(d)), F(5, 4))
        phi = apply_transposed(P, gauss, GaussPoly.derivative)
        params = WagnerParams.for_polynomial(P)
        tracemalloc.start()
        try:
            pair_E(P, params, phi, (N, 6.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= np.dtype(complex).itemsize * N**d


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

    def test_default_d3_grid_peaks_under_a_megabyte(self):
        # wagner-check's d = 3 default, N = 512 and R = 40: one complex array
        # over the grid would take 2.1 GB.
        P = zvar(3, 1) ** 2 + zvar(3, 2) ** 2 + zvar(3, 3) ** 2 + Polynomial.constant(3, 1)
        params = WagnerParams.for_polynomial(P)
        phi = GaussPoly.gaussian(3, (F(0),) * 3, F(1))
        tracemalloc.start()
        try:
            residual = me_check(P, params, phi, (512, 40.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-9
        assert peak < 2**20

    def test_truncation_shows_in_the_residual(self):
        # Only the xi-quadrature is approximate: at R = 8 the Gaussian's
        # transform is cut at e^{-16}, and the residual shows it.
        P = zvar(3, 1) ** 2 + zvar(3, 2) ** 2 + zvar(3, 3) ** 2 - zvar(3, 1)
        P = P + Polynomial.constant(3, 2)
        params = WagnerParams.for_polynomial(P)
        phi = GaussPoly.gaussian(3, (F(0),) * 3, F(1))
        assert me_check(P, params, phi, (16, 8.0)) == pytest.approx(3.2515e-6, rel=1e-4)
        assert me_check(P, params, phi, (64, 16.0)) <= 1e-12


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
