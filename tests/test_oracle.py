import json
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from eulerdist.atoms import Delta, DistExpr, MonLog, dist, single
from eulerdist.gausspoly import GaussPoly, apply_transposed
from eulerdist import oracle, theta
from eulerdist.cli import main
from eulerdist.grammar import parse_dist, parse_poly
from eulerdist.oracle import (
    adjoint_check,
    compare_symbolic_numeric,
    derivative_of_x_phi,
    pair,
)
from eulerdist.poly import Polynomial
from eulerdist.solver import solve
from paperchecks import full_monomial

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

    @pytest.mark.parametrize("n", range(-4, 5))
    def test_full_line_atoms(self, n):
        # Each full-line row of the theta-table, against the pairing of its
        # atom alone; the shifted and odd test functions see the parity of
        # the corrections.
        phis = [
            GAUSS,
            GaussPoly(Polynomial(1, {(1,): F(1), (0,): F(1)}), (F(1, 2),), F(3, 2)),
            GaussPoly(Polynomial(1, {(3,): F(1), (1,): F(-1)}), (F(-1, 3),), F(2)),
        ]
        for p in range(4):
            for phi in phis:
                assert adjoint_check(MonLog(n, p, 0), phi) <= 1e-8, (p, phi)

    @pytest.mark.parametrize(
        "option", [["--nmax", "40"], ["--pmax", "170"], ["--kmax", "170"]],
        ids=lambda o: o[0],
    )
    def test_suite_passes_at_its_bounds(self, capsys, option):
        # Each bound is a usage limit, so within it every pairing, the
        # full-line atoms' included, passes the oracle's error gate.  At
        # p = 100, MonLog(1, p, 0) against a Gaussian pairs to about 1e-18
        # of either half line's pairing: it is paired as one moment, not as
        # the difference of the two.
        assert main(["oracle-suite", *option]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["pass"]

    def test_full_line_pairing_is_its_half_lines(self):
        phi = GaussPoly(Polynomial(1, {(1,): F(1), (0,): F(2)}), (F(1, 3),), F(1))
        for n in range(-3, 3):
            for p in range(3):
                right = pair(single((MonLog(n, p, 1),)), phi)
                left = pair(single((MonLog(n, p, -1),)), phi)
                got = pair(single((MonLog(n, p, 0),)), phi)
                assert got == pytest.approx(right + (-1) ** n * left, abs=1e-12)

    def test_wrong_table_entry_detected(self, monkeypatch, capsys):
        # Flip the sign of the delta' correction of theta x^-2 H(x).  The
        # centred Gaussian has phi'(0) = 0 and cannot see it; the suite's
        # shifted test functions must, and the relative residual must not
        # hide it.
        right = oracle.apply_theta
        bad = MonLog(-2, 0, 1)

        def wrong(a):
            return [
                (-c if a == bad and b == Delta(1) else c, b) for c, b in right(a)
            ]

        monkeypatch.setattr(oracle, "apply_theta", wrong)
        argv = ["oracle-suite", "--nmax", "2", "--pmax", "0", "--kmax", "0"]
        assert main(argv) == 1
        rows = json.loads(capsys.readouterr().out)["outputs"]["rows"]
        assert [r["atom"] for r in rows if r["residual"] > 1e-6] == [repr(bad)]
        assert adjoint_check(bad, GAUSS) <= 1e-8


class TestMoment:
    def test_largest_log_power_stays_in_float_range(self):
        # At p = 170, (m+i+1)^(p+1) overflows; p!/(m+i+1)^(p+1) does not.
        _clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, err = oracle._moment(-1, 170, oracle._slice(F(0), F(1)))
        assert math.isfinite(value) and math.isfinite(err)


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

    @pytest.mark.parametrize("P", ["(t1+1)^12", "(t1+t2+1)^3-t1*t2^2"])
    def test_transposed_action_steps_once_per_derivative(self, P):
        # Each D^alpha phi is stepped from one stored derivative: (t1+1)^12
        # takes 12 steps, not 78, and the sum is the monomial-by-monomial
        # one.
        P = parse_poly(P, 2 if "t2" in P else 1)
        phi = self.suite()[2] if P.dim == 1 else self.SUITE_2D[1]
        steps = []

        def counting(g, j):
            steps.append(j)
            return derivative_of_x_phi(g, j)

        got = apply_transposed(P, phi, counting)
        want = Polynomial.zero(P.dim)
        for alpha, c in P.terms.items():
            g = phi
            for j, a in enumerate(alpha, start=1):
                for _ in range(a):
                    g = derivative_of_x_phi(g, j)
            want = want + g.poly.scale(-c if sum(alpha) % 2 else c)
        assert got == phi.with_poly(want)
        assert len(steps) == {1: 12, 2: 9}[P.dim]

    SUITE_2D = [
        GaussPoly.gaussian(2, (F(1, 3), F(-1, 4)), F(3, 2)),
        GaussPoly(
            Polynomial(2, {(1, 0): F(1), (0, 0): F(2)}), (F(-1, 2), F(1, 5)), F(1)
        ),
    ]

    @pytest.mark.parametrize(
        "P, T, U",
        [
            ("t1+2", "x1^-1", "x1^-1"),
            ("t1+2", "x1^-2", "x1^-2*log(x1)"),
            (
                "t1^2+3",
                "x1^-3*log(x1)",
                "-1/28*delta(x1,1) + 1/24*x1^-3 + 1/12*x1^-3*log(x1)",
            ),
        ],
    )
    def test_full_line_finite_part_solutions(self, P, T, U):
        # Solutions whose full-line atoms have finite parts, checked without
        # the theta-table.
        P, T = parse_poly(P, 1), parse_dist(T, 1)
        got = solve(P, T).solution
        assert got == parse_dist(U, 1)
        assert compare_symbolic_numeric(P, got, T, self.suite()) <= 1e-9

    @pytest.mark.parametrize(
        "P, T",
        [
            ("(t1+t2)^2*(t1^2+1)", "x1^-2*log(x2)"),
            ("(t1+t2)^2*(t1^2+1)", "log(x1)*H(x1)*log(x2)^2*H(-x2)"),
            ("(t1+1)^2*(t2-1)", "delta(x1,0)*x2*H(x2)"),
            ("t1^2+t2^2-1", "x1^-2*H(x1)*log(x2)*H(x2) + delta(x2,1)"),
        ],
    )
    def test_sabotaged_coefficient_detected(self, P, T):
        P, T = parse_poly(P, 2), parse_dist(T, 2)
        U = solve(P, T).solution
        assert compare_symbolic_numeric(P, U, T, self.SUITE_2D) <= 1e-9
        f, c = U.terms[0]
        bad = DistExpr(2, ((f, c * F(11, 10)),) + U.terms[1:])
        assert compare_symbolic_numeric(P, bad, T, self.SUITE_2D) > 1e-3

    def test_theta_table_error_detected(self, monkeypatch):
        # Double every finite-part delta correction.  The solver and verify
        # share the table, so the wrong solution still verifies; the
        # numerical check does not use the table and must flag it.
        right = theta.theta_row

        def wrong(a):
            return [
                (c * 2 if isinstance(b, Delta) and b != a else c, b)
                for c, b in right(a)
            ]

        P = Polynomial.variable(1, 1) - Polynomial.constant(1, 2)
        T = single((MonLog(-1, 0, 1),))
        U = solve(P, T).solution
        assert compare_symbolic_numeric(P, U, T, self.suite()) <= 1e-9
        monkeypatch.setattr(theta, "theta_row", wrong)
        rep = solve(P, T)
        assert rep.verified and rep.solution != U
        assert compare_symbolic_numeric(P, rep.solution, T, self.suite()) > 1e-3


def _clear_caches():
    """Forget every slice, with its moments, and every resolved test function."""
    oracle._test.cache_clear()
    oracle._slice.cache_clear()
    oracle._full_slice.cache_clear()


class TestPairingCache:
    def test_value_does_not_depend_on_an_earlier_tolerance(self):
        # A shifted finite-part atom: the outer quadrature does real work.
        phi = GaussPoly(Polynomial(1, {(0,): F(1), (2,): F(1)}), (F(2, 3),), F(5, 4))
        e = single((MonLog(-2, 1, 1),))
        _clear_caches()
        pair(e, phi, tol=1e-3)
        after_loose = pair(e, phi, tol=1e-12)
        _clear_caches()
        fresh = pair(e, phi, tol=1e-12)
        assert after_loose == fresh

    @pytest.mark.parametrize(
        "m,p,c,w",
        [
            (-2, 0, F(0), F(1)),
            (-1, 2, F(-412, 997), F(1413, 899)),
            (3, 1, F(5, 2), F(1, 3)),
            (0, 4, F(-7), F(9, 4)),
            (-3, 1, F(1), F(600, 899)),
        ],
    )
    def test_moment_equals_the_plain_computation(self, m, p, c, w):
        # The shared slices and weights change no arithmetic: the plain
        # per-moment computation must give the same floats.
        _clear_caches()
        cf, wf = float(c), float(w)
        cutoff = max(2.0, cf + 7.0 * wf, 1.0 + 7.0 * wf)
        edges = [1.0]
        while edges[-1] < cutoff:
            edges.append(min(cutoff, edges[-1] + min(edges[-1], wf)))
        lo = np.array(edges[:-1])
        half = (np.array(edges[1:]) - lo) / 2
        fine, coarse = (
            float(half @ ((x**m * np.log(x) ** p * np.exp(-(((x - cf) / wf) ** 2))) @ wt))
            for t, wt in oracle._RULES
            for x in [(lo + half)[:, None] + half[:, None] * t]
        )
        assert oracle.quad(m, p, cf, wf) == (fine, abs(fine - coarse))
        i = np.arange(max(0, -m), oracle._SERIES_CAP)
        k = np.power(m + i + 1.0, -(p + 1) / 2) * math.sqrt(math.factorial(p))
        inner = (-1) ** p * math.fsum(oracle._taylor(c, w)[0][i] * (k * k))
        outer, err = fine, abs(fine - coarse)
        assert oracle._moment(m, p, oracle._slice(c, w)) == (
            inner + outer, err + 1e-15 * (abs(inner) + abs(outer))
        )

    def test_cost_does_not_depend_on_test_functions_long_gone(self, monkeypatch):
        # The cache covers a sweep of atoms against one test function, but
        # twenty test functions later that one is computed afresh.  Each
        # fresh moment calls quad once, so its calls count the misses.
        atoms = [Delta(k) for k in range(3)] + [
            MonLog(n, p, s) for n in range(-2, 3) for p in range(3) for s in (1, -1)
        ]
        calls = []
        quad = oracle.quad

        def counted(*args):
            calls.append(args)
            return quad(*args)

        monkeypatch.setattr(oracle, "quad", counted)

        def misses(phi):
            before = len(calls)
            for a in atoms:
                adjoint_check(a, phi)
            return len(calls) - before

        phis = [GaussPoly.gaussian(1, (F(k, 7),), F(1)) for k in range(1, 21)]
        _clear_caches()
        first = misses(phis[0])
        assert first > 0 and misses(phis[0]) == 0
        for phi in phis[1:]:
            misses(phi)
        assert misses(phis[0]) == first

    def test_a_resolved_slice_outlives_its_cache_entry(self, monkeypatch):
        # phi keeps its resolved slices after eight other test functions
        # push them out of _slice; a new moment of phi is computed on them,
        # with no second Taylor table for the same (c, w).
        phi = GaussPoly.gaussian(1, (F(1, 3),), F(1))
        others = [GaussPoly.gaussian(1, (F(k, 7),), F(1)) for k in range(1, 9)]
        atom = single((MonLog(0, 0, 1),))
        _clear_caches()
        pair(atom, phi)
        for other in others:
            pair(atom, other)
        assert oracle._slice.cache_info().currsize == oracle._SLICES
        tables = []
        taylor = oracle._taylor

        def counted(*args):
            tables.append(args)
            return taylor(*args)

        monkeypatch.setattr(oracle, "_taylor", counted)
        pair(single((MonLog(3, 1, 1),)), phi)
        assert tables == []


def _reference_pair(e: DistExpr, phi: GaussPoly) -> float:
    """pair's sum as a plain loop: terms x monomials x coordinates, each
    factor from the uncached _moment or the Taylor table."""
    total = 0.0
    for f, coeff in e.terms:
        for alpha, pc in phi.poly.sorted_terms():
            val = float(coeff * pc)
            for atom, a, c in zip(f, alpha, phi.center):
                if isinstance(atom, Delta):
                    k, table = atom.k, oracle._taylor(c, phi.width)[0]
                    v = 0.0
                    if k >= a:
                        v = (-1) ** k * math.factorial(k) * float(table[k - a])
                elif atom.s == 1:
                    sl = oracle._slice(c, phi.width)
                    v = oracle._moment(atom.n + a, atom.p, sl)[0]
                elif atom.s == -1:
                    sl = oracle._slice(-c, phi.width)
                    v = oracle._moment(atom.n + a, atom.p, sl)[0]
                    v = -v if a % 2 else v
                else:
                    mirror = (-1) ** (atom.n + a)
                    sl = oracle._full_slice(c, phi.width, mirror)
                    v = oracle._moment(atom.n + a, atom.p, sl)[0]
                val *= v
            total += val
    return total


_ATOMS = st.one_of(
    st.builds(Delta, st.integers(0, 3)),
    st.builds(
        MonLog, st.integers(-3, 3), st.integers(0, 2), st.sampled_from([1, -1, 0])
    ),
)
_COEFFS = st.fractions(-5, 5, max_denominator=7).filter(bool)


@st.composite
def _expr_and_phi(draw):
    d = draw(st.integers(1, 3))
    terms = draw(
        st.lists(st.tuples(st.tuples(*[_ATOMS] * d), _COEFFS), min_size=1, max_size=4)
    )
    monomials = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * d), _COEFFS, min_size=1, max_size=4
        )
    )
    center = tuple(draw(st.fractions(-1, 1, max_denominator=9)) for _ in range(d))
    width = draw(st.fractions(F(1, 2), 2, max_denominator=9))
    return dist(d, terms), GaussPoly(Polynomial(d, monomials), center, width)


class TestFloatsPinned:
    @settings(max_examples=60, deadline=None)
    @given(_expr_and_phi())
    def test_pair_equals_the_plain_loop(self, e_phi):
        # Bit for bit: the cached slices and resolved test functions change
        # no arithmetic.  tol = 1 only keeps the error gate out of the way.
        e, phi = e_phi
        assert pair(e, phi, tol=1.0) == _reference_pair(e, phi)

    # float.hex of each row residual of oracle-suite --nmax 2 --pmax 2
    # --kmax 2, as first computed; the full-line (s=0) rows as first
    # computed when the sweep took them in.
    SUITE_RESIDUALS = [
        ("Delta(k=0)", "0x0.0p+0"),
        ("Delta(k=1)", "0x0.0p+0"),
        ("Delta(k=2)", "0x1.ad2098335aa10p-53"),
        ("MonLog(n=-2, p=0, s=1)", "0x1.4000000000000p-52"),
        ("MonLog(n=-2, p=0, s=-1)", "0x1.925f45a584647p-53"),
        ("MonLog(n=-2, p=0, s=0)", "0x1.925f45a584647p-53"),
        ("MonLog(n=-2, p=1, s=1)", "0x1.4000000000000p-52"),
        ("MonLog(n=-2, p=1, s=-1)", "0x1.8000000000000p-52"),
        ("MonLog(n=-2, p=1, s=0)", "0x1.644ae54286bf6p-51"),
        ("MonLog(n=-2, p=2, s=1)", "0x1.75f609fb24d4cp-51"),
        ("MonLog(n=-2, p=2, s=-1)", "0x1.0000000000000p-52"),
        ("MonLog(n=-2, p=2, s=0)", "0x1.0b734106e6d3ap-52"),
        ("MonLog(n=-1, p=0, s=1)", "0x1.0000000000000p-51"),
        ("MonLog(n=-1, p=0, s=-1)", "0x1.8d53f9304e2a6p-52"),
        ("MonLog(n=-1, p=0, s=0)", "0x1.2f3155e71e769p-52"),
        ("MonLog(n=-1, p=1, s=1)", "0x1.ee2b062de754fp-53"),
        ("MonLog(n=-1, p=1, s=-1)", "0x1.34eeff5329897p-53"),
        ("MonLog(n=-1, p=1, s=0)", "0x1.2f070a7e57663p-53"),
        ("MonLog(n=-1, p=2, s=1)", "0x1.f6e342062bec9p-52"),
        ("MonLog(n=-1, p=2, s=-1)", "0x1.0000000000000p-52"),
        ("MonLog(n=-1, p=2, s=0)", "0x1.c8eed814326f4p-53"),
        ("MonLog(n=0, p=0, s=1)", "0x1.0000000000000p-53"),
        ("MonLog(n=0, p=0, s=-1)", "0x1.0000000000000p-53"),
        ("MonLog(n=0, p=0, s=0)", "0x1.0000000000000p-51"),
        ("MonLog(n=0, p=1, s=1)", "0x1.1aa6934ccfcf9p-53"),
        ("MonLog(n=0, p=1, s=-1)", "0x1.0000000000000p-53"),
        ("MonLog(n=0, p=1, s=0)", "0x1.812746b0379e7p-53"),
        ("MonLog(n=0, p=2, s=1)", "0x1.2319b9a63d5c4p-50"),
        ("MonLog(n=0, p=2, s=-1)", "0x1.263bbcda83a04p-52"),
        ("MonLog(n=0, p=2, s=0)", "0x1.9a754e4c05522p-52"),
        ("MonLog(n=1, p=0, s=1)", "0x1.c000000000000p-51"),
        ("MonLog(n=1, p=0, s=-1)", "0x1.c0fb696d1b333p-51"),
        ("MonLog(n=1, p=0, s=0)", "0x1.4be334bdf9756p-51"),
        ("MonLog(n=1, p=1, s=1)", "0x1.8000000000000p-52"),
        ("MonLog(n=1, p=1, s=-1)", "0x1.bea99026f0f8cp-52"),
        ("MonLog(n=1, p=1, s=0)", "0x1.077fcc7e63626p-50"),
        ("MonLog(n=1, p=2, s=1)", "0x1.0000000000000p-52"),
        ("MonLog(n=1, p=2, s=-1)", "0x1.3f5d24c852b4cp-51"),
        ("MonLog(n=1, p=2, s=0)", "0x1.ab08ee2fea1e2p-52"),
        ("MonLog(n=2, p=0, s=1)", "0x1.0082269fb9e84p-51"),
        ("MonLog(n=2, p=0, s=-1)", "0x1.89e3fc65361b1p-53"),
        ("MonLog(n=2, p=0, s=0)", "0x1.527d40704719bp-51"),
        ("MonLog(n=2, p=1, s=1)", "0x1.3f85b207de7d6p-52"),
        ("MonLog(n=2, p=1, s=-1)", "0x1.5738b754ed269p-51"),
        ("MonLog(n=2, p=1, s=0)", "0x1.9cc37ad3dee6cp-52"),
        ("MonLog(n=2, p=2, s=1)", "0x1.365eb07c18ca1p-53"),
        ("MonLog(n=2, p=2, s=-1)", "0x1.787af2b3d5613p-51"),
        ("MonLog(n=2, p=2, s=0)", "0x1.17eb4d31d6580p-51"),
    ]

    def test_oracle_suite_residuals(self, capsys):
        argv = ["oracle-suite", "--nmax", "2", "--pmax", "2", "--kmax", "2"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["outputs"]["rows"]
        got = [(r["atom"], float(r["residual"]).hex()) for r in rows]
        assert got == self.SUITE_RESIDUALS


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
    @pytest.mark.parametrize("s", [1, -1, 0], ids=["right", "left", "full"])
    def test_monlog_pairings(self, c, w, s):
        poly = Polynomial(1, {(0,): F(1), (1,): F(-1, 2), (2,): F(1, 3)})
        phi = GaussPoly(poly, (c,), w)
        for n in range(-3, 3):
            for p in range(4):
                got = pair(single((MonLog(n, p, s),)), phi)
                if s:
                    want = _finite_part_reference(n, p, s, phi)
                else:
                    want = _finite_part_reference(n, p, 1, phi) + (
                        -1
                    ) ** n * _finite_part_reference(n, p, -1, phi)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (n, p)
