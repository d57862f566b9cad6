from fractions import Fraction as F
from itertools import product
from math import perm

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, Rational

from eulerdist import solver
from eulerdist.atoms import Delta, DistExpr, MonLog, dist, single
from eulerdist.errors import UnsupportedInput, ZeroPolynomial
from eulerdist.grammar import format_dist, parse_dist, parse_poly
from eulerdist.limits import MAX_SOLUTION_ORDER
from eulerdist.poly import Polynomial, grlex_key, vanishing_order
from eulerdist.solver import (
    _solve_log_system,
    resonant_1d,
    solve,
    solve_continuous_term,
    verify,
)
from eulerdist.theta import apply_polynomial, apply_theta
from paperchecks import full_monomial


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
        U, residual, v = solve_continuous_term(P, [((MonLog(2, 0, 1),), F(1))])
        assert U == single((MonLog(2, 1, 1),))
        assert residual.is_zero()
        assert v == 1

    def test_mixed_bump(self):
        P = zvar(2, 1) * zvar(2, 2)
        U, residual, v = solve_continuous_term(P, [((H, H), F(1))])
        assert U == single((MonLog(0, 1, 1), MonLog(0, 1, 1)))
        assert residual.is_zero()
        assert v == 2

    def test_finite_part_log_branch(self):
        # Under this regularization the p >= 1 ladder carries no delta
        # correction, so the residual of the lifted finite part vanishes.
        P = zvar() + const(1, 1)
        U, residual, v = solve_continuous_term(P, [((PF,), F(1))])
        assert U == single((MonLog(-1, 1, 1),))
        assert residual.is_zero()

    def test_rejects_delta(self):
        with pytest.raises(UnsupportedInput):
            solve_continuous_term(zvar(), [((Delta(0),), F(1))])

    def test_rejects_delta_among_continuous_terms(self):
        ts = [((H, H), F(1)), ((H, Delta(0)), F(2))]
        with pytest.raises(UnsupportedInput):
            solve_continuous_term(zvar(2, 1), ts)

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        """The expressions solver.apply_polynomial is called on."""
        calls = []

        def counted(P, U):
            calls.append(U)
            return apply_polynomial(P, U)

        monkeypatch.setattr(solver, "apply_polynomial", counted)
        return calls

    def test_one_forward_application_per_level(self, forward_calls):
        # Neither class reaches a delta, so verify is the only application.
        T = parse_dist("x1*H(x1) + x1^2*H(x1)", 1)
        assert solve(parse_poly("t1+1", 1), T).verified
        assert len(forward_calls) == 1

    def test_finite_part_class_is_applied_for_its_residual(self, forward_calls):
        T = parse_dist("x1^-1*H(x1)", 1)
        assert solve(parse_poly("t1+1", 1), T).verified
        assert len(forward_calls) == 2

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_resonant_solve_applies_p_once(self, forward_calls, d, m):
        # P = L^m*Q with L(mu) = 0 != Q(mu), mu_j >= 0, and two half-line
        # terms at mu of log power p: verify is the only application.
        mu = [(m + j) % 3 for j in range(d)]
        L = "+".join(f"{(-2) ** j}*(t{j + 1}-{x})" for j, x in enumerate(mu))
        P = parse_poly(f"({L})^{m}*(t1^2+t{d}+3)", d)
        p = 0 if d == 3 and m == 5 else m % 3
        T = dist(
            d,
            [
                ((MonLog(mu[0], p, s), *(MonLog(x, 0, -s) for x in mu[1:])), F(1))
                for s in (1, -1)
            ],
        )
        rep = solve(P, T)
        assert rep.verified
        assert rep.escalation_depth == m
        assert len(forward_calls) == 1

    def test_class_shares_one_solution_vector(self):
        # The two sign patterns of one class get the same u, scaled by
        # their own coefficients.
        P = zvar(2, 1) * zvar(2, 2)
        ts = [((H, MonLog(0, 0, -1)), F(3)), ((H, H), F(-1, 2))]
        U, residual, v = solve_continuous_term(P, ts)
        L1 = MonLog(0, 1, 1)
        assert U == dist(
            2,
            [((L1, MonLog(0, 1, -1)), F(3)), ((L1, L1), F(-1, 2))],
        )
        assert residual.is_zero()
        assert v == 2


def _reference_log_system(S, p, v):
    """The solution of S(d) u = z^p on the box {q : |q| <= |p| + v} with
    every free variable zero, from sympy's rref of the box's columns in
    grlex order."""
    d = S.dim
    total = sum(p) + v
    cols = sorted(
        (q for q in product(range(total + 1), repeat=d) if sum(q) <= total),
        key=grlex_key,
    )
    row = {q: i for i, q in enumerate(cols)}
    n = len(cols)
    A = [[Rational(0)] * (n + 1) for _ in range(n)]
    A[row[p]][n] = Rational(1)
    for c, q in enumerate(cols):
        for beta, s in S.terms.items():
            if all(b <= qj for b, qj in zip(beta, q)):
                for qj, b in zip(q, beta):
                    s *= perm(qj, b)
                target = tuple(qj - b for qj, b in zip(q, beta))
                A[row[target]][c] = Rational(s.numerator, s.denominator)
    R, pivots = Matrix(A).rref()
    assert n not in pivots  # the system is consistent
    return Polynomial(
        d, {cols[c]: F(int(R[i, n].p), int(R[i, n].q)) for i, c in enumerate(pivots)}
    )


@st.composite
def _exponent(draw, d, degree):
    """A d-variable exponent of the given total degree."""
    alpha = [0] * d
    for j in draw(st.lists(st.integers(0, d - 1), min_size=degree, max_size=degree)):
        alpha[j] += 1
    return tuple(alpha)


@st.composite
def _log_system(draw):
    """(S, p) with d <= 3, vanishing order v <= 4 at 0 and |p| <= 4."""
    d = draw(st.integers(1, 3))
    v = draw(st.integers(0, 4))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    terms = {draw(_exponent(d, v)): draw(small)}
    for _ in range(draw(st.integers(0, 4))):
        degree = draw(st.integers(v, v + 2))
        terms[draw(_exponent(d, degree))] = draw(small)
    p = draw(_exponent(d, draw(st.integers(0, 4))))
    return Polynomial(d, terms), p


@settings(max_examples=40, deadline=None)
@given(_log_system())
def test_log_system_division_matches_elimination(system):
    """Division by the grlex-smallest term gives the free-variables-zero
    solution of the grlex-ordered box elimination."""
    S, p = system
    v, gamma = vanishing_order(S)
    u = _solve_log_system(S, p, gamma)
    assert u == _reference_log_system(S, p, v).terms


def _log_power(factors):
    """The total log power of a tensor term's factors."""
    return sum(a.p for a in factors if isinstance(a, MonLog))


@st.composite
def _cascading_solve(draw):
    """(P, T): one term T in d <= 3 coordinates with log powers <= 2, and P
    a product of 1 to 4 linear factors, most of which vanish at T's
    eigenvalue, so that solving escalates logs and leaves residuals."""
    d = draw(st.integers(1, 3))
    atoms = st.one_of(
        st.builds(Delta, st.integers(0, 2)),
        st.builds(
            MonLog, st.integers(-3, 3), st.integers(0, 2), st.sampled_from((1, -1))
        ),
    )
    factors = draw(st.tuples(*[atoms] * d))
    mu = [-(a.k + 1) if isinstance(a, Delta) else a.n for a in factors]
    P = const(d, 1)
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d).filter(any))
        at_mu = sum(x * m for x, m in zip(a, mu))
        c = draw(st.sampled_from([-at_mu, -at_mu, -at_mu, draw(st.integers(-3, 3))]))
        P = P * sum((zvar(d, j) * x for j, x in enumerate(a, 1)), const(d, c))
    return P, single(factors)


@settings(max_examples=60, deadline=None)
@given(_cascading_solve())
def test_solution_log_power_stays_within_bound(case):
    """A solution term's total log power is at most |p| + d * deg P, residual
    cascades included, and the printed solution reads back under
    MAX_SOLUTION_ORDER.  MAX_SOLUTION_ORDER rests on this bound, which is
    tested here, not proved."""
    P, T = case
    rep = solve(P, T)
    assert rep.verified
    bound = _log_power(T.terms[0][0]) + P.dim * P.degree
    assert all(_log_power(f) <= bound for f, _ in rep.solution.terms)
    text = format_dist(rep.solution)
    assert parse_dist(text, P.dim, MAX_SOLUTION_ORDER) == rep.solution


def _assert_canonical(e):
    """Every term is a (factors, Fraction) pair with one factor per
    coordinate and a nonzero coefficient, in strictly increasing order of
    the factor tuples."""
    for t in e.terms:
        assert type(t) is tuple and len(t) == 2
        f, c = t
        assert type(f) is tuple and len(f) == e.dim
        assert type(c) is F and c != 0
    fs = [f for f, _ in e.terms]
    assert all(a < b for a, b in zip(fs, fs[1:]))


@settings(max_examples=60, deadline=None)
@given(_cascading_solve())
def test_every_producer_returns_canonical_terms(case):
    """dist, the printed-text round trip, apply_polynomial and solve return
    canonical terms.  The solver builds some of its results directly, on
    the claim that they are canonical by construction."""
    P, T = case
    U = solve(P, T).solution
    d = P.dim
    raw = DistExpr(d, U.terms + T.terms + U.terms)
    for e in (
        U,
        solve(const(d, 3), T).solution,
        dist(d, [*raw.terms, *((f, -c) for f, c in T.terms)]),
        parse_dist(format_dist(U), d, MAX_SOLUTION_ORDER),
        apply_polynomial(P, U),
        apply_polynomial(P, raw),
    ):
        _assert_canonical(e)


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


def _draw_classes(cls, data, min_signs):
    """(P, per-class term lists) for the classes cls, with min_signs or
    more sign patterns per class; P vanishes to order r at the first class's
    eigenvalue (r = 0: generic)."""
    d = len(cls[0])
    per_class = []
    for key in cls:
        signs = data.draw(
            st.lists(
                st.tuples(*[st.sampled_from((1, -1))] * d),
                min_size=min_signs,
                max_size=min(2**d, 3),
                unique=True,
            )
        )
        factors = [tuple(MonLog(n, p, s) for (n, p), s in zip(key, sv)) for sv in signs]
        per_class.append([(f, data.draw(coeffs)) for f in factors])
    mu = [n for n, _ in cls[0]]
    P = const(d, data.draw(st.integers(1, 3)))
    for j in range(1, d + 1):
        P = P + zvar(d, j) * data.draw(st.integers(-2, 2))
    for _ in range(data.draw(st.integers(0, 2))):
        j = data.draw(st.integers(1, d))
        P = P * (zvar(d, j) - const(d, mu[j - 1]))
    return P, per_class


@settings(max_examples=30, deadline=None)
@given(classes, st.data())
def test_solution_is_additive_over_terms(cls, data):
    """solve(P, T) is the canonical sum of the solves of T's terms, for T
    with several sign patterns per (eigenvalue, log powers) class."""
    P, per_class = _draw_classes(cls, data, 2)
    d = P.dim
    T = dist(d, [t for ts in per_class for t in ts])
    rep = solve(P, T)
    assert rep.verified
    pieces = [s for t in T.terms for s in solve(P, dist(d, [t])).solution.terms]
    assert rep.solution == dist(d, pieces)


@settings(max_examples=30, deadline=None)
@given(classes, st.data())
def test_continuous_solve_sums_its_one_class_solves(cls, data):
    """On terms of several classes, solve_continuous_term returns the
    canonical sums of the solutions and residuals of its one-class calls,
    and the largest of their vanishing orders."""
    P, per_class = _draw_classes(cls, data, 1)
    d = P.dim
    T = dist(d, [t for ts in per_class for t in ts])
    U, residual, v = solve_continuous_term(P, T.terms)
    ones = [solve_continuous_term(P, ts) for ts in per_class]
    assert U == dist(d, [t for one, _, _ in ones for t in one.terms])
    assert residual == dist(d, [t for _, r, _ in ones for t in r.terms])
    assert v == max(x for _, _, x in ones)


@settings(max_examples=40, deadline=None)
@given(classes, st.data())
def test_continuous_residual_is_the_full_forward_residual(cls, data):
    """The residual, built from the finite-part classes only, is
    sum(ts) - P(theta) U_partial by a full forward application; classes
    with every n_j >= 0 are mapped back onto their own terms exactly."""
    P, per_class = _draw_classes(cls, data, 1)
    d = P.dim
    ts = [t for one in per_class for t in one]
    U, residual, _ = solve_continuous_term(P, ts)
    image = apply_polynomial(P, U)
    assert residual == dist(d, [*ts, *((f, -c) for f, c in image.terms)])
    if all(n >= 0 for key in cls for n, _ in key):
        assert image == dist(d, ts)


class TestSolveDeltaTerm:
    def test_substitution_path(self):
        P = zvar(2, 1) + zvar(2, 2) + const(2, 2)
        U = solve(P, single((Delta(0), H))).solution
        assert U == single((Delta(0), H))

    def test_scaled_linear_factor(self):
        P = (zvar() + const(1, 4)) * 5
        T = single((Delta(3),))
        U = solve(P, T).solution
        assert apply_polynomial(P, U) == T

    def test_double_resonance(self):
        P = (zvar() + const(1, 1)) ** 2
        T = single((Delta(0),))
        U = solve(P, T).solution
        assert apply_polynomial(P, U) == T


class TestResonant1D:
    def test_k0(self):
        W = resonant_1d(1, 0, single((Delta(0),)))
        assert W == single((PF,))

    def test_k1_closed_form(self):
        W = resonant_1d(1, 1, single((Delta(1),)))
        as_map = {f[0]: c for f, c in W.terms}
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

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 40),
        st.fractions(-50, 50, max_denominator=30).filter(bool),
        st.sampled_from([MonLog(1, 0, 1), MonLog(-2, 1, -1), Delta(3)]),
    )
    def test_delta_k_matches_the_fraction_formula(self, k, c, other):
        # The coefficients as first written: a0 = c / corr_k and
        # -a0 corr_i / (k - i) on Delta(i), with the corrections corr read
        # from theta m0 as Fractions.
        m0 = MonLog(-(k + 1), 0, 1)
        corr = {a: x for x, a in apply_theta(m0) if isinstance(a, Delta)}
        a0 = c / corr[Delta(k)]
        want = [((other, m0), a0)] + [
            ((other, Delta(i)), -a0 * corr[Delta(i)] / (k - i)) for i in range(k)
        ]
        W = resonant_1d(2, k, single((other, Delta(k)), c))
        assert W == dist(2, want)


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
