"""Acceptance suite: one test per release criterion.

Each test is self-contained, uses fixed seeds, and asserts both the
mathematical property and (where stated) the runtime budget, so the
pytest -v line for each test doubles as the criterion's pass/fail record.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import product

import pytest

from eulerdist.atoms import Delta, DistExpr, MonLog, dist, eigenvalue, single
from eulerdist.cli import main as cli_main
from eulerdist.gausspoly import GaussPoly
from eulerdist.grammar import format_dist, format_poly, parse_dist, parse_poly
from eulerdist.oracle import adjoint_check, compare_symbolic_numeric
from eulerdist.poly import Polynomial, poly_eval
from eulerdist.solver import solve
from eulerdist.theta import apply_polynomial, apply_theta
from eulerdist.wagner import WagnerParams, me_check, wagner_coefficients
from paperchecks import decompose_hyperplane, exp_conjugation_check, full_monomial


H = MonLog(0, 0, 1)


def zvar(d, j):
    return Polynomial.variable(d, j)


# -- criterion 1: resonant construction suite -------------------------------


def test_acceptance_resonant_suite():
    t0 = time.monotonic()
    for k in range(6):
        P = zvar(1, 1) + Polynomial.constant(1, k + 1)
        rep = solve(P, single((Delta(k),)))
        assert rep.verified, f"resonant solve failed at k={k}"
        assert apply_polynomial(P, rep.solution) == single((Delta(k),))
    rep0 = solve(zvar(1, 1) + Polynomial.constant(1, 1), single((Delta(0),)))
    assert rep0.solution == single((MonLog(-1, 0, 1),))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"resonant suite took {elapsed:.2f}s"


# -- criterion 2: eigen-calculus suite ---------------------------------------


def _random_poly(rng, d, max_deg, max_terms=5):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            while True:
                alpha = tuple(rng.randint(0, max_deg) for _ in range(d))
                if sum(alpha) <= max_deg:
                    break
            terms[alpha] = F(rng.randint(-6, 6), rng.randint(1, 4))
        P = Polynomial(d, terms)
        if not P.is_zero():
            return P


def test_acceptance_eigen_suite():
    rng = random.Random(20260826)
    count = 0
    for d in (1, 2, 3):
        alphas = [
            a for a in product(range(5), repeat=d) if sum(a) <= 4
        ]
        for _ in range(7):
            P = _random_poly(rng, d, 4)
            count += 1
            for alpha in alphas:
                e = full_monomial(alpha, d)
                assert apply_polynomial(P, e) == e.scaled(poly_eval(P, alpha))
    assert count >= 20
    for k in range(7):
        assert apply_theta(Delta(k)) == [(F(-(k + 1)), Delta(k))]


# -- criterion 3: randomized solver soundness --------------------------------


def _random_atom(rng, allow_delta=True):
    kind = rng.random()
    if allow_delta and kind < 0.35:
        return Delta(rng.randint(0, 4))
    return MonLog(rng.randint(-5, 5), rng.randint(0, 2), rng.choice((1, -1)))


def _random_term(rng, d, allow_delta=True):
    coeff = F(rng.randint(-5, 5) or 1, rng.randint(1, 3))
    return tuple(_random_atom(rng, allow_delta) for _ in range(d)), coeff


def _random_rhs(rng, d, max_terms=4, allow_delta=True):
    while True:
        e = dist(d, [_random_term(rng, d, allow_delta) for _ in range(rng.randint(1, max_terms))])
        if not e.is_zero():
            return e


def _resonant_factor(rng, d, mu):
    # A nonzero linear form vanishing at mu.
    while True:
        coeffs = [F(rng.randint(-2, 2)) for _ in range(d)]
        if any(coeffs):
            break
    L = Polynomial.zero(d)
    for j, cj in enumerate(coeffs, start=1):
        if cj:
            L = L + (zvar(d, j) - Polynomial.constant(d, mu[j - 1])) * cj
    return L


# Two fixed off-center test functions per dimension for the independent
# numerical check of every randomized solution with d <= 2.
_ORACLE_PHIS = {
    1: [
        GaussPoly.gaussian(1, (F(1, 3),), F(3, 2)),
        GaussPoly(Polynomial(1, {(1,): F(1), (0,): F(2)}), (F(-1, 2),), F(1)),
    ],
    2: [
        GaussPoly.gaussian(2, (F(1, 3), F(-1, 4)), F(3, 2)),
        GaussPoly(
            Polynomial(2, {(1, 0): F(1), (0, 0): F(2)}), (F(-1, 2), F(1, 5)), F(1)
        ),
    ],
}


def test_acceptance_randomized_solver():
    rng = random.Random(777)
    t_suite = time.monotonic()
    instances = []
    for _ in range(40):  # general instances
        d = rng.randint(1, 3)
        instances.append((_random_poly(rng, d, 4), _random_rhs(rng, d)))
    for _ in range(35):  # forced-resonant at a continuous term eigenvalue
        d = rng.randint(1, 2)
        f, c = _random_term(rng, d, allow_delta=False)
        t = tuple(MonLog(a.n, min(a.p, 1), a.s) for a in f), c
        mu = eigenvalue(t[0])
        P = _resonant_factor(rng, d, mu) * _random_poly(rng, d, 2, max_terms=2)
        instances.append((P, dist(d, [t])))
    for _ in range(30):  # explicit (z_j + k + 1)^r * Q instances
        d = rng.randint(1, 3)
        j = rng.randint(1, d)
        k = rng.randint(0, 4)
        r = rng.randint(1, 2)
        Q = _random_poly(rng, d, 2, max_terms=2)
        P = (zvar(d, j) + Polynomial.constant(d, k + 1)) ** r * Q
        factors = [_random_atom(rng) for _ in range(d)]
        factors[j - 1] = Delta(k)
        T = dist(d, [(tuple(factors), F(1))])
        instances.append((P, T))
    assert len(instances) >= 100
    for P, T in instances:
        t0 = time.monotonic()
        rep = solve(P, T)
        dt = time.monotonic() - t0
        assert rep.verified, f"unsound solve for P={P!r}, T={T!r}"
        assert rep.escalation_depth <= P.degree
        assert dt < 1.0, f"instance exceeded 1 s ({dt:.2f}s): P={P!r}"
        if T.dim <= 2:
            r = compare_symbolic_numeric(P, rep.solution, T, _ORACLE_PHIS[T.dim])
            assert r <= 1e-6, f"oracle residual {r:.3e} for P={P!r}, T={T!r}"
    total = time.monotonic() - t_suite
    assert total < 60.0, f"randomized suite took {total:.1f}s"


# -- criterion 4: adjoint-identity oracle ------------------------------------


def _test_function_suite():
    specs = [
        (Polynomial(1, {(0,): F(1)}), F(0), F(1)),
        (Polynomial(1, {(0,): F(1)}), F(1, 2), F(3, 2)),
        (Polynomial(1, {(1,): F(1)}), F(0), F(1)),
        (Polynomial(1, {(2,): F(1), (0,): F(1)}), F(-1, 3), F(1)),
        (Polynomial(1, {(3,): F(1), (1,): F(-1)}), F(0), F(2)),
        (Polynomial(1, {(4,): F(1)}), F(1, 4), F(1)),
        (Polynomial(1, {(0,): F(2)}), F(-1, 2), F(1, 2)),
        (Polynomial(1, {(1,): F(1), (0,): F(1)}), F(1), F(2)),
        (Polynomial(1, {(2,): F(-1), (0,): F(3)}), F(0), F(3, 2)),
        (Polynomial(1, {(4,): F(1), (2,): F(1), (0,): F(1)}), F(-1, 4), F(1)),
    ]
    return [GaussPoly(p, (c,), w) for p, c, w in specs]


def test_acceptance_adjoint_oracle():
    t0 = time.monotonic()
    suite = _test_function_suite()
    atoms = [Delta(k) for k in range(5)]
    atoms += [
        MonLog(n, p, s)
        for n in range(-4, 5)
        for p in range(4)
        for s in (1, -1)
    ]
    worst = 0.0
    for a in atoms:
        for phi in suite:
            worst = max(worst, adjoint_check(a, phi))
    assert worst <= 1e-6, f"adjoint residual {worst:.3e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"adjoint sweep took {elapsed:.1f}s"


# -- criterion 5: Malgrange-Ehrenpreis desk check ----------------------------


def _phi_suite(d):
    if d == 1:
        return [
            GaussPoly.gaussian(1, (F(0),), F(1)),
            GaussPoly.gaussian(1, (F(1, 2),), F(3, 2)),
            GaussPoly(Polynomial(1, {(1,): F(1), (0,): F(2)}), (F(-1, 3),), F(1)),
        ]
    return [
        GaussPoly.gaussian(2, (F(0), F(0)), F(1)),
        GaussPoly.gaussian(2, (F(1, 2), F(-1, 3)), F(3, 2)),
        GaussPoly(Polynomial(2, {(1, 0): F(1), (0, 0): F(2)}), (F(0), F(1, 4)), F(1)),
    ]


def test_acceptance_me_check():
    t0 = time.monotonic()
    z = zvar(1, 1)
    one1 = Polynomial.constant(1, 1)
    z1, z2 = zvar(2, 1), zvar(2, 2)
    one2 = Polynomial.constant(2, 1)
    cases = [
        (z, 1, 4096, 1e-4),
        (z * z, 1, 4096, 1e-3),
        (z * z - one1, 1, 4096, 1e-3),
        (z1 * z1 + z2 * z2 - one2, 2, 512, 1e-3),
        (z1 * z2 + one2, 2, 512, 1e-3),
    ]
    for P, d, N, tol in cases:
        params = WagnerParams.for_polynomial(P)
        for phi in _phi_suite(d):
            r1 = me_check(P, params, phi, (N, 40.0))
            assert r1 <= tol, f"me_check {r1:.3e} > {tol} for {P!r}"
            r2 = me_check(P, params, phi, (2 * N, 40.0))
            # Convergence is spectral here; past the discretization regime
            # the residual sits at the accumulation noise floor, so the
            # halving requirement is enforced down to that floor.
            assert r2 <= max(r1 / 2, 1e-10), f"no halving: {r1:.3e} -> {r2:.3e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"ME suite took {elapsed:.1f}s"


# -- criterion 6: exponential conjugation identity ---------------------------


def test_acceptance_exp_conjugation():
    rng = random.Random(99)
    pts1 = [(rng.uniform(-1.0, 1.0),) for _ in range(20)]
    pts2 = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(20)]
    z = zvar(1, 1)
    z1, z2 = zvar(2, 1), zvar(2, 2)
    pairs = [
        (z, single((MonLog(1, 0, 1),)), pts1),
        (z * z, single((MonLog(2, 0, 1),)), pts1),
        (z * z - Polynomial.constant(1, 1), single((MonLog(1, 1, 1),)), pts1),
        (z1 * z2, single((MonLog(1, 1, 1), MonLog(1, 0, 1))), pts2),
        (z1 + z2 + Polynomial.constant(2, 1), single((MonLog(2, 0, 1), MonLog(1, 0, 1))), pts2),
    ]
    for P, f, pts in pairs:
        r = exp_conjugation_check(P, f, pts)
        assert r <= 1e-4, f"conjugation residual {r:.3e} for {P!r}"
    # O(h^2) decay: plain central differences, step halved once.
    P, f = z * z, single((MonLog(2, 0, 1),))
    coarse = exp_conjugation_check(P, f, pts1, step=4e-2, richardson=False)
    fine = exp_conjugation_check(P, f, pts1, step=2e-2, richardson=False)
    ratio = coarse / fine
    assert 2.5 <= ratio <= 6.0, f"decay ratio {ratio:.2f} not O(h^2)"


# -- criterion 7: Wagner coefficient exactness --------------------------------


def test_acceptance_wagner_coefficients():
    for m in range(7):
        lam = tuple(F(j + 1) for j in range(m + 1))
        a = wagner_coefficients(m)
        for i in range(m + 1):
            total = sum(aj * lj**i for aj, lj in zip(a, lam))
            assert total == (1 if i == m else 0)
        for j, lj in enumerate(lam):
            prod = F(1)
            for kk, lk in enumerate(lam):
                if kk != j:
                    prod *= lj - lk
            assert a[j] == 1 / prod


# -- criterion 8: hyperplane decomposition ------------------------------------


def test_acceptance_hyperplane_decomposition():
    rng = random.Random(4242)
    for _ in range(50):
        d = rng.randint(2, 3)
        terms = []
        for _ in range(rng.randint(1, 4)):
            factors = [_random_atom(rng) for _ in range(d)]
            if not any(isinstance(a, Delta) for a in factors):
                factors[rng.randrange(d)] = Delta(rng.randint(0, 4))
            coeff = F(rng.randint(-5, 5) or 1, rng.randint(1, 3))
            terms.append((tuple(factors), coeff))
        e = dist(d, terms)
        if e.is_zero():
            continue
        parts = decompose_hyperplane(e)
        total = DistExpr.zero(d)
        for j, part in parts:
            for f, _ in part.terms:
                assert isinstance(f[j - 1], Delta)
                for i in range(j - 1):
                    assert not isinstance(f[i], Delta)
            total = total + part
        assert total == e


# -- criterion 9: CLI round-trip and deterministic reports ---------------------


CORPUS_POLY = [
    "t1",
    "t1 + 1",
    "t1^2",
    "-t1",
    "t1^4 - 1",
    "2/3*t1^2 - 5",
    "t1*t2",
    "t1 + t2 + 2",
    "t1^2*t2 - 3*t1 + 2",
    "t1^2 + t2^2 - 1",
    "t1*t2 + 1",
    "(t1 + 1)^2",
    "(t1 + 2)^2*(t2 - 1)",
    "5*t1 + 20",
    "t1*t2*t3",
    "t1^3 - t2^3",
    "7/2",
    "t1^2*t2^2 - t3",
    "-1/4*t1 + t2",
    "t2^4 + t1",
]

CORPUS_DIST = [
    ("delta(x1,0)", 1),
    ("delta(x1,5)", 1),
    ("H(x1)", 1),
    ("H(-x1)", 1),
    ("x1^-1*H(x1)", 1),
    ("x1^2*log(x1)*H(x1)", 1),
    ("x1^-3*log(x1)^2*H(-x1)", 1),
    ("mono(x1,3)", 1),
    ("x1^4", 1),
    ("H(x1) + H(-x1)", 1),
    ("1/2*mono(x1,2) + delta(x1,0)", 1),
    ("3*x1*H(x1) - 2*delta(x1,1)", 1),
    ("delta(x1,2)*x2^3*H(x2)", 2),
    ("delta(x1,0)*delta(x2,1)", 2),
    ("x1*x2", 2),
    ("x1^-2*H(x1)*log(x2)*H(x2)", 2),
    ("delta(x2,3)", 2),
    ("5/7*x1^3*log(x1)^2*H(-x1)*delta(x2,0)", 2),
    ("delta(x1,1)*x2*H(x2)*x3^-1*H(x3)", 3),
    ("x1*x2*x3", 3),
]


def test_acceptance_cli_round_trip(capsys):
    assert len(CORPUS_POLY) + len(CORPUS_DIST) == 40
    for src in CORPUS_POLY:
        P = parse_poly(src)
        assert parse_poly(format_poly(P), P.dim) == P
    for src, d in CORPUS_DIST:
        e = parse_dist(src, d)
        assert parse_dist(format_dist(e), d) == e
    runs = [
        ["solve", "-P", "t1+1", "-T", "delta(x1,0)", "-d", "1"],
        ["solve", "-P", "(t1+2)^2*(t2-1)", "-T", "delta(x1,1)*delta(x2,0)", "-d", "2"],
        ["verify", "-P", "t1+1", "-U", "x1^-1*H(x1)", "-T", "delta(x1,0)", "-d", "1"],
        ["parse", "-T", "mono(x1,2) - delta(x1,0)", "-d", "1"],
    ]
    for argv in runs:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()
        json.loads(out1)
