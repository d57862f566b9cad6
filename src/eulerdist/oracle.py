"""Independent numerical pairings of atoms against Gaussian-polynomial tests.

Finite-part convention (the one every symbolic correction refers to): for
n <= -1, nu = -n, the right half-line atom pairs as

  <MonLog(n,p,+1), phi> = int_0^1 x^n log^p x [phi(x) - T_{nu-1}phi(x)] dx
                        + int_1^inf x^n log^p x phi(x) dx

with T_{nu-1} the Taylor polynomial of phi at 0 of order nu-1; the split
point is fixed at |x| = 1.  Left half-line atoms pair through the
reflection x -> -x.  Atoms with n >= 0 pair by absolutely convergent
integrals, and Delta(k) pairs as (-1)^k phi^(k)(0).

Numerically, the inner interval [0, 1] is evaluated as a convergent power
series (the Taylor coefficients of a GaussPoly are an explicit two-term
recurrence, and int_0^1 x^m log^p x dx = (-1)^p p! / (m+1)^{p+1}); the
outer interval uses adaptive quadrature with a Gaussian-decay cutoff.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp, factorial, log
from typing import Iterable

from scipy.integrate import quad

from .atoms import Atom1D, Delta, DistExpr, MonLog, single
from .errors import DimensionError, QuadratureNoConvergence
from .gausspoly import GaussPoly
from .poly import Polynomial
# perfbench/tracer.py wraps oracle.apply_polynomial by name, so the import stays.
from .theta import apply_polynomial, apply_theta  # noqa: F401

_SERIES_CAP = 800
_TAIL_RUN = 8


def _taylor_coeffs(g: GaussPoly, count: int) -> list[float]:
    """First `count` Taylor coefficients at 0 of a 1-D GaussPoly."""
    c = g.center[0]
    w2 = g.width**2
    a = float(2 * c / w2)
    b = float(1 / w2)
    # e^{a x - b x^2}: (k+1) f_{k+1} = a f_k - 2 b f_{k-1}
    f = [0.0] * count
    if count > 0:
        f[0] = 1.0
    if count > 1:
        f[1] = a
    for k in range(1, count - 1):
        f[k + 1] = (a * f[k] - 2.0 * b * f[k - 1]) / (k + 1)
    scale = exp(-float(c * c / w2))
    out = [0.0] * count
    for (alpha,), pc in g.poly.terms.items():
        pcf = float(pc)
        for i in range(alpha, count):
            out[i] += pcf * f[i - alpha]
    return [scale * v for v in out]


def _inner_series(n: int, p: int, g: GaussPoly) -> float:
    """int_0^1 x^n log^p x (g - Taylor subtraction) dx as a power series."""
    start = max(0, -n)
    coeffs = _taylor_coeffs(g, _SERIES_CAP)
    total = 0.0
    scale = 1.0
    run = 0
    sign = -1.0 if p % 2 else 1.0
    fp = float(factorial(p))
    for i in range(start, _SERIES_CAP):
        m = n + i
        term = coeffs[i] * sign * fp / float(m + 1) ** (p + 1)
        total += term
        scale = max(scale, abs(total))
        if abs(term) < 1e-18 * scale:
            run += 1
            if run >= _TAIL_RUN and i > start + 10:
                return total
        else:
            run = 0
    raise QuadratureNoConvergence(
        f"inner series for x^{n} log^{p} did not settle within {_SERIES_CAP} terms"
    )


def _outer_quad(n: int, p: int, g: GaussPoly, tol: float) -> tuple[float, float]:
    """int_1^cutoff x^n log^p x g(x) dx by adaptive quadrature."""
    c = float(g.center[0])
    w = float(g.width)
    cutoff = max(2.0, c + 7.0 * w, 1.0 + 7.0 * w)

    def f(x: float) -> float:
        return x**n * log(x) ** p * g.value((x,))

    val, err = quad(f, 1.0, cutoff, epsabs=min(tol, 1e-11), epsrel=1e-11, limit=200)
    if err > max(tol, 1e-8 * (1.0 + abs(val))):
        raise QuadratureNoConvergence(
            f"outer quadrature error estimate {err} above tolerance {tol}"
        )
    return val, err


@lru_cache(maxsize=4096)
def _pair1d(atom: Atom1D, g: GaussPoly, tol: float) -> tuple[float, float]:
    """Pair one atom against a 1-D GaussPoly; returns (value, error estimate).

    Cached on all three arguments, so a value is only reused at the
    tolerance it was computed for.
    """
    if isinstance(atom, Delta):
        d = g
        for _ in range(atom.k):
            d = d.derivative(1)
        v = d.value((0.0,))
        sign = -1.0 if atom.k % 2 else 1.0
        return sign * v, 1e-15 * abs(v) + 1e-300
    if atom.s == -1:
        g = g.reflected()
    inner = _inner_series(atom.n, atom.p, g)
    outer, err = _outer_quad(atom.n, atom.p, g, tol)
    val = inner + outer
    return val, err + 1e-15 * (abs(inner) + abs(outer))


def pair(e: DistExpr, phi: GaussPoly, tol: float = 1e-9) -> float:
    """Numerical estimate of <e, phi> under the fixed finite-part convention.

    Tensor terms pair coordinate-by-coordinate against the 1-D slices of
    each monomial of phi; the absolute error target is tol.
    """
    if e.dim != phi.dim:
        raise DimensionError(f"expression dim {e.dim} vs test function dim {phi.dim}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if e.dim == 0:
        return float(sum(t.coeff for t in e.terms)) * phi.value(())
    part_tol = tol * 1e-2
    total = 0.0
    total_err = 0.0
    for t in e.terms:
        for alpha, pc in phi.poly.sorted_terms():
            val = float(t.coeff * pc)
            err = 0.0
            for j, atom in enumerate(t.factors):
                slice_g = GaussPoly(
                    Polynomial(1, {(alpha[j],): Fraction(1)}),
                    (phi.center[j],),
                    phi.width,
                )
                v, er = _pair1d(atom, slice_g, part_tol)
                err = err * abs(v) + abs(val) * er
                val *= v
            total += val
            total_err += err
    if total_err > max(tol, tol * abs(total)):
        raise QuadratureNoConvergence(
            f"accumulated pairing error estimate {total_err} above tolerance {tol}"
        )
    return total


def derivative_of_x_phi(phi: GaussPoly, j: int = 1) -> GaussPoly:
    """The exact symbolic result of d/dx_j (x_j * phi)."""
    return phi.times_coord(j).derivative(j)


def adjoint_check(a: Atom1D, phi: GaussPoly, j: int = 1, tol: float = 1e-9) -> float:
    """|<theta_j a, phi> + <a, (x_j phi)'>| for a 1-D atom; certifies one rule."""
    if phi.dim != 1:
        raise DimensionError("adjoint_check works on 1-D atoms and test functions")
    lhs = 0.0
    for c, b in apply_theta(j, a):
        lhs += float(c) * pair(single((b,)), phi, tol)
    rhs = pair(single((a,)), derivative_of_x_phi(phi, 1), tol)
    return abs(lhs + rhs)


def _transpose_apply(P: Polynomial, phi: GaussPoly) -> GaussPoly:
    """P(theta)^t phi, exactly, with theta_j^t phi = -d/dx_j (x_j phi).

    The transposes commute, so each monomial of P is applied coordinate by
    coordinate.
    """
    if P.dim != phi.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs test function dim {phi.dim}")
    total = Polynomial.zero(P.dim)
    for alpha, c in P.sorted_terms():
        g = phi
        for j, a in enumerate(alpha, start=1):
            for _ in range(a):
                g = derivative_of_x_phi(g, j)
        total = total + g.poly.scale(-c if sum(alpha) % 2 else c)
    return phi.with_poly(total)


def compare_symbolic_numeric(
    P: Polynomial,
    U: DistExpr,
    T: DistExpr,
    suite: Iterable[GaussPoly],
    tol: float = 1e-6,
) -> float:
    """max over the suite of |<U, P(theta)^t phi> - <T, phi>|.

    The test function side is exact (P(theta)^t phi is again a GaussPoly),
    so the check never touches the symbolic theta-table: it catches an error
    in the table, in the solver and in the finite-part convention alike.
    """
    worst = 0.0
    for phi in suite:
        lhs = pair(U, _transpose_apply(P, phi), tol)
        worst = max(worst, abs(lhs - pair(T, phi, tol)))
    return worst
