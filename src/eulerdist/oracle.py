"""Independent numerical pairings of atoms against Gaussian-polynomial tests.

Finite-part convention (the one every symbolic correction refers to): for
n <= -1, nu = -n, the right half-line atom pairs as

  <MonLog(n,p,+1), phi> = int_0^1 x^n log^p x [phi(x) - T_{nu-1}phi(x)] dx
                        + int_1^inf x^n log^p x phi(x) dx

with T_{nu-1} the Taylor polynomial of phi at 0 of order nu-1; the split
point is fixed at |x| = 1.  Left half-line atoms pair through the
reflection x -> -x.  Atoms with n >= 0 pair by absolutely convergent
integrals, and Delta(k) pairs as (-1)^k phi^(k)(0).

Numerically, every 1-D slice pairing reduces to one cached moment
(_moment): the finite part of int_0^inf x^m log^p x e^{-(x-c)^2/w^2} dx.  The
inner interval [0, 1] is a convergent power series (the Taylor coefficients
of the Gaussian are an explicit two-term recurrence, and int_0^1 x^m log^p x
dx = (-1)^p p! / (m+1)^{p+1}); the outer interval is a fixed Gauss-Legendre
rule on panels [x, x + min(x, w)] up to a Gaussian-decay cutoff, run at two
node counts whose difference is the error estimate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp, factorial, fsum
from typing import Iterable

import numpy as np

from .atoms import Atom1D, Delta, DistExpr, single
from .errors import DimensionError, QuadratureNoConvergence
from .gausspoly import GaussPoly, apply_transposed
from .poly import Polynomial
# perfbench/tracer.py wraps oracle.apply_polynomial by name, so the import stays.
from .theta import apply_polynomial, apply_theta  # noqa: F401

_SERIES_CAP = 800
# Gauss-Legendre nodes and weights on [-1, 1]: the rule and its half.
_RULES = [np.polynomial.legendre.leggauss(n) for n in (32, 16)]


@lru_cache(maxsize=1024)
def _taylor(c: Fraction, w: Fraction) -> np.ndarray:
    """First _SERIES_CAP Taylor coefficients at 0 of e^{-(x-c)^2/w^2}."""
    a, b = float(2 * c / w**2), float(1 / w**2)
    # e^{a x - b x^2}: (k+1) f_{k+1} = a f_k - 2 b f_{k-1}
    f = [1.0, a]
    for k in range(1, _SERIES_CAP - 1):
        f.append((a * f[k] - 2.0 * b * f[k - 1]) / (k + 1))
    table = exp(-float(c * c / w**2)) * np.array(f)
    table.flags.writeable = False  # the cache hands this array to every caller
    return table


def quad(m: int, p: int, c: float, w: float) -> tuple[float, float]:
    """int_1^cutoff x^m log^p x e^{-(x-c)^2/w^2} dx and an error estimate.

    Panel i is [x_i, x_i + min(x_i, w)], so both the pole or log at 0 and
    the Gaussian's width stay resolved; the estimate is the difference
    between the 32- and 16-node rules.
    """
    cutoff = max(2.0, c + 7.0 * w, 1.0 + 7.0 * w)
    edges = [1.0]
    while edges[-1] < cutoff:
        edges.append(min(cutoff, edges[-1] + min(edges[-1], w)))
    lo = np.array(edges[:-1])
    half = (np.array(edges[1:]) - lo) / 2
    values = []
    for t, wt in _RULES:
        x = (lo + half)[:, None] + half[:, None] * t
        fx = x**m * np.log(x) ** p * np.exp(-(((x - c) / w) ** 2))
        values.append(float(half @ (fx @ wt)))
    fine, coarse = values
    return fine, abs(fine - coarse)


@lru_cache(maxsize=4096)
def _moment(m: int, p: int, c: Fraction, w: Fraction) -> tuple[float, float]:
    """Finite part of int_0^inf x^m log^p x e^{-(x-c)^2/w^2} dx, and its
    error estimate.  On [0, 1]: sum_{i >= -m} f_i int_0^1 x^(m+i) log^p x dx."""
    i = np.arange(max(0, -m), _SERIES_CAP)
    series = _taylor(c, w)[i] * ((-1) ** p * factorial(p) / (m + i + 1.0) ** (p + 1))
    inner = fsum(series)
    if i.size < 10 or not np.abs(series[-8:]).max() <= 1e-18 * max(1.0, abs(inner)):
        raise QuadratureNoConvergence(
            f"inner series for x^{m} log^{p} did not settle within {_SERIES_CAP} terms"
        )
    outer, err = quad(m, p, float(c), float(w))
    return inner + outer, err + 1e-15 * (abs(inner) + abs(outer))


def _pair1d(atom: Atom1D, a: int, c: Fraction, w: Fraction) -> tuple[float, float]:
    """Pair one atom against x^a e^{-(x-c)^2/w^2}; returns (value, error)."""
    if isinstance(atom, Delta):
        # (-1)^k d^k/dx^k [x^a g](0) = (-1)^k k! f_{k-a}
        if atom.k < a:
            return 0.0, 0.0
        v = (-1) ** atom.k * factorial(atom.k) * float(_taylor(c, w)[atom.k - a])
        return v, 1e-15 * abs(v)
    if atom.s == 1:
        return _moment(atom.n + a, atom.p, c, w)
    # Through the reflection x -> -x: x^a g(-x) = (-1)^a x^a e^{-(x+c)^2/w^2}.
    v, err = _moment(atom.n + a, atom.p, -c, w)
    return (-v if a % 2 else v), err


def pair(e: DistExpr, phi: GaussPoly, tol: float = 1e-9) -> float:
    """Numerical estimate of <e, phi> under the fixed finite-part convention.

    Tensor terms pair coordinate-by-coordinate against the 1-D slices of
    each monomial of phi; the accumulated absolute error target is tol.
    """
    if e.dim != phi.dim:
        raise DimensionError(f"expression dim {e.dim} vs test function dim {phi.dim}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    total = 0.0
    total_err = 0.0
    for t in e.terms:
        for alpha, pc in phi.poly.sorted_terms():
            val = float(t.coeff * pc)
            err = 0.0
            for atom, a, c in zip(t.factors, alpha, phi.center):
                v, er = _pair1d(atom, a, c, phi.width)
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


def adjoint_check(a: Atom1D, phi: GaussPoly) -> float:
    """|<theta a, phi> + <a, (x phi)'>| for a 1-D atom; certifies one rule."""
    if phi.dim != 1:
        raise DimensionError("adjoint_check works on 1-D atoms and test functions")
    lhs = 0.0
    for c, b in apply_theta(a):
        lhs += float(c) * pair(single((b,)), phi)
    rhs = pair(single((a,)), derivative_of_x_phi(phi))
    return abs(lhs + rhs)


def compare_symbolic_numeric(
    P: Polynomial,
    U: DistExpr,
    T: DistExpr,
    suite: Iterable[GaussPoly],
    tol: float = 1e-6,
) -> float:
    """max over the suite of |<U, P(theta)^t phi> - <T, phi>|.

    The test function side is exact (P(theta)^t phi is again a GaussPoly,
    with theta_j^t phi = -d/dx_j (x_j phi)), so the check never touches the
    symbolic theta-table: it catches an error in the table, in the solver and
    in the finite-part convention alike.
    """
    worst = 0.0
    for phi in suite:
        lhs = pair(U, apply_transposed(P, phi, derivative_of_x_phi), tol)
        worst = max(worst, abs(lhs - pair(T, phi, tol)))
    return worst
