"""Constructions and diagnostics of the paper that only the tests use.

No subcommand reaches these, so they live beside the tests rather than in
the package:

- the full-line monomial x^alpha, the split of a delta-supported expression
  along coordinate hyperplanes, and theta_j on a whole expression, the
  term-by-term reference that `theta.apply_polynomial` is tested against;
- the brute-force lattice scan that `wagner.choose_eta`'s depth-first
  search is tested against;
- the Y-space seminorm estimate, the exponential conjugation identity
  P(d)(f o Exp) = (P(theta) f) o Exp, and the Fourier-image strip check,
  with the unitary transform it samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

import numpy as np

from eulerdist.atoms import Delta, DistExpr, MonLog, delta_coord, dist
from eulerdist.errors import DimensionError, EulerDistError, UnsupportedInput
from eulerdist.gausspoly import GaussPoly
from eulerdist.poly import Polynomial, poly_eval, principal_part
from eulerdist.theta import apply_polynomial, apply_theta
from eulerdist.wagner import _gauss_ft_1d


class TermNotHyperplaneSupported(EulerDistError):
    """A term has no delta factor, so it is not supported on a coordinate hyperplane."""


def full_monomial(alpha: Sequence[int], d: int | None = None) -> DistExpr:
    """The full-line monomial x^alpha as a sum over half-line sign patterns:
    x^n = MonLog(n,0,+1) + (-1)^n MonLog(n,0,-1) in every coordinate."""
    alpha = tuple(int(a) for a in alpha)
    if d is None:
        d = len(alpha)
    if len(alpha) != d or any(a < 0 for a in alpha):
        raise DimensionError(f"bad monomial multi-index {alpha} for dim {d}")
    terms = []
    for signs in product((1, -1), repeat=d):
        factors = tuple(MonLog(n, 0, s) for n, s in zip(alpha, signs))
        odd = sum(n for n, s in zip(alpha, signs) if s < 0) % 2
        terms.append((factors, Fraction(-1 if odd else 1)))
    return dist(d, terms)


def decompose_hyperplane(e: DistExpr) -> list[tuple[int, DistExpr]]:
    """Split a Z_0-supported expression into per-hyperplane parts.

    Each term is assigned to its smallest delta-bearing coordinate (1-based);
    parts sum exactly to the input.
    """
    buckets: dict[int, list] = {}
    for t in e.terms:
        j = delta_coord(t[0])
        if not j:
            raise TermNotHyperplaneSupported(
                f"term {t} has no delta factor; not supported on a hyperplane"
            )
        buckets.setdefault(j, []).append(t)
    return [(j, dist(e.dim, buckets[j])) for j in sorted(buckets)]


def apply_theta_expr(j: int, e: DistExpr) -> DistExpr:
    """theta_j applied to a whole expression, one term and atom at a time."""
    if not 1 <= j <= e.dim:
        raise DimensionError(f"coordinate {j} out of range 1..{e.dim}")
    terms = []
    for f, coeff in e.terms:
        for c, a in apply_theta(f[j - 1]):
            terms.append((f[: j - 1] + (a,) + f[j:], coeff * c))
    return dist(e.dim, terms)


# -- the Wagner direction eta, by brute force ------------------------------


def choose_eta_scan(P: Polynomial) -> tuple[int, ...]:
    """Smallest-|eta|_1 lattice vector with P_m(eta) != 0: every shell is
    enumerated over its bounding box and sorted in descending order."""
    Pm = principal_part(P)
    d = P.dim
    s = 0
    while True:
        s += 1
        shell = [
            eta
            for eta in product(range(-s, s + 1), repeat=d)
            if sum(abs(e) for e in eta) == s
        ]
        for eta in sorted(shell, reverse=True):
            if poly_eval(Pm, eta) != 0:
                return eta


# -- Y-space diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class SeminormSpec:
    """Derivative multi-index and exponential weight order for Y-seminorms."""

    alpha: tuple[int, ...]
    k: int


def _central(
    fun: Callable[[Sequence[float]], float],
    x: Sequence[float],
    alpha: tuple[int, ...],
    h: float,
) -> float:
    """Nested central difference of fun at x: derivative alpha, step h."""
    if not any(alpha):
        return fun(x)
    j = next(i for i, a in enumerate(alpha) if a)
    rest = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
    xp = list(x)
    xm = list(x)
    xp[j] += h
    xm[j] -= h
    return (_central(fun, xp, rest, h) - _central(fun, xm, rest, h)) / (2.0 * h)


def y_seminorm(
    f: GaussPoly | Callable[[Sequence[float]], float],
    spec: SeminormSpec,
    box: float = 8.0,
    n: int = 161,
    fd_step: float = 1e-3,
) -> float:
    """Grid lower estimate of sup_x |f^(alpha)(x)| e^{k |x|_1}.

    GaussPoly inputs are differentiated symbolically; bare callables use
    nested central finite differences with the given step.
    """
    alpha = spec.alpha
    d = len(alpha)
    if isinstance(f, GaussPoly):
        if f.dim != d:
            raise DimensionError(f"seminorm index dim {d} vs function dim {f.dim}")
        g = f
        for j, a in enumerate(alpha):
            for _ in range(a):
                g = g.derivative(j + 1)
        deriv = g.value
    else:
        deriv = lambda x: _central(f, x, tuple(alpha), fd_step)

    axis = np.linspace(-box, box, n)
    best = 0.0
    for point in product(axis, repeat=d):
        v = abs(deriv(tuple(point))) * math.exp(spec.k * sum(abs(p) for p in point))
        if v > best:
            best = v
    return best


# -- conjugation with the exponential substitution -------------------------


def _eval_quadrant(e: DistExpr, y: Sequence[float]) -> float:
    """Pointwise value of an expression on the open positive quadrant."""
    total = 0.0
    for factors, c in e.terms:
        v = float(c)
        for f, yj in zip(factors, y):
            if isinstance(f, Delta):
                v = 0.0
                break
            if f.s != 1 or f.n < 0:
                raise UnsupportedInput(
                    "quadrant evaluation needs MonLog(n >= 0, p, +1) factors"
                )
            v *= yj**f.n * math.log(yj) ** f.p
        total += v
    return total


def exp_conjugation_check(
    P: Polynomial,
    f: DistExpr,
    points: Sequence[Sequence[float]],
    step: float = 1e-4,
    richardson: bool = True,
) -> float:
    """Max residual of P(d)(f o Exp) = (P(theta) f) o Exp over the points.

    The right side is evaluated symbolically through the theta-calculus; the
    left side by nested central differences (one Richardson step by default).
    """
    if P.dim != f.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {f.dim}")
    d = P.dim
    theta_f = apply_polynomial(P, f)

    def f_exp(x: Sequence[float]) -> float:
        return _eval_quadrant(f, [math.exp(v) for v in x])

    def p_d(x: Sequence[float], h: float) -> float:
        total = 0.0
        for alpha, c in P.terms.items():
            total += float(c) * _central(f_exp, x, alpha, h)
        return total

    worst = 0.0
    for x in points:
        lhs = p_d(x, step)
        if richardson:
            lhs = (4.0 * p_d(x, step / 2.0) - lhs) / 3.0
        rhs = _eval_quadrant(theta_f, [math.exp(v) for v in x])
        worst = max(worst, abs(lhs - rhs))
    return worst


# -- Fourier-image strip diagnostics ---------------------------------------


def fourier_transform_values(phi: GaussPoly, z: np.ndarray) -> np.ndarray:
    """Closed-form unitary Fourier transform of a 1-D GaussPoly at complex z.

    Convention: (2 pi)^{-1/2} int phi(x) e^{-i z x} dx, entire in z.
    """
    if phi.dim != 1:
        raise DimensionError("strip evaluation is one-dimensional")
    gmax = max(phi.poly.degree, 0)
    coefficients = np.zeros(gmax + 1)
    for (g,), pc in phi.poly.terms.items():
        coefficients[g] = float(pc)
    F = _gauss_ft_1d(gmax, float(phi.center[0]), float(phi.width), -z)
    return F @ coefficients / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class StripReport:
    k: int
    strip_max: float
    boundary_maxima: tuple[float, ...]
    decaying: bool


def hy_strip_check(
    phi: GaussPoly,
    k: int,
    R: float = 12.0,
    nx: int = 241,
    ny: int = 9,
    boxes: Sequence[float] = (4.0, 6.0, 8.0, 10.0, 12.0),
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> StripReport:
    """Sample |z|^k |phi_hat(z)| on the strip |Im z| <= k.

    Reports the strip maximum and whether the boundary-of-box maxima decay
    monotonically outward (qualitative evidence of strip membership).  A
    custom `transform` callable may replace the closed-form transform, e.g.
    as a synthetic negative control.
    """
    ft = transform if transform is not None else (lambda z: fourier_transform_values(phi, z))
    xs = np.linspace(-R, R, nx)
    ys = np.linspace(-k, k, ny) if k > 0 else np.array([0.0])
    Z = xs[None, :] + 1j * ys[:, None]
    vals = np.abs(Z) ** k * np.abs(ft(Z))
    strip_max = float(np.max(vals))
    boundary = []
    for box in boxes:
        edge = np.concatenate(
            [np.full(ny, -box) + 1j * ys, np.full(ny, box) + 1j * ys]
        )
        boundary.append(float(np.max(np.abs(edge) ** k * np.abs(ft(edge)))))
    decaying = all(b2 <= b1 * (1.0 + 1e-12) for b1, b2 in zip(boundary, boundary[1:]))
    return StripReport(
        k=k,
        strip_max=strip_max,
        boundary_maxima=tuple(boundary),
        decaying=decaying,
    )
