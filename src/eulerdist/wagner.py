"""Desk-scale fundamental-solution checks for constant-coefficient P(d/dx).

The elementary solution is assembled from exponentially twisted bounded
Fourier multipliers,

  E = (1 / P_m(2 eta)) sum_j a_j e^{lambda_j eta . x} Finv(conj(Pj)/Pj),
  Pj(xi) = P(i xi + lambda_j eta),

with P_m the principal part, P_m(eta) != 0, pairwise distinct lambda_j >= 1
and divided-difference coefficients a_j normalized by the Vandermonde system
sum_j a_j lambda_j^i = [i = m].  Pairings <E, chi> move the inverse Fourier
transform onto the GaussPoly side in closed form, so only absolutely
convergent integrals of a modulus-1 multiplier against a Gaussian-decaying
function are ever computed.  That side is a sum of products of 1-D
transforms, so the xi-sum contracts the symbol, the one array on the full
grid, one axis at a time.  The transform pair here is the non-unitary one
(F f = int f e^{-i xi x} dx, Finv g = (2 pi)^{-d} int g e^{i x xi} d xi);
the strip membership check uses the unitary convention instead.

The multiplier formula is validated only through the reproducing property
|<E, P(-d)phi> - phi(0)| (the source display has unbalanced parentheses and
is read as the conjugate of Pj over Pj).  Real coefficients only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from typing import Callable, Sequence

import numpy as np

from .atoms import Delta, DistExpr, MonLog
from .errors import (
    DimensionError,
    DuplicateLambda,
    FloatOverflow,
    InputTooLarge,
    PoleOnGrid,
    QuadratureNoConvergence,
    UnsupportedInput,
    ZeroPolynomial,
)
from .gausspoly import GaussPoly, apply_transposed
from .poly import Polynomial, poly_eval, principal_part
from .theta import apply_polynomial

_POLE_EPS = 1e-12
# The most xi-grid points pair_E allocates (32 MB per complex array).
MAX_GRID_POINTS = 2**21


# -- parameter selection --------------------------------------------------


def choose_eta(P: Polynomial) -> tuple[int, ...]:
    """Smallest-|eta|_1 lattice vector with P_m(eta) != 0, deterministic scan."""
    if P.is_zero():
        raise ZeroPolynomial("choose_eta requires a nonzero polynomial")
    Pm = principal_part(P)
    d = P.dim
    # In dimension 0 every shell is empty, so the scan would never end.
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
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


def wagner_coefficients(m: int, lam: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Divided-difference coefficients: the unique exact solution of
    sum_j a_j lam_j^i = [i = m] for 0 <= i <= m."""
    lam = tuple(Fraction(v) for v in lam)
    if len(lam) != m + 1:
        raise DimensionError(f"need {m + 1} shift parameters, got {len(lam)}")
    if len(set(lam)) != len(lam):
        raise DuplicateLambda(f"shift parameters must be pairwise distinct: {lam}")
    a_prod = []
    for j, lj in enumerate(lam):
        denom = Fraction(1)
        for k, lk in enumerate(lam):
            if k != j:
                denom *= lj - lk
        a_prod.append(Fraction(1) / denom)
    for i in range(m + 1):
        total = sum(a * l**i for a, l in zip(a_prod, lam))
        expected = Fraction(1 if i == m else 0)
        if total != expected:
            raise DuplicateLambda(f"Vandermonde normalization failed for {lam}")
    return tuple(a_prod)


@dataclass(frozen=True)
class WagnerParams:
    m: int
    eta: tuple[int, ...]
    lam: tuple[Fraction, ...]
    a: tuple[Fraction, ...]
    normalizer: Fraction

    @classmethod
    def for_polynomial(cls, P: Polynomial) -> "WagnerParams":
        if P.is_zero():
            raise ZeroPolynomial("Wagner construction requires a nonzero polynomial")
        m = P.degree
        eta = choose_eta(P)
        lam = tuple(Fraction(j + 1) for j in range(m + 1))
        a = wagner_coefficients(m, lam)
        two_eta = tuple(2 * e for e in eta)
        # Nonzero: P_m(2 eta) = 2^m P_m(eta), and choose_eta has P_m(eta) != 0.
        normalizer = poly_eval(principal_part(P), two_eta)
        return cls(m=m, eta=eta, lam=lam, a=a, normalizer=normalizer)


@dataclass(frozen=True)
class SeminormSpec:
    """Derivative multi-index and exponential weight order for Y-seminorms."""

    alpha: tuple[int, ...]
    k: int


# -- closed-form Fourier transforms of Gaussian-polynomial slices ---------


def _gauss_ft_1d(
    gmax: int, mu: float, w: float, xi: np.ndarray, s: float
) -> np.ndarray:
    """int x^g e^{-(x-mu)^2/w^2} e^{i s xi x} dx (s = +-1) on a grid, for
    every g <= gmax along a trailing axis.

    Integrating x^g (x-mu) e^{-(x-mu)^2/w^2} by parts gives the recurrence
    T_{g+1} = (mu + i s xi w^2/2) T_g + (g w^2/2) T_{g-1}, started from the
    base transform T_0 = w sqrt(pi) e^{-w^2 xi^2/4} e^{i s mu xi}.
    """
    step = mu + 0.5j * s * w * w * xi
    T = [w * math.sqrt(math.pi) * np.exp(-(w * w) * xi * xi / 4.0 + 1j * s * mu * xi)]
    for g in range(gmax):
        T.append(step * T[g] + (g * w * w / 2.0) * (T[g - 1] if g else 0.0))
    return np.stack(T, axis=-1)


def _eval_poly_complex(P: Polynomial, coords: list[np.ndarray]) -> np.ndarray:
    """Evaluate P on broadcastable complex coordinate arrays."""
    out = np.zeros(np.broadcast_shapes(*(c.shape for c in coords)), dtype=complex)
    for alpha, c in P.terms.items():
        term = complex(c)
        for z, a in zip(coords, alpha):
            if a:
                term = term * z**a
        out += term
    return out


def pair_E(
    P: Polynomial, params: WagnerParams, chi: GaussPoly, grid: tuple[int, float]
) -> float:
    """Numerical pairing <E, chi> of the elementary solution against chi.

    The xi-integral is a trapezoid rule on N points per axis over [-R, R]^d;
    a grid node falling on a zero of the symbol triggers one deterministic
    half-cell shift before raising PoleOnGrid.  A chi whose twisted Gaussian
    weights, or a cutoff whose grid values, leave the float range raises
    FloatOverflow, and a grid of more than MAX_GRID_POINTS nodes raises
    InputTooLarge before any allocation.
    """
    if P.is_zero():
        raise ZeroPolynomial("pair_E requires a nonzero polynomial")
    if P.dim != chi.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs test function dim {chi.dim}")
    if int(grid[0]) ** P.dim > MAX_GRID_POINTS:
        raise InputTooLarge(
            f"{int(grid[0])}^{P.dim} grid points exceed the budget of {MAX_GRID_POINTS}"
        )
    try:
        with np.errstate(over="raise"):
            try:
                return _pair_E_on_grid(P, params, chi, grid, 0.0)
            except PoleOnGrid:
                return _pair_E_on_grid(P, params, chi, grid, 0.5)
    except (OverflowError, FloatingPointError) as exc:
        raise FloatOverflow(
            f"pairing leaves the float range ({exc}) at this center, width and cutoff"
        ) from None


def _pair_E_on_grid(
    P: Polynomial, params: WagnerParams, chi: GaussPoly, grid: tuple, offset: float
) -> float:
    """One trapezoid pass of pair_E, with the nodes shifted by offset cells.

    Only the symbol G_j lives on the full grid.  The rest of the integrand,
    e^{beta.x} chi with beta = lambda_j eta, is a sum of products of 1-D
    factors: F_k[xi, a] transforms x^a e^{beta_k x} e^{-(x-c_k)^2/w^2}, with
    the trapezoid weights and cell width folded in, and _contract sums them.
    """
    d = P.dim
    N, R = int(grid[0]), float(grid[1])
    w = float(chi.width)
    # A float power raises OverflowError where w * w would give inf.
    w2 = w**2
    h = 2.0 * R / (N - 1)
    axes = [(-R + (np.arange(N) + offset) * h) for _ in range(d)]
    weights = np.full(N, h)
    weights[0] = weights[-1] = 0.5 * h
    terms = sorted((alpha, float(pc)) for alpha, pc in chi.poly.terms.items())
    top = [max((alpha[k] for alpha, _ in terms), default=0) for k in range(d)]
    total = 0.0
    for j in range(params.m + 1):
        lam = float(params.lam[j])
        beta = [lam * e for e in params.eta]
        coords = [
            (1j * ax + beta[k]).reshape((1,) * k + (N,) + (1,) * (d - k - 1))
            for k, ax in enumerate(axes)
        ]
        # Pj on the grid, then G_j = conj(Pj)/Pj in the same array.
        G = _eval_poly_complex(P, coords)
        if np.min(np.abs(G)) < _POLE_EPS:
            raise PoleOnGrid(
                f"symbol magnitude below {_POLE_EPS} on the grid (lambda={lam})"
            )
        np.divide(np.conj(G), G, out=G)
        if not float(np.max(np.abs(np.abs(G) - 1.0))) <= 1e-12:
            raise QuadratureNoConvergence(
                f"symbol ratio is not unimodular on the grid (lambda={lam})"
            )
        F = []
        for k in range(d):
            ck = float(chi.center[k])
            mu = ck + beta[k] * w2 / 2.0
            const = math.exp(beta[k] * ck + beta[k] * beta[k] * w2 / 4.0)
            Fk = _gauss_ft_1d(top[k], mu, w, axes[k], +1.0)
            F.append(Fk * (const * weights)[:, None])
        total += float(params.a[j]) * _contract(G, terms, F).real
    return total / ((2.0 * math.pi) ** d * float(params.normalizer))


def _contract(M: np.ndarray, terms: list, F: list[np.ndarray]) -> complex:
    """Sum over the sorted terms (alpha, c) of c times M (N^len(F) values)
    contracted with F[0][:, alpha_0], F[1][:, alpha_1], ...  Depth first, one
    power at a time, so the arrays alive below M hold fewer values than M."""
    N = len(F[0])
    total = 0j
    for a, group in groupby(terms, lambda t: t[0][0]):
        row = F[0][:, a] @ M.reshape(N, -1)
        sub = [(alpha[1:], c) for alpha, c in group]
        total += _contract(row, sub, F[1:]) if F[1:] else sub[0][1] * row[0]
    return total


def me_check(
    P: Polynomial, params: WagnerParams, phi: GaussPoly, grid: tuple[int, float]
) -> float:
    """Residual |<E, P(-d)phi> - phi(0)|; params is for_polynomial(P)."""
    chi = apply_transposed(P, phi, GaussPoly.derivative)
    value = pair_E(P, params, chi, grid)
    return abs(value - phi.value((0.0,) * phi.dim))


# -- Y-space diagnostics ---------------------------------------------------


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
    F = _gauss_ft_1d(gmax, float(phi.center[0]), float(phi.width), z, -1.0)
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
