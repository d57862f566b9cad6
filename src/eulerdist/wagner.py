"""Desk-scale fundamental-solution checks for constant-coefficient P(d/dx).

The elementary solution is assembled from exponentially twisted bounded
Fourier multipliers,

  E = (1 / P_m(2 eta)) sum_j a_j e^{lambda_j eta . x} Finv(conj(Pj)/Pj),
  Pj(xi) = P(i xi + lambda_j eta),

with P_m the principal part, P_m(eta) != 0, lambda_j = j + 1 and the
divided-difference coefficients in closed form,
a_j = 1 / prod_{k != j} (lambda_j - lambda_k) = (-1)^(m-j) / (j! (m-j)!),
which solve the Vandermonde system sum_j a_j lambda_j^i = [i = m].
Pairings <E, chi> move the inverse Fourier transform onto the GaussPoly
side in closed form, so only absolutely convergent integrals of a
modulus-1 multiplier against a Gaussian-decaying function are ever
computed.  That side is a sum of products of 1-D transforms, so the
xi-sum contracts the symbol, the one array on the full grid, one axis at
a time.  The transform pair here is the non-unitary one
(F f = int f e^{-i xi x} dx, Finv g = (2 pi)^{-d} int g e^{i x xi} d xi).

The multiplier formula is validated only through the reproducing property
|<E, P(-d)phi> - phi(0)| (the source display has unbalanced parentheses and
is read as the conjugate of Pj over Pj).  Real coefficients only.  No
subcommand runs the paper's other diagnostics (Y-seminorms, the
exponential conjugation identity, the Fourier-image strip check); they live
beside the tests, in tests/paperchecks.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np

from .errors import (
    DimensionError,
    FloatOverflow,
    InputTooLarge,
    PoleOnGrid,
    QuadratureNoConvergence,
    ZeroPolynomial,
)
from .gausspoly import GaussPoly, apply_transposed
from .poly import Polynomial, poly_eval, principal_part, substitute_coord
# perfbench/tracer.py wraps wagner.apply_polynomial by name, so the import stays.
from .theta import apply_polynomial  # noqa: F401

_POLE_EPS = 1e-12
# The most xi-grid points pair_E allocates (32 MB per complex array).
MAX_GRID_POINTS = 2**21


# -- parameter selection --------------------------------------------------


def choose_eta(P: Polynomial) -> tuple[int, ...]:
    """Smallest-|eta|_1 lattice vector with P_m(eta) != 0; within a shell the
    first in descending lexicographic order."""
    if P.is_zero():
        raise ZeroPolynomial("choose_eta requires a nonzero polynomial")
    Pm = principal_part(P)
    # In dimension 0 every shell is empty, so the scan would never end.
    if P.dim < 1:
        raise DimensionError(f"dimension must be positive, got {P.dim}")
    s = 0
    while True:
        s += 1
        eta = _first_in_shell(Pm, s)
        if eta is not None:
            return eta


def _first_in_shell(Q: Polynomial, s: int) -> tuple[int, ...] | None:
    """The descending-lex first eta with |eta|_1 = s and Q(eta) != 0, or None.

    Depth first: each chosen coordinate is substituted into Q, and a branch
    whose partial polynomial is identically zero is cut, instead of listing
    the (2s+1)^d points of the shell's bounding box.
    """
    if Q.is_zero():
        return None
    if Q.dim == 0:
        return () if s == 0 else None
    for v in range(s, -s - 1, -1):
        rest = _first_in_shell(substitute_coord(Q, 1, v), s - abs(v))
        if rest is not None:
            return (v,) + rest
    return None


def wagner_coefficients(m: int) -> tuple[Fraction, ...]:
    """Divided-difference coefficients for lambda_j = j + 1, j = 0..m:
    a_j = (-1)^(m-j) / (j! (m-j)!), the exact solution of
    sum_j a_j lambda_j^i = [i = m] for 0 <= i <= m."""
    return tuple(
        Fraction((-1) ** (m - j), math.factorial(j) * math.factorial(m - j))
        for j in range(m + 1)
    )


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
        a = wagner_coefficients(m)
        two_eta = tuple(2 * e for e in eta)
        # Nonzero: P_m(2 eta) = 2^m P_m(eta), and choose_eta has P_m(eta) != 0.
        normalizer = poly_eval(principal_part(P), two_eta)
        return cls(m=m, eta=eta, lam=lam, a=a, normalizer=normalizer)


# -- closed-form Fourier transforms of Gaussian-polynomial slices ---------


def _gauss_ft_1d(gmax: int, mu: float, w: float, xi: np.ndarray) -> np.ndarray:
    """int x^g e^{-(x-mu)^2/w^2} e^{i xi x} dx on a grid, for every g <= gmax
    along a trailing axis.

    Integrating x^g (x-mu) e^{-(x-mu)^2/w^2} by parts gives the recurrence
    T_{g+1} = (mu + i xi w^2/2) T_g + (g w^2/2) T_{g-1}, started from the
    base transform T_0 = w sqrt(pi) e^{-w^2 xi^2/4} e^{i mu xi}.
    """
    step = mu + 0.5j * w * w * xi
    T = [w * math.sqrt(math.pi) * np.exp(-(w * w) * xi * xi / 4.0 + 1j * mu * xi)]
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
            Fk = _gauss_ft_1d(top[k], mu, w, axes[k])
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
