"""Desk-scale fundamental-solution checks for constant-coefficient P(d/dx).

The elementary solution is assembled from exponentially twisted bounded
Fourier multipliers,

  E = (1 / P_m(2 eta)) sum_j a_j e^{lambda_j eta . x} Finv(conj(Pj)/Pj),
  Pj(xi) = P(i xi + lambda_j eta),

with P_m the principal part, P_m(eta) != 0, lambda_j = j + 1 and the
divided-difference coefficients in closed form,
a_j = 1 / prod_{k != j} (lambda_j - lambda_k) = (-1)^(m-j) / (j! (m-j)!),
which solve the Vandermonde system sum_j a_j lambda_j^i = [i = m].  The
transform pair is the non-unitary one (F f = int f e^{-i xi x} dx,
Finv g = (2 pi)^{-d} int g e^{i x xi} d xi).

wagner-check pairs E against P(-d)phi for a Gaussian-polynomial phi.  With
beta = lambda_j eta, integration by parts gives
int e^{(beta + i xi).x} P(-d)phi dx = Pj(xi) int e^{(beta + i xi).x} phi dx,
so the quotient cancels node by node and the integrand is
P(beta - i xi) times the closed-form transform of e^{beta.x} phi.  Both
factors are sums of products of 1-D factors, so the trapezoid sum over the
xi-grid is, per monomial of P and term of phi, a product of d 1-D sums;
neither P(-d)phi nor any array over the N^d grid is formed.

What the check means: the reproducing identity <E, P(-d)phi> = phi(0)
holds exactly, since it reduces to
(1 / P_m(2 eta)) sum_j a_j (P(2 lambda_j eta + d)phi)(0), a polynomial in
lambda_j whose lambda^m coefficient is P_m(2 eta) phi(0) and whose other
powers the a_j cancel.  So the residual measures only the xi-quadrature:
truncation at the cutoff R, the node spacing and rounding.  The source
display has unbalanced parentheses and is read as the conjugate of Pj over
Pj.  Real coefficients only.  No subcommand runs the paper's other
diagnostics (Y-seminorms, the exponential conjugation identity, the
Fourier-image strip check); they live beside the tests, in
tests/paperchecks.py, with the grid pairing of E against a general chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError, FloatOverflow, InputTooLarge, ZeroPolynomial
from .gausspoly import GaussPoly
from .poly import Polynomial, poly_eval, principal_part, substitute_coord
# perfbench/tracer.py wraps wagner.apply_polynomial by name, so the import stays.
from .theta import apply_polynomial  # noqa: F401

# The most xi-grid nodes per axis pair_E allocates (32 MB per complex array).
MAX_GRID_POINTS = 2**21
# The most 1-D work pair_E does, (m + 1) * sum_k N * (distinct exponents of P
# on axis k) node-exponent pairs: about 0.4 s at 2^26.
MAX_PAIR_WORK = 2**26


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


def _finite(compute) -> float:
    """compute(), with any float overflow, invalid operation or non-finite
    result raised as FloatOverflow."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            value = compute()
        if math.isfinite(value):
            return value
    except (OverflowError, FloatingPointError) as exc:
        value = exc
    raise FloatOverflow(
        f"pairing leaves the float range ({value}) at this center, width and cutoff"
    )


def _power(z: np.ndarray, n: int) -> np.ndarray:
    """z**n for an integer n >= 1 by repeated squaring: numpy's complex power
    is ten times slower for most integer exponents, and slower still for high
    ones."""
    out = None
    while True:
        if n & 1:
            out = z if out is None else out * z
        n >>= 1
        if not n:
            return out
        z = z * z


def pair_E(
    P: Polynomial, params: WagnerParams, phi: GaussPoly, grid: tuple[int, float]
) -> float:
    """Numerical pairing <E, P(-d)phi> of the elementary solution.

    The xi-integral is a trapezoid rule on N points per axis over [-R, R]^d.
    A phi whose twisted Gaussian weights, or a cutoff whose powers, leave
    the float range raises FloatOverflow, as does any other non-finite
    value; more than MAX_GRID_POINTS nodes per axis, or more than
    MAX_PAIR_WORK work, raise InputTooLarge before any allocation.
    """
    if P.is_zero():
        raise ZeroPolynomial("pair_E requires a nonzero polynomial")
    if P.dim != phi.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs test function dim {phi.dim}")
    N = int(grid[0])
    if N > MAX_GRID_POINTS:
        raise InputTooLarge(f"{N} grid points per axis exceed {MAX_GRID_POINTS}")
    exponents = sum(len({gamma[k] for gamma in P.nums}) for k in range(P.dim))
    work = (params.m + 1) * N * exponents
    if work > MAX_PAIR_WORK:
        raise InputTooLarge(f"pairing work {work} exceeds {MAX_PAIR_WORK}")
    return _finite(lambda: _pair_on_axes(P, params, phi, N, float(grid[1])))


def _pair_on_axes(
    P: Polynomial, params: WagnerParams, phi: GaussPoly, N: int, R: float
) -> float:
    """The trapezoid sum of pair_E, one axis at a time.

    Per lambda_j and axis k, F_k[g, xi] transforms x^g e^{beta_k x}
    e^{-(x-c_k)^2/w^2} with the trapezoid weights folded in, and
    M_k[a][g] = sum_xi (beta_k - i xi)^a F_k[g, xi] for the exponents a
    that occur on axis k in P.  The xi-sum is then
    sum over (gamma, c) in P and (alpha, p) in phi of
    c p prod_k M_k[gamma_k][alpha_k].
    """
    d = P.dim
    w = float(phi.width)
    # A float power raises OverflowError where w * w would give inf.
    w2 = w**2
    h = 2.0 * R / (N - 1)
    xi = -R + np.arange(N) * h
    weights = np.full(N, h)
    weights[0] = weights[-1] = 0.5 * h
    sym = [(gamma, float(c)) for gamma, c in P.terms.items()]
    test = [(alpha, float(c)) for alpha, c in phi.poly.terms.items()]
    top = [max((alpha[k] for alpha, _ in test), default=0) for k in range(d)]
    powers = [sorted({gamma[k] for gamma, _ in sym}) for k in range(d)]
    total = 0.0
    # Largest lambda first: its powers of beta - i xi are the largest, so a
    # pairing that leaves the float range does so in the first pass.
    for lam, a in zip(reversed(params.lam), reversed(params.a)):
        beta = [float(lam) * e for e in params.eta]
        M = []
        for k in range(d):
            ck = float(phi.center[k])
            mu = ck + beta[k] * w2 / 2.0
            const = math.exp(beta[k] * ck + beta[k] * beta[k] * w2 / 4.0)
            # One row per power g, so each row sum below runs over contiguous xi.
            F = np.ascontiguousarray(_gauss_ft_1d(top[k], mu, w, xi).T)
            F *= const * weights
            z = beta[k] - 1j * xi
            # Each occurring power from the one before, not z**p afresh.
            zp, prev, Mk = np.ones(N), 0, {}
            for p in powers[k]:
                if p > prev:
                    zp, prev = zp * _power(z, p - prev), p
                # einsum sums in a fixed order; a matrix product may go to a
                # BLAS whose result depends on its thread count.
                Mk[p] = np.einsum("gn,n->g", F, zp).tolist()
            M.append(Mk)
        s = sum(
            c * pc * math.prod(M[k][gamma[k]][alpha[k]] for k in range(d))
            for gamma, c in sym
            for alpha, pc in test
        )
        total += float(a) * s.real
        if not math.isfinite(total):
            break  # no later pass can make it finite; _finite reports it
    return total / ((2.0 * math.pi) ** d * float(params.normalizer))


def me_check(
    P: Polynomial, params: WagnerParams, phi: GaussPoly, grid: tuple[int, float]
) -> float:
    """Residual |<E, P(-d)phi> - phi(0)|; params is for_polynomial(P)."""
    # Called through the module global, where a tracer can wrap it.
    value = pair_E(P, params, phi, grid)
    return _finite(lambda: abs(value - phi.value((0.0,) * phi.dim)))
