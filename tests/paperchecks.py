"""Constructions and diagnostics of the paper that only the tests use.

No subcommand reaches these, so they live beside the tests rather than in
the package:

- the full-line monomial x^alpha, the split of a delta-supported expression
  along coordinate hyperplanes, theta on one atom in the plain basis, and
  theta_j on a whole expression, the term-by-term reference that
  `theta.apply_polynomial` is tested against;
- an expression in half-line atoms only, where its form is unique, and the
  canonical rule written out on it: the references that the reader and
  `atoms.dist` are tested against;
- the polynomial reader that builds a Polynomial for every number, t<j>,
  power and product, the reference `grammar.parse_poly` is tested against;
- the brute-force lattice scan that `wagner.choose_eta`'s depth-first
  search is tested against;
- the pairing of Wagner's elementary solution against a general chi on the
  full xi-grid, with the symbol quotient conj(Pj)/Pj at every node, the
  reference that `wagner.pair_E` is tested against;
- the Y-space seminorm estimate, the exponential conjugation identity
  P(d)(f o Exp) = (P(theta) f) o Exp, and the Fourier-image strip check,
  with the unitary transform it samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from typing import Callable, Iterable, Sequence

import numpy as np

from eulerdist.atoms import Atom1D, Delta, DistExpr, MonLog, Term, delta_coord, dist
from eulerdist.errors import (
    DimensionError,
    EulerDistError,
    ParseError,
    UnsupportedInput,
)
from eulerdist.gausspoly import GaussPoly
from eulerdist.grammar import (
    _check_dim,
    _check_nesting,
    _check_size,
    _check_terms,
    _coeff_bits,
    _rational,
    _Tokens,
)
from eulerdist.limits import MAX_DIM
from eulerdist.poly import Polynomial, RationalLike, poly_eval, poly_sum, principal_part
from eulerdist.theta import _scale, apply_polynomial, theta_row
from eulerdist.wagner import WagnerParams, _gauss_ft_1d


class TermNotHyperplaneSupported(EulerDistError):
    """A term has no delta factor, so it is not supported on a coordinate hyperplane."""


class SymbolZeroOnGrid(EulerDistError):
    """A node of the reference xi-grid falls on a zero of the symbol Pj."""


def single(atoms: Sequence[Atom1D], coeff: RationalLike = 1) -> DistExpr:
    """Expression with one tensor term; already canonical."""
    c = Fraction(coeff)
    return DistExpr(len(atoms), ((tuple(atoms), c),) if c else ())


def full_monomial(alpha: Sequence[int], d: int | None = None) -> DistExpr:
    """The full-line monomial x^alpha, built as a sum over half-line sign
    patterns, x^n = MonLog(n,0,+1) + (-1)^n MonLog(n,0,-1) in every
    coordinate, which dist compresses to one term of full-line atoms."""
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


def half_line_form(terms: Iterable[Term]) -> dict:
    """The merged, zero-free coefficients of terms with every full-line atom
    written as MonLog(n,p,+1) + (-1)^n MonLog(n,p,-1): the form in which
    the atoms are independent, so two expressions are equal exactly where
    these maps are."""
    out: dict = {}
    for f, c in terms:
        rows = [((), Fraction(c))]
        for a in f:
            if isinstance(a, MonLog) and a.s == 0:
                odd = a.n % 2
                rows = [(g + (MonLog(a.n, a.p, 1),), x) for g, x in rows] + [
                    (g + (MonLog(a.n, a.p, -1),), -x if odd else x) for g, x in rows
                ]
            else:
                rows = [(g + (a,), x) for g, x in rows]
        for g, x in rows:
            out[g] = out.get(g, 0) + x
    return {g: x for g, x in out.items() if x}


def compressed_form(dim: int, half: dict) -> dict:
    """The canonical rule on a half-line form: for j = 1..dim in turn, each
    pair of terms that differ only at coordinate j, by c MonLog(n,p,+1) and
    (-1)^n c MonLog(n,p,-1), becomes c MonLog(n,p,0)."""
    out = dict(half)
    for j in range(dim):
        for g, x in list(out.items()):
            a = g[j]
            if g not in out or not isinstance(a, MonLog) or a.s != 1:
                continue
            left = g[:j] + (MonLog(a.n, a.p, -1),) + g[j + 1 :]
            if out.get(left) == (-x if a.n % 2 else x):
                del out[g], out[left]
                out[g[:j] + (MonLog(a.n, a.p, 0),) + g[j + 1 :]] = x
    return out


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


def apply_theta(a: Atom1D) -> list[tuple[Fraction, Atom1D]]:
    """Exact action of theta on one atom: theta_row back in the plain basis,
    where the entry x of a -> b is x w(a)/w(b)."""
    return [(Fraction(x * _scale(a), _scale(b)), b) for x, b in theta_row(a)]


def apply_theta_expr(j: int, e: DistExpr) -> DistExpr:
    """theta_j applied to a whole expression, one term and atom at a time."""
    if not 1 <= j <= e.dim:
        raise DimensionError(f"coordinate {j} out of range 1..{e.dim}")
    terms = []
    for f, coeff in e.terms:
        for c, a in apply_theta(f[j - 1]):
            terms.append((f[: j - 1] + (a,) + f[j:], coeff * c))
    return dist(e.dim, terms)


# -- the polynomial reader, one Polynomial per atom --------------------------


def _atom_by_atoms(tk: _Tokens, i: int, dim: int) -> tuple[Polynomial, int]:
    t = tk.toks[i]
    if t == "(":
        p, i = _sum_by_atoms(tk, i + 1, dim)
        return p, tk.expect(i, ")")
    if t[:1].isdigit():
        num, den, i = _rational(tk, i)
        return Polynomial.constant(dim, Fraction(num, den)), i
    if t[:1].isalpha():
        if not (t[0] == "t" and t[1:].isdigit()):
            raise tk.fail(i, "a t<j> variable")
        j = int(t[1:])
        if not 1 <= j <= MAX_DIM:
            raise ParseError(
                f"variable index out of range 1..{MAX_DIM}: {t}", tk.offset(i)
            )
        if j > dim:
            raise DimensionError(f"variable t{j} exceeds dimension {dim}")
        return Polynomial.variable(dim, j), i + 1
    raise tk.fail(i, "a number, variable, or '('")


def _power_by_atoms(tk: _Tokens, i: int, dim: int) -> tuple[Polynomial, int]:
    signs = i
    while tk.toks[i] == "-":
        i += 1
    negate = (i - signs) % 2
    base, i = _atom_by_atoms(tk, i, dim)
    if tk.toks[i] == "^":
        n, i = tk.number(i + 1)
        if base.nums:
            _check_size(n * base.degree, n * _coeff_bits(base))
            _check_terms(dim, n * base.degree, math.comb(len(base.nums) + n - 1, n))
        base = base**n
    return (-base if negate else base), i


def _product_by_atoms(tk: _Tokens, i: int, dim: int) -> tuple[Polynomial, int]:
    p, i = _power_by_atoms(tk, i, dim)
    while tk.toks[i] == "*":
        q, i = _power_by_atoms(tk, i + 1, dim)
        _check_size(p.degree + q.degree, _coeff_bits(p) + _coeff_bits(q))
        _check_terms(dim, p.degree + q.degree, len(p.nums) * len(q.nums))
        p = p * q
    return p, i


def _sum_by_atoms(tk: _Tokens, i: int, dim: int) -> tuple[Polynomial, int]:
    parts = []
    sign = "+"
    while True:
        p, i = _product_by_atoms(tk, i, dim)
        parts.append(p if sign == "+" else -p)
        sign = tk.toks[i]
        if sign not in ("+", "-"):
            return poly_sum(dim, parts), i
        i += 1


def parse_poly_by_atoms(src: str, dim: int | None = None) -> Polynomial:
    """parse_poly through a Polynomial for every number and t<j>, a product
    by Polynomial.__mul__ for every '*', and one poly_sum per sum, with the
    same checks at the same places; the reference the reader is tested
    against."""
    if dim is not None:
        _check_dim(dim)
    tk = _Tokens(src)
    _check_nesting(tk)
    if dim is None:
        idx = [t[1:] for t in tk.toks if t[:1] == "t" and t[1:].isdigit()]
        dim = min(MAX_DIM, max([1, *(int(j.lstrip("0")[:2] or "0") for j in idx)]))
    p, i = _sum_by_atoms(tk, 0, dim)
    if tk.toks[i]:
        raise tk.fail(i, "end of input or an operator")
    return p


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


# -- the Wagner pairing on the full xi-grid ----------------------------------

_POLE_EPS = 1e-12


def pair_E_grid(
    P: Polynomial, params: WagnerParams, chi: GaussPoly, grid: tuple[int, float]
) -> float:
    """<E, chi> for a general chi by the trapezoid rule on N^d nodes over
    [-R, R]^d: sum_j a_j Re sum_xi wt(xi) G_j(xi) F[e^{beta.x} chi](xi), over
    (2 pi)^d P_m(2 eta), with G_j = conj(Pj)/Pj on the whole grid.

    A node within _POLE_EPS of a zero of Pj raises SymbolZeroOnGrid.  For
    chi = P(-d)phi this is wagner.pair_E(P, params, phi, grid) up to rounding.
    """
    d = P.dim
    N, R = int(grid[0]), float(grid[1])
    w = float(chi.width)
    w2 = w * w
    h = 2.0 * R / (N - 1)
    axis = -R + np.arange(N) * h
    weights = np.full(N, h)
    weights[0] = weights[-1] = 0.5 * h
    terms = sorted((alpha, float(pc)) for alpha, pc in chi.poly.terms.items())
    top = [max((alpha[k] for alpha, _ in terms), default=0) for k in range(d)]
    total = 0.0
    for lam, a in zip(params.lam, params.a):
        beta = [float(lam) * e for e in params.eta]
        coords = [
            (1j * axis + beta[k]).reshape((1,) * k + (N,) + (1,) * (d - k - 1))
            for k in range(d)
        ]
        G = _eval_poly_complex(P, coords)
        if np.min(np.abs(G)) < _POLE_EPS:
            raise SymbolZeroOnGrid(f"|Pj| below {_POLE_EPS} on the grid (lambda={lam})")
        np.divide(np.conj(G), G, out=G)
        F = []
        for k in range(d):
            ck = float(chi.center[k])
            mu = ck + beta[k] * w2 / 2.0
            const = math.exp(beta[k] * ck + beta[k] * beta[k] * w2 / 4.0)
            F.append(_gauss_ft_1d(top[k], mu, w, axis) * (const * weights)[:, None])
        total += float(a) * _contract(G, terms, F).real
    return total / ((2.0 * math.pi) ** d * float(params.normalizer))


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


def _contract(M: np.ndarray, terms: list, F: list[np.ndarray]) -> complex:
    """Sum over the sorted terms (alpha, c) of c times M (N^len(F) values)
    contracted with F[0][:, alpha_0], F[1][:, alpha_1], ...  Depth first, one
    power at a time."""
    N = len(F[0])
    total = 0j
    for a, group in groupby(terms, lambda t: t[0][0]):
        row = F[0][:, a] @ M.reshape(N, -1)
        sub = [(alpha[1:], c) for alpha, c in group]
        total += _contract(row, sub, F[1:]) if F[1:] else sub[0][1] * row[0]
    return total


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
            # On the positive quadrant a full-line atom is its right part.
            if f.s == -1 or f.n < 0:
                raise UnsupportedInput(
                    "quadrant evaluation needs MonLog(n >= 0, p, +1 or 0) factors"
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
