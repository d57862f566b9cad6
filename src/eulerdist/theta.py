"""The exact theta-action on atoms and the forward operator P(theta).

theta = x d/dx acts coordinate-wise.  On the atom class:

  theta Delta(k)        = -(k+1) Delta(k)
  theta MonLog(n,p,s)   = n MonLog(n,p,s) + p MonLog(n,p-1,s)      (p >= 1)
  theta MonLog(n,0,s)   = n MonLog(n,0,s)                          (n >= 0)
  theta MonLog(n,0,s)   = n MonLog(n,0,s) + correction             (n <= -1)

with correction sum_{i=0}^{-n-1} ((-1)^i / i!) Delta(i) for s = +1 and
sum_{i=0}^{-n-1} (1 / i!) Delta(i) for s = -1.  The corrections are fixed
by the finite-part convention of the pairing oracle (split at |x| = 1,
Taylor subtraction on the inner interval, s = -1 atoms defined by
reflection); the oracle's adjoint-identity suite certifies every entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .atoms import (
    Atom1D,
    Delta,
    DistExpr,
    MonLog,
    TensorTerm,
    coeff_map,
    dist,
    from_coeffs,
)
from .errors import DimensionError
from .poly import Polynomial


def apply_theta(a: Atom1D) -> list[tuple[Fraction, Atom1D]]:
    """Exact action of theta on one atom; the same in every coordinate."""
    if isinstance(a, Delta):
        return [(Fraction(-(a.k + 1)), a)]
    out: list[tuple[Fraction, Atom1D]] = []
    if a.n != 0:
        out.append((Fraction(a.n), a))
    if a.p >= 1:
        out.append((Fraction(a.p), MonLog(a.n, a.p - 1, a.s)))
    elif a.n <= -1:
        for i in range(-a.n):
            c = Fraction(1, factorial(i))
            if a.s == 1 and i % 2 == 1:
                c = -c
            out.append((c, Delta(i)))
    return out


def apply_theta_expr(j: int, e: DistExpr) -> DistExpr:
    """theta_j applied to a whole expression."""
    if not 1 <= j <= e.dim:
        raise DimensionError(f"coordinate {j} out of range 1..{e.dim}")
    terms = []
    for t in e.terms:
        for c, a in apply_theta(t.factors[j - 1]):
            factors = t.factors[: j - 1] + (a,) + t.factors[j:]
            terms.append(TensorTerm(t.coeff * c, factors))
    return dist(e.dim, terms)


def _theta_coeffs(
    j: int, coeffs: dict[tuple[Atom1D, ...], Fraction]
) -> dict[tuple[Atom1D, ...], Fraction]:
    """theta_j on a merged {factors: coefficient} map (zero entries skipped)."""
    i = j - 1
    out: dict[tuple[Atom1D, ...], Fraction] = {}
    for f, c in coeffs.items():
        if not c:
            continue
        for tc, a in apply_theta(f[i]):
            g = f[:i] + (a,) + f[i + 1 :]
            old = out.get(g)
            out[g] = c * tc if old is None else old + c * tc
    return out


def apply_polynomial(P: Polynomial, e: DistExpr) -> DistExpr:
    """The Euler operator P(theta) applied exactly to an expression.

    theta^alpha is iterated factor-wise on merged {factors: coefficient}
    maps; intermediate results are shared across the monomials of P by
    lowering the first nonzero exponent, and the sum is sorted once.
    """
    if P.dim != e.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {e.dim}")
    if P.is_zero() or e.is_zero():
        return DistExpr.zero(e.dim)
    powers = {(0,) * e.dim: coeff_map(e.terms)}

    def theta_power(alpha: tuple[int, ...]) -> dict[tuple[Atom1D, ...], Fraction]:
        got = powers.get(alpha)
        if got is not None:
            return got
        j = next(i for i, a in enumerate(alpha) if a > 0)
        prev = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
        val = _theta_coeffs(j + 1, theta_power(prev))
        powers[alpha] = val
        return val

    total: dict[tuple[Atom1D, ...], Fraction] = {}
    for alpha, c in P.terms.items():
        for f, v in theta_power(alpha).items():
            old = total.get(f)
            total[f] = c * v if old is None else old + c * v
    return from_coeffs(e.dim, total)


def equal(a: DistExpr, b: DistExpr) -> bool:
    """Exact distributional equality within the class (canonical identity).

    Either side may be non-canonical (repeated factor tuples, zero
    coefficients): both are merged into one map, b with the opposite sign.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {b.dim}")
    acc = coeff_map(a.terms)
    for t in b.terms:
        acc[t.factors] = acc.get(t.factors, 0) - t.coeff
    return not any(acc.values())
