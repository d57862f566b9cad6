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

from .atoms import Atom1D, Delta, DistExpr, MonLog, coeff_map, dist
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
        # Walk down to the nearest known power, then apply theta back up.
        chain = []
        while alpha not in powers:
            j = next(i for i, a in enumerate(alpha) if a > 0)
            chain.append((alpha, j + 1))
            alpha = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
        val = powers[alpha]
        for beta, j in reversed(chain):
            val = powers[beta] = _theta_coeffs(j, val)
        return val

    total: dict[tuple[Atom1D, ...], Fraction] = {}
    for alpha, c in P.terms.items():
        for f, v in theta_power(alpha).items():
            old = total.get(f)
            total[f] = c * v if old is None else old + c * v
    return dist(e.dim, total.items())


def equal(a: DistExpr, b: DistExpr) -> bool:
    """Exact distributional equality within the class (canonical identity).

    Either side may be non-canonical (repeated factor tuples, zero
    coefficients): both are merged into one map, b with the opposite sign.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {b.dim}")
    acc = coeff_map(a.terms)
    for f, c in b.terms:
        acc[f] = acc.get(f, 0) - c
    return not any(acc.values())
