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

In the basis Delta(k)/k! every correction is a sum of +-Delta(i)/i!, so
theta has integer entries there: P(theta) is walked on integer numerators in
that basis, with one table for all coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod

from .atoms import Atom1D, Delta, DistExpr, MonLog, coeff_map, dist
from .errors import DimensionError, InputTooLarge, TableEntryError
from .poly import Polynomial

# theta on integer numerators: {factors: numerator} maps.
Numerators = dict[tuple[Atom1D, ...], int]
# The most terms an expression held by the walk or the solver may have.
MAX_TERMS = 2**13


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


def _weight(factors: tuple[Atom1D, ...]) -> int:
    """The product of k! over the Delta(k) factors: the walk holds each
    Delta(k) as k! times the basis element Delta(k)/k!."""
    return prod(factorial(a.k) for a in factors if isinstance(a, Delta))


class IntTable(dict):
    """The theta-table in the basis Delta(k)/k!, one row per atom, read from
    apply_theta when the walk first reaches the atom.  The entry a -> b is
    the coefficient tc of b in theta a times w(b)/w(a), w = _weight: every
    finite-part correction is +-1, and every other entry is an integer."""

    def __missing__(self, a: Atom1D) -> list[tuple[int, Atom1D]]:
        row = self[a] = []
        for tc, b in apply_theta(a):
            x, r = divmod(tc.numerator * _weight((b,)), tc.denominator * _weight((a,)))
            if r:
                raise TableEntryError(
                    f"theta-table entry {tc} for {a!r} -> {b!r} is no integer "
                    f"in the basis Delta(k)/k!"
                )
            row.append((x, b))
        return row


def _theta_step(i: int, nums: Numerators, table: IntTable) -> Numerators:
    """theta_(i+1) on a merged {factors: numerator} map (zero entries skipped);
    a result of more than MAX_TERMS terms is refused as soon as it is held."""
    out: Numerators = {}
    for f, v in nums.items():
        if not v:
            continue
        if len(out) > MAX_TERMS:
            raise InputTooLarge(f"theta-action reaches over {MAX_TERMS} terms")
        head, tail = f[:i], f[i + 1 :]
        for tc, a in table[f[i]]:
            g = head + (a,) + tail
            out[g] = out.get(g, 0) + v * tc
    return out


def apply_polynomial(P: Polynomial, e: DistExpr) -> DistExpr:
    """The Euler operator P(theta) applied exactly to an expression.

    With P = sum_k z_1^k P_k(z_2..z_d), P(theta) e is taken by Horner's
    rule in theta_1: acc = theta_1 acc + P_k(theta') e, from the top power
    of z_1 down.  The theta'-powers of e are iterated factor-wise on merged
    {factors: numerator} maps and shared across the P_k by lowering the
    first nonzero exponent.  So theta_1 acts once per power of z_1, P's
    coefficients multiply theta'-powers of e only, and the sum is sorted
    once.

    The walk runs on integers, with each Delta(k) held as k! Delta(k)/k!: a
    term f of e is scaled by D_e w(f) (D_e the common denominator of e,
    w(f) the product of k! over the Delta(k) factors of f), P is read as its
    numerators over its denominator D_P, and each output term is one
    Fraction over D_e D_P w(f).  One table, shared by all coordinates and
    filled as the walk reaches atoms, holds theta in that basis.
    """
    if P.dim != e.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {e.dim}")
    if P.is_zero() or e.is_zero():
        return DistExpr.zero(e.dim)
    table = IntTable()
    den_e = lcm(*(c.denominator for _, c in e.terms))
    start: Numerators = {}
    for f, c in e.terms:
        start[f] = start.get(f, 0) + c.numerator * (den_e // c.denominator) * _weight(f)
    # theta'^beta e, beta the exponents of coordinates 2..d.
    powers = {(0,) * (e.dim - 1): start}

    def theta_power(beta: tuple[int, ...]) -> Numerators:
        # Walk down to the nearest known power, then apply theta back up;
        # beta[j] acts on factor j + 1.
        chain = []
        while beta not in powers:
            j = next(i for i, b in enumerate(beta) if b > 0)
            chain.append((beta, j + 1))
            beta = beta[:j] + (beta[j] - 1,) + beta[j + 1 :]
        val = powers[beta]
        for gamma, i in reversed(chain):
            val = powers[gamma] = _theta_step(i, val, table)
        return val

    slices: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for alpha, c in P.nums.items():
        k, beta = (alpha[0], alpha[1:]) if alpha else (0, ())
        slices.setdefault(k, []).append((beta, c))
    acc: Numerators = {}
    for k in range(max(slices), -1, -1):
        if acc:
            acc = _theta_step(0, acc, table)
        for beta, c in slices.get(k, ()):
            for f, v in theta_power(beta).items():
                acc[f] = acc.get(f, 0) + c * v
    den = den_e * P.den
    return dist(e.dim, ((f, Fraction(v, den * _weight(f))) for f, v in acc.items() if v))


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
