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
theta has integer entries there.  The rules are written once, as integer
rows in that basis (theta_row); apply_theta converts a row back to the
plain basis, and P(theta) is walked on integer numerators with one table of
rows for all coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from operator import itemgetter
from typing import Sequence

from .atoms import Atom1D, Delta, DistExpr, MonLog, Term, coeff_map, dist
from .errors import DimensionError, InputTooLarge
from .limits import MAX_HELD_TERMS
from .poly import Polynomial

# theta on integer numerators: {factors: numerator} maps.
Numerators = dict[tuple[Atom1D, ...], int]
# An atom's kind and its n or k, which fix its theta-eigenvalue.
_KIND_AND_ORDER = itemgetter(0, 1)


def theta_row(a: Atom1D) -> list[tuple[int, Atom1D]]:
    """theta on one atom in the basis Delta(k)/k!, the same in every
    coordinate: the entry x of a -> b is x = tc w(b)/w(a) for the
    coefficient tc of b in theta a, w = _weight.  Every finite-part
    correction is +-1 there, (-1)^i on the right half-line and + on the
    left, so every entry is an integer."""
    if isinstance(a, Delta):
        return [(-(a.k + 1), a)]
    row: list[tuple[int, Atom1D]] = []
    if a.n != 0:
        row.append((a.n, a))
    if a.p >= 1:
        row.append((a.p, MonLog(a.n, a.p - 1, a.s)))
    elif a.n <= -1:
        row += [(-1 if a.s == 1 and i % 2 else 1, Delta(i)) for i in range(-a.n)]
    return row


def apply_theta(a: Atom1D) -> list[tuple[Fraction, Atom1D]]:
    """Exact action of theta on one atom: theta_row back in the plain basis,
    where the entry x of a -> b is x w(a)/w(b)."""
    wa = _weight((a,))
    return [(Fraction(x * wa, _weight((b,))), b) for x, b in theta_row(a)]


def _weight(factors: tuple[Atom1D, ...]) -> int:
    """The product of k! over the Delta(k) factors: the walk holds each
    Delta(k) as k! times the basis element Delta(k)/k!."""
    return prod(factorial(a.k) for a in factors if isinstance(a, Delta))


class IntTable(dict):
    """The rows of theta_row, one per atom, read when a walk first reaches
    the atom."""

    def __missing__(self, a: Atom1D) -> list[tuple[int, Atom1D]]:
        row = self[a] = theta_row(a)
        return row


def _theta_step(i: int, nums: Numerators, table: IntTable) -> Numerators:
    """theta_(i+1) on a merged {factors: numerator} map (zero entries skipped);
    a result of more than MAX_HELD_TERMS terms is refused as soon as it is
    held."""
    out: Numerators = {}
    for f, v in nums.items():
        if not v:
            continue
        if len(out) > MAX_HELD_TERMS:
            raise InputTooLarge(f"theta-action reaches over {MAX_HELD_TERMS} terms")
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

    Terms over more than one denominator are walked one eigenvalue class
    at a time (per coordinate, the atom kind and its n or k), each over its
    own common denominator, and the results are merged: the solution of
    t1^m+1 on x1^-m*H(x1) has m delta terms over pairwise almost coprime
    denominators, whose lcm would otherwise scale every numerator of the
    walk.  The merged result of more than one class is held to the walk's
    own term bound.  Over one denominator the lcm cannot grow, and one walk
    skips the per-term class keys.
    """
    if P.dim != e.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {e.dim}")
    if P.is_zero() or e.is_zero():
        return DistExpr.zero(e.dim)
    slices: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for alpha, c in P.nums.items():
        k, beta = (alpha[0], alpha[1:]) if alpha else (0, ())
        slices.setdefault(k, []).append((beta, c))
    classes = [e.terms]
    if len({c.denominator for _, c in e.terms}) > 1:
        by_class: dict[tuple, list[Term]] = {}
        for t in e.terms:
            by_class.setdefault(tuple(map(_KIND_AND_ORDER, t[0])), []).append(t)
        classes = list(by_class.values())
    table = IntTable()
    walks = [_walk(slices, ts, e.dim, table) for ts in classes]
    out = dist(
        e.dim,
        [
            (f, Fraction(v, den * P.den * _weight(f)))
            for den, nums in walks
            for f, v in nums.items()
            if v
        ],
    )
    if len(classes) > 1 and len(out.terms) > MAX_HELD_TERMS:
        raise InputTooLarge(f"theta-action reaches over {MAX_HELD_TERMS} terms")
    return out


def _walk(
    slices: dict[int, list[tuple[tuple[int, ...], int]]],
    terms: Sequence[Term],
    dim: int,
    table: IntTable,
) -> tuple[int, Numerators]:
    """P(theta) on terms, P read as its numerators by power of z_1: the
    common denominator D of terms, and the numerators over D w(f) (times
    P's own denominator) of the result."""
    den = lcm(*(c.denominator for _, c in terms))
    start: Numerators = {}
    for f, c in terms:
        start[f] = start.get(f, 0) + c.numerator * (den // c.denominator) * _weight(f)
    # theta'^beta e, beta the exponents of coordinates 2..d.
    powers = {(0,) * (dim - 1): start}

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

    acc: Numerators = {}
    for k in range(max(slices), -1, -1):
        if acc:
            acc = _theta_step(0, acc, table)
        for beta, c in slices.get(k, ()):
            for f, v in theta_power(beta).items():
                acc[f] = acc.get(f, 0) + c * v
    return den, acc


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
