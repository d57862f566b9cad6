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
from math import factorial, lcm, prod

from .atoms import Atom1D, Delta, DistExpr, MonLog, coeff_map, dist
from .errors import DimensionError, TableEntryError
from .poly import Polynomial

# theta on integer numerators: {factors: numerator} maps, and per atom the
# (integer entry, atom) pairs of one coordinate's scaled table.
Numerators = dict[tuple[Atom1D, ...], int]
IntTable = dict[Atom1D, list[tuple[int, Atom1D]]]


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


def _int_tables(e: DistExpr) -> tuple[list[IntTable], list[int]]:
    """Per coordinate j, the weight L_j and the theta-table scaled to integers.

    L_j = (max(-n) - 1)! over the finite-part atoms MonLog(n <= -1, ., .)
    that theta_j reaches from coordinate j of e (1 if there are none), so
    every correction 1/i!, i < -n, becomes the integer L_j/i!.  A term over
    weight w(f), the product of L_j over the coordinates where f holds a
    Delta, moves to weight w(f) L_j when theta_j takes a MonLog to a Delta,
    so that entry is multiplied by L_j (and divided by it the other way).
    The table is read from apply_theta on every call.
    """
    rows: dict[Atom1D, list[tuple[Fraction, Atom1D]]] = {}
    tables, weights = [], []
    for j in range(e.dim):
        reach = set()
        todo = {f[j] for f, _ in e.terms}
        while todo:
            a = todo.pop()
            reach.add(a)
            if a not in rows:
                rows[a] = apply_theta(a)
            todo.update(b for _, b in rows[a] if b not in reach)
        top = max((-a.n for a in reach if isinstance(a, MonLog) and a.n < 0), default=1)
        L = factorial(top - 1)
        wt = {a: L if isinstance(a, Delta) else 1 for a in reach}
        table: IntTable = {}
        for a in reach:
            out = table[a] = []
            for tc, b in rows[a]:
                x, r = divmod(tc.numerator * wt[b], tc.denominator * wt[a])
                if r:
                    raise TableEntryError(
                        f"theta-table entry {tc} for {a!r} -> {b!r} does not "
                        f"scale to an integer with L = {L}"
                    )
                out.append((x, b))
        tables.append(table)
        weights.append(L)
    return tables, weights


def _theta_step(i: int, nums: Numerators, table: IntTable) -> Numerators:
    """theta_(i+1) on a merged {factors: numerator} map (zero entries skipped)."""
    out: Numerators = {}
    for f, v in nums.items():
        if not v:
            continue
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

    The walk runs on integers: a term f of e is scaled by D_e w(f) (D_e the
    common denominator of e, w(f) the weight of `_int_tables`), P is read
    as its numerators over its denominator D_P, and each output term is one
    Fraction over D_e D_P w(f).  Fractions enter and leave the walk only
    here and in `_int_tables`.
    """
    if P.dim != e.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {e.dim}")
    if P.is_zero() or e.is_zero():
        return DistExpr.zero(e.dim)
    tables, weights = _int_tables(e)

    def weight(f: tuple[Atom1D, ...]) -> int:
        return prod(L for L, a in zip(weights, f) if isinstance(a, Delta))

    den_e = lcm(*(c.denominator for _, c in e.terms))
    start: Numerators = {}
    for f, c in e.terms:
        start[f] = start.get(f, 0) + c.numerator * (den_e // c.denominator) * weight(f)
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
            val = powers[gamma] = _theta_step(i, val, tables[i])
        return val

    slices: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for alpha, c in P.nums.items():
        k, beta = (alpha[0], alpha[1:]) if alpha else (0, ())
        slices.setdefault(k, []).append((beta, c))
    acc: Numerators = {}
    for k in range(max(slices), -1, -1):
        if acc:
            acc = _theta_step(0, acc, tables[0])
        for beta, c in slices.get(k, ()):
            for f, v in theta_power(beta).items():
                acc[f] = acc.get(f, 0) + c * v
    den = den_e * P.den
    return dist(e.dim, ((f, Fraction(v, den * weight(f))) for f, v in acc.items() if v))


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
