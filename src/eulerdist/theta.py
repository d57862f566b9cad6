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

The rules are written once, as integer rows in the basis Delta(k)/k!
(theta_row); apply_theta and apply_polynomial read them.  theta is
upper-triangular on the atoms, so P(theta) takes an atom a to each atom b
it reaches by the weights on its one path times the divided difference of
P at the eigenvalues on it (Opitz's formula; C. de Boor, "Divided
differences", 2005, for repeated nodes): for L steps from the eigenvalue
mu of a to the eigenvalue x of b, q(x), q the quotient of P by (z - mu)^L,
taken one coordinate at a time.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from fractions import Fraction
from math import factorial, lcm, prod
from operator import getitem, itemgetter
from typing import Iterable

from .atoms import Atom1D, Delta, DistExpr, MonLog, Term, coeff_map
from .errors import DimensionError, InputTooLarge
from .limits import MAX_HELD_TERMS
from .poly import Exponent, Polynomial

# perfbench/tracer.py wraps theta.dist by name, so the import stays.
from .atoms import dist  # noqa: F401

# A path from an atom: its end b, the product of theta_row's entries on it,
# w(b), and its nodes (L, x): L steps, x the eigenvalue of b.
Path = tuple[Atom1D, int, int, tuple[int, int]]
Parts = dict[tuple, dict[Exponent, int]]  # node indices -> exponents left -> int
_UNSIGNED = itemgetter(0, 1, 2)  # (kind, n or k, p) fixes an atom's paths


def theta_row(a: Atom1D) -> list[tuple[int, Atom1D]]:
    """theta on one atom in the basis Delta(k)/k!, the same in every
    coordinate: the entry of a -> b is tc w(b)/w(a), tc the coefficient of b
    in theta a, w(Delta(k)) = k!, w(MonLog) = 1.  Every correction is +-1
    there, (-1)^i on the right half-line and + on the left."""
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


def _scale(a: Atom1D) -> int:
    """w(a): k! for Delta(k), 1 for a MonLog."""
    return factorial(a.k) if isinstance(a, Delta) else 1


def apply_theta(a: Atom1D) -> list[tuple[Fraction, Atom1D]]:
    """Exact action of theta on one atom: theta_row back in the plain basis,
    where the entry x of a -> b is x w(a)/w(b)."""
    return [(Fraction(x * _scale(a), _scale(b)), b) for x, b in theta_row(a)]


def _paths(a: Atom1D, deg: int) -> list[Path]:
    """The paths of at most deg steps from a, read off theta_row: a, down
    the log ladder, and from M(n,0) into its corrections.  Steps leave only
    MonLogs, of scale 1, so a path's weight is its product over w(b)."""
    mu = -(a.k + 1) if isinstance(a, Delta) else a.n
    out, x = [(a, 1, 1, (0, mu))], 1
    for L in range(1, deg + 1):
        steps = [(y, b) for y, b in theta_row(a) if b != a]
        if steps and isinstance(steps[0][1], MonLog):
            ((y, a),) = steps
            x *= y
            out.append((a, x, 1, (L, mu)))
        else:
            return out + [(b, x * y, _scale(b), (L, -(b.k + 1))) for y, b in steps]
    return out


def _contract(vals: Parts, nodes: tuple) -> Parts:
    """The divided differences of each part of vals in its first coordinate
    at nodes: each (L, x) takes q(x) by Horner's rule, q the quotient of a
    slice by (z - mu)^L, mu the x of the first node.  A part's key gains the
    node's index; zeros are left out."""
    mu = nodes[0][1]
    out: Parts = {}
    for key, part in vals.items():
        rows: dict[Exponent, dict[int, int]] = {}
        for alpha, c in part.items():
            rows.setdefault(alpha[1:], {})[alpha[0]] = c
        for rest, row in rows.items():
            q = [row.get(s, 0) for s in range(max(row) + 1)]
            divided = 0
            for i, (L, x) in enumerate(nodes):
                for _ in range(divided, L):  # q by (z - mu), remainder dropped
                    for s in range(len(q) - 2, -1, -1):
                        q[s] += mu * q[s + 1]
                    q = q[1:]
                divided = L
                v = 0
                for c in reversed(q):
                    v = v * x + c
                if v:
                    out.setdefault(key + (i,), {})[rest] = v
    return out


def _check_held(plans: list, support: Iterable[Exponent]) -> None:
    """Refuse, before any arithmetic, terms taken to over MAX_HELD_TERMS
    terms.  A term reaches at most the product of its paths' counts; past
    the bound, only the paths whose steps (L_1, ..., L_d) lie below a
    monomial z^alpha of P count, since a divided difference at L + 1 nodes
    is zero on z^a for a < L."""
    n = sum(len(ts) * prod(map(len, lead)) for ts, lead in plans)
    if n > MAX_HELD_TERMS:
        n = 0
        for ts, lead in plans:  # down from the steps that P's monomials allow
            counts = [Counter(L for *_, (L, _) in ps) for ps in lead]
            tops = [max(c) for c in counts]
            todo = list({tuple(map(min, alpha, tops)) for alpha in support})
            seen = set(todo)
            while todo and n <= MAX_HELD_TERMS:
                steps = todo.pop()
                n += len(ts) * prod(map(getitem, counts, steps))
                for j, L in enumerate(steps):
                    below = steps[:j] + (L - 1,) + steps[j + 1 :]
                    if L and below not in seen:
                        seen.add(below)
                        todo.append(below)
    if n > MAX_HELD_TERMS:
        raise InputTooLarge(f"theta-action reaches over {MAX_HELD_TERMS} terms")


def apply_polynomial(P: Polynomial, e: DistExpr) -> DistExpr:
    """The Euler operator P(theta) applied exactly to an expression.

    Terms are grouped by their atoms without the sign, which fix the paths.
    Per group, _contract's integers times a term's coefficient and its
    paths' weights, over P's denominator, are its output terms.  They are
    summed as integer fractions per factor tuple, over the first
    denominator met or, where the denominators differ, their lcm; each
    distinct output becomes one Fraction."""
    if P.dim != e.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {e.dim}")
    if P.is_zero() or e.is_zero():
        return DistExpr.zero(e.dim)
    degs = list(map(max, zip(*P.nums)))
    paths_of = cache(_paths)  # theta_row is read once per atom in a call
    groups: dict[tuple, list[Term]] = {}
    for t in e.terms:
        groups.setdefault(tuple(map(_UNSIGNED, t[0])), []).append(t)
    plans = [(ts, list(map(paths_of, ts[0][0], degs))) for ts in groups.values()]
    _check_held(plans, P.nums)
    done: dict[tuple, Parts] = {}  # groups share their first coordinates' work
    acc: dict[tuple[Atom1D, ...], list[int]] = {}  # g -> [numerator, denominator]
    for ts, lead in plans:
        nodes = tuple(tuple(p[3] for p in ps) for ps in lead)
        values = {(): P.nums}
        for j in range(1, len(nodes) + 1):
            if nodes[:j] not in done:
                done[nodes[:j]] = _contract(values, nodes[j - 1])
            values = done[nodes[:j]]
        active = [j for j, ps in enumerate(lead) if len(ps) > 1]
        for f, c in ts:
            ends = [(j, paths_of(f[j], degs[j])) for j in active]
            for idx, part in values.items():
                g = list(f)
                x, w = c.numerator * part[()], c.denominator * P.den
                for j, ps in ends:
                    g[j], y, z, _ = ps[idx[j]]
                    x *= y
                    w *= z
                slot = acc.setdefault(tuple(g), [0, w])
                if slot[1] != w:  # both over the lcm of the denominators
                    m = lcm(slot[1], w)
                    slot[0] *= m // slot[1]
                    x *= m // w
                    slot[1] = m
                slot[0] += x
    # The factor tuples are distinct and the zeros are left out, so sorting
    # alone makes the canonical form.
    out = sorted((g, Fraction(x, w)) for g, (x, w) in acc.items() if x)
    return DistExpr(e.dim, tuple(out))


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
