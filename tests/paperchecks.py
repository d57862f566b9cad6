"""Constructions of the paper that only the tests use.

No subcommand reaches these, so they live beside the tests rather than in
the package: the full-line monomial x^alpha, the split of a delta-supported
expression along coordinate hyperplanes, and theta_j on a whole expression,
the term-by-term reference that `theta.apply_polynomial` is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from eulerdist.atoms import DistExpr, MonLog, delta_coord, dist
from eulerdist.errors import DimensionError, EulerDistError
from eulerdist.theta import apply_theta


class TermNotHyperplaneSupported(EulerDistError):
    """A term has no delta factor, so it is not supported on a coordinate hyperplane."""


def full_monomial(alpha: Sequence[int], d: int | None = None) -> DistExpr:
    """The full-line monomial x^alpha as a sum over half-line sign patterns:
    x^n = MonLog(n,0,+1) + (-1)^n MonLog(n,0,-1) in every coordinate."""
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


def apply_theta_expr(j: int, e: DistExpr) -> DistExpr:
    """theta_j applied to a whole expression, one term and atom at a time."""
    if not 1 <= j <= e.dim:
        raise DimensionError(f"coordinate {j} out of range 1..{e.dim}")
    terms = []
    for f, coeff in e.terms:
        for c, a in apply_theta(f[j - 1]):
            terms.append((f[: j - 1] + (a,) + f[j:], coeff * c))
    return dist(e.dim, terms)
