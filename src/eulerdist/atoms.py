"""The structured class of temperate distributions.

One-dimensional atoms:

  MonLog(n, p, s)  -- for s=+1 the function x^n log^p|x| H(x) on the right
                      half-line (a Hadamard finite part when n <= -1), and
                      for s=-1 its reflection x -> -x.  With this convention
                      MonLog(n, p, -1) is |x|^n log^p|x| H(-x), and the
                      full-line monomial x^n equals
                      MonLog(n,0,+1) + (-1)^n MonLog(n,0,-1).
  Delta(k)         -- the k-th derivative of the Dirac delta at 0.

Atoms are tagged tuples: MonLog(n, p, s) is (1, n, p, s) and Delta(k) is
(0, k, 0, 0), so hashing, equality and ordering are tuple's own.  A Delta
never equals a MonLog, and deltas sort first.

Expressions are finite rational linear combinations of tensor products of
atoms, kept in a deterministic canonical form: terms are sorted (factors,
coefficient) pairs, with distinct factor tuples and nonzero coefficients,
so the pairs sort by the factor tuples' own order.  Everything is an
immutable value; dimension 0 is allowed (a bare scalar) to make recursion
uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .errors import DimensionError
from .poly import RationalLike


class MonLog(tuple):
    """x^n log^p|x| on the half-line of sign s: the tuple (1, n, p, s)."""

    __slots__ = ()

    def __new__(cls, n: int, p: int = 0, s: int = 1) -> "MonLog":
        if p < 0:
            raise ValueError(f"log power must be >= 0, got {p}")
        if s not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {s}")
        return tuple.__new__(cls, (1, n, p, s))

    n = property(itemgetter(1))
    p = property(itemgetter(2))
    s = property(itemgetter(3))

    # copy and pickle call __new__ with these; tuple's own would pass the
    # whole (1, n, p, s) as n.
    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        return f"MonLog(n={self.n!r}, p={self.p!r}, s={self.s!r})"


class Delta(tuple):
    """The k-th derivative of the Dirac delta at 0: the tuple (0, k, 0, 0)."""

    __slots__ = ()

    def __new__(cls, k: int) -> "Delta":
        if k < 0:
            raise ValueError(f"delta order must be >= 0, got {k}")
        return tuple.__new__(cls, (0, k, 0, 0))

    k = property(itemgetter(1))

    def __getnewargs__(self) -> tuple:
        return (self.k,)

    def __repr__(self) -> str:
        return f"Delta(k={self.k!r})"


Atom1D = Union[MonLog, Delta]
# One tensor term: its factor tuple (one atom per coordinate) and coefficient.
Term = tuple[tuple[Atom1D, ...], Fraction]


def delta_coord(factors: tuple[Atom1D, ...]) -> int:
    """The 1-based coordinate of the first delta factor; 0 if there is none."""
    for j, f in enumerate(factors, 1):
        if isinstance(f, Delta):
            return j
    return 0


@dataclass(frozen=True)
class DistExpr:
    dim: int
    terms: tuple[Term, ...]

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DistExpr") -> "DistExpr":
        if self.dim != other.dim:
            raise DimensionError(f"dim mismatch: {self.dim} vs {other.dim}")
        return dist(self.dim, self.terms + other.terms)

    def __sub__(self, other: "DistExpr") -> "DistExpr":
        return self + other.scaled(-1)

    def scaled(self, c: RationalLike) -> "DistExpr":
        c = Fraction(c)
        return dist(self.dim, ((f, a * c) for f, a in self.terms))

    @classmethod
    def zero(cls, dim: int) -> "DistExpr":
        return cls(dim, ())


def coeff_map(terms: Iterable[Term]) -> dict[tuple[Atom1D, ...], Fraction]:
    """The coefficients of terms summed per factor tuple (zero sums kept)."""
    acc: dict[tuple[Atom1D, ...], Fraction] = {}
    for f, c in terms:
        old = acc.get(f)
        acc[f] = c if old is None else old + c
    return acc


def dist(dim: int, terms: Iterable[Term]) -> DistExpr:
    """Build a DistExpr in canonical form: merged, zero-free, sorted by factors."""
    acc = coeff_map(terms)
    for f in acc:
        if len(f) != dim:
            raise DimensionError(f"term has dim {len(f)}, expression dim {dim}")
    factors = sorted([f for f, c in acc.items() if c])
    return DistExpr(dim, tuple([(f, acc[f]) for f in factors]))


def single(atoms: Sequence[Atom1D], coeff: RationalLike = 1) -> DistExpr:
    """Expression with one tensor term; already canonical."""
    c = Fraction(coeff)
    return DistExpr(len(atoms), ((tuple(atoms), c),) if c else ())
