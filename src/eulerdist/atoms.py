"""The structured class of temperate distributions.

One-dimensional atoms:

  MonLog(n, p, s)  -- for s=+1 the function x^n log^p|x| H(x) on the right
                      half-line (a Hadamard finite part when n <= -1), and
                      for s=-1 its reflection x -> -x, so that
                      MonLog(n, p, -1) is |x|^n log^p|x| H(-x).  For s=0
                      the full-line atom x^n log^p|x|,
                      MonLog(n,p,+1) + (-1)^n MonLog(n,p,-1); MonLog(0,0,0)
                      is the function 1.
  Delta(k)         -- the k-th derivative of the Dirac delta at 0.

Atoms are tagged tuples: MonLog(n, p, s) is (1, n, p, s) and Delta(k) is
(0, k, 0, 0), so hashing, equality and ordering are tuple's own.  A Delta
never equals a MonLog, and deltas sort first.

Expressions are finite rational linear combinations of tensor products of
atoms, kept in a deterministic canonical form: terms are sorted (factors,
coefficient) pairs, with distinct factor tuples and nonzero coefficients,
so the pairs sort by the factor tuples' own order.  A full-line atom is the
sum of its two half-line atoms, so one distribution has several such forms;
dist picks one by a rule that reads only the distribution (see dist), and
== on canonical forms is distributional equality.  Everything is an
immutable value; dimension 0 is allowed (a bare scalar) to make recursion
uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Union

from .errors import DimensionError, InputTooLarge
from .limits import MAX_HELD_TERMS
from .poly import RationalLike


class MonLog(tuple):
    """x^n log^p|x| on the half-line of sign s = +-1, or on the full line for
    s = 0: the tuple (1, n, p, s)."""

    __slots__ = ()

    def __new__(cls, n: int, p: int = 0, s: int = 1) -> "MonLog":
        if p < 0:
            raise ValueError(f"log power must be >= 0, got {p}")
        if s not in (1, -1, 0):
            raise ValueError(f"sign must be +1, -1 or 0, got {s}")
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


# (kind, n or k, p): what a coordinate's atom keeps when its sign is dropped.
_SKELETON = itemgetter(0, 1, 2)


def _half_line(f: tuple[Atom1D, ...], c: Fraction) -> list[Term]:
    """The terms of c f with each full-line atom written as its two
    half-line atoms, MonLog(n,p,+1) + (-1)^n MonLog(n,p,-1)."""
    rows = [(f, c)]
    for j, a in enumerate(f):
        if a[0] and not a[3]:
            right, left = MonLog(a[1], a[2], 1), MonLog(a[1], a[2], -1)
            odd = a[1] % 2
            rows = [(g[:j] + (right,) + g[j + 1 :], x) for g, x in rows] + [
                (g[:j] + (left,) + g[j + 1 :], -x if odd else x) for g, x in rows
            ]
    return rows


def _compress(fs: list, acc: dict) -> None:
    """Replace in acc the terms fs of one skeleton by their canonical form:
    expanded to half-line atoms and merged, then, for each coordinate j in
    order, each pair a M(n,p,+1) + (-1)^n a M(n,p,-1) at j whose other
    factors agree becomes a MonLog(n,p,0).  A zero coefficient pairs only
    with a zero one, so zeros need not be dropped first."""
    half: dict[tuple[Atom1D, ...], Fraction] = {}
    for f in fs:
        # Sign patterns of one skeleton: at most 2^dim distinct tuples.
        for g, x in _half_line(f, acc.pop(f)):
            old = half.get(g)
            half[g] = x if old is None else old + x
        if len(half) > MAX_HELD_TERMS:
            raise InputTooLarge(f"an expression reaches over {MAX_HELD_TERMS} terms")
    for j, a in enumerate(fs[0]):
        if not a[0]:  # a delta has no sign
            continue
        right = [g for g in half if g[j][3] == 1]
        if not right or len(right) == len(half):  # no pair at j
            continue
        left = a[:3] + (-1,)  # finds MonLog(n, p, -1): atoms compare as tuples
        odd = a[1] % 2
        for g in right:
            x = half[g]
            partner = g[:j] + (left,) + g[j + 1 :]
            if half.get(partner) == (-x if odd else x):
                del half[g], half[partner]
                half[g[:j] + (MonLog(a[1], a[2], 0),) + g[j + 1 :]] = x
    acc.update(half)


def dist(dim: int, terms: Iterable[Term]) -> DistExpr:
    """Build a DistExpr in canonical form: the coefficients summed per factor
    tuple, zeros dropped, sorted by factors.

    Terms whose atoms agree up to their signs (one skeleton) are the only
    ones a full-line atom can merge with or split into, so the rule reads
    each skeleton on its own.  A skeleton with one factor tuple is kept as
    it is; one with more is written in half-line atoms, where the form is
    unique, and then compressed coordinate by coordinate (_compress).  A
    lone tuple comes out of that rule unchanged, so the result depends only
    on the distribution."""
    acc: dict[tuple[Atom1D, ...], Fraction] = {}
    for f, c in terms:
        old = acc.get(f)
        acc[f] = c if old is None else old + c
    for f in acc:
        if len(f) != dim:
            raise DimensionError(f"term has dim {len(f)}, expression dim {dim}")
    if len(acc) > 1:
        skeletons: dict[tuple, list] = {}
        for f in acc:
            skeletons.setdefault(tuple(map(_SKELETON, f)), []).append(f)
        if len(skeletons) < len(acc):
            for fs in skeletons.values():
                if len(fs) > 1:
                    _compress(fs, acc)
    factors = sorted([f for f, c in acc.items() if c])
    return DistExpr(dim, tuple([(f, acc[f]) for f in factors]))
