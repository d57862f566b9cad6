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
atoms, kept in a deterministic canonical form: terms sorted by their factor
tuples' own order.  Everything is an immutable value; dimension 0 is allowed
(a bare scalar) to make recursion uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence, Union

from .errors import DimensionError, TermNotHyperplaneSupported
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


def eig(a: Atom1D) -> Fraction:
    """The theta-eigenvalue of an atom: n for MonLog, -(k+1) for Delta."""
    if isinstance(a, Delta):
        return Fraction(-(a.k + 1))
    return Fraction(a.n)


@dataclass(frozen=True)
class TensorTerm:
    coeff: Fraction
    factors: tuple[Atom1D, ...]

    def scaled(self, c: RationalLike) -> "TensorTerm":
        return TensorTerm(self.coeff * Fraction(c), self.factors)

    def delta_coord(self) -> int:
        """The 1-based coordinate of the first delta factor; 0 if there is none."""
        for j, f in enumerate(self.factors, 1):
            if isinstance(f, Delta):
                return j
        return 0


@dataclass(frozen=True)
class DistExpr:
    dim: int
    terms: tuple[TensorTerm, ...]

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
        return dist(self.dim, (t.scaled(c) for t in self.terms))

    @classmethod
    def zero(cls, dim: int) -> "DistExpr":
        return cls(dim, ())


def coeff_map(terms: Iterable[TensorTerm]) -> dict[tuple[Atom1D, ...], Fraction]:
    """The coefficients of terms summed per factor tuple (zero sums kept)."""
    acc: dict[tuple[Atom1D, ...], Fraction] = {}
    for t in terms:
        f = t.factors
        c = acc.get(f)
        acc[f] = t.coeff if c is None else c + t.coeff
    return acc


def dist(dim: int, terms: Iterable[TensorTerm]) -> DistExpr:
    """Build a DistExpr in canonical form (merged, zero-free, sorted)."""
    acc = coeff_map(terms)
    for f in acc:
        if len(f) != dim:
            raise DimensionError(f"term has dim {len(f)}, expression dim {dim}")
    return from_coeffs(dim, acc)


def from_coeffs(dim: int, coeffs: dict[tuple[Atom1D, ...], Fraction]) -> DistExpr:
    """The canonical DistExpr of a merged {factors: coefficient} map."""
    out = [TensorTerm(c, f) for f, c in coeffs.items() if c]
    out.sort(key=attrgetter("factors"))
    return DistExpr(dim, tuple(out))


def single(atoms: Sequence[Atom1D], coeff: RationalLike = 1) -> DistExpr:
    """Expression with one tensor term."""
    return dist(len(atoms), [TensorTerm(Fraction(coeff), tuple(atoms))])


def full_line(n: int, p: int = 0) -> list[tuple[int, MonLog]]:
    """x^n log^p|x| on the whole line: MonLog(n,p,+1) + (-1)^n MonLog(n,p,-1)."""
    return [(1, MonLog(n, p, 1)), (-1 if n % 2 else 1, MonLog(n, p, -1))]


def expand_tensor(
    coeff: Fraction, alternatives: Sequence[Sequence[tuple[int, Atom1D]]]
) -> list[TensorTerm]:
    """The terms of coeff * prod_j (sum of coordinate j's (sign, atom) pairs),
    each sign +1 or -1."""
    terms = []
    negated = -coeff
    for combo in product(*alternatives):
        sign = 1
        for s, _ in combo:
            sign *= s
        c = coeff if sign > 0 else negated
        terms.append(TensorTerm(c, tuple(a for _, a in combo)))
    return terms


def full_monomial(alpha: Sequence[int], d: int | None = None) -> DistExpr:
    """The full-line monomial x^alpha as a sum over half-line sign patterns."""
    alpha = tuple(int(a) for a in alpha)
    if d is None:
        d = len(alpha)
    if len(alpha) != d or any(a < 0 for a in alpha):
        raise DimensionError(f"bad monomial multi-index {alpha} for dim {d}")
    return dist(d, expand_tensor(Fraction(1), [full_line(n) for n in alpha]))


def eigenvalue(t: TensorTerm) -> tuple[Fraction, ...]:
    """Per-coordinate theta-eigenvalue vector of a tensor term."""
    return tuple(eig(f) for f in t.factors)


def decompose_hyperplane(e: DistExpr) -> list[tuple[int, DistExpr]]:
    """Split a Z_0-supported expression into per-hyperplane parts.

    Each term is assigned to its smallest delta-bearing coordinate (1-based);
    parts sum exactly to the input.
    """
    buckets: dict[int, list[TensorTerm]] = {}
    for t in e.terms:
        j = t.delta_coord()
        if not j:
            raise TermNotHyperplaneSupported(
                f"term {t} has no delta factor; not supported on a hyperplane"
            )
        buckets.setdefault(j, []).append(t)
    return [(j, dist(e.dim, buckets[j])) for j in sorted(buckets)]
