"""The structured class of temperate distributions.

One-dimensional atoms:

  MonLog(n, p, s)  -- for s=+1 the function x^n log^p|x| H(x) on the right
                      half-line (a Hadamard finite part when n <= -1), and
                      for s=-1 its reflection x -> -x.  With this convention
                      MonLog(n, p, -1) is |x|^n log^p|x| H(-x), and the
                      full-line monomial x^n equals
                      MonLog(n,0,+1) + (-1)^n MonLog(n,0,-1).
  Delta(k)         -- the k-th derivative of the Dirac delta at 0.

Expressions are finite rational linear combinations of tensor products of
atoms, kept in a deterministic canonical form.  Everything is an immutable
value; dimension 0 is allowed (a bare scalar) to make recursion uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence, Union

from .errors import DimensionError, TermNotHyperplaneSupported
from .poly import RationalLike


@dataclass(frozen=True)
class MonLog:
    n: int
    p: int = 0
    s: int = 1

    def __post_init__(self):
        if self.p < 0:
            raise ValueError(f"log power must be >= 0, got {self.p}")
        if self.s not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.s}")


@dataclass(frozen=True)
class Delta:
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"delta order must be >= 0, got {self.k}")


Atom1D = Union[MonLog, Delta]


def atom_key(a: Atom1D) -> tuple:
    """Deterministic total order on atoms (deltas first, then monlogs)."""
    if isinstance(a, Delta):
        return (0, a.k, 0, 0)
    return (1, a.n, a.p, a.s)


def eig(a: Atom1D) -> Fraction:
    """The theta-eigenvalue of an atom: n for MonLog, -(k+1) for Delta."""
    if isinstance(a, Delta):
        return Fraction(-(a.k + 1))
    return Fraction(a.n)


@dataclass(frozen=True)
class TensorTerm:
    coeff: Fraction
    factors: tuple[Atom1D, ...]

    @property
    def dim(self) -> int:
        return len(self.factors)

    def scaled(self, c: RationalLike) -> "TensorTerm":
        return TensorTerm(self.coeff * Fraction(c), self.factors)

    def has_delta(self) -> bool:
        return any(isinstance(f, Delta) for f in self.factors)


def term_key(t: TensorTerm) -> tuple:
    return tuple(atom_key(f) for f in t.factors)


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
    out.sort(key=term_key)
    return DistExpr(dim, tuple(out))


def canonicalize(e: DistExpr) -> DistExpr:
    """Merge like terms, drop zeros, fix the term order.  Idempotent."""
    return dist(e.dim, e.terms)


def single(atoms: Sequence[Atom1D], coeff: RationalLike = 1) -> DistExpr:
    """Expression with one tensor term."""
    return dist(len(atoms), [TensorTerm(Fraction(coeff), tuple(atoms))])


def full_line(n: int, p: int = 0) -> list[tuple[Fraction, MonLog]]:
    """x^n log^p|x| on the whole line: MonLog(n,p,+1) + (-1)^n MonLog(n,p,-1)."""
    sign = Fraction(-1 if n % 2 else 1)
    return [(Fraction(1), MonLog(n, p, 1)), (sign, MonLog(n, p, -1))]


def expand_tensor(
    coeff: Fraction, alternatives: Sequence[Sequence[tuple[Fraction, Atom1D]]]
) -> list[TensorTerm]:
    """The terms of coeff * prod_j (sum of coordinate j's (c, atom) pairs)."""
    terms = []
    for combo in product(*alternatives):
        c = coeff
        for fc, _ in combo:
            c *= fc
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
        j = next(
            (i + 1 for i, f in enumerate(t.factors) if isinstance(f, Delta)), None
        )
        if j is None:
            raise TermNotHyperplaneSupported(
                f"term {t} has no delta factor; not supported on a hyperplane"
            )
        buckets.setdefault(j, []).append(t)
    return [(j, dist(e.dim, buckets[j])) for j in sorted(buckets)]
