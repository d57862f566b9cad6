"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in d variables z_1..z_d is a map from exponent multi-indices
(tuples of d nonnegative ints) to nonzero Fraction coefficients.  The zero
polynomial has an empty term map.  Term order is graded lexicographic and
all printing/iteration is deterministic.

Coordinate indices in the public API are 1-based (j = 1..d).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

from .errors import DimensionError, ZeroPolynomial

Exponent = tuple[int, ...]
RationalLike = Union[int, Fraction]


def grlex_key(alpha: Exponent) -> tuple[int, Exponent]:
    return (sum(alpha), alpha)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    Do not mutate `terms` after construction; instances are hashed on it.
    """

    __slots__ = ("dim", "terms", "_hash")

    def __init__(self, dim: int, terms: Mapping[Exponent, RationalLike] | None = None):
        if dim < 0:
            raise DimensionError(f"dimension must be >= 0, got {dim}")
        clean: dict[Exponent, Fraction] = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim or any(a < 0 for a in alpha):
                raise DimensionError(f"bad exponent {alpha} for dim {dim}")
            c = Fraction(c)
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, c: RationalLike) -> "Polynomial":
        return cls(dim, {(0,) * dim: Fraction(c)})

    @classmethod
    def variable(cls, dim: int, j: int) -> "Polynomial":
        """The polynomial z_j (1-based j)."""
        if not 1 <= j <= dim:
            raise DimensionError(f"variable index {j} out of range 1..{dim}")
        alpha = [0] * dim
        alpha[j - 1] = 1
        return cls(dim, {tuple(alpha): Fraction(1)})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def key(self) -> tuple:
        return (self.dim, tuple(self.sorted_terms()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if not self.terms:
            return f"Polynomial({self.dim}, 0)"
        parts = []
        for alpha, c in self.sorted_terms():
            mono = "*".join(
                f"z{j+1}^{a}" if a > 1 else f"z{j+1}"
                for j, a in enumerate(alpha)
                if a
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return f"Polynomial({self.dim}, {' + '.join(parts)})"

    # -- arithmetic ----------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise DimensionError(f"dim mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, Fraction(0)) + c
        return Polynomial(self.dim, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dim, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other: Union["Polynomial", RationalLike]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        out: dict[Exponent, Fraction] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                alpha = tuple(x + y for x, y in zip(a1, a2))
                out[alpha] = out.get(alpha, Fraction(0)) + c1 * c2
        return Polynomial(self.dim, out)

    __rmul__ = __mul__

    def scale(self, c: RationalLike) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.dim, {a: c * v for a, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def partial(self, j: int) -> "Polynomial":
        """Exact partial derivative with respect to z_j (1-based)."""
        if not 1 <= j <= self.dim:
            raise DimensionError(f"coordinate {j} out of range 1..{self.dim}")
        out: dict[Exponent, Fraction] = {}
        for alpha, c in self.terms.items():
            a = alpha[j - 1]
            if a:
                beta = alpha[: j - 1] + (a - 1,) + alpha[j:]
                out[beta] = out.get(beta, Fraction(0)) + c * a
        return Polynomial(self.dim, out)


# -- module operations ----------------------------------------------------


def poly_eval(P: Polynomial, mu: Sequence[RationalLike]) -> Fraction:
    """Exact evaluation of P at a rational point."""
    entries = tuple(map(Fraction, mu))
    if len(entries) != P.dim:
        raise DimensionError(f"point has {len(entries)} entries, polynomial dim {P.dim}")
    total = Fraction(0)
    for alpha, c in P.terms.items():
        v = c
        for a, m in zip(alpha, entries):
            if a:
                v *= m**a
        total += v
    return total


def substitute_coord(P: Polynomial, j: int, v: RationalLike) -> Polynomial:
    """Fix z_j to the rational v; remaining variables are renumbered."""
    if not 1 <= j <= P.dim:
        raise DimensionError(f"coordinate {j} out of range 1..{P.dim}")
    v = Fraction(v)
    out: dict[Exponent, Fraction] = {}
    for alpha, c in P.terms.items():
        rest = alpha[: j - 1] + alpha[j:]
        out[rest] = out.get(rest, Fraction(0)) + c * v ** alpha[j - 1]
    return Polynomial(P.dim - 1, out)


def factor_out(P: Polynomial, j: int, c: RationalLike) -> tuple[int, Polynomial]:
    """Maximal r with (z_j + c)^r | P, and the exact cofactor Q = P / (z_j + c)^r.

    In P(z - c e_j) = z_j^r Q(z - c e_j) the power r is the least exponent
    of z_j; lowering it by r and shifting back gives Q.
    """
    if P.is_zero():
        raise ZeroPolynomial("factor_out requires a nonzero polynomial")
    if not 1 <= j <= P.dim:
        raise DimensionError(f"coordinate {j} out of range 1..{P.dim}")
    c = Fraction(c)
    shifted = _shift_coord(P.terms, j, -c)
    r = min(a[j - 1] for a in shifted)
    lowered = {
        a[: j - 1] + (a[j - 1] - r,) + a[j:]: cf for a, cf in shifted.items()
    }
    return r, Polynomial(P.dim, _shift_coord(lowered, j, c))


def principal_part(P: Polynomial) -> Polynomial:
    """Homogeneous component of top degree."""
    if P.is_zero():
        raise ZeroPolynomial("principal_part requires a nonzero polynomial")
    m = P.degree
    return Polynomial(P.dim, {a: c for a, c in P.terms.items() if sum(a) == m})


def _shift_coord(
    terms: Mapping[Exponent, Fraction], j: int, m: Fraction
) -> Mapping[Exponent, Fraction]:
    """Terms of P(z + m e_j), P given by its terms, expanded binomially in z_j."""
    if m == 0:
        return terms
    out: dict[Exponent, Fraction] = {}
    for alpha, c in terms.items():
        a = alpha[j - 1]
        for t in range(a + 1):
            beta = alpha[: j - 1] + (t,) + alpha[j:]
            out[beta] = out.get(beta, Fraction(0)) + c * comb(a, t) * m ** (a - t)
    return {b: c for b, c in out.items() if c != 0}


def taylor_shift(P: Polynomial, mu: Sequence[RationalLike]) -> Polynomial:
    """P(z + mu), computed exactly coordinate by coordinate."""
    entries = tuple(map(Fraction, mu))
    if len(entries) != P.dim:
        raise DimensionError(f"shift has {len(entries)} entries, polynomial dim {P.dim}")
    terms = P.terms
    for j, m in enumerate(entries, 1):
        terms = _shift_coord(terms, j, m)
    return Polynomial(P.dim, terms)


def vanishing_order(P: Polynomial, mu: Sequence[RationalLike]) -> tuple[int, Exponent]:
    """min |beta| with (D^beta P)(mu) != 0, with a grlex-smallest witness beta."""
    if P.is_zero():
        raise ZeroPolynomial("vanishing_order requires a nonzero polynomial")
    shifted = taylor_shift(P, mu)
    best = min(shifted.terms, key=grlex_key)
    return sum(best), best
