"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in d variables z_1..z_d is stored as integer numerators `nums`,
a map from exponent multi-indices (tuples of d nonnegative ints) to nonzero
ints, over one denominator `den` > 0 with gcd(den, *nums) = 1: the content
and primitive part of Knuth, TAOCP vol. 2, 4.6.1, so each polynomial has one
stored form.  Every kernel runs on the numerators, not on Fractions, whose
every operation costs a gcd; `_make` reduces each result once, and every sum
is one `poly_sum`.  `terms` gives the Fraction coefficients, read only where
they are printed or turned into floats.  Term order is graded lexicographic;
printing and iteration are deterministic.

Coordinate indices in the public API are 1-based (j = 1..d).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Mapping, Sequence, Union

from .errors import DimensionError, ZeroPolynomial

Exponent = tuple[int, ...]
RationalLike = Union[int, Fraction]


def grlex_key(alpha: Exponent) -> tuple[int, Exponent]:
    return (sum(alpha), alpha)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients, stored
    as integer numerators `nums` over the denominator `den`."""

    __slots__ = ("dim", "nums", "den", "_hash")

    def __new__(cls, dim: int, terms: Mapping[Exponent, RationalLike] | None = None):
        if dim < 0:
            raise DimensionError(f"dimension must be >= 0, got {dim}")
        clean: dict[Exponent, Fraction] = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != dim or min(alpha, default=0) < 0:
                raise DimensionError(f"bad exponent {alpha} for dim {dim}")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[alpha] = c
        den = lcm(*(c.denominator for c in clean.values()))
        nums = {a: c.numerator * (den // c.denominator) for a, c in clean.items()}
        return _make(dim, nums, den)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # For pickle and copy: __new__ takes terms, not the stored form.
        return _make, (self.dim, self.nums, self.den)

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

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """A fresh {exponent: Fraction coefficient} map."""
        den = self.den
        return {a: Fraction(v, den) for a, v in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(sum(a) for a in self.nums)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.dim, self.den, frozenset(self.nums.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if not self.nums:
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
        return poly_sum(self.dim, (self, other))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return _make(self.dim, {a: -v for a, v in self.nums.items()}, self.den)

    def __mul__(self, other: Union["Polynomial", RationalLike]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        out: dict[Exponent, int] = {}
        for a1, c1 in self.nums.items():
            for a2, c2 in other.nums.items():
                alpha = tuple(map(add, a1, a2))
                out[alpha] = out.get(alpha, 0) + c1 * c2
        return _make(self.dim, out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c: RationalLike) -> "Polynomial":
        c = Fraction(c)
        k = c.numerator
        nums = {a: k * v for a, v in self.nums.items()}
        return _make(self.dim, nums, c.denominator * self.den)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        if len(self.nums) == 2:
            # Binomial theorem: (a z^alpha + b z^beta)^n has the n + 1
            # distinct terms C(n, k) a^k b^(n-k) z^(k alpha + (n-k) beta).
            (alpha, a), (beta, b) = self.nums.items()
            apow, bpow = _powers(a, n), _powers(b, n)
            out: dict[Exponent, int] = {}
            c = 1
            for k in range(n + 1):
                e = tuple(k * x + (n - k) * y for x, y in zip(alpha, beta))
                out[e] = c * apow[k] * bpow[n - k]
                c = c * (n - k) // (k + 1)
            return _make(self.dim, out, self.den**n)
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
        out: dict[Exponent, int] = {}
        for alpha, c in self.nums.items():
            a = alpha[j - 1]
            if a:
                # Distinct alpha lower to distinct exponents.
                out[alpha[: j - 1] + (a - 1,) + alpha[j:]] = c * a
        return _make(self.dim, out, self.den)


def _make(dim: int, nums: Mapping[Exponent, int], den: int) -> Polynomial:
    """The polynomial nums / den (den > 0), with zero numerators dropped and
    the common factor of the numerators and den divided out."""
    g = gcd(den, *nums.values())
    nums = {a: v // g for a, v in nums.items() if v}
    P = object.__new__(Polynomial)
    object.__setattr__(P, "dim", dim)
    object.__setattr__(P, "nums", nums)
    object.__setattr__(P, "den", den // g)
    object.__setattr__(P, "_hash", None)
    return P


def _powers(x: int, n: int) -> list[int]:
    """[x^0, x^1, ..., x^n]."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


# -- module operations ----------------------------------------------------


def poly_sum(dim: int, polys: Sequence[Polynomial]) -> Polynomial:
    """The sum of polys, all of dimension dim: their numerators over the lcm
    of their denominators, reduced once."""
    den = lcm(*(P.den for P in polys))
    out: dict[Exponent, int] = {}
    for P in polys:
        s = den // P.den
        for alpha, v in P.nums.items():
            out[alpha] = out.get(alpha, 0) + v * s
    return _make(dim, out, den)


def poly_eval(P: Polynomial, mu: Sequence[RationalLike]) -> Fraction:
    """Exact evaluation of P at a rational point, one coordinate at a time."""
    if len(mu) != P.dim:
        raise DimensionError(f"point has {len(mu)} entries, polynomial dim {P.dim}")
    for m in mu:
        P = substitute_coord(P, 1, m)
    return Fraction(P.nums.get((), 0), P.den)


def substitute_coord(P: Polynomial, j: int, v: RationalLike) -> Polynomial:
    """Fix z_j to the rational v; remaining variables are renumbered."""
    if not 1 <= j <= P.dim:
        raise DimensionError(f"coordinate {j} out of range 1..{P.dim}")
    v = Fraction(v)
    # c v^e = c a^e b^(n-e) / b^n for v = a/b and n the top exponent of z_j,
    # with a^e b^(n-e) made once for each exponent e of z_j in P.
    a, b = v.numerator, v.denominator
    n = max((alpha[j - 1] for alpha in P.nums), default=0)
    scale: dict[int, int] = {}
    out: dict[Exponent, int] = {}
    for alpha, c in P.nums.items():
        e = alpha[j - 1]
        x = scale.get(e)
        if x is None:
            x = scale[e] = a**e * b ** (n - e)
        rest = alpha[: j - 1] + alpha[j:]
        out[rest] = out.get(rest, 0) + c * x
    return _make(P.dim - 1, out, P.den * b**n)


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
    shifted, den = _shift_coord(P.nums, P.den, j, -c)
    r = min(a[j - 1] for a in shifted)
    lowered = {
        a[: j - 1] + (a[j - 1] - r,) + a[j:]: cf for a, cf in shifted.items()
    }
    return r, _make(P.dim, *_shift_coord(lowered, den, j, c))


def principal_part(P: Polynomial) -> Polynomial:
    """Homogeneous component of top degree."""
    if P.is_zero():
        raise ZeroPolynomial("principal_part requires a nonzero polynomial")
    m = P.degree
    return _make(P.dim, {a: c for a, c in P.nums.items() if sum(a) == m}, P.den)


def _shift_coord(
    nums: Mapping[Exponent, int], den: int, j: int, m: Fraction
) -> tuple[Mapping[Exponent, int], int]:
    """P(z + m e_j) for P = nums / den, again as integer numerators over one
    denominator.

    The terms are grouped by their other exponents, and each univariate
    slice is shifted by Horner's synthetic division.  For m = a/b and n the
    top exponent of z_j, scaling coefficient t by b^(n-t) turns p(z) into
    b^n p(y/b); shifting that by the integer a and putting y = b z gives
    b^n p(z + a/b), whose coefficient t is the shifted one times b^t.
    """
    if m == 0:
        return nums, den
    a, b = m.numerator, m.denominator
    i = j - 1
    slices: dict[Exponent, dict[int, int]] = {}
    for alpha, c in nums.items():
        slices.setdefault(alpha[:i] + alpha[i + 1 :], {})[alpha[i]] = c
    n = max((alpha[i] for alpha in nums), default=0)
    bpow = _powers(b, n)
    out: dict[Exponent, int] = {}
    for rest, coeffs in slices.items():
        top = max(coeffs)
        cs = [coeffs.get(t, 0) * bpow[n - t] for t in range(top + 1)]
        for lo in range(top):
            for t in range(top - 1, lo - 1, -1):
                cs[t] += a * cs[t + 1]
        for t, c in enumerate(cs):
            if c:
                out[rest[:i] + (t,) + rest[i:]] = c * bpow[t]
    return out, den * bpow[n]


def taylor_shift(P: Polynomial, mu: Sequence[RationalLike]) -> Polynomial:
    """P(z + mu), computed exactly coordinate by coordinate."""
    entries = tuple(map(Fraction, mu))
    if len(entries) != P.dim:
        raise DimensionError(f"shift has {len(entries)} entries, polynomial dim {P.dim}")
    nums, den = P.nums, P.den
    for j, m in enumerate(entries, 1):
        nums, den = _shift_coord(nums, den, j, m)
    return _make(P.dim, nums, den)


def vanishing_order(P: Polynomial) -> tuple[int, Exponent]:
    """min |beta| with (D^beta P)(0) != 0, with a grlex-smallest witness
    beta; the order at mu is that of taylor_shift(P, mu)."""
    if P.is_zero():
        raise ZeroPolynomial("vanishing_order requires a nonzero polynomial")
    best = min(P.nums, key=grlex_key)
    return sum(best), best
