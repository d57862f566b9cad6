"""Gaussian-polynomial test functions.

A GaussPoly is poly(x) * exp(-sum_j (x_j - center_j)^2 / width^2) with a
rational polynomial, rational center and rational width, so that
differentiation and coordinate multiplication stay exact.  The class is
closed under both and is Schwartz by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp
from typing import Callable, Sequence

from .errors import DimensionError
from .poly import Polynomial, RationalLike, poly_sum


@dataclass(frozen=True)
class GaussPoly:
    poly: Polynomial
    center: tuple[Fraction, ...]
    width: Fraction

    def __post_init__(self):
        if len(self.center) != self.poly.dim:
            raise DimensionError(
                f"center has {len(self.center)} entries, poly dim {self.poly.dim}"
            )
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")

    def __hash__(self) -> int:
        # Computed once, as Polynomial's: the oracle looks its test
        # function up by value on every pairing.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.poly, self.center, self.width))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def dim(self) -> int:
        return self.poly.dim

    @classmethod
    def gaussian(
        cls, dim: int, center: Sequence[RationalLike], width: RationalLike
    ) -> "GaussPoly":
        """Plain Gaussian exp(-|x - center|^2 / width^2)."""
        return cls(
            Polynomial.constant(dim, 1),
            tuple(Fraction(c) for c in center),
            Fraction(width),
        )

    def with_poly(self, poly: Polynomial) -> "GaussPoly":
        return GaussPoly(poly, self.center, self.width)

    def value(self, x: Sequence[float]) -> float:
        if len(x) != self.dim:
            raise DimensionError(f"point has {len(x)} entries, dim {self.dim}")
        w2 = float(self.width) ** 2
        arg = sum((float(xi) - float(ci)) ** 2 for xi, ci in zip(x, self.center))
        p = 0.0
        for alpha, c in self.poly.terms.items():
            v = float(c)
            for xi, a in zip(x, alpha):
                if a:
                    v *= float(xi) ** a
            p += v
        return p * exp(-arg / w2)

    def derivative(self, j: int) -> "GaussPoly":
        """Exact partial derivative in coordinate j (1-based)."""
        if not 1 <= j <= self.dim:
            raise DimensionError(f"coordinate {j} out of range 1..{self.dim}")
        # d/dx_j [p e^g] = (dp/dx_j + p * (-2(x_j - c_j)/w^2)) e^g
        lin = (
            Polynomial.variable(self.dim, j)
            - Polynomial.constant(self.dim, self.center[j - 1])
        ).scale(Fraction(-2) / (self.width**2))
        return self.with_poly(self.poly.partial(j) + self.poly * lin)

    def times_coord(self, j: int) -> "GaussPoly":
        """Multiplication by x_j (1-based)."""
        return self.with_poly(self.poly * Polynomial.variable(self.dim, j))


def apply_transposed(
    P: Polynomial, phi: GaussPoly, step: Callable[[GaussPoly, int], GaussPoly]
) -> GaussPoly:
    """sum_alpha c_alpha (-1)^|alpha| D^alpha phi, exactly, with the
    commuting one-coordinate operators D_j = step(., j).  Each D^alpha phi
    is one step from a stored D^beta phi, beta alpha with its first nonzero
    exponent lowered: P = (t1+1)^12 takes 12 steps."""
    if P.dim != phi.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs test function dim {phi.dim}")
    derived, images = {(0,) * P.dim: phi}, []
    for alpha, c in P.sorted_terms():
        chain, beta = [], alpha
        while beta not in derived:  # down to a stored derivative, then up
            j = next(i for i, b in enumerate(beta) if b)
            chain.append((beta, j + 1))
            beta = beta[:j] + (beta[j] - 1,) + beta[j + 1 :]
        g = derived[beta]
        for gamma, j in reversed(chain):
            g = derived[gamma] = step(g, j)
        images.append(g.poly.scale(-c if sum(alpha) % 2 else c))
    return phi.with_poly(poly_sum(P.dim, images))
