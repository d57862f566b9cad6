"""Independent numerical pairings of atoms against Gaussian-polynomial tests.

Finite-part convention (the one every symbolic correction refers to): for
n <= -1, nu = -n, the right half-line atom pairs as

  <MonLog(n,p,+1), phi> = int_0^1 x^n log^p x [phi(x) - T_{nu-1}phi(x)] dx
                        + int_1^inf x^n log^p x phi(x) dx

with T_{nu-1} the Taylor polynomial of phi at 0 of order nu-1; the split
point is fixed at |x| = 1.  Left half-line atoms pair through the
reflection x -> -x, and a full-line atom MonLog(n,p,0), its right part
plus (-1)^n its left one, as x^n log^p x on x > 0 against phi(x) +
(-1)^n phi(-x): one moment, so the two halves' leading terms, which cancel
for odd n + a, are never formed.  Atoms with n >= 0 pair by absolutely convergent
integrals, and Delta(k) pairs as (-1)^k phi^(k)(0).

Numerically, every 1-D slice pairing reduces to one moment (_moment): the
finite part of int_0^inf x^m log^p x e^{-(x-c)^2/w^2} dx.  The inner
interval [0, 1] is a convergent power series (the Taylor coefficients of the
Gaussian are an explicit two-term recurrence, and int_0^1 x^m log^p x dx =
(-1)^p p! / (m+1)^{p+1}); the outer interval is a fixed Gauss-Legendre rule
on panels [x, x + min(x, w)] up to a Gaussian-decay cutoff, run at two node
counts whose difference is the error estimate.

The series is the correctly rounded sum (fsum) of its float products, read
off a head of them wherever a per-moment certificate shows that the rest
cannot change the float (_series); in an adjoint sweep the head is about 41
of some 320 nonzero terms.  On a narrow slice (w well below c) the products
cancel to far less than their sizes' sum, so the error estimate adds a few
roundings of that sum (_ROUNDING), and pair refuses such a pairing with
QuadratureNoConvergence rather than return the rounding noise.

One builder, _slice, makes each slice e^{-(x-c)^2/w^2} + mirror
e^{-(x+c)^2/w^2}: only c >= 0 with no mirror runs the recurrence, and the
other tables are that one times exact sign patterns.  A slice keeps its
Taylor table, its head and tail, c and w as floats, and one dict of the
moments asked of it, keyed by (m, p).  pair resolves its test function once
(_test): the monomials, and per coordinate the slices of c and -c.  An atom
past the Taylor table raises QuadratureNoConvergence, and a pairing whose
k!, p!, series or sum leaves the float range FloatOverflow, as does a slice
far from 0 (c = 6, w = 1/10), whose Taylor recurrence overflows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp, factorial, fsum, inf, sqrt
from typing import Iterable

import numpy as np

from .atoms import Atom1D, Delta, DistExpr, single
from .errors import DimensionError, FloatOverflow, QuadratureNoConvergence
from .gausspoly import GaussPoly, apply_transposed
from .poly import Polynomial
# perfbench/tracer.py wraps oracle.apply_polynomial by name, so the import stays.
from .theta import apply_polynomial, apply_theta  # noqa: F401

_SERIES_CAP = 800
# Gauss-Legendre nodes and weights on [-1, 1]: the rule and its half.
_RULES = [np.polynomial.legendre.leggauss(n) for n in (32, 16)]
# The caches hold the last few test functions: a sweep of atoms against one
# phi uses 2 slices (c and -c), 2 more mirrored ones for full-line atoms, and
# about 27 moments (m, p) among them; the oracle-suite uses 3 phis, 12 slices.
# A slice's moments go with it.  Kept longer, an entry only makes the cost
# of a later pairing depend on which test functions came before it.
_SLICES = 16
_POWERS = 64
_SIGNS = np.resize([1.0, -1.0], _SERIES_CAP)  # (-1)^k, the sign pattern of _slice
# A slice's head keeps the Taylor terms down to this share of its largest.
_TAIL = 2.0**-80
# The relative slack of the omitted terms' bound: it covers the rounding of
# the tail's suffix sum and of the weights, each well under 2^-40.
_SLACK = 1.0 + 2.0**-40
# The smallest normal float, and the largest rounding error of a product
# that lands below it.
_NORMAL, _TINY = 2.0**-1022, 2.0**-1074
# A few units of 2^-53: the rounding of a series product, relative to it.
_ROUNDING = 4 * 2.0**-53


class _Slice(dict):
    """One 1-D slice e^{-(x-c)^2/w^2} of test functions, plus mirror times
    its reflection e^{-(x+c)^2/w^2} (mirror +-1 for a full-line atom, else
    0): its Taylor table at 0, the table's length without the zeros it ends
    in, the head and tail of the table (_head), c and w also as floats, and
    the moments (_moment) asked of it so far, keyed by (m, p)."""

    def __init__(
        self, c: Fraction, w: Fraction, table: np.ndarray, length: int, mirror: int = 0
    ):
        super().__init__()
        self.c, self.w, self.table, self.length = c, w, table, length
        self.mirror = mirror
        self.cf, self.wf = float(c), float(w)
        self.head, self.tail = _head(table)

    def __missing__(self, key: tuple[int, int]) -> tuple[float, float]:
        value = self[key] = _moment(*key, self)
        return value


def _head(table: np.ndarray) -> tuple[int, float]:
    """The first index h from which sum_{k >= h} |table[k]| <= 2^-80
    max |table|, and that sum, both as the float suffix sums give them:
    their rounding, under 800 units in the last place, is covered by the
    slack of _moment's bound."""
    size = np.abs(table)
    suffix = np.cumsum(size[::-1])
    kept = int(np.searchsorted(suffix, _TAIL * size.max(), side="right"))
    return _SERIES_CAP - kept, float(suffix[kept - 1]) if kept else 0.0


@lru_cache(maxsize=_SLICES)
def _slice(c: Fraction, w: Fraction, mirror: int = 0) -> _Slice:
    """The slice of e^{-(x-c)^2/w^2} + mirror e^{-(x+c)^2/w^2}.  Only c >= 0
    with no mirror runs the recurrence; every other table is the one at |c|
    times exact sign patterns: (-1)^k for c < 0, as the recurrence is odd in
    c, and 1 + mirror (-1)^k, each coefficient doubled or zero."""
    if mirror:
        right = _slice(c, w)
        table = right.table * (1 + mirror * _SIGNS)
    elif c < 0:
        right = _slice(-c, w)
        table = right.table * _SIGNS
    else:
        return _Slice(c, w, *_taylor(c, w))
    table.flags.writeable = False
    return _Slice(c, w, table, right.length, mirror)


def _taylor(c: Fraction, w: Fraction) -> tuple[np.ndarray, int]:
    """First _SERIES_CAP Taylor coefficients at 0 of e^{-(x-c)^2/w^2}, and
    the length of the table without the zeros it ends in: the recurrence
    underflows after a few hundred terms."""
    a, b = float(2 * c / w**2), float(1 / w**2)
    # e^{a x - b x^2}: (k+1) f_{k+1} = a f_k - 2 b f_{k-1}; past two zeros in
    # a row every term is zero.
    f = [1.0, a]
    while len(f) < _SERIES_CAP and (f[-1] or f[-2]):
        k = len(f) - 1
        f.append((a * f[k] - 2.0 * b * f[k - 1]) / (k + 1))
    f = np.array(f)
    # Far from 0 the recurrence overflows where e^{-c^2/w^2} underflows.
    if not np.isfinite(f).all():
        raise FloatOverflow(f"Taylor table of the slice c = {c}, w = {w} overflows")
    table = np.zeros(_SERIES_CAP)
    table[: len(f)] = exp(-float(c * c / w**2)) * f
    table.flags.writeable = False  # the slice hands this array to every caller
    nonzero = np.flatnonzero(table)
    return table, int(nonzero[-1]) + 1 if nonzero.size else 0


def quad(m: int, p: int, c: float, w: float, mirror: int = 0) -> tuple[float, float]:
    """int_1^cutoff x^m log^p x g(x) dx and an error estimate, for g(x) =
    e^{-(x-c)^2/w^2} + mirror e^{-(x+c)^2/w^2}.

    Panel i is [x_i, x_i + min(x_i, w)], so both the pole or log at 0 and
    the Gaussian's width stay resolved; the estimate is the difference
    between the 32- and 16-node rules.
    """
    half, nodes = _panels(c, w, mirror)
    fine, coarse = (
        float(half @ ((x**m * log_x**p * gauss) @ wt))
        for (x, log_x, gauss), (_, wt) in zip(nodes, _RULES)
    )
    return fine, abs(fine - coarse)


@lru_cache(maxsize=_SLICES)
def _panels(
    c: float, w: float, mirror: int = 0
) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """quad's panel half-widths and, per rule, its nodes x, log x and g(x):
    every moment of one slice shares them.  A mirrored g reaches as far as
    its farther Gaussian."""
    cutoff = max(2.0, (abs(c) if mirror else c) + 7.0 * w, 1.0 + 7.0 * w)
    edges = [1.0]
    while edges[-1] < cutoff:
        edges.append(min(cutoff, edges[-1] + min(edges[-1], w)))
    lo = np.array(edges[:-1])
    half = (np.array(edges[1:]) - lo) / 2
    nodes = []
    for t, _ in _RULES:
        x = (lo + half)[:, None] + half[:, None] * t
        gauss = np.exp(-(((x - c) / w) ** 2))
        if mirror:
            gauss = gauss + mirror * np.exp(-(((x + c) / w) ** 2))
        nodes.append((x, np.log(x), gauss))
    for array in (half, *(a for rule in nodes for a in rule)):
        array.flags.writeable = False  # shared by every caller, as in _taylor
    return half, nodes


def _moment(m: int, p: int, sl: _Slice) -> tuple[float, float]:
    """Finite part of int_0^inf x^m log^p x e^{-(x-c)^2/w^2} dx on the slice
    sl of (c, w), and its error estimate.  On [0, 1]: sum_{i >= -m} f_i
    int_0^1 x^(m+i) log^p x dx, whose products are each rounded, so the
    estimate holds _ROUNDING times the sum of their sizes: on a narrow
    slice they cancel to far less.  Uncached: each slice keeps its moments."""
    start = max(0, -m)
    if _SERIES_CAP - start < 10:
        raise QuadratureNoConvergence(
            f"inner series for x^{m} log^{p} keeps fewer than 10 of its {_SERIES_CAP} terms"
        )
    weights = _series_weights(m, p)
    try:
        inner, size = _series(sl, start, weights)
    except (ValueError, OverflowError):  # fsum of inf and -inf, or past the range
        inner = inf
    if not abs(inner) < inf:
        raise FloatOverflow(f"inner series for x^{m} log^{p} leaves the float range")
    inner *= (-1) ** p
    # The series' last 8 terms must have settled; they are zero when the
    # table ends before them.
    if sl.length > _SERIES_CAP - 8:
        last = np.abs(sl.table[-8:] * weights[-8:]).max()
        if not last <= 1e-18 * max(1.0, abs(inner)):
            raise QuadratureNoConvergence(
                f"inner series for x^{m} log^{p} did not settle within {_SERIES_CAP} terms"
            )
    outer, err = quad(m, p, sl.cf, sl.wf, sl.mirror)
    return inner + outer, err + 1e-15 * (abs(inner) + abs(outer)) + _ROUNDING * size


def _series(sl: _Slice, start: int, weights: np.ndarray) -> tuple[float, float]:
    """fsum of the products table[i] * weights[i - start], i >= start: the
    correctly rounded sum of every one, read off the head i < sl.head alone
    when that is certain to give the same float; and the sum of the products'
    sizes, the head's plus B when the head is summed alone.

    The products left out add up to at most B = tail * (the weight at head)
    * _SLACK + 2^-1074 per product, for one that rounds to a subnormal: the
    weights decrease along the series.  The whole sum lies between the head
    minus B and the head plus B, so if both round to the same float, so does
    the whole sum; otherwise every product is summed."""
    table, length, head = sl.table, sl.length, sl.head
    # A weight below the normal range can exceed a later one by a unit in its
    # last place, which the slack does not cover.
    if start < head < length and weights[head - start] >= _NORMAL:
        bound = sl.tail * weights[head - start] * _SLACK + (length - head) * _TINY
        terms = (table[start:head] * weights[: head - start]).tolist()
        terms.append(-bound)
        low = fsum(terms)
        terms[-1] = bound
        if fsum(terms) == low:
            return low, sum(map(abs, terms))
    # Past the table's length every term is zero; fsum reads a list faster
    # than an array.
    end = max(start, length)
    terms = (table[start:end] * weights[: end - start]).tolist()
    return fsum(terms), sum(map(abs, terms))


@lru_cache(maxsize=_POWERS)
def _series_weights(m: int, p: int) -> np.ndarray:
    """|int_0^1 x^(m+i) log^p x dx| for the indices i >= -m of _moment's
    series, from i = max(0, -m); they decrease along the series."""
    i = np.arange(max(0, -m), _SERIES_CAP)
    # The integral is p!/k^(p+1), k = m+i+1, taken as the square of
    # sqrt(p!)/k^((p+1)/2): k^(p+1) leaves the float range long before the
    # quotient does; for p <= 170 the square root's two factors stay inside.
    try:
        root = sqrt(factorial(p))
    except OverflowError:
        raise FloatOverflow(f"log power {p}: {p}! leaves the float range") from None
    half = np.power(m + i + 1.0, -(p + 1) / 2) * root
    weights = half * half
    weights.flags.writeable = False
    return weights


def _pair1d(atom: Atom1D, a: int, right: _Slice, left: _Slice) -> tuple[float, float]:
    """Pair one atom against x^a e^{-(x-c)^2/w^2}, given the slices of c
    (right) and -c (left); returns (value, error)."""
    if isinstance(atom, Delta):
        # (-1)^k d^k/dx^k [x^a g](0) = (-1)^k k! f_{k-a}
        if atom.k < a:
            return 0.0, 0.0
        if atom.k - a >= _SERIES_CAP:
            raise QuadratureNoConvergence(
                f"{atom} reads past the {_SERIES_CAP} Taylor coefficients of a slice"
            )
        try:
            v = (-1) ** atom.k * factorial(atom.k) * float(right.table[atom.k - a])
        except OverflowError:
            raise FloatOverflow(f"{atom}: {atom.k}! leaves the float range") from None
        return v, 1e-15 * abs(v)
    if atom.s == 1:
        return right[atom.n + a, atom.p]
    # Through the reflection x -> -x: x^a g(-x) = (-1)^a x^a e^{-(x+c)^2/w^2}.
    if atom.s == -1:
        v, err = left[atom.n + a, atom.p]
        return (-v if a % 2 else v), err
    # The full line: x^n log^p x x^a (g(x) + (-1)^(n+a) g(-x)) on x > 0.
    mirror = -1 if (atom.n + a) % 2 else 1
    return _slice(right.c, right.w, mirror)[atom.n + a, atom.p]


@lru_cache(maxsize=_SLICES)
def _test(
    phi: GaussPoly,
) -> tuple[list[tuple[tuple[int, ...], Fraction, float]], list[tuple[_Slice, _Slice]]]:
    """phi resolved for pair: its monomials in grlex order, each coefficient
    also as a float, and the (right, left) slices of each coordinate."""
    monomials = [(alpha, pc, float(pc)) for alpha, pc in phi.poly.sorted_terms()]
    slices = [(_slice(c, phi.width), _slice(-c, phi.width)) for c in phi.center]
    return monomials, slices


def pair(e: DistExpr, phi: GaussPoly, tol: float = 1e-9) -> float:
    """Numerical estimate of <e, phi> under the fixed finite-part convention.

    Tensor terms pair coordinate-by-coordinate against the 1-D slices of
    each monomial of phi; the accumulated absolute error target is tol.
    """
    if e.dim != phi.dim:
        raise DimensionError(f"expression dim {e.dim} vs test function dim {phi.dim}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    total = 0.0
    total_err = 0.0
    monomials, slices = _test(phi)
    for f, coeff in e.terms:
        one = coeff == 1
        for alpha, pc, pc_float in monomials:
            # 1 * pc is pc, so its float is the one stored.
            val = pc_float if one else float(coeff * pc)
            err = 0.0
            for atom, a, (right, left) in zip(f, alpha, slices):
                v, er = _pair1d(atom, a, right, left)
                err = err * abs(v) + abs(val) * er
                val *= v
            total += val
            total_err += err
    # Past the float range the error gate cannot fire: tol * inf is inf.
    if not abs(total) < inf:
        raise FloatOverflow(f"a pairing left the float range: {total}")
    if total_err > max(tol, tol * abs(total)):
        raise QuadratureNoConvergence(
            f"accumulated pairing error estimate {total_err} above tolerance {tol}"
        )
    return total


@lru_cache(maxsize=_SLICES)
def derivative_of_x_phi(phi: GaussPoly, j: int = 1) -> GaussPoly:
    """The exact symbolic result of d/dx_j (x_j * phi); cached, so a sweep of
    atoms against one phi builds it once."""
    return phi.times_coord(j).derivative(j)


def adjoint_check(a: Atom1D, phi: GaussPoly) -> float:
    """|<theta a, phi> + <a, (x phi)'>| / max(1, |lhs|, |rhs|) for a 1-D atom;
    certifies one rule.  The pairings grow like p! and k!, so the residual is
    relative to them: their float rounding must not read as a wrong entry."""
    if phi.dim != 1:
        raise DimensionError("adjoint_check works on 1-D atoms and test functions")
    lhs = 0.0
    for c, b in apply_theta(a):
        lhs += float(c) * pair(single((b,)), phi)
    rhs = pair(single((a,)), derivative_of_x_phi(phi))
    return abs(lhs + rhs) / max(1.0, abs(lhs), abs(rhs))


def compare_symbolic_numeric(
    P: Polynomial,
    U: DistExpr,
    T: DistExpr,
    suite: Iterable[GaussPoly],
    tol: float = 1e-6,
) -> float:
    """max over the suite of |<U, P(theta)^t phi> - <T, phi>|.

    The test function side is exact (P(theta)^t phi is again a GaussPoly,
    with theta_j^t phi = -d/dx_j (x_j phi)), so the check never touches the
    symbolic theta-table: it catches an error in the table, in the solver and
    in the finite-part convention alike.
    """
    worst = 0.0
    for phi in suite:
        lhs = pair(U, apply_transposed(P, phi, derivative_of_x_phi), tol)
        worst = max(worst, abs(lhs - pair(T, phi, tol)))
    return worst
