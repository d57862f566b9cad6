"""Constructive solver for P(theta) U = T on the structured class.

T is canonicalised once; the canonical terms are dispatched in groups:

  * terms sharing their first delta factor Delta(k) at coordinate j reduce
    by substitution z_j := -(k+1), and when the substituted polynomial
    vanishes identically, by extracting the maximal linear factor
    (z_j + k + 1)^r and inverting (theta_j + k + 1) r times on the finite
    resonant subspace;
  * the delta-free terms are solved in one call, in the quotient calculus
    modulo delta-supported distributions.  Terms sharing one class
    (eigenvalue mu, log powers p) -- terms that differ only in the signs of
    their half-line or full-line atoms, say -- share one solution vector:
    dividing z^p by the grlex-smallest term z^gamma of P(z + mu), whose
    order v is the vanishing order of P at mu.  On a class's MonLogs P(theta) acts as P(mu + d), so the image of
    its solution is its own terms plus the deltas that a finite-part
    coordinate (n_j <= -1) reaches.  Only the classes with such a
    coordinate are applied forward; the delta-bearing part of that image,
    negated, is the residual, which is fed back through the solver.  Every
    other class leaves none.

The recursion needs no cap: every nested solve lowers the dimension
(substitution), the degree (factor extraction), or solves a delta-supported
residual, which only ever takes the first two routes.  The top-level solve
verifies its output by forward application before returning; the nested
solves of the recursion do not verify their parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import perm, prod
from operator import add, sub
from typing import Sequence

from .atoms import (
    Delta,
    DistExpr,
    MonLog,
    Term,
    delta_coord,
    dist,
)
from .errors import (
    DimensionError,
    InputTooLarge,
    UnsupportedInput,
    ZeroPolynomial,
)
from .limits import MAX_BITS, MAX_HELD_TERMS
from .poly import (
    Polynomial,
    factor_out,
    substitute_coord,
    taylor_shift,
    vanishing_order,
)
from .theta import apply_polynomial, theta_row

TraceEvent = tuple


@dataclass(frozen=True)
class SolveReport:
    solution: DistExpr
    verified: bool
    escalation_depth: int
    recursion_trace: tuple[TraceEvent, ...]


def verify(P: Polynomial, U: DistExpr, T: DistExpr) -> bool:
    """Exact check that P(theta) U = T, for a canonical T.  The image is
    canonical too, and the canonical form is unique, so == is the test."""
    if P.dim != T.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {T.dim}")
    return apply_polynomial(P, U) == T


# -- quotient calculus (log-polynomial) solve ----------------------------


def _solve_log_system(
    S: Polynomial,
    p_exp: tuple[int, ...],
    gamma: tuple[int, ...],
    scales: Sequence[Fraction] = (),
) -> dict[tuple[int, ...], Fraction]:
    """Solve S(d) u = z^p by division by the grlex-smallest term z^gamma of S.

    S is the Taylor shift P(z + mu), so gamma is the witness of
    vanishing_order(S), the order of P at mu.  The image of z^(r + gamma)
    under S(d) has grlex-leading term S[gamma] prod_j (r_j + gamma_j)!/r_j!
    z^r: a term of higher order lowers the degree, and one of order |gamma|
    is lex-larger than gamma, so it lowers the monomial in lex order.  Taking
    off the leading term of the remainder z^p one monomial at a time
    therefore ends, and gives the unique solution supported on the multiples
    of z^gamma.
    That is the solution of the box {q : |q| <= |p| + |gamma|} with all free
    coefficients zero when its columns are eliminated in grlex order, since
    the multiples of z^gamma are exactly that elimination's pivot columns:
    lower-degree columns span every lower-degree row, and as d_j is adjoint
    to multiplication by z_j under the Fischer pairing, the independent
    columns of one degree are the lex-initial monomials gamma + N^d of the
    multiples of S's lowest-order part.

    Given scales, the coefficients that u is multiplied by into solution
    terms, a u[q] that takes every such product over MAX_BITS is refused as
    soon as it is made, before the divisions after it, which cost more as
    it grows.  The height H(x) = max(|num|, den) of a reduced fraction obeys
    H(xy) >= H(x)/H(y), so a u[q] of more than MAX_BITS + 1 bits plus the
    bits of the largest scale does; the message names u[q] times the first
    scale.
    """
    rest = dict(S.nums)  # S = nums / den: solve nums(d) u = den z^p
    lead = rest.pop(gamma)

    def pops_first(m: tuple[int, ...]) -> tuple:
        """Heap entry of m: grlex-larger monomials pop first."""
        return (-sum(m), tuple(-x for x in m), m)

    rem = {p_exp: Fraction(S.den)}
    # Each new monomial is grlex-below the one being divided, so none is
    # pushed twice.
    heap = [pops_first(p_exp)]
    u: dict[tuple[int, ...], Fraction] = {}
    most = MAX_BITS + 1 + max(map(_bits, scales)) if scales else None
    while heap:
        r = heappop(heap)[2]
        a = rem.pop(r)
        if not a:
            continue
        q = tuple(map(add, r, gamma))
        c = u[q] = a / (lead * prod(map(perm, q, gamma)))
        if most is not None and _bits(c) > most:
            _check_bits([((), c * scales[0])])  # over MAX_BITS, so it raises
        for beta, s in rest.items():
            # d^beta z^q = prod_j perm(q_j, beta_j) z^(q - beta); perm is 0
            # where beta_j > q_j.
            f = prod(map(perm, q, beta))
            if f:
                m = tuple(map(sub, q, beta))
                if m not in rem:
                    rem[m] = Fraction(0)
                    heappush(heap, pops_first(m))
                rem[m] -= c * s * f
    return u


def solve_continuous_term(
    P: Polynomial, ts: Sequence[Term], final: bool = True
) -> tuple[DistExpr, DistExpr, int]:
    """Solve P(theta) U = sum(ts) modulo delta-supported terms.

    The terms must be delta-free; they are grouped by their class (eigenvalue
    mu, log powers p), and the terms of one class may differ in the signs
    s = +1, -1, 0 of their atoms and in coefficients: theta acts on the log
    ladder of a full-line atom as on that of a half-line one.  Dividing z^p
    by the grlex-smallest term z^gamma of S = P(z + mu), of order
    v = |gamma| (the vanishing order of P at mu), gives one vector u with
    S(d) u = z^p that solves every term of the class.
    Returns (U_partial, residual, largest v over the classes), with residual
    sum(ts) - P(theta) U_partial, which is delta-supported.

    On the MonLogs of one class P(theta) acts as S(d), so the delta-free
    part of the image of a class's solution is the class's own terms.  A
    class with every n_j >= 0 reaches no delta (theta_row), and its residual
    is zero.  Only the classes with a finite-part coordinate (some n_j <= -1)
    are applied forward, in one call; their residual is the negated
    delta-bearing part of that image.  With final, U_partial's coefficients
    are solution coefficients, held to MAX_BITS as each class makes them,
    before the forward application, which costs far more; a coefficient of
    u that is sure to pass the bound is refused as the division makes it.
    """
    classes: dict[tuple[tuple[int, int], ...], list[Term]] = {}
    for f, c in ts:
        if delta_coord(f):
            raise UnsupportedInput("solve_continuous_term requires delta-free terms")
        classes.setdefault(tuple((a.n, a.p) for a in f), []).append((f, c))
    if not classes:
        raise UnsupportedInput("solve_continuous_term needs at least one term")
    terms: list[Term] = []
    finite_part: list[Term] = []
    v_max = 0
    for key, cts in classes.items():
        S = taylor_shift(P, [n for n, _ in key])
        v, gamma = vanishing_order(S)
        v_max = max(v_max, v)
        scales = [c for _, c in cts] if final else ()
        u = _solve_log_system(S, tuple(p for _, p in key), gamma, scales)
        made = [
            (tuple(MonLog(a.n, qj, a.s) for a, qj in zip(f, q)), c * tc)
            for f, tc in cts
            for q, c in u.items()
        ]
        if final:
            _check_bits(made)
        terms += made
        _check_held(len(terms))
        if any(n <= -1 for n, _ in key):
            finite_part += made
    residual = DistExpr.zero(P.dim)
    if finite_part:
        image = apply_polynomial(P, dist(P.dim, finite_part))
        residual = DistExpr(
            P.dim, tuple((f, -c) for f, c in image.terms if delta_coord(f))
        )
    return dist(P.dim, terms), residual, v_max


# -- resonant one-dimensional inversion ----------------------------------


def resonant_1d(j: int, k: int, V: DistExpr) -> DistExpr:
    """Return W with (theta_j + k + 1) W = V exactly.

    Every term of V must carry, in coordinate j, an atom from
    span{Delta(i), i <= k} + span{MonLog(-(k+1), q, s)}.  The Delta(k)
    component is inverted through the finite part MonLog(-(k+1), 0, +1),
    whose theta-corrections (read from the theta-table) are compensated on
    the lower deltas.  Each term of V is inverted on its own; dist merges the
    results.
    """
    if not 1 <= j <= V.dim:
        raise DimensionError(f"coordinate {j} out of range 1..{V.dim}")
    m0 = MonLog(-(k + 1), 0, 1)
    # (theta_j + k + 1) m0 = sum_{i <= k} e_i Delta(i)/i!, e_i = +-1: the
    # theta-row of m0 in the basis Delta(i)/i!.
    e = {b.k: x for x, b in theta_row(m0) if isinstance(b, Delta)}
    # Delta(k) = (theta_j + k + 1) W, W = a0 m0 + sum_{i < k} b_i Delta(i),
    # needs a0 = k!/e_k and b_i = -a0 e_i/(i! (k - i)) = -e_i r_i/(e_k (k - i))
    # with r_i = k!/i!, built downwards from r_k = 1 in integers.
    r = [1] * (k + 1)
    for i in range(k - 1, -1, -1):
        r[i] = r[i + 1] * (i + 1)
    a0 = Fraction(r[0], e[k])
    lower = [(Delta(i), Fraction(-e[i] * r[i], e[k] * (k - i))) for i in range(k)]
    out_terms: list[Term] = []
    for f, c in V.terms:
        _check_held(len(out_terms))
        a = f[j - 1]
        if isinstance(a, MonLog) and a.n == -(k + 1):
            # Log lift: (theta_j + k + 1) M(q+1, s) = (q+1) M(q, s), q+1 >= 1.
            w = [(MonLog(a.n, a.p + 1, a.s), c / (a.p + 1))]
        elif isinstance(a, Delta) and a.k == k:
            # Delta(k) is reached only through the corrections of M(0, +1),
            # which the lower deltas compensate.
            w = [(m0, c * a0)] + [(b, c * x) for b, x in lower]
        elif isinstance(a, Delta) and a.k < k:
            # Lower deltas: eigen-division.
            w = [(a, c / (k - a.k))]
        else:
            raise UnsupportedInput(
                f"factor {a} in coordinate {j} is outside the resonant subspace"
            )
        out_terms += [(f[: j - 1] + (b,) + f[j:], x) for b, x in w]
    return dist(V.dim, out_terms)


# -- top-level solve ------------------------------------------------------


def _check_held(count: int) -> None:
    """Refuse to hold more than MAX_HELD_TERMS terms of a solution."""
    if count > MAX_HELD_TERMS:
        raise InputTooLarge(f"a solution reaches over {MAX_HELD_TERMS} terms")


def _bits(c: Fraction) -> int:
    """The bits of the larger of c's numerator and denominator."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _check_bits(terms: Sequence[Term]) -> None:
    """Refuse a solution coefficient of more than MAX_BITS bits, which could
    not be printed.  Each solution part is checked once, where the solver
    makes it (a continuous class, a division by a constant P or the last
    resonant inversion of a delta group), before any more work is done on
    it; what a resonant inversion rescales is not checked.  The message
    names the coefficient of the canonically first term over the bound,
    whatever order the terms are made in."""
    over = min(
        ((f, bits) for f, c in terms if (bits := _bits(c)) > MAX_BITS), default=None
    )
    if over:
        raise InputTooLarge(
            f"a solution coefficient of {over[1]} bits is above {MAX_BITS}"
        )


def _solve(
    P: Polynomial,
    T: DistExpr,
    trace: list[TraceEvent],
    esc: list[int],
    final: bool = True,
) -> DistExpr:
    """Solve P(theta) U = T for a canonical T; the result is canonical.
    With final, the coefficients it makes are solution coefficients, held
    to MAX_BITS; under a resonant inversion they are not."""
    if P.degree == 0:
        U = T.scaled(Fraction(P.den, P.nums[(0,) * P.dim]))
        if final:
            _check_bits(U.terms)
        return U
    groups: dict[tuple[int, int], list[Term]] = {}
    continuous: list[Term] = []
    for t in T.terms:
        f = t[0]
        j = delta_coord(f)
        if j:
            groups.setdefault((j, f[j - 1].k), []).append(t)
        else:
            continuous.append(t)
    solved: list[DistExpr] = []
    residual = DistExpr.zero(T.dim)
    if continuous:
        up, residual, v = solve_continuous_term(P, continuous, final)
        esc[0] = max(esc[0], v)
        solved.append(up)
    for (j, k), ts in sorted(groups.items()):
        # The terms of one (j, k) are whole skeletons of a canonical T
        # (atoms.dist), so they are canonical on their own.
        G = DistExpr(T.dim, tuple(ts))
        solved.append(_solve_delta_group(P, j, k, G, trace, esc, final))
        _check_held(sum(len(U.terms) for U in solved))
    if not residual.is_zero():
        solved.append(_solve(P, residual, trace, esc, final))
        _check_held(sum(len(U.terms) for U in solved))
    if len(solved) == 1:  # each part is canonical; only a sum is merged
        return solved[0]
    return dist(T.dim, [t for U in solved for t in U.terms])


def _solve_delta_group(
    P: Polynomial,
    j: int,
    k: int,
    G: DistExpr,
    trace: list[TraceEvent],
    esc: list[int],
    final: bool,
) -> DistExpr:
    """Solve P(theta) U = G where every term of a canonical G carries
    Delta(k) at j.  Stripping or reinserting that shared factor keeps the
    canonical order and the skeletons, so neither step re-canonicalises.
    Where P vanishes there, the solution of the factored problem is rescaled
    by the resonant inversions, so only their result is checked (with
    final)."""
    P1 = substitute_coord(P, j, -(k + 1))
    if not P1.is_zero():
        trace.append(("substitute", j, -(k + 1)))
        rest = tuple((f[: j - 1] + f[j:], c) for f, c in G.terms)
        sub = _solve(P1, DistExpr(G.dim - 1, rest), trace, esc, final)
        dk = (Delta(k),)
        terms = tuple((f[: j - 1] + dk + f[j - 1 :], c) for f, c in sub.terms)
        return DistExpr(G.dim, terms)
    r, Q = factor_out(P, j, k + 1)
    trace.append(("factor_out", j, k + 1, r))
    W = _solve(Q, G, trace, esc, final=False)
    for _ in range(r):
        trace.append(("resonant_1d", j, k))
        had_log = any(isinstance(f[j - 1], MonLog) for f, _ in W.terms)
        W = resonant_1d(j, k, W)
        if had_log:
            esc[0] = max(esc[0], 1)
    if final:
        _check_bits(W.terms)
    return W


def solve(P: Polynomial, T: DistExpr) -> SolveReport:
    """Solve P(theta) U = T exactly and verify the result.

    Returns a particular solution; homogeneous components are always zero
    (minimal-escalation policy), so repeated runs are identical.
    """
    if not isinstance(T, DistExpr):
        raise UnsupportedInput(f"right-hand side must be a DistExpr, got {type(T)!r}")
    trace: list[TraceEvent] = []
    esc = [0]
    T = dist(T.dim, T.terms)
    if P.is_zero():
        raise ZeroPolynomial("the Euler operator must be non-trivial")
    if P.dim != T.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {T.dim}")
    U = _solve(P, T, trace, esc)
    return SolveReport(
        solution=U,
        verified=verify(P, U, T),
        escalation_depth=esc[0],
        recursion_trace=tuple(trace),
    )
