"""Constructive solver for P(theta) U = T on the structured class.

T is canonicalised once; the canonical terms are dispatched in groups:

  * terms sharing their first delta factor Delta(k) at coordinate j reduce
    by substitution z_j := -(k+1), and when the substituted polynomial
    vanishes identically, by extracting the maximal linear factor
    (z_j + k + 1)^r and inverting (theta_j + k + 1) r times on the finite
    resonant subspace;
  * delta-free terms sharing one class (eigenvalue mu, log powers p) -- a
    full-line factor's half-line terms, say -- are solved together in the
    quotient calculus modulo delta-supported distributions: dividing z^p
    by the grlex-smallest term z^gamma of P(z + mu), whose order v is the
    vanishing order of P at mu, gives the solution vector for the whole
    class, and the exact delta-supported residual of the class is fed back
    through the solver.

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
    Atom1D,
    Delta,
    DistExpr,
    MonLog,
    Term,
    delta_coord,
    dist,
    eigenvalue,
)
from .errors import (
    DimensionError,
    EscalationExceeded,
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
from .theta import apply_polynomial, equal, theta_row

TraceEvent = tuple


@dataclass(frozen=True)
class SolveReport:
    solution: DistExpr
    verified: bool
    escalation_depth: int
    recursion_trace: tuple[TraceEvent, ...]


def verify(P: Polynomial, U: DistExpr, T: DistExpr) -> bool:
    """Exact check that P(theta) U = T."""
    return equal(apply_polynomial(P, U), T)


# -- quotient calculus (log-polynomial) solve ----------------------------


def _solve_log_system(
    S: Polynomial, p_exp: tuple[int, ...], gamma: tuple[int, ...]
) -> dict[tuple[int, ...], Fraction]:
    """Solve S(d) u = z^p by division by the grlex-smallest term z^gamma of S.

    S is the Taylor shift P(z + mu), so gamma is the witness of
    vanishing_order(P, mu).  The image of z^(r + gamma) under S(d) has
    grlex-leading term S[gamma] prod_j (r_j + gamma_j)!/r_j! z^r: a term of
    higher order lowers the degree, and one of order |gamma| is lex-larger
    than gamma, so it lowers the monomial in lex order.  Taking off the
    leading term of the remainder z^p one monomial at a time therefore ends,
    and gives the unique solution supported on the multiples of z^gamma.
    That is the solution of the box {q : |q| <= |p| + |gamma|} with all free
    coefficients zero when its columns are eliminated in grlex order, since
    the multiples of z^gamma are exactly that elimination's pivot columns:
    lower-degree columns span every lower-degree row, and as d_j is adjoint
    to multiplication by z_j under the Fischer pairing, the independent
    columns of one degree are the lex-initial monomials gamma + N^d of the
    multiples of S's lowest-order part.
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
    while heap:
        r = heappop(heap)[2]
        a = rem.pop(r)
        if not a:
            continue
        q = tuple(map(add, r, gamma))
        c = u[q] = a / (lead * prod(map(perm, q, gamma)))
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


def _log_class(factors: tuple[Atom1D, ...]) -> tuple[tuple[int, int], ...]:
    """(eigenvalue, log power) per coordinate of a delta-free term."""
    return tuple((f.n, f.p) for f in factors)


def solve_continuous_term(
    P: Polynomial, ts: Sequence[Term], final: bool = True
) -> tuple[DistExpr, DistExpr, int]:
    """Solve P(theta) U = sum(ts) modulo delta-supported terms.

    The terms must be delta-free and share one (eigenvalue, log powers)
    class; they may differ in half-line signs and coefficients.  Dividing
    z^p by the grlex-smallest term z^gamma of S = P(z + mu), mu the class
    eigenvalue and v = |gamma| = vanishing_order(P, mu), gives one vector u
    with S(d) u = z^p that solves every term of the class.  Returns
    (U_partial, residual, v);
    the residual sum(ts) - P(theta) U_partial is computed in the full
    calculus and is always delta-supported.  With final, U_partial's
    coefficients are solution coefficients, held to MAX_BITS before the
    residual is walked, which costs far more.
    """
    if not ts:
        raise UnsupportedInput("solve_continuous_term needs at least one term")
    for f, _ in ts:
        if delta_coord(f):
            raise UnsupportedInput("solve_continuous_term requires delta-free terms")
    key = _log_class(ts[0][0])
    if any(_log_class(f) != key for f, _ in ts):
        raise UnsupportedInput(
            "solve_continuous_term requires one (eigenvalue, log powers) class"
        )
    d = len(key)
    S = taylor_shift(P, eigenvalue(ts[0][0]))
    v, gamma = vanishing_order(S, (0,) * d)
    u = _solve_log_system(S, tuple(p for _, p in key), gamma)
    terms = [
        (tuple(MonLog(a.n, qj, a.s) for a, qj in zip(f, q)), c * tc)
        for f, tc in ts
        for q, c in u.items()
    ]
    U_partial = dist(d, terms)
    if final:
        _check_bits(U_partial.terms)
    image = apply_polynomial(P, U_partial)
    residual = dist(d, [*ts, *((f, -c) for f, c in image.terms)])
    for f, _ in residual.terms:
        if not delta_coord(f):
            raise EscalationExceeded(
                "continuous residual contains a delta-free term (internal error)"
            )
    return U_partial, residual, v


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
        _check_held(out_terms)
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


def _check_held(terms: list[Term]) -> None:
    """Refuse to hold more than MAX_HELD_TERMS terms of a solution."""
    if len(terms) > MAX_HELD_TERMS:
        raise InputTooLarge(f"a solution reaches over {MAX_HELD_TERMS} terms")


def _check_bits(terms: Sequence[Term]) -> None:
    """Refuse a solution coefficient of more than MAX_BITS bits, which could
    not be printed.  Each solution part is checked once, where the solver
    makes it (a continuous class, a division by a constant P or the last
    resonant inversion of a delta group), before any more work is done on
    it; what a resonant inversion rescales is not checked."""
    for _, c in terms:
        n, d = c.as_integer_ratio()
        if n.bit_length() > MAX_BITS or d.bit_length() > MAX_BITS:
            bits = max(n.bit_length(), d.bit_length())
            raise InputTooLarge(
                f"a solution coefficient of {bits} bits is above {MAX_BITS}"
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
    if P.is_zero():
        raise ZeroPolynomial("the Euler operator must be non-trivial")
    if P.dim != T.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {T.dim}")
    if T.is_zero():
        return DistExpr.zero(T.dim)
    if P.degree == 0:
        U = T.scaled(Fraction(P.den, P.nums[(0,) * P.dim]))
        if final:
            _check_bits(U.terms)
        return U
    parts: list[Term] = []
    groups: dict[tuple[int, int], list[Term]] = {}
    classes: dict[tuple[tuple[int, int], ...], list[Term]] = {}
    residuals: list[Term] = []
    for t in T.terms:
        f = t[0]
        j = delta_coord(f)
        if j:
            groups.setdefault((j, f[j - 1].k), []).append(t)
        else:
            classes.setdefault(_log_class(f), []).append(t)
    for ts in classes.values():
        up, residual, v = solve_continuous_term(P, ts, final)
        esc[0] = max(esc[0], v)
        parts.extend(up.terms)
        _check_held(parts)
        residuals.extend(residual.terms)
    for (j, k), ts in sorted(groups.items()):
        # A subsequence of a canonical T is canonical.
        G = DistExpr(T.dim, tuple(ts))
        sub = _solve_delta_group(P, j, k, G, trace, esc, final)
        parts.extend(sub.terms)
        _check_held(parts)
    if residuals:
        parts.extend(_solve(P, dist(T.dim, residuals), trace, esc, final).terms)
        _check_held(parts)
    return dist(T.dim, parts)


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
    canonical order, so neither step re-canonicalises.  Where P vanishes
    there, the solution of the factored problem is rescaled by the resonant
    inversions, so only their result is checked (with final)."""
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
    U = _solve(P, T, trace, esc)
    return SolveReport(
        solution=U,
        verified=verify(P, U, T),
        escalation_depth=esc[0],
        recursion_trace=tuple(trace),
    )
