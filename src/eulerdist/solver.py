"""Constructive solver for P(theta) U = T on the structured class.

T is canonicalised once; the canonical terms are dispatched in groups:

  * terms sharing their first delta factor Delta(k) at coordinate j reduce
    by substitution z_j := -(k+1), and when the substituted polynomial
    vanishes identically, by extracting the maximal linear factor
    (z_j + k + 1)^r and inverting (theta_j + k + 1) r times on the finite
    resonant subspace;
  * delta-free terms sharing one class (eigenvalue mu, log powers p) -- a
    full-line factor's half-line terms, say -- are solved together in the
    quotient calculus modulo delta-supported distributions: one exact
    elimination on the log-polynomial box of total degree |p| + v, v the
    vanishing order of P at mu, gives the solution vector for the whole
    class, and the exact delta-supported residual of the class is fed back
    through the solver.

The recursion needs no cap: every nested solve lowers the dimension
(substitution), the degree (factor extraction), or solves a delta-supported
residual, which only ever takes the first two routes.  Every solve verifies
its output by forward application before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import perm
from typing import Sequence

from .atoms import (
    Atom1D,
    Delta,
    DistExpr,
    MonLog,
    TensorTerm,
    dist,
    eigenvalue,
)
from .errors import (
    DimensionError,
    EscalationExceeded,
    UnsupportedInput,
    ZeroPolynomial,
)
from .poly import (
    Polynomial,
    factor_out,
    grlex_key,
    substitute_coord,
    taylor_shift,
    vanishing_order,
)
from .theta import apply_polynomial, apply_theta, equal

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


def _solve_log_system(S: Polynomial, p_exp: tuple[int, ...], v: int) -> Polynomial:
    """Solve S(d) u = z^p on the box {q : |q| <= |p| + v}.

    S is the Taylor shift P(z + mu) and v = vanishing_order(P, mu), so every
    term of S has order >= v and its lowest-order part is a nonzero
    homogeneous operator of order exactly v, mapping each homogeneous degree
    g + v onto degree g.  A solution therefore exists on this box, while on
    any box of total degree below |p| + v the image never reaches z^p.  (A
    per-coordinate box q_j <= p_j + v does not have this property.)  Column
    images are closed-form falling factorials,
    d^beta z^q = prod_j q_j!/(q_j - beta_j)! z^(q - beta).  Returns the
    particular solution with all free coefficients zero.
    """
    d = S.dim
    total = sum(p_exp) + v
    cols = sorted(
        (q for q in product(range(total + 1), repeat=d) if sum(q) <= total),
        key=grlex_key,
    )
    col_index = {q: i for i, q in enumerate(cols)}
    n = len(cols)
    # Sparse rows indexed by target monomial: row[c] = coeff of column c.
    rows: list[dict[int, Fraction]] = [dict() for _ in range(n)]
    rhs = [Fraction(0)] * n
    rhs[col_index[p_exp]] = Fraction(1)
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for ci, q in enumerate(cols):
        for beta, c in S.terms.items():
            if any(b > qj for b, qj in zip(beta, q)):
                continue
            for qj, b in zip(q, beta):
                c *= perm(qj, b)
            ri = col_index[tuple(qj - b for qj, b in zip(q, beta))]
            rows[ri][ci] = c
            col_rows[ci].add(ri)
    # Gauss-Jordan with fixed column order; the pivot column set (and hence
    # the zero-free-variable solution) does not depend on pivot row choice,
    # but the smallest active row id is taken for determinism anyway.
    pivot_of_col: dict[int, int] = {}
    pivot_rows: set[int] = set()
    for c in range(n):
        live = sorted(
            ri for ri in col_rows[c] if ri not in pivot_rows and rows[ri].get(c)
        )
        if not live:
            continue
        pr = live[0]
        prow = rows[pr]
        inv = Fraction(1) / prow[c]
        for cc in list(prow):
            prow[cc] *= inv
        rhs[pr] *= inv
        for ri in list(col_rows[c]):
            if ri == pr:
                continue
            f = rows[ri].get(c)
            if not f:
                col_rows[c].discard(ri)
                continue
            row = rows[ri]
            for cc, val in prow.items():
                nv = row.get(cc, Fraction(0)) - f * val
                if nv:
                    row[cc] = nv
                    col_rows[cc].add(ri)
                else:
                    row.pop(cc, None)
            rhs[ri] -= f * rhs[pr]
        pivot_of_col[c] = pr
        pivot_rows.add(pr)
    # Non-pivot columns never gain fill-in after being passed over, so
    # non-pivot rows are entirely zero here; consistency is their rhs.
    for ri in range(n):
        if ri not in pivot_rows and rhs[ri] != 0:
            raise EscalationExceeded(
                f"log-power system inconsistent on the degree-{total} box"
            )
    return Polynomial(d, {cols[c]: rhs[pr] for c, pr in pivot_of_col.items()})


def _log_class(t: TensorTerm) -> tuple[tuple[int, int], ...]:
    """(eigenvalue, log power) per coordinate of a delta-free term."""
    return tuple((f.n, f.p) for f in t.factors)


def solve_continuous_term(
    P: Polynomial, ts: Sequence[TensorTerm]
) -> tuple[DistExpr, DistExpr, int]:
    """Solve P(theta) U = sum(ts) modulo delta-supported terms.

    The terms must be delta-free and share one (eigenvalue, log powers)
    class; they may differ in half-line signs and coefficients.  One exact
    elimination on the log-polynomial box of total degree |p| + v, v =
    vanishing_order(P, mu) at the class eigenvalue mu, gives one vector u
    that solves every term of the class.  Returns (U_partial, residual, v);
    the residual sum(ts) - P(theta) U_partial is computed in the full
    calculus and is always delta-supported.
    """
    if not ts:
        raise UnsupportedInput("solve_continuous_term needs at least one term")
    for t in ts:
        if t.has_delta():
            raise UnsupportedInput("solve_continuous_term requires delta-free terms")
    key = _log_class(ts[0])
    if any(_log_class(t) != key for t in ts):
        raise UnsupportedInput(
            "solve_continuous_term requires one (eigenvalue, log powers) class"
        )
    d = len(key)
    S = taylor_shift(P, eigenvalue(ts[0]))
    v, _ = vanishing_order(S, (0,) * d)
    u = _solve_log_system(S, tuple(p for _, p in key), v)
    terms = [
        TensorTerm(
            c * t.coeff, tuple(MonLog(f.n, qj, f.s) for f, qj in zip(t.factors, q))
        )
        for t in ts
        for q, c in u.terms.items()
    ]
    U_partial = dist(d, terms)
    image = apply_polynomial(P, U_partial)
    residual = dist(d, [*ts, *(TensorTerm(-r.coeff, r.factors) for r in image.terms)])
    for rt in residual.terms:
        if not rt.has_delta():
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
    whose theta-corrections (read from apply_theta) are compensated on the
    lower deltas.
    """
    if not 1 <= j <= V.dim:
        raise DimensionError(f"coordinate {j} out of range 1..{V.dim}")
    m0 = MonLog(-(k + 1), 0, 1)
    # (theta_j + k + 1) m0 = sum_{i <= k} corr[Delta(i)] Delta(i).
    corr = {a: c for c, a in apply_theta(j, m0) if isinstance(a, Delta)}
    groups: dict[tuple[Atom1D, ...], dict[Atom1D, Fraction]] = {}
    for t in V.terms:
        a = t.factors[j - 1]
        ok = (isinstance(a, Delta) and a.k <= k) or (
            isinstance(a, MonLog) and a.n == -(k + 1)
        )
        if not ok:
            raise UnsupportedInput(
                f"factor {a} in coordinate {j} is outside the resonant subspace"
            )
        rest = t.factors[: j - 1] + t.factors[j:]
        g = groups.setdefault(rest, {})
        g[a] = g.get(a, Fraction(0)) + t.coeff
    out_terms = []
    for rest, comp in groups.items():
        w: dict[Atom1D, Fraction] = {}
        # Log lifts: (theta_j + k + 1) M(q+1, s) = (q+1) M(q, s), q+1 >= 1.
        for a, c in comp.items():
            if isinstance(a, MonLog):
                w[MonLog(a.n, a.p + 1, a.s)] = (
                    w.get(MonLog(a.n, a.p + 1, a.s), Fraction(0)) + c / (a.p + 1)
                )
        # Delta(k) is reached only through the corrections of M(0, +1).
        a0 = comp.get(Delta(k), Fraction(0)) / corr[Delta(k)]
        if a0 != 0:
            w[m0] = w.get(m0, Fraction(0)) + a0
        # Lower deltas: eigen-division after compensating the corrections.
        for i in range(k):
            vi = comp.get(Delta(i), Fraction(0))
            ci = (vi - a0 * corr[Delta(i)]) / (k - i)
            if ci != 0:
                w[Delta(i)] = w.get(Delta(i), Fraction(0)) + ci
        for a, c in w.items():
            factors = rest[: j - 1] + (a,) + rest[j - 1 :]
            out_terms.append(TensorTerm(c, factors))
    return dist(V.dim, out_terms)


# -- top-level solve ------------------------------------------------------


def _solve(
    P: Polynomial, T: DistExpr, trace: list[TraceEvent], esc: list[int]
) -> DistExpr:
    """Solve P(theta) U = T for a canonical T; the result is canonical."""
    if P.is_zero():
        raise ZeroPolynomial("the Euler operator must be non-trivial")
    if P.dim != T.dim:
        raise DimensionError(f"polynomial dim {P.dim} vs expression dim {T.dim}")
    if T.is_zero():
        return DistExpr.zero(T.dim)
    if P.degree == 0:
        inv = Fraction(1) / P.terms[(0,) * P.dim]
        return DistExpr(T.dim, tuple(t.scaled(inv) for t in T.terms))
    parts: list[TensorTerm] = []
    groups: dict[tuple[int, int], list[TensorTerm]] = {}
    classes: dict[tuple[tuple[int, int], ...], list[TensorTerm]] = {}
    residuals: list[TensorTerm] = []
    for t in T.terms:
        if t.has_delta():
            j = next(i + 1 for i, f in enumerate(t.factors) if isinstance(f, Delta))
            groups.setdefault((j, t.factors[j - 1].k), []).append(t)
        else:
            classes.setdefault(_log_class(t), []).append(t)
    for ts in classes.values():
        up, residual, v = solve_continuous_term(P, ts)
        esc[0] = max(esc[0], v)
        parts.extend(up.terms)
        residuals.extend(residual.terms)
    for (j, k), ts in sorted(groups.items()):
        # A subsequence of a canonical T is canonical.
        sub = _solve_delta_group(P, j, k, DistExpr(T.dim, tuple(ts)), trace, esc)
        parts.extend(sub.terms)
    if residuals:
        parts.extend(_solve(P, dist(T.dim, residuals), trace, esc).terms)
    return dist(T.dim, parts)


def _solve_delta_group(
    P: Polynomial, j: int, k: int, G: DistExpr, trace: list[TraceEvent], esc: list[int]
) -> DistExpr:
    """Solve P(theta) U = G where every term of a canonical G carries
    Delta(k) at j.  Stripping or reinserting that shared factor keeps the
    canonical order, so neither step re-canonicalises."""
    P1 = substitute_coord(P, j, -(k + 1))
    if not P1.is_zero():
        trace.append(("substitute", j, -(k + 1)))
        rest = tuple(
            TensorTerm(t.coeff, t.factors[: j - 1] + t.factors[j:]) for t in G.terms
        )
        sub = _solve(P1, DistExpr(G.dim - 1, rest), trace, esc)
        terms = tuple(
            TensorTerm(s.coeff, s.factors[: j - 1] + (Delta(k),) + s.factors[j - 1 :])
            for s in sub.terms
        )
        return DistExpr(G.dim, terms)
    r, Q = factor_out(P, j, k + 1)
    trace.append(("factor_out", j, k + 1, r))
    W = _solve(Q, G, trace, esc)
    for _ in range(r):
        trace.append(("resonant_1d", j, k))
        had_log = any(isinstance(s.factors[j - 1], MonLog) for s in W.terms)
        W = resonant_1d(j, k, W)
        if had_log:
            esc[0] = max(esc[0], 1)
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


def solve_delta_term(P: Polynomial, t: TensorTerm) -> DistExpr:
    """Solve P(theta) U = t for a single delta-bearing tensor term."""
    if not t.has_delta():
        raise UnsupportedInput("solve_delta_term requires a delta factor")
    j = next(i + 1 for i, f in enumerate(t.factors) if isinstance(f, Delta))
    return _solve_delta_group(P, j, t.factors[j - 1].k, dist(t.dim, [t]), [], [0])
