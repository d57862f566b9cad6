"""Textual grammar for polynomials in theta and for structured distributions.

Polynomial grammar: variables t1..t9 (the Euler fields theta_1..theta_9),
integer and rational literals (3, 3/4), operators + - * ^ with ^ binding
tighter than unary minus and * (-t1^2 is -(t1^2)), which bind tighter than
+/-, parentheses, free whitespace.

Distribution grammar: a sum of terms; each term is an optional rational
coefficient times a product of coordinate factors

    x<j>^<int>      monomial power (negative exponent means the finite
                    part under the regularization convention)
    log(x<j>)^<p>   logarithm power, p >= 1
    H(x<j>)         right half-line indicator
    H(-x<j>)        left half-line indicator
    delta(x<j>,<k>) k-th derivative of the delta at the origin
    mono(x<j>,<n>)  full-line monomial sugar, n >= 0

Every exponent, log power and delta order is at most MAX_ORDER in size, and
so is the sum of the log powers of one term (MAX_SOLUTION_ORDER in a
solution read back).

Factors naming one coordinate combine into a single half-line or delta atom
for that coordinate.  A delta or mono factor owns its coordinate, and a
power, log or H factor may appear once per coordinate; anything else is a
CoordinateConflict.  In a group carrying H(-x<j>), powers and logs refer
to |x_j|, matching the reflected-atom convention.  A group with no H factor
denotes the full-line object and expands into the two half-line atoms with
the parity sign (-1)^n on the left piece.  Coordinates absent from a term
default to the full-line constant 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from string import ascii_letters
from typing import Iterable

from .atoms import Delta, DistExpr, MonLog, TensorTerm, dist, expand_tensor, full_line
from .errors import (
    CoordinateConflict,
    DimensionError,
    EulerDistError,
    InputTooLarge,
    ParseError,
)
from .poly import Polynomial

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z]+[0-9]*)|(?P<op>[-+*^(),/]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | one of "+-*^(),/" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            stripped = src[i:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            raise ParseError(f"unexpected character {src[bad]!r}", bad)
        group = m.lastgroup
        text, at = m.group(group), m.start(group)
        # The digits of a literal, or of a name's index, are read by int().
        if len(text.lstrip(ascii_letters)) > MAX_DIGITS:
            what = "literal" if group == "num" else group
            raise InputTooLarge(f"{what} at {at} has over {MAX_DIGITS} digits")
        tokens.append(_Token(text if group == "op" else group, text, at))
        i = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Cursor:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def accept(self, kind: str) -> bool:
        """Consume the current token if it is of this kind."""
        if self.tok.kind != kind:
            return False
        self.i += 1
        return True

    def expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.tok.text or 'end of input'!r}",
                self.tok.pos,
            )
        return self.advance()

    def fail(self, expected: str) -> ParseError:
        found = self.tok.text or "end of input"
        return ParseError(f"expected {expected}, found {found!r}", self.tok.pos)


# -- polynomials -----------------------------------------------------------

# t1..t9 are the only variables the polynomial grammar can name.
MAX_DIM = 9
# The most terms a product or power may expand to; (t1+...+t6)^7 has 792.
MAX_TERMS = 1000
# The highest total degree a product or power may reach.
MAX_DEGREE = 1000
# The largest |n| of a power or mono factor, delta order and log power.
MAX_ORDER = 1000
# Solving raises orders: delta(x1,k) gives x1^(-k-1), and a root of P of
# multiplicity v <= MAX_DEGREE adds v to a log power, so a solution is read
# with a larger bound.  In several variables a log power can also move to
# another coordinate (t1+t2 on log(x1)^3*H(x1)*H(x2) has a log(x2)^4 term),
# so the bound is on the total log power of a term as well.
MAX_SOLUTION_ORDER = MAX_ORDER + MAX_DEGREE
# The longest numeric literal, and the most bits a coefficient may have when
# it is expanded or printed: both keep every number within Python's
# 4300-digit limit on int-string conversion (3000 digits < 10000 bits).
MAX_DIGITS = 3000
MAX_BITS = 10_000


def _check_dim(d: int) -> None:
    if d > MAX_DIM:
        raise DimensionError(f"dimension {d} is above the largest, {MAX_DIM}")


def _coeff_bits(P: Polynomial) -> int:
    """A bound on the bits of P's coefficients that adds under products:
    max(bits(D), bits(D * sum|c|)) for the common denominator D."""
    D = lcm(*(c.denominator for c in P.terms.values()))
    S = sum(abs(c.numerator) * (D // c.denominator) for c in P.terms.values())
    return max(D.bit_length(), S.bit_length())


def _check_size(degree: int, bits: int) -> None:
    """Refuse, before expanding, a product above MAX_DEGREE or MAX_BITS."""
    if degree > MAX_DEGREE:
        raise InputTooLarge(f"polynomial degree {degree} is above {MAX_DEGREE}")
    if bits > MAX_BITS:
        raise InputTooLarge(f"coefficients could reach {bits} bits, above {MAX_BITS}")


def _check_terms(dim: int, degree: int, count: int) -> None:
    """Refuse, before expanding, a product that could exceed MAX_TERMS terms:
    one of at most count terms, with at most one per monomial of its degree."""
    bound = min(count, comb(dim + degree, dim)) if count > MAX_TERMS else count
    if bound > MAX_TERMS:
        raise InputTooLarge(
            f"polynomial expansion could reach {bound} terms, above {MAX_TERMS}"
        )


def _rational(cur: _Cursor) -> Fraction:
    """An `n` or `n/m` literal."""
    value = Fraction(int(cur.expect("num").text))
    if cur.accept("/"):
        den = cur.expect("num")
        if int(den.text) == 0:
            raise ParseError("zero denominator", den.pos)
        value /= int(den.text)
    return value


def _poly_atom(cur: _Cursor, dim: int) -> Polynomial:
    t = cur.tok
    if cur.accept("("):
        p = _poly_sum(cur, dim)
        cur.expect(")")
        return p
    if t.kind == "num":
        return Polynomial.constant(dim, _rational(cur))
    if t.kind == "name":
        if not (t.text.startswith("t") and t.text[1:].isdigit()):
            raise cur.fail("a t<j> variable")
        j = int(t.text[1:])
        if not 1 <= j <= 9:
            raise ParseError(f"variable index out of range 1..9: {t.text}", t.pos)
        if j > dim:
            raise DimensionError(f"variable t{j} exceeds dimension {dim}")
        cur.advance()
        return Polynomial.variable(dim, j)
    raise cur.fail("a number, variable, or '('")


def _poly_power(cur: _Cursor, dim: int) -> Polynomial:
    """An atom with an optional exponent; a unary minus negates the power."""
    if cur.accept("-"):
        return -_poly_power(cur, dim)
    base = _poly_atom(cur, dim)
    if not cur.accept("^"):
        return base
    n = int(cur.expect("num").text)
    if base.terms:
        # Each term of base^n comes from a multiset of n terms of base; with
        # two or more terms the degree check keeps n small enough for comb.
        _check_size(n * base.degree, n * _coeff_bits(base))
        _check_terms(dim, n * base.degree, comb(len(base.terms) + n - 1, n))
    return base**n


def _poly_product(cur: _Cursor, dim: int) -> Polynomial:
    p = _poly_power(cur, dim)
    while cur.accept("*"):
        q = _poly_power(cur, dim)
        _check_size(p.degree + q.degree, _coeff_bits(p) + _coeff_bits(q))
        _check_terms(dim, p.degree + q.degree, len(p.terms) * len(q.terms))
        p = p * q
    return p


def _poly_sum(cur: _Cursor, dim: int) -> Polynomial:
    """A sum of products, accumulated in one term map (linear in its length)."""
    acc: dict[tuple[int, ...], Fraction] = {}
    sign = 1
    while True:
        for alpha, c in _poly_product(cur, dim).terms.items():
            acc[alpha] = acc.get(alpha, 0) + sign * c
        if cur.tok.kind not in "+-":
            return Polynomial(dim, acc)
        sign = 1 if cur.advance().kind == "+" else -1


def _max_t_index(src: str) -> int:
    """The largest t<j> index in src, clamped to 1..MAX_DIM: the parser
    refuses every t<j> past MAX_DIM it reaches."""
    best = 1
    for m in re.finditer(r"\bt([0-9]+)\b", src):
        # Two significant digits already pass MAX_DIM; int() reads no more.
        best = max(best, min(MAX_DIM, int(m.group(1).lstrip("0")[:2] or "0")))
    return best


def parse_poly(src: str, dim: int | None = None) -> Polynomial:
    """Parse a polynomial in t1..t9; dim defaults to the largest index used."""
    if dim is None:
        dim = _max_t_index(src)
    else:
        _check_dim(dim)
    cur = _Cursor(src)
    p = _poly_sum(cur, dim)
    if cur.tok.kind != "end":
        raise cur.fail("end of input or an operator")
    return p


def _signed_sum(terms: Iterable[tuple[Fraction, list[str]]]) -> str:
    """`a - b + c` from (coefficient, factor texts) pairs, or `0` if none.

    A coefficient of magnitude 1 is left out unless the term has no factor.
    """
    out = ""
    for c, factors in terms:
        mag = abs(c)
        bits = max(mag.numerator.bit_length(), mag.denominator.bit_length())
        if bits > MAX_BITS:
            raise InputTooLarge(f"a coefficient of {bits} bits is above {MAX_BITS}")
        body = "*".join(factors if mag == 1 and factors else [str(mag)] + factors)
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


def format_poly(P: Polynomial) -> str:
    """Canonical text form; parse_poly(format_poly(P)) == P."""
    return _signed_sum(
        (c, [f"t{j}" if a == 1 else f"t{j}^{a}" for j, a in enumerate(alpha, 1) if a])
        for alpha, c in P.sorted_terms()
    )


# -- distributions ---------------------------------------------------------

# A delta or mono factor owns its coordinate; power, log and H may each
# appear once.  Messages of the CoordinateConflict a kind of factor raises.
_OWNS_COORDINATE = frozenset({"delta", "mono"})
_CONFLICT = {
    "power": "power factor conflicts with an earlier factor",
    "log": "log factor conflicts with an earlier factor",
    "H": "half-line factor conflicts with an earlier factor",
    "delta": "delta combined with another factor",
    "mono": "mono combined with another factor",
}


def _x_index(t: _Token, d: int) -> int | None:
    """j for a coordinate name x<j> with 1 <= j <= d; None for other names."""
    if not (t.text.startswith("x") and t.text[1:].isdigit()):
        return None
    j = int(t.text[1:])
    if not 1 <= j <= d:
        raise DimensionError(f"coordinate x{j} exceeds dimension {d}")
    return j


def _coord_arg(cur: _Cursor, d: int) -> int:
    """The x<j> argument of log, H, delta and mono."""
    name = cur.expect("name")
    j = _x_index(name, d)
    if j is None:
        raise ParseError(f"expected x<j>, found {name.text!r}", name.pos)
    return j


def _signed_int(cur: _Cursor) -> int:
    sign = -1 if cur.accept("-") else 1
    return sign * int(cur.expect("num").text)


def _add_factor(
    groups: dict[int, dict[str, int]],
    j: int,
    kind: str,
    value: int,
    pos: int,
    max_order: int,
) -> None:
    """Record factor kind with integer argument value in x<j>'s group, after
    the order bounds and the ownership and conflict test."""
    if abs(value) > max_order:
        raise InputTooLarge(f"{kind} order at offset {pos} is above {max_order}")
    if kind == "log":
        total = value + sum(g.get("log", 0) for g in groups.values())
        if total > max_order:
            raise InputTooLarge(
                f"total log power at offset {pos} is above {max_order}"
            )
    g = groups.setdefault(j, {})
    owned = kind in _OWNS_COORDINATE or not _OWNS_COORDINATE.isdisjoint(g)
    if kind in g or (g and owned):
        raise CoordinateConflict(f"{_CONFLICT[kind]} for x{j} (at offset {pos})")
    g[kind] = value


def _dist_factor(
    cur: _Cursor, d: int, groups: dict[int, dict[str, int]], max_order: int
) -> None:
    """Read one factor into groups[j][kind], its integer argument."""
    t = cur.expect("name")
    j = _x_index(t, d)
    if j is not None:
        kind, value = "power", _signed_int(cur) if cur.accept("^") else 1
    elif t.text == "log":
        kind, value = "log", 1
        cur.expect("(")
        j = _coord_arg(cur, d)
        cur.expect(")")
        if cur.accept("^"):
            value = int(cur.expect("num").text)
            if value < 1:
                raise ParseError("log power must be >= 1", t.pos)
    elif t.text == "H":
        cur.expect("(")
        kind, value = "H", -1 if cur.accept("-") else 1
        j = _coord_arg(cur, d)
        cur.expect(")")
    elif t.text in ("delta", "mono"):
        kind = t.text
        cur.expect("(")
        j = _coord_arg(cur, d)
        cur.expect(",")
        # A delta order is an unsigned literal; only mono can read a '-'.
        value = int(cur.expect("num").text) if kind == "delta" else _signed_int(cur)
        cur.expect(")")
        if value < 0:
            raise ParseError("mono needs a nonnegative exponent", t.pos)
    else:
        raise ParseError(
            f"expected a factor (x<j>, log, H, delta, mono), found {t.text!r}", t.pos
        )
    _add_factor(groups, j, kind, value, t.pos, max_order)


def _group_atoms(g: dict[str, int]) -> list[tuple[int, object]]:
    """Expand one coordinate group into (sign, atom) alternatives."""
    if "delta" in g:
        return [(1, Delta(g["delta"]))]
    n = g.get("power", g.get("mono", 0))
    p = g.get("log", 0)
    if "H" in g:
        return [(1, MonLog(n, p, g["H"]))]
    return full_line(n, p)


def _term_tensors(
    coeff: Fraction, groups: dict[int, dict[str, int]], d: int
) -> list[TensorTerm]:
    """The tensor terms of coeff times the product of the coordinate groups."""
    if coeff == 0:
        return []
    alternatives = [_group_atoms(groups.get(j, {})) for j in range(1, d + 1)]
    return expand_tensor(coeff, alternatives)


def _dist_term(
    cur: _Cursor, d: int, coeff: Fraction, max_order: int
) -> list[TensorTerm]:
    """The tensor terms of one product; coeff is the sign in front of it."""
    groups: dict[int, dict[str, int]] = {}
    while True:
        if cur.tok.kind == "num":
            coeff *= _rational(cur)
        elif cur.tok.kind == "name":
            _dist_factor(cur, d, groups, max_order)
        else:
            raise cur.fail("a coefficient or factor")
        if not cur.accept("*"):
            break
    return _term_tensors(coeff, groups, d)


def _read_tokens(src: str, d: int, max_order: int) -> list[TensorTerm]:
    """The token reader: the whole grammar, with every error it can raise."""
    cur = _Cursor(src)
    sign = Fraction(-1 if cur.tok.kind == "-" else 1)
    if cur.tok.kind in "+-":
        cur.advance()
    terms = _dist_term(cur, d, sign, max_order)
    while cur.tok.kind in "+-":
        sign = Fraction(-1 if cur.advance().kind == "-" else 1)
        terms += _dist_term(cur, d, sign, max_order)
    if cur.tok.kind != "end":
        raise cur.fail("end of input, '+', or '-'")
    return terms


# One coefficient or factor in the forms format_dist prints (and mono), then
# the operator after it, or the end.  Orders take at most 4 digits and
# literals at most MAX_DIGITS, so int() never reads an oversized number.
_NUM = rf"[0-9]{{1,{MAX_DIGITS}}}"
_FACTOR_RE = re.compile(
    rf"(?:({_NUM})(?:/({_NUM}))?"
    r"|x([1-9])(?:\^(-?[0-9]{1,4}))?"
    r"|log\(x([1-9])\)(?:\^([0-9]{1,4}))?"
    r"|H\((-?)x([1-9])\)"
    r"|delta\(x([1-9]),([0-9]{1,4})\)"
    r"|mono\(x([1-9]),(-?[0-9]{1,4})\))"
    r"\s*(?:([-+*])\s*|\Z)"
)
_SIGN_RE = re.compile(r"\s*([-+]?)\s*")


def _scan(src: str, d: int, max_order: int) -> list[TensorTerm] | None:
    """The terms of src read one factor per _FACTOR_RE match, or None where
    the token reader is needed: whitespace inside a factor, any other form,
    a zero denominator, or a factor over a limit or in conflict."""
    m = _SIGN_RE.match(src)
    coeff = Fraction(-1 if m.group(1) == "-" else 1)
    pos = m.end()
    groups: dict[int, dict[str, int]] = {}
    terms: list[TensorTerm] = []
    while True:
        m = _FACTOR_RE.match(src, pos)
        if m is None:
            return None
        # A literal, or the coordinate and argument of a power, log, H,
        # delta or mono factor; then the operator.
        num, den, pj, pn, lj, lp, hs, hj, dj, dk, mj, mn, op = m.groups()
        if num is not None:
            q = int(den) if den else 1
            if q == 0:
                return None
            coeff *= Fraction(int(num), q)
        else:
            if pj:
                j, kind, value = pj, "power", int(pn) if pn else 1
            elif lj:
                j, kind, value = lj, "log", int(lp) if lp else 1
                if value < 1:
                    return None
            elif hj:
                j, kind, value = hj, "H", -1 if hs else 1
            elif dj:
                j, kind, value = dj, "delta", int(dk)
            else:
                j, kind, value = mj, "mono", int(mn)
                if value < 0:
                    return None
            j = int(j)
            if j > d:
                return None
            try:
                _add_factor(groups, j, kind, value, pos, max_order)
            except EulerDistError:
                return None
        pos = m.end()
        if op == "*":
            continue
        terms += _term_tensors(coeff, groups, d)
        if op is None:
            return terms
        coeff = Fraction(-1 if op == "-" else 1)
        groups = {}


def parse_dist(src: str, d: int, max_order: int = MAX_ORDER) -> DistExpr:
    """Parse a distribution expression of dimension d into canonical form;
    max_order bounds every exponent, log power and delta order.

    Text in the forms format_dist prints is read by _scan; anything else,
    every error included, by the token reader."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    _check_dim(d)
    terms = _scan(src, d, max_order)
    if terms is None:
        terms = _read_tokens(src, d, max_order)
    return dist(d, terms)


def _format_atom(j: int, a) -> str:
    if isinstance(a, Delta):
        return f"delta(x{j},{a.k})"
    parts = []
    if a.n != 0:
        parts.append(f"x{j}" if a.n == 1 else f"x{j}^{a.n}")
    if a.p:
        parts.append(f"log(x{j})" if a.p == 1 else f"log(x{j})^{a.p}")
    parts.append(f"H(x{j})" if a.s == 1 else f"H(-x{j})")
    return "*".join(parts)


def format_dist(e: DistExpr) -> str:
    """Canonical text form; parse_dist(format_dist(e), e.dim) == e."""
    return _signed_sum(
        (t.coeff, [_format_atom(j, a) for j, a in enumerate(t.factors, start=1)])
        for t in e.terms
    )
