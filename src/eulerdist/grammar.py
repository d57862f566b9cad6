"""Textual grammar for polynomials in theta and for structured distributions.

Polynomial grammar: variables t1..t9 (the Euler fields theta_1..theta_9),
integer and rational literals (3, 3/4), operators + - * ^ with ^ binding
tighter than unary minus and * (-t1^2 is -(t1^2)), which bind tighter than
+/-, parentheses nested at most MAX_NESTING deep, free whitespace.

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

Factors naming one coordinate combine into a single atom for that
coordinate.  A delta or mono factor owns its coordinate, and a power, log or
H factor may appear once per coordinate; anything else is a
CoordinateConflict.  In a group carrying H(-x<j>), powers and logs refer
to |x_j|, matching the reflected-atom convention.  A group with no H factor
denotes the full-line atom MonLog(n, p, 0), one factor like any other, and
coordinates absent from a term are the full-line constant 1,
MonLog(0, 0, 0), so each product is one tensor term.  The printer writes a
full-line atom without H and leaves MonLog(0, 0, 0) out.

One reader serves both grammars.  A single regex search finds the first
lexical error, a character no token has or a run of more than MAX_DIGITS
digits, so lexical errors win over syntax errors.  A single findall then
splits the text into literals, names and operators, and the grammar
functions walk that list by index.  A ParseError gives the offset of the
token it names.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import comb
from string import ascii_letters
from typing import Iterable

from .atoms import Delta, DistExpr, MonLog, Term, dist
from .errors import CoordinateConflict, DimensionError, InputTooLarge, ParseError
from .limits import (
    MAX_BITS,
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_DIM,
    MAX_NESTING,
    MAX_ORDER,
    MAX_POLY_TERMS,
)
from .poly import Polynomial, poly_sum

# A literal, a name (letters, then the digits of an index) or an operator;
# findall skips the whitespace between them.
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z]+[0-9]*|[-+*^(),/]")
# The first lexical error: a run of more than MAX_DIGITS digits (int() reads
# a literal or a name's index), or a character no token or whitespace has.
_LEX_ERROR_RE = re.compile(
    rf"(?<![0-9])[0-9]{{{MAX_DIGITS + 1}}}|[^-+*^(),/A-Za-z0-9\s]"
)


class _Tokens:
    """The token texts of src, then "" for the end of input.

    The grammar functions walk toks by index: each takes the index of its
    first token and returns the index after its last.  Lexical errors win
    over syntax errors, as the whole text is checked first, and a token's
    offset in src is found only for an error message."""

    def __init__(self, src: str):
        bad = _LEX_ERROR_RE.search(src)
        if bad is not None:
            at = bad.start()
            if len(bad.group()) == 1:
                raise ParseError(f"unexpected character {src[at]!r}", at)
            # A digit run right after letters is the index of a name.
            name = len(src[:at].rstrip(ascii_letters))
            what = "literal" if name == at else "name"
            raise InputTooLarge(f"{what} at {name} has over {MAX_DIGITS} digits")
        self.src = src
        self.toks = _TOKEN_RE.findall(src)
        self.toks.append("")

    def offset(self, i: int) -> int:
        """The offset in src of token i."""
        m = next(islice(_TOKEN_RE.finditer(self.src), i, None), None)
        return len(self.src) if m is None else m.start()

    def fail(self, i: int, expected: str) -> ParseError:
        found = self.toks[i] or "end of input"
        return ParseError(f"expected {expected}, found {found!r}", self.offset(i))

    def expect(self, i: int, op: str) -> int:
        if self.toks[i] != op:
            raise self.fail(i, repr(op))
        return i + 1

    def number(self, i: int) -> tuple[int, int]:
        """The value of the unsigned literal at i."""
        t = self.toks[i]
        if not t[:1].isdigit():
            raise self.fail(i, "a number")
        return int(t), i + 1


# -- polynomials -----------------------------------------------------------


def _check_dim(d: int) -> None:
    if d > MAX_DIM:
        raise DimensionError(f"dimension {d} is above the largest, {MAX_DIM}")


def _coeff_bits(P: Polynomial) -> int:
    """A bound on the bits of P's coefficients that adds under products:
    max(bits(D), bits(D * sum|c|)) for the denominator D."""
    S = sum(map(abs, P.nums.values()))
    return max(P.den.bit_length(), S.bit_length())


def _check_size(degree: int, bits: int) -> None:
    """Refuse, before expanding, a product above MAX_DEGREE or MAX_BITS."""
    if degree > MAX_DEGREE:
        raise InputTooLarge(f"polynomial degree {degree} is above {MAX_DEGREE}")
    if bits > MAX_BITS:
        raise InputTooLarge(f"coefficients could reach {bits} bits, above {MAX_BITS}")


def _check_terms(dim: int, degree: int, count: int) -> None:
    """Refuse, before expanding, a product that could exceed MAX_POLY_TERMS
    terms: one of at most count terms, with at most one per monomial of its
    degree."""
    bound = min(count, comb(dim + degree, dim)) if count > MAX_POLY_TERMS else count
    if bound > MAX_POLY_TERMS:
        raise InputTooLarge(
            f"polynomial expansion could reach {bound} terms, above {MAX_POLY_TERMS}"
        )


def _rational(tk: _Tokens, i: int) -> tuple[int, int, int]:
    """The numerator and denominator of an `n` or `n/m` literal."""
    num, i = tk.number(i)
    if tk.toks[i] != "/":
        return num, 1, i
    den, i = tk.number(i + 1)
    if den == 0:
        raise ParseError("zero denominator", tk.offset(i - 1))
    return num, den, i


def _poly_atom(tk: _Tokens, i: int, dim: int) -> tuple[Polynomial, int]:
    t = tk.toks[i]
    if t == "(":
        p, i = _poly_sum(tk, i + 1, dim)
        return p, tk.expect(i, ")")
    if t[:1].isdigit():
        num, den, i = _rational(tk, i)
        return Polynomial.constant(dim, Fraction(num, den)), i
    if t[:1].isalpha():
        if not (t[0] == "t" and t[1:].isdigit()):
            raise tk.fail(i, "a t<j> variable")
        j = int(t[1:])
        if not 1 <= j <= MAX_DIM:
            raise ParseError(
                f"variable index out of range 1..{MAX_DIM}: {t}", tk.offset(i)
            )
        if j > dim:
            raise DimensionError(f"variable t{j} exceeds dimension {dim}")
        return Polynomial.variable(dim, j), i + 1
    raise tk.fail(i, "a number, variable, or '('")


def _poly_power(tk: _Tokens, i: int, dim: int) -> tuple[Polynomial, int]:
    """An atom with an optional exponent; each unary minus before it negates
    the power, and a run of them is counted in a loop, not by recursion."""
    signs = i
    while tk.toks[i] == "-":
        i += 1
    negate = (i - signs) % 2
    base, i = _poly_atom(tk, i, dim)
    if tk.toks[i] == "^":
        n, i = tk.number(i + 1)
        if base.nums:
            # Each term of base^n comes from a multiset of n terms of base; with
            # two or more terms the degree check keeps n small enough for comb.
            _check_size(n * base.degree, n * _coeff_bits(base))
            _check_terms(dim, n * base.degree, comb(len(base.nums) + n - 1, n))
        base = base**n
    return (-base if negate else base), i


def _poly_product(tk: _Tokens, i: int, dim: int) -> tuple[Polynomial, int]:
    p, i = _poly_power(tk, i, dim)
    while tk.toks[i] == "*":
        q, i = _poly_power(tk, i + 1, dim)
        _check_size(p.degree + q.degree, _coeff_bits(p) + _coeff_bits(q))
        _check_terms(dim, p.degree + q.degree, len(p.nums) * len(q.nums))
        p = p * q
    return p, i


def _poly_sum(tk: _Tokens, i: int, dim: int) -> tuple[Polynomial, int]:
    """A sum of products, added once by poly_sum (linear in its length)."""
    parts = []
    sign = "+"
    while True:
        p, i = _poly_product(tk, i, dim)
        parts.append(p if sign == "+" else -p)
        sign = tk.toks[i]
        if sign not in ("+", "-"):
            return poly_sum(dim, parts), i
        i += 1


def _check_nesting(tk: _Tokens) -> None:
    """Refuse, before the reader recurses, parentheses nested deeper than
    MAX_NESTING."""
    if tk.toks.count("(") <= MAX_NESTING:
        return
    depth = 0
    for i, t in enumerate(tk.toks):
        if t == ")":
            depth -= 1
        elif t == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise InputTooLarge(
                    f"parentheses at offset {tk.offset(i)} nest deeper than "
                    f"{MAX_NESTING}"
                )


def parse_poly(src: str, dim: int | None = None) -> Polynomial:
    """Parse a polynomial in t1..t9; dim defaults to the largest index used."""
    if dim is not None:
        _check_dim(dim)
    tk = _Tokens(src)
    _check_nesting(tk)
    if dim is None:
        # Clamped to MAX_DIM: the parser refuses every t<j> past it that it
        # reaches.  Two significant digits already pass MAX_DIM, so int()
        # reads no more.
        idx = [t[1:] for t in tk.toks if t[:1] == "t" and t[1:].isdigit()]
        dim = min(MAX_DIM, max([1, *(int(j.lstrip("0")[:2] or "0") for j in idx)]))
    p, i = _poly_sum(tk, 0, dim)
    if tk.toks[i]:
        raise tk.fail(i, "end of input or an operator")
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

# Each coordinate of a term keeps its factors in fixed slots: a mask of these
# kind bits, and the integers n (power or mono), p (log), s (H) and k
# (delta).  A delta or mono factor owns its coordinate; power, log and H may
# each appear once.
_POWER, _LOG, _H, _DELTA, _MONO = 1, 2, 4, 8, 16
_OWNS_COORDINATE = _DELTA | _MONO
# The name of each kind, and the message of the CoordinateConflict it raises.
_KINDS = {
    _POWER: ("power", "power factor conflicts with an earlier factor"),
    _LOG: ("log", "log factor conflicts with an earlier factor"),
    _H: ("H", "half-line factor conflicts with an earlier factor"),
    _DELTA: ("delta", "delta combined with another factor"),
    _MONO: ("mono", "mono combined with another factor"),
}
# The factors written as a name and an argument in parentheses.
_CALLS = {"log": _LOG, "H": _H, "delta": _DELTA, "mono": _MONO}


# The coordinate names format_dist prints, looked up before int() reads a
# name such as x01 or x12.
_COORDS = {f"x{j}": j for j in range(1, MAX_DIM + 1)}


def _x_index(t: str, d: int) -> int | None:
    """j for a coordinate name x<j> with 1 <= j <= d; None for other names."""
    j = _COORDS.get(t)
    if j is None:
        if not (t[:1] == "x" and t[1:].isdigit()):
            return None
        j = int(t[1:])
    if not 1 <= j <= d:
        raise DimensionError(f"coordinate x{j} exceeds dimension {d}")
    return j


def _coord_arg(tk: _Tokens, i: int, d: int) -> tuple[int, int]:
    """j for the x<j> argument of log, H, delta and mono at token i."""
    j = _x_index(tk.toks[i], d)
    if j is None:
        raise tk.fail(i, "x<j>")
    return j, i + 1


def _signed_int(tk: _Tokens, i: int) -> tuple[int, int]:
    if tk.toks[i] != "-":
        return tk.number(i)
    n, i = tk.number(i + 1)
    return -n, i


def _dist_factor(tk: _Tokens, i: int, d: int) -> tuple[int, int, int, int]:
    """The factor at token i: (j, its kind bit, its integer argument, the
    index after it)."""
    toks = tk.toks
    t = toks[i]
    kind = _CALLS.get(t)
    if kind is None:
        j = _COORDS.get(t)
        if j is None or j > d:
            j = _x_index(t, d)
            if j is None:
                raise ParseError(
                    f"expected a factor (x<j>, log, H, delta, mono), found {t!r}",
                    tk.offset(i),
                )
        if toks[i + 1] != "^":
            return j, _POWER, 1, i + 1
        value, i = _signed_int(tk, i + 2)
        return j, _POWER, value, i
    at = i
    if toks[i + 1] != "(":
        raise tk.fail(i + 1, "'('")
    i += 2
    value = 1
    if kind == _H and toks[i] == "-":
        value, i = -1, i + 1
    j = _COORDS.get(toks[i])
    if j is None or j > d:
        j, i = _coord_arg(tk, i, d)
    else:
        i += 1
    # A delta order is an unsigned literal; only mono can read a '-'.
    if kind == _DELTA:
        value, i = tk.number(tk.expect(i, ","))
    elif kind == _MONO:
        value, i = _signed_int(tk, tk.expect(i, ","))
    if toks[i] != ")":
        raise tk.fail(i, "')'")
    i += 1
    if kind == _LOG and toks[i] == "^":
        value, i = tk.number(i + 1)
        if value < 1:
            raise ParseError("log power must be >= 1", tk.offset(at))
    elif kind == _MONO and value < 0:
        raise ParseError("mono needs a nonnegative exponent", tk.offset(at))
    return j, kind, value, i


def _dist_term(
    tk: _Tokens, i: int, d: int, sign: int, max_order: int
) -> tuple[Term | None, int]:
    """The tensor term of one product, None if its coefficient is zero; sign
    is the sign in front of it.

    Its coefficient literals multiply into one integer numerator and
    denominator, and each factor is checked against the slots of its
    coordinate: the order bound, the running total of log powers, then
    ownership and conflicts."""
    toks = tk.toks
    num, den, logs = sign, 1, 0
    # Coordinate j's slots are at index j - 1.
    mask, n, p, s, k = [0] * d, [0] * d, [0] * d, [0] * d, [0] * d
    while True:
        t = toks[i]
        if t[:1].isalpha():
            at = i
            j, kind, value, i = _dist_factor(tk, i, d)
            if abs(value) > max_order:
                raise InputTooLarge(
                    f"{_KINDS[kind][0]} order at offset {tk.offset(at)} is above "
                    f"{max_order}"
                )
            if kind == _LOG:
                logs += value
                if logs > max_order:
                    raise InputTooLarge(
                        f"total log power at offset {tk.offset(at)} is above "
                        f"{max_order}"
                    )
            slot = j - 1
            m = mask[slot]
            if m & kind or (m and (m | kind) & _OWNS_COORDINATE):
                raise CoordinateConflict(
                    f"{_KINDS[kind][1]} for x{j} (at offset {tk.offset(at)})"
                )
            mask[slot] = m | kind
            if kind == _H:
                s[slot] = value
            elif kind == _LOG:
                p[slot] = value
            elif kind == _DELTA:
                k[slot] = value
            else:
                n[slot] = value
        elif t[:1].isdigit():
            a, b, i = _rational(tk, i)
            num *= a
            den *= b
        else:
            raise tk.fail(i, "a coefficient or factor")
        if toks[i] != "*":
            if not num:
                return None, i
            # s is 0, the full line, where no H factor set it.
            factors = tuple(
                [
                    Delta(kj) if m & _DELTA else MonLog(nj, pj, sj)
                    for m, nj, pj, sj, kj in zip(mask, n, p, s, k)
                ]
            )
            return (factors, Fraction(num, den)), i
        i += 1


def parse_dist(src: str, d: int, max_order: int = MAX_ORDER) -> DistExpr:
    """Parse a distribution expression of dimension d into canonical form;
    max_order bounds every exponent, log power and delta order.

    A lexical error anywhere in src wins over a syntax error, and a
    ParseError gives the offset of the token it names."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    _check_dim(d)
    tk = _Tokens(src)
    toks, i, terms = tk.toks, 0, []
    while True:
        sign = -1 if toks[i] == "-" else 1
        if toks[i] in ("+", "-"):
            i += 1
        term, i = _dist_term(tk, i, d, sign, max_order)
        if term:
            terms.append(term)
        if toks[i] not in ("+", "-"):
            break
    if toks[i]:
        raise tk.fail(i, "end of input, '+', or '-'")
    return dist(d, terms)


def check_orders(e: DistExpr, max_order: int) -> None:
    """Raise InputTooLarge unless parse_dist(format_dist(e), e.dim, max_order)
    reads back every order of e: each exponent and delta order, and each
    term's total log power, at most max_order."""
    for f, _ in e.terms:
        # An atom is (kind, n or k, p, s); a delta's log power p is 0.
        order = max(max(abs(a[1]) for a in f), sum(a[2] for a in f))
        if order > max_order:
            raise InputTooLarge(
                f"a solution term has an order or total log power of {order}, "
                f"above {max_order}"
            )


def _format_atom(j: int, a) -> str:
    """The text of atom a at coordinate j; "" for MonLog(0, 0, 0), the 1
    that an absent coordinate means."""
    if isinstance(a, Delta):
        return f"delta(x{j},{a.k})"
    parts = []
    if a.n != 0:
        parts.append(f"x{j}" if a.n == 1 else f"x{j}^{a.n}")
    if a.p:
        parts.append(f"log(x{j})" if a.p == 1 else f"log(x{j})^{a.p}")
    if a.s:
        parts.append(f"H(x{j})" if a.s == 1 else f"H(-x{j})")
    return "*".join(parts)


def format_dist(e: DistExpr) -> str:
    """Canonical text form; parse_dist(format_dist(e), e.dim) == e.

    Each distinct atom of a coordinate is formatted once per call.  A term
    whose every factor is MonLog(0, 0, 0) prints as its coefficient."""
    texts: list[dict] = [{} for _ in range(e.dim)]
    rows = []
    for f, c in e.terms:
        row = []
        for j, a in enumerate(f):
            text = texts[j].get(a)
            if text is None:
                text = texts[j][a] = _format_atom(j + 1, a)
            if text:
                row.append(text)
        rows.append((c, row))
    return _signed_sum(rows)
