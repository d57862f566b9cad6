import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from eulerdist import grammar
from eulerdist.atoms import Delta, MonLog, dist, single
from eulerdist.errors import (
    CoordinateConflict,
    DimensionError,
    InputTooLarge,
    ParseError,
)
from eulerdist.grammar import format_dist, format_poly, parse_dist, parse_poly
from eulerdist.limits import MAX_NESTING
from eulerdist.poly import Polynomial
from paperchecks import compressed_form, full_monomial, half_line_form


def zvar(d, j):
    return Polynomial.variable(d, j)


class TestParsePoly:
    def test_mixed(self):
        got = parse_poly("t1^2*t2 - 3*t1 + 2")
        want = zvar(2, 1) ** 2 * zvar(2, 2) - 3 * zvar(2, 1) + Polynomial.constant(2, 2)
        assert got == want

    def test_sum(self):
        assert parse_poly("t1 + t2 + 2") == (
            zvar(2, 1) + zvar(2, 2) + Polynomial.constant(2, 2)
        )

    def test_unbalanced_paren_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("t1*(t1+1")
        assert exc.value.position == 8

    def test_rational_and_unary_minus(self):
        got = parse_poly("-3/4*t1 + (t1 - 1)^2", 1)
        z = zvar(1, 1)
        assert got == z**2 - z * F(11, 4) + Polynomial.constant(1, 1)

    def test_whitespace_insignificant(self):
        assert parse_poly(" t1 ^2* t2", 2) == parse_poly("t1^2*t2", 2)

    def test_dim_override(self):
        assert parse_poly("t1", 3).dim == 3

    def test_variable_beyond_dim(self):
        with pytest.raises(DimensionError):
            parse_poly("t3", 2)

    @pytest.mark.parametrize(
        "src, want",
        [
            ("-t1^2+1", "1 - t1^2"),
            ("-(t1+1)^2", "-1 - 2*t1 - t1^2"),
            ("t2*-t1^2", "-t1^2*t2"),
            ("(-t1)^2", "t1^2"),
            ("- -t1^3", "t1^3"),
            ("-2^2*t1", "-4*t1"),
        ],
    )
    def test_unary_minus_applies_to_the_whole_power(self, src, want):
        assert format_poly(parse_poly(src, 2)) == want

    def test_dimension_above_nine(self):
        with pytest.raises(DimensionError):
            parse_poly("t1", 10)
        with pytest.raises(DimensionError):
            parse_dist("delta(x1,0)", 10)

    def test_expansion_refused_before_multiplying(self):
        with pytest.raises(InputTooLarge):
            parse_poly("(t1+t2+t3+t4+t5+t6)^8")
        with pytest.raises(InputTooLarge):
            parse_poly("(t1+t2+t3)^3*(t4+t5+t6+t7)^4*(t8+t9+1)^3")

    def test_nesting_is_refused_one_past_the_bound(self):
        def nested(depth):
            return "(" * depth + "t1+1" + ")" * depth

        assert parse_poly(nested(MAX_NESTING)) == parse_poly("t1+1")
        with pytest.raises(InputTooLarge, match=f"offset {MAX_NESTING} nest"):
            parse_poly(nested(MAX_NESTING + 1))
        # Parentheses that close in between do not add up.
        assert parse_poly("*".join([nested(MAX_NESTING)] * 3)) == parse_poly(
            "(t1+1)^3"
        )

    @pytest.mark.parametrize("signs", [9_999, 10_000])
    def test_unary_minus_run_is_read_in_a_loop(self, signs):
        want = parse_poly("-t1^2" if signs % 2 else "t1^2")
        assert parse_poly("-" * signs + "t1^2") == want


class TestParseDist:
    def test_delta_tensor(self):
        got = parse_dist("delta(x1,2) * x2^3*H(x2)", 2)
        assert got == single((Delta(2), MonLog(3, 0, 1)))

    def test_finite_part(self):
        assert parse_dist("x1^-1*H(x1)", 1) == single((MonLog(-1, 0, 1),))

    def test_mono_sugar(self):
        got = parse_dist("1/2 * mono(x1,2) + delta(x1,0)", 1)
        assert got == full_monomial((2,)).scaled(F(1, 2)) + single((Delta(0),))

    def test_conflict(self):
        with pytest.raises(CoordinateConflict):
            parse_dist("delta(x1,0)*H(x1)", 1)

    def test_absent_coordinate_full_line(self):
        got = parse_dist("delta(x1,1)", 2)
        want = single((Delta(1), MonLog(0, 0, 1))) + single(
            (Delta(1), MonLog(0, 0, -1))
        )
        assert got == want == single((Delta(1), MonLog(0, 0, 0)))
        assert format_dist(got) == "delta(x1,1)"

    def test_full_line_atoms_print_without_H(self):
        got = parse_dist("x1^-3*log(x1)^2*x2 + 2", 2)
        assert got == single((MonLog(-3, 2, 0), MonLog(1, 0, 0))) + single(
            (MonLog(0, 0, 0), MonLog(0, 0, 0)), 2
        )
        assert format_dist(got) == "x1^-3*log(x1)^2*x2 + 2"
        assert format_dist(got.scaled(-1)) == "-x1^-3*log(x1)^2*x2 - 2"

    def test_bare_monomial_expands(self):
        assert parse_dist("x1^3", 1) == full_monomial((3,))

    def test_reflected_group(self):
        got = parse_dist("x1^-2*log(x1)^2*H(-x1)", 1)
        assert got == single((MonLog(-2, 2, -1),))

    def test_unknown_factor(self):
        with pytest.raises(ParseError):
            parse_dist("spline(x1)", 1)


# One factor of each kind on x1, and the message of the CoordinateConflict it
# raises when it cannot join an earlier factor there.
FACTOR_KINDS = {
    "power": ("x1^2", "power factor conflicts with an earlier factor for x1"),
    "log": ("log(x1)^2", "log factor conflicts with an earlier factor for x1"),
    "H": ("H(-x1)", "half-line factor conflicts with an earlier factor for x1"),
    "delta": ("delta(x1,1)", "delta combined with another factor for x1"),
    "mono": ("mono(x1,3)", "mono combined with another factor for x1"),
}


@pytest.mark.parametrize("first", sorted(FACTOR_KINDS))
@pytest.mark.parametrize("second", sorted(FACTOR_KINDS))
def test_factor_pair_on_one_coordinate(first, second):
    first_src, _ = FACTOR_KINDS[first]
    second_src, message = FACTOR_KINDS[second]
    src = f"2*x2*{first_src} * {second_src}"
    owners = {"delta", "mono"}
    if first == second or first in owners or second in owners:
        with pytest.raises(CoordinateConflict) as exc:
            parse_dist(src, 2)
        offset = src.index(second_src, len(src) - len(second_src))
        assert str(exc.value) == f"{message} (at offset {offset})"
    else:
        reordered = f"2*x2*{second_src} * {first_src}"
        assert parse_dist(src, 2) == parse_dist(reordered, 2)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_dist, "x1^+2*H(x1)", "expected a number, found '+' (at offset 3)"),
        (parse_poly, "t1^-1", "expected a number, found '-' (at offset 3)"),
        (parse_dist, "log(3)*H(x1)", "expected x<j>, found '3' (at offset 4)"),
        (parse_dist, "H(x1", "expected ')', found 'end of input' (at offset 4)"),
    ],
)
def test_syntax_errors_say_what_was_expected(parse, text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse(text, 1)


# Each factor that names a coordinate: its text and the canonical text it
# reads back to ("{}" is the name), what a ParseError expects in place of a
# name that is no x<j>, and the name's offset.
NAME_FORMS = [
    ("{}^2", "{}^2", "a factor (x<j>, log, H, delta, mono)", 0),
    ("log({})", "log({})", "x<j>", 4),
    ("H({})", "H({})", "x<j>", 2),
    ("H(-{})", "H(-{})", "x<j>", 3),
    ("delta({},0)", "delta({},0)", "x<j>", 6),
    ("mono({},1)", "{}", "x<j>", 5),
]


@pytest.mark.parametrize("form, canonical, expected, at", NAME_FORMS)
@pytest.mark.parametrize(
    "name, d, reads_as",
    [
        ("x1", 1, "x1"),
        ("x1", 9, "x1"),
        ("x9", 1, DimensionError),
        ("x9", 9, "x9"),
        ("x01", 1, "x1"),
        ("x01", 9, "x1"),
        ("x10", 1, DimensionError),
        ("x10", 9, DimensionError),
        ("x0", 1, DimensionError),
        ("x0", 9, DimensionError),
        ("X1", 1, ParseError),
        ("X1", 9, ParseError),
        ("y1", 1, ParseError),
        ("y1", 9, ParseError),
    ],
)
def test_coordinate_names_read_exactly(
    form, canonical, expected, at, name, d, reads_as
):
    # A power factor and the argument of every call read a name alike: the
    # canonical text, or the exact error, message and offset.
    text = form.format(name)
    if isinstance(reads_as, str):
        assert format_dist(parse_dist(text, d)) == canonical.format(reads_as)
        return
    with pytest.raises(reads_as) as exc:
        parse_dist(text, d)
    assert type(exc.value) is reads_as
    if reads_as is DimensionError:
        assert str(exc.value) == f"coordinate {name} exceeds dimension {d}"
    else:
        assert str(exc.value) == f"expected {expected}, found {name!r} (at offset {at})"
        assert exc.value.position == at


class TestRoundTrip:
    CORPUS_POLY = [
        "t1",
        "t1 + 1",
        "-t1^4 + 2/3*t1^2 - 5",
        "t1*t2",
        "t1^2*t2 - 3*t1 + 2",
        "1/2",
        "t1^2 + t2^2 - 1",
        "t1*t2 + 1",
        "(t1 + 1)^2*(t2 - 3)",
        "7*t1^3*t2^2 - t2",
    ]
    CORPUS_DIST = [
        ("delta(x1,0)", 1),
        ("x1^-1*H(x1)", 1),
        ("x1^2*log(x1)*H(x1) - 2*delta(x1,3)", 1),
        ("x1^-3*log(x1)^2*H(-x1)", 1),
        ("mono(x1,2)", 1),
        ("H(x1) + H(-x1)", 1),
        ("delta(x1,2)*x2^3*H(x2)", 2),
        ("delta(x1,0)*delta(x2,1)", 2),
        ("3/7*x1*H(x1)*x2^-2*log(x2)*H(x2)", 2),
        ("x1*x2", 2),
    ]

    def test_poly_round_trip(self):
        for src in self.CORPUS_POLY:
            P = parse_poly(src)
            assert parse_poly(format_poly(P), P.dim) == P

    def test_expanded_power_round_trip(self):
        # 792 canonical terms; the sum is accumulated in one term map, so
        # this parse is linear in the text length.
        P = parse_poly("(t1+t2+t3+t4+t5+t6)^7")
        assert len(P.terms) == 792
        assert parse_poly(format_poly(P), 6) == P

    def test_signed_sum_merges_terms(self):
        assert parse_poly("t1 - 2*t2 + 3 - t1 + t2^2 - (1 - t2)", 2) == (
            zvar(2, 2) ** 2 - zvar(2, 2) + Polynomial.constant(2, 2)
        )
        assert parse_poly("1/3*t1 + 1/6*t1 - 1/2*t1") == Polynomial.zero(1)
        assert format_poly(parse_poly("1/2*t1 - 1/3*t2 + 1/3*t2")) == "1/2*t1"

    def test_dist_round_trip(self):
        for src, d in self.CORPUS_DIST:
            e = parse_dist(src, d)
            assert parse_dist(format_dist(e), d) == e


atoms = st.one_of(
    st.builds(Delta, st.integers(0, 4)),
    st.builds(
        MonLog, st.integers(-4, 4), st.integers(0, 3), st.sampled_from((1, -1, 0))
    ),
)
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def printed_texts(draw):
    """(d, e, text, want): a canonical e, and format_dist(e) followed by
    terms of mono factors, with want the expression that text denotes."""
    d = draw(st.integers(1, 3))
    terms = st.tuples(st.tuples(*[atoms] * d), coeffs)
    e = dist(d, draw(st.lists(terms, max_size=4)))
    text, want = format_dist(e), e
    for _ in range(draw(st.integers(0, 2))):
        c = draw(coeffs)
        n_or_absent = st.one_of(st.none(), st.integers(0, 4))
        ns = draw(st.lists(n_or_absent, min_size=d, max_size=d))
        body = [str(abs(c))] + [
            f"mono(x{j},{n})" for j, n in enumerate(ns, 1) if n is not None
        ]
        text += (" - " if c < 0 else " + ") + "*".join(body)
        want += full_monomial(tuple(n or 0 for n in ns)).scaled(c)
    return d, e, text, want


@settings(max_examples=80, deadline=None)
@given(printed_texts())
def test_format_parse_identity(case):
    d, e, text, want = case
    assert parse_dist(format_dist(e), d) == e
    assert parse_dist(text, d) == want


@st.composite
def _coordinate_group(draw, j):
    """The factor token lists of one coordinate, in no set order, and the
    (sign, atom) alternatives they denote."""
    shape = draw(st.sampled_from(["absent", "delta", "mono", "half", "full"]))
    if shape == "absent":
        return [], [(1, MonLog(0, 0, 1)), (1, MonLog(0, 0, -1))]
    if shape == "delta":
        k = draw(st.integers(0, 3))
        return [["delta", "(", f"x{j}", ",", str(k), ")"]], [(1, Delta(k))]
    n = draw(st.integers(-3, 3))
    if shape == "mono":
        n = abs(n)
        factors, p = [["mono", "(", f"x{j}", ",", str(n), ")"]], 0
    else:
        factors, p = [], draw(st.integers(0, 2))
        if n != 0 or draw(st.booleans()):
            power = ["^", "-", str(-n)] if n < 0 else ["^", str(n)]
            bare = n == 1 and draw(st.booleans())
            factors.append([f"x{j}"] + ([] if bare else power))
        if p:
            log = ["log", "(", f"x{j}", ")"]
            bare = p == 1 and draw(st.booleans())
            factors.append(log + ([] if bare else ["^", str(p)]))
    if shape == "half":
        s = draw(st.sampled_from([1, -1]))
        arg = [f"x{j}"] if s == 1 else ["-", f"x{j}"]
        factors.append(["H", "("] + arg + [")"])
        return factors, [(1, MonLog(n, p, s))]
    return factors, [(1, MonLog(n, p, 1)), (-1 if n % 2 else 1, MonLog(n, p, -1))]


@st.composite
def _written_terms(draw, d):
    """(token lists of one term's items, the term's coefficient, the per
    coordinate alternatives): coefficient literals, unreduced ones among
    them, and factors, shuffled."""
    items, coeff, alternatives = [], F(1), []
    for j in range(1, d + 1):
        factors, alts = draw(_coordinate_group(j))
        items += factors
        alternatives.append(alts)
    for _ in range(draw(st.integers(0, 3))):
        num, den = draw(st.integers(0, 6)), draw(st.integers(1, 6))
        if den == 1 and draw(st.booleans()):
            items.append([str(num)])
        else:
            items.append([str(num), "/", str(den)])
        coeff *= F(num, den)
    items = draw(st.permutations(items)) or [["1"]]
    return items, coeff, alternatives


@st.composite
def written_sums(draw):
    """(d, text, want): a sum of written terms, some of them cancelled by a
    reordered copy of opposite sign, and its expansion into half-line terms
    built here from MonLog and Delta."""
    d = draw(st.integers(1, 3))
    terms = []
    written = draw(st.lists(_written_terms(d), min_size=1, max_size=4))
    for items, coeff, alternatives in written:
        sign = draw(st.sampled_from([1, -1]))
        terms.append((sign, items, coeff, alternatives))
        if draw(st.booleans()):
            terms.append((-sign, draw(st.permutations(items)), coeff, alternatives))
    tokens, want = [], {}
    for sign, items, coeff, alternatives in terms:
        if tokens or sign < 0:
            tokens.append("-" if sign < 0 else "+")
        for i, item in enumerate(items):
            tokens += (["*"] if i else []) + item
        for combo in product(*alternatives):
            c = sign * coeff
            for s, _ in combo:
                c *= s
            f = tuple(a for _, a in combo)
            want[f] = want.get(f, 0) + c
    space = st.sampled_from(["", " ", "\t", "\n  "])
    spaces = draw(st.lists(space, min_size=len(tokens), max_size=len(tokens)))
    text = "".join(t + w for t, w in zip(tokens, spaces))
    return d, text, {f: c for f, c in want.items() if c}


@settings(max_examples=200, deadline=None)
@given(written_sums())
def test_parse_matches_an_independent_expansion(case):
    # The half-line form is unique; the reader's canonical form is the
    # compressed one.
    d, text, want = case
    got = parse_dist(text, d)
    assert half_line_form(got.terms) == want
    assert dict(got.terms) == compressed_form(d, want)


def _printed_solution():
    """A 256-term expression at d = 9, the delta, x2 and H(-x2) factors
    repeated across its terms: the half-line sign patterns of
    delta(x1,1)*x2*1*...*1, with coefficients that no two patterns share up
    to sign, so that no pair merges into a full-line atom."""
    terms = []
    for signs in product((1, -1), repeat=8):
        f = (Delta(1), MonLog(1, 0, signs[0])) + tuple(MonLog(0, 0, s) for s in signs[1:])
        terms.append((f, F(-1 - signs.count(-1), 2)))
    e = dist(9, terms)
    assert len(e.terms) == 256
    return e


def _counted(monkeypatch, name):
    """Count the calls the grammar makes to its global name."""
    calls = []
    fn = getattr(grammar, name)
    monkeypatch.setattr(grammar, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_parse_makes_one_fraction_per_written_term(monkeypatch):
    e = _printed_solution()
    text = format_dist(e)
    calls = _counted(monkeypatch, "Fraction")
    assert parse_dist(text, 9) == e
    assert len(calls) == len(e.terms)


def test_format_formats_each_atom_of_a_coordinate_once(monkeypatch):
    e = _printed_solution()
    calls = _counted(monkeypatch, "_format_atom")
    format_dist(e)
    distinct = {(j, a) for f, _ in e.terms for j, a in enumerate(f, 1)}
    assert sorted(calls) == sorted(distinct)


def _reads_back_or_raises(text, d):
    """parse_dist(text, d) reads back through format_dist, or raises one of
    the errors of bad input, a ParseError at an offset inside text."""
    try:
        e = parse_dist(text, d)
    except (CoordinateConflict, DimensionError, InputTooLarge):
        return
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        return
    assert parse_dist(format_dist(e), d) == e


@st.composite
def mutated_texts(draw):
    """A printed text with whitespace put in, or one character replaced or
    deleted, at a random place."""
    d, _, text, _ = draw(printed_texts())
    i = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["space", "replace", "delete"]))
    if edit == "space":
        return d, text[:i] + draw(st.sampled_from([" ", "\t", "\n"])) + text[i:]
    new = draw(st.sampled_from(list("0123456789x-+*/^(),.H \n$t")))
    return d, text[:i] + (new if edit == "replace" else "") + text[i + 1 :]


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
def test_mutated_text_reads_back_or_raises(case):
    d, text = case
    _reads_back_or_raises(text, d)


@pytest.mark.parametrize(
    "text",
    [
        "",
        " -x1*H(x1) ",
        "x1^2*H(x1)\n",
        "x1^ 2*H(x1)",
        "1/0*H(x1)",
        "0/0",
        "2 3*H(x1)",
        "x1 + -x1",
        "x1*",
        "--x1",
        "x1/2",
        "x01*H(x1)",
        "x12*H(x1)",
        "x2*H(x1)",
        "x0",
        "delta(x1,-0)",
        "mono(x1,-0)",
        "mono(x1,-1)",
        "log(x1)^0*H(x1)",
        "log(x1)^-1*H(x1)",
        "H(+x1)",
        "x1^1000*H(x1)",
        "x1^1001*H(x1)",
        "x1^10000*H(x1)",
        "x1^00002*H(x1)",
        "delta(x1,0)*H(x1)",
        "0*delta(x1,0)*delta(x1,0)",
        pytest.param("1" * 3000 + "*H(x1)", id="literal-3000-digits"),
        pytest.param("1" * 3001 + "*H(x1)", id="literal-3001-digits"),
        "delta(x1,0)*H(x1) + $",
    ],
)
def test_edge_text_reads_back_or_raises(text):
    _reads_back_or_raises(text, 1)


polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=5,
).map(lambda terms: Polynomial(2, terms))


@settings(max_examples=80, deadline=None)
@given(polys)
def test_format_parse_poly_identity(P):
    assert parse_poly(format_poly(P), 2) == P
