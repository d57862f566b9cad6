from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from eulerdist import theta
from eulerdist.atoms import Atom1D, Delta, DistExpr, MonLog, dist, single
from eulerdist.poly import Polynomial, poly_eval
from eulerdist.solver import solve
from eulerdist.theta import apply_polynomial, apply_theta, equal
from paperchecks import apply_theta_expr, full_monomial


H = MonLog(0, 0, 1)


def closure(atoms: list[Atom1D]) -> tuple[Atom1D, ...]:
    """Smallest atom set containing the input and stable under theta (1-D)."""
    seen: set[Atom1D] = set()
    todo = list(atoms)
    while todo:
        a = todo.pop()
        if a in seen:
            continue
        seen.add(a)
        for _, b in apply_theta(a):
            if b not in seen:
                todo.append(b)
    return tuple(sorted(seen))


class TestThetaTable:
    def test_delta_eigen(self):
        assert apply_theta(Delta(2)) == [(F(-3), Delta(2))]

    def test_heaviside_killed(self):
        assert apply_theta(H) == []

    def test_finite_part_correction(self):
        out = dict((a, c) for c, a in apply_theta(MonLog(-1, 0, 1)))
        assert out == {MonLog(-1, 0, 1): F(-1), Delta(0): F(1)}

    def test_log_ladder(self):
        out = dict((a, c) for c, a in apply_theta(MonLog(2, 1, 1)))
        assert out == {MonLog(2, 1, 1): F(2), MonLog(2, 0, 1): F(1)}

    def test_no_correction_with_log(self):
        # For p >= 1 the regularization absorbs the boundary term.
        out = dict((a, c) for c, a in apply_theta(MonLog(-2, 1, 1)))
        assert out == {MonLog(-2, 1, 1): F(-2), MonLog(-2, 0, 1): F(1)}

    def test_reflected_correction_sign(self):
        # Reflected finite parts leak into deltas with all-positive weights;
        # the coefficients are locked to the adjoint-identity oracle.
        out = dict((a, c) for c, a in apply_theta(MonLog(-2, 0, -1)))
        assert out == {
            MonLog(-2, 0, -1): F(-2),
            Delta(0): F(1),
            Delta(1): F(1),
        }


class TestApplyPolynomial:
    def test_monomial_eigen(self):
        a = F(1, 3)
        P = Polynomial.variable(1, 1) - Polynomial.constant(1, a)
        for n in range(4):
            e = full_monomial((n,))
            assert apply_polynomial(P, e) == e.scaled(n - a)

    def test_resonant_generator(self):
        P = Polynomial.variable(1, 1) + Polynomial.constant(1, 1)
        assert apply_polynomial(P, single((MonLog(-1, 0, 1),))) == single((Delta(0),))

    def test_delta_tensor_kernel(self):
        P = (
            Polynomial.variable(2, 1)
            + Polynomial.variable(2, 2)
            + Polynomial.constant(2, 2)
        )
        e = single((Delta(0), Delta(0)))
        assert apply_polynomial(P, e).is_zero()


@pytest.mark.parametrize("m", [25, 50, 100])
def test_walk_numerators_stay_small_over_distinct_denominators(monkeypatch, m):
    # The solution of t1^m+1 on x1^-m*H(x1) has m delta terms over the
    # pairwise almost coprime denominators (i+1)^m + 1.  Walked over their
    # lcm, its numerators reached 1917, 10284 and 51599 bits at m = 25, 50
    # and 100; walked one eigenvalue class at a time, 298, 748 and 1827.
    P = Polynomial.variable(1, 1) ** m + Polynomial.constant(1, 1)
    U = solve(P, single((MonLog(-m, 0, 1),))).solution
    largest = [0]
    step = theta._theta_step

    def recording(i, nums, table):
        largest[0] = max([largest[0], *(abs(v).bit_length() for v in nums.values())])
        return step(i, nums, table)

    monkeypatch.setattr(theta, "_theta_step", recording)
    assert apply_polynomial(P, U) == single((MonLog(-m, 0, 1),))
    assert 0 < largest[0] < 40 * m


class TestIntTable:
    """theta in the basis Delta(k)/k!: all entries are integers."""

    finite_parts = [
        MonLog(n, p, s) for n in range(-12, 0) for p in (0, 1) for s in (1, -1)
    ]
    deltas = [Delta(k) for k in range(12)]

    def test_every_entry_is_an_int(self):
        table = theta.IntTable()
        for a in self.finite_parts + self.deltas:
            assert all(type(x) is int for x, _ in table[a])

    def test_finite_part_corrections_are_plus_or_minus_one(self):
        # The sign is (-1)^i on the right half-line and + on the left.
        table = theta.IntTable()
        for a in self.finite_parts:
            got = {b: x for x, b in table[a] if isinstance(b, Delta)}
            want = {Delta(i): (-1) ** i if a.s == 1 else 1 for i in range(-a.n)}
            assert got == (want if a.p == 0 else {})

    def test_delta_eigenvalue(self):
        table = theta.IntTable()
        for a in self.deltas:
            assert table[a] == [(-(a.k + 1), a)]


class TestEqual:
    def test_permutation(self):
        a = single((Delta(0),)) + single((H,), 2)
        b = single((H,), 2) + single((Delta(0),))
        assert equal(a, b)

    def test_constant_forms(self):
        assert equal(
            single((H,)) + single((MonLog(0, 0, -1),)), full_monomial((0,))
        )

    def test_scaling_distinguished(self):
        assert not equal(single((Delta(0),)), single((Delta(0),), 2))

    def test_non_canonical_operands(self):
        # Built directly: a repeated factor tuple, a zero coefficient and
        # an unsorted order, on either side.
        raw = DistExpr(
            1,
            (
                ((H,), F(1)),
                ((MonLog(2, 0, 1),), F(0)),
                ((Delta(0),), F(1)),
                ((H,), F(2)),
            ),
        )
        canon = single((Delta(0),)) + single((H,), 3)
        assert equal(raw, canon) and equal(canon, raw)
        assert not equal(raw, single((H,), 3))
        assert not equal(raw, canon + single((MonLog(2, 0, 1),)))
        cancelled = DistExpr(1, (((H,), F(1)), ((H,), F(-1))))
        assert equal(cancelled, dist(1, []))
        assert equal(dist(1, []), cancelled)


class TestClosure:
    def test_log_ladder(self):
        got = closure([MonLog(3, 2, 1)])
        assert set(got) == {MonLog(3, 2, 1), MonLog(3, 1, 1), MonLog(3, 0, 1)}

    def test_delta_fixed(self):
        assert closure([Delta(4)]) == (Delta(4),)

    def test_finite_part_leak(self):
        got = closure([MonLog(-2, 0, 1)])
        assert set(got) == {MonLog(-2, 0, 1), Delta(0), Delta(1)}

    def test_theta_stable(self):
        base = closure([MonLog(-3, 2, -1), Delta(1)])
        span = set(base)
        for a in base:
            for _, b in apply_theta(a):
                assert b in span


atom_strategy = st.one_of(
    st.builds(Delta, st.integers(0, 3)),
    st.builds(
        MonLog, st.integers(-3, 3), st.integers(0, 2), st.sampled_from((1, -1))
    ),
)


@settings(max_examples=60, deadline=None)
@given(atom_strategy, atom_strategy)
def test_theta_coordinates_commute(a, b):
    e = single((a, b))
    t12 = apply_theta_expr(1, apply_theta_expr(2, e))
    t21 = apply_theta_expr(2, apply_theta_expr(1, e))
    assert t12 == t21


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(atom_strategy),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        min_size=0,
        max_size=4,
    )
)
def test_apply_polynomial_linear(ts):
    P = Polynomial.variable(1, 1) ** 2 - Polynomial.constant(1, F(1, 2))
    e = dist(1, ts)
    split = sum(
        (apply_polynomial(P, single(f, c)) for f, c in e.terms),
        start=dist(1, []),
    )
    assert apply_polynomial(P, e) == split


def test_eigen_suite_exhaustive_small():
    P = (
        Polynomial.variable(2, 1) * Polynomial.variable(2, 2)
        - 2 * Polynomial.variable(2, 1)
        + Polynomial.constant(2, F(3, 4))
    )
    for alpha in product(range(3), repeat=2):
        e = full_monomial(alpha, 2)
        assert apply_polynomial(P, e) == e.scaled(poly_eval(P, alpha))


def _reference_apply(P, e):
    """sum_alpha c_alpha theta^alpha e, one monomial at a time."""
    out = dist(e.dim, [])
    for alpha, c in P.terms.items():
        x = e
        for j, a in enumerate(alpha, start=1):
            for _ in range(a):
                x = apply_theta_expr(j, x)
        out = out + x.scaled(c)
    return out


polys_2d = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=5,
).map(lambda terms: Polynomial(2, terms))


@settings(max_examples=60, deadline=None)
@given(
    polys_2d,
    st.lists(
        st.tuples(
            st.tuples(atom_strategy, atom_strategy),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        max_size=5,
    ),
)
def test_apply_polynomial_matches_monomial_reference(P, ts):
    # atom_strategy covers n <= -1 finite parts (with delta corrections)
    # and deltas; the raw term list may repeat factors or carry zeros.
    e = DistExpr(2, tuple(ts))
    assert apply_polynomial(P, e) == _reference_apply(P, e)


# -- the integer theta-walk against the term-by-term reference --------------

finite_parts = st.builds(
    MonLog, st.integers(-6, -1), st.integers(0, 2), st.sampled_from((1, -1))
)
wide_atoms = st.one_of(
    st.builds(Delta, st.integers(0, 5)),
    finite_parts,
    st.builds(MonLog, st.integers(0, 3), st.integers(0, 2), st.sampled_from((1, -1))),
)
coefficients = st.one_of(
    st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)


@st.composite
def raw_terms_3d(draw):
    """A raw 3-D term list: every drawn factor tuple once, then some again;
    coordinate 1 holds a delta in one tuple and a finite part in another,
    and coefficients may be zero."""
    triples = st.tuples(wide_atoms, wide_atoms, wide_atoms)
    tuples = draw(st.lists(triples, min_size=2, max_size=3))
    tuples[0] = (draw(st.builds(Delta, st.integers(0, 5))),) + tuples[0][1:]
    tuples[1] = (draw(finite_parts),) + tuples[1][1:]
    tuples += draw(st.lists(st.sampled_from(tuples), max_size=3))
    return [(f, draw(coefficients)) for f in tuples]


polys_3d = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    max_size=4,
).map(lambda terms: Polynomial(3, terms))


@settings(max_examples=40, deadline=None)
@given(polys_3d, raw_terms_3d())
def test_integer_walk_matches_reference_in_three_dimensions(P, ts):
    # n down to -6 puts weights up to 5! on the deltas; P's denominators go
    # up to 6.
    e = DistExpr(3, tuple(ts))
    assert apply_polynomial(P, e) == _reference_apply(P, e)
