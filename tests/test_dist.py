import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from eulerdist.atoms import Delta, DistExpr, MonLog, dist, single
from paperchecks import (
    TermNotHyperplaneSupported,
    compressed_form,
    decompose_hyperplane,
    full_monomial,
    half_line_form,
)


H = MonLog(0, 0, 1)


class TestCanonicalize:
    def test_merges_coefficients(self):
        e = dist(1, [((H,), F(2)), ((H,), F(3))])
        assert e == single((H,), 5)

    def test_cancellation_to_zero(self):
        f = (Delta(0), H)
        e = dist(2, [(f, F(1)), (f, F(-1))])
        assert e.is_zero()

    def test_merge_across_split_form(self):
        e = full_monomial((2,)) + full_monomial((2,))
        assert e == full_monomial((2,)).scaled(2)

    def test_idempotent_on_examples(self):
        e = full_monomial((1, 2), 2) + single((Delta(1), H), F(-3, 7))
        assert dist(e.dim, e.terms) == e


class TestFullMonomial:
    def test_constant_one(self):
        assert full_monomial((0,)) == single((H,)) + single((MonLog(0, 0, -1),))

    def test_odd_sign(self):
        e = full_monomial((1,))
        assert e == single((MonLog(1, 0, 1),)) + single((MonLog(1, 0, -1),), -1)

    def test_2d_even_all_plus(self):
        # Four half-line sign patterns, all with coefficient 1: one term of
        # full-line atoms.
        e = full_monomial((2, 0), 2)
        assert e == single((MonLog(2, 0, 0), MonLog(0, 0, 0)))
        assert half_line_form(e.terms) == {
            (MonLog(2, 0, s), MonLog(0, 0, t)): 1 for s in (1, -1) for t in (1, -1)
        }

    def test_non_matching_pair_stays_split(self):
        # x H(x) + x H(-x) is |x|, not x: (-1)^n a != a for odd n.
        e = single((MonLog(1, 0, 1),)) + single((MonLog(1, 0, -1),))
        assert len(e.terms) == 2

    def test_compression_runs_over_coordinates_in_order(self):
        # Three of the four sign patterns of 1 x 1: coordinate 1 pairs up
        # first, in the patterns with x2 > 0, and what is left cannot pair.
        R, L = MonLog(0, 0, 1), MonLog(0, 0, -1)
        e = dist(2, [((R, R), F(1)), ((L, R), F(1)), ((R, L), F(1))])
        assert e.terms == (
            ((MonLog(0, 0, 0), R), F(1)),
            ((R, L), F(1)),
        )



class TestAtomRepresentation:
    def test_repr_unchanged(self):
        # oracle-suite rows print repr(atom).
        assert repr(MonLog(1)) == "MonLog(n=1, p=0, s=1)"
        assert repr(MonLog(-2, 3, -1)) == "MonLog(n=-2, p=3, s=-1)"
        assert repr(MonLog(-2, 3, 0)) == "MonLog(n=-2, p=3, s=0)"
        assert repr(Delta(2)) == "Delta(k=2)"

    @pytest.mark.parametrize(
        "make", [lambda: MonLog(0, -1), lambda: MonLog(0, 0, 2), lambda: Delta(-1)]
    )
    def test_invalid_atoms_raise(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize(
        "atom, name", [(MonLog(1, 2, -1), "n"), (MonLog(1), "p"), (Delta(0), "k")]
    )
    def test_immutable(self, atom, name):
        with pytest.raises(AttributeError):
            setattr(atom, name, 5)

    def test_delta_never_equals_monlog(self):
        deltas = [Delta(k) for k in range(4)]
        monlogs = [
            MonLog(n, p, s) for n in range(-3, 4) for p in range(3) for s in (1, -1, 0)
        ]
        assert not any(a == b for a in deltas for b in monlogs)
        assert len(set(deltas + monlogs)) == len(deltas) + len(monlogs)

    @pytest.mark.parametrize("atom", [MonLog(-2, 3, -1), MonLog(1, 0, 0), Delta(2)])
    def test_copy_and_pickle_round_trip(self, atom):
        for back in (copy.copy(atom), copy.deepcopy(atom), pickle.loads(pickle.dumps(atom))):
            assert back == atom and type(back) is type(atom)


class TestDecomposeHyperplane:
    def test_two_parts(self):
        e = single((Delta(0), H)) + single((H, Delta(1)))
        parts = decompose_hyperplane(e)
        assert parts == [
            (1, single((Delta(0), H))),
            (2, single((H, Delta(1)))),
        ]

    def test_tie_smallest_index(self):
        e = single((Delta(0), Delta(0)))
        assert decompose_hyperplane(e) == [(1, e)]

    def test_single_coordinate(self):
        e = single((Delta(3),))
        assert decompose_hyperplane(e) == [(1, e)]

    def test_rejects_continuous_term(self):
        e = single((Delta(0), H)) + single((H, H))
        with pytest.raises(TermNotHyperplaneSupported):
            decompose_hyperplane(e)


atoms = st.one_of(
    st.builds(Delta, st.integers(0, 3)),
    st.builds(
        MonLog, st.integers(-3, 3), st.integers(0, 2), st.sampled_from((1, -1, 0))
    ),
)
terms_2d = st.tuples(
    st.tuples(atoms, atoms),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
exprs_2d = st.lists(terms_2d, min_size=0, max_size=5).map(lambda ts: dist(2, ts))


@settings(max_examples=80, deadline=None)
@given(exprs_2d)
def test_canonicalize_idempotent(e):
    again = dist(e.dim, e.terms)
    assert again == e
    assert dist(again.dim, again.terms) == again


@settings(max_examples=80, deadline=None)
@given(exprs_2d, exprs_2d)
def test_addition_commutes_canonically(a, b):
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(st.lists(terms_2d, min_size=1, max_size=5))
def test_decompose_parts_sum(ts):
    withdelta = [((Delta(0), f[1]), c) for f, c in ts if c]
    e = dist(2, withdelta)
    if e.is_zero():
        return
    parts = decompose_hyperplane(e)
    total = DistExpr.zero(2)
    for j, part in parts:
        for f, _ in part.terms:
            assert isinstance(f[j - 1], Delta)
        total = total + part
    assert total == e


def _old_atom_key(a):
    """The canonical atom order as first written out: deltas first."""
    if isinstance(a, Delta):
        return (0, a.k, 0, 0)
    return (1, a.n, a.p, a.s)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.dictionaries(st.tuples(*[atoms] * d), st.integers(-3, 3), max_size=12),
        )
    )
)
def test_canonical_order_is_the_old_key(case):
    # Which terms dist keeps is the reference test's to check; here, only
    # their order.
    d, coeffs = case
    got = [f for f, _ in dist(d, coeffs.items()).terms]
    assert got == sorted(got, key=lambda f: [_old_atom_key(a) for a in f])


@st.composite
def _one_distribution_several_ways(draw):
    """(d, terms, pieces) at d <= 4: terms over Delta and the three MonLog
    signs, most of them of one skeleton (a delta or a MonLog(n, p) per
    coordinate, each term drawing the MonLogs' signs anew) so that their
    sign patterns meet, and the same distribution in half-line atoms, each
    coefficient split in two parts, shuffled."""
    d = draw(st.integers(1, 4))
    shape = draw(
        st.lists(
            st.one_of(
                st.builds(Delta, st.integers(0, 2)),
                st.tuples(st.integers(-3, 3), st.integers(0, 2)),
            ),
            min_size=d,
            max_size=d,
        )
    )
    signs = st.sampled_from((1, -1, 0))
    terms = [
        (
            tuple(x if isinstance(x, Delta) else MonLog(*x, draw(signs)) for x in shape),
            draw(st.fractions(-3, 3, max_denominator=3)),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    terms += draw(st.lists(st.tuples(st.tuples(*[atoms] * d), st.integers(-2, 2)), max_size=2))
    pieces = []
    for g, x in half_line_form(terms).items():
        part = draw(st.fractions(-2, 2, max_denominator=4))
        pieces += [(g, part), (g, x - part)]
    return d, terms, draw(st.permutations(pieces))


@settings(max_examples=200, deadline=None)
@given(_one_distribution_several_ways())
def test_dist_is_the_compressed_half_line_form(case):
    """dist is the reference rule: expand to half-line atoms, merge, and
    compress for j = 1..d in turn; so it reads only the distribution, and
    == is distributional equality."""
    d, terms, pieces = case
    want = compressed_form(d, half_line_form(terms))
    got = dist(d, terms)
    assert dict(got.terms) == want
    assert dist(d, pieces) == got
    assert dist(d, reversed(got.terms)) == got
