import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from eulerdist.atoms import Delta, DistExpr, MonLog, dist, single
from paperchecks import TermNotHyperplaneSupported, decompose_hyperplane, full_monomial


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
        e = full_monomial((2, 0), 2)
        assert len(e.terms) == 4
        assert all(c == 1 for _, c in e.terms)


class TestAtomRepresentation:
    def test_repr_unchanged(self):
        # oracle-suite rows print repr(atom).
        assert repr(MonLog(1)) == "MonLog(n=1, p=0, s=1)"
        assert repr(MonLog(-2, 3, -1)) == "MonLog(n=-2, p=3, s=-1)"
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
        monlogs = [MonLog(n, p, s) for n in range(-3, 4) for p in range(3) for s in (1, -1)]
        assert not any(a == b for a in deltas for b in monlogs)
        assert len(set(deltas + monlogs)) == len(deltas) + len(monlogs)

    @pytest.mark.parametrize("atom", [MonLog(-2, 3, -1), Delta(2)])
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
        MonLog, st.integers(-3, 3), st.integers(0, 2), st.sampled_from((1, -1))
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
    d, coeffs = case
    got = [f for f, _ in dist(d, coeffs.items()).terms]
    want = sorted(
        (f for f, c in coeffs.items() if c), key=lambda f: [_old_atom_key(a) for a in f]
    )
    assert got == want
