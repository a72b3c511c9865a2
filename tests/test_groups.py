import pytest
from hypothesis import given, strategies as st

from qgraded.errors import GroupMismatchError, InfiniteGroupError
from qgraded.groups import GradingGroup


def test_composition_in_z2():
    Z2 = GradingGroup(0, (2,))
    a = Z2.element((1,))
    assert a + a == Z2.identity()


def test_composition_in_free_rank_two():
    Z2f = GradingGroup(2)
    assert Z2f.element((1, 0)) + Z2f.element((0, 1)) == Z2f.element((1, 1))


def test_inverse_with_torsion_reduction():
    G = GradingGroup(1, (3,))
    assert -G.element((2, 1)) == G.element((-2, 2))


def test_cross_group_operations_fail():
    a = GradingGroup(0, (2,)).element((1,))
    b = GradingGroup(0, (3,)).element((1,))
    with pytest.raises(GroupMismatchError):
        a + b
    with pytest.raises(GroupMismatchError):
        a - b


@pytest.mark.parametrize("torsion,expected", [
    ((2,), [(0,), (1,)]),
    ((2, 2), [(0, 0), (0, 1), (1, 0), (1, 1)]),
    ((3,), [(0,), (1,), (2,)]),
])
def test_enumeration_is_lexicographic(torsion, expected):
    G = GradingGroup(0, torsion)
    assert [g.coords for g in G.elements()] == expected
    assert G.order == len(expected)


def test_enumeration_requires_finite_group():
    with pytest.raises(InfiniteGroupError, match="enumeration requires finite group"):
        GradingGroup(1).elements()


def test_enumeration_closed_under_ops():
    for torsion in ((2, 2), (4,), (2, 3)):
        G = GradingGroup(0, torsion)
        els = set(g.coords for g in G.elements())
        assert G.identity().coords in els
        for g in G.elements():
            for h in G.elements():
                assert (g + h).coords in els
            assert (-g).coords in els


@pytest.mark.parametrize("coords,n,expected", [
    ((3, -1), 2, (1, 1)),
    ((2, 4), 2, (0, 0)),
])
def test_reduce_mod_examples(coords, n, expected):
    g = GradingGroup(2).element(coords)
    assert g.reduce_mod(n).coords == expected


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=2),
       st.lists(st.integers(-20, 20), min_size=2, max_size=2),
       st.integers(2, 7))
def test_reduce_mod_is_a_homomorphism(a, b, n):
    G = GradingGroup(2)
    g, h = G.element(tuple(a)), G.element(tuple(b))
    assert (g + h).reduce_mod(n) == g.reduce_mod(n) + h.reduce_mod(n)


@pytest.mark.parametrize("n,N", [(2, 1), (3, 2), (4, 2)])
def test_reduce_mod_is_surjective(n, N):
    G = GradingGroup(N)
    target = GradingGroup(0, (n,) * N)
    hits = set()
    for g in target.elements():
        hits.add(G.element(g.coords).reduce_mod(n).coords)
    assert hits == {g.coords for g in target.elements()}


def test_reduce_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        GradingGroup(1).element((1,)).reduce_mod(1)


def test_reduce_mod_requires_free_group():
    with pytest.raises(ValueError):
        GradingGroup(0, (4,)).element((1,)).reduce_mod(2)


def test_torsion_validation():
    with pytest.raises(ValueError):
        GradingGroup(0, (1,))
    with pytest.raises(ValueError):
        GradingGroup(-1)


def test_order_of_infinite_group():
    with pytest.raises(InfiniteGroupError):
        GradingGroup(1).order
