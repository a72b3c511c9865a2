import tracemalloc

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
    # Z^N -> Z_n^N is element() on the quotient group
    assert GradingGroup(0, (n, n)).element(coords).coords == expected


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=2),
       st.lists(st.integers(-20, 20), min_size=2, max_size=2),
       st.integers(2, 7))
def test_reduce_mod_is_a_homomorphism(a, b, n):
    G, Q = GradingGroup(2), GradingGroup(0, (n, n))
    g, h = G.element(tuple(a)), G.element(tuple(b))
    assert Q.element((g + h).coords) == Q.element(g.coords) + Q.element(h.coords)


@pytest.mark.parametrize("n,N", [(2, 1), (3, 2), (4, 2)])
def test_reduce_mod_is_surjective(n, N):
    target = GradingGroup(0, (n,) * N)
    hits = set()
    for g in target.elements():
        hits.add(target.element(tuple(c - 3 * n for c in g.coords)).coords)
    assert hits == {g.coords for g in target.elements()}


def test_torsion_validation():
    with pytest.raises(ValueError):
        GradingGroup(0, (1,))
    with pytest.raises(ValueError):
        GradingGroup(-1)


def test_order_of_infinite_group():
    with pytest.raises(InfiniteGroupError):
        GradingGroup(1).order


@pytest.mark.parametrize("torsion", [(), (5,), (4, 2), (3, 3, 3)])
def test_index_is_the_inverse_of_the_enumeration(torsion):
    G = GradingGroup(0, torsion)
    assert [G.index(g.coords) for g in G.elements()] == list(range(G.order))


@pytest.mark.parametrize("torsion, coords, reduced", [
    ((5,), (-1,), (4,)),
    ((5,), (12,), (2,)),
    ((4, 2), (-3, 5), (1, 1)),
    ((3, 3, 3), (3, -4, 7), (0, 2, 1)),
])
def test_index_reduces_its_coordinates(torsion, coords, reduced):
    G = GradingGroup(0, torsion)
    assert G.index(coords) == G.index(reduced) == G.elements().index(G.element(reduced))


def test_index_refuses_a_wrong_number_of_coordinates():
    G = GradingGroup(0, (4, 2))
    for coords in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError):
            G.index(coords)


@pytest.mark.parametrize("group", [GradingGroup(1), GradingGroup(1, (3,))])
def test_index_requires_finite_group(group):
    with pytest.raises(InfiniteGroupError, match="finite group"):
        group.index((0,) * group.ngens)


def _reduced(group, coords):
    r = group.free_rank
    return tuple(coords[:r]) + tuple(c % n for c, n in zip(coords[r:], group.torsion))


@pytest.mark.parametrize("group, coords", [
    (GradingGroup(1, (3,)), [(0, 0), (1, 0), (0, 1), (-1, 0), (0, 2), (2, 0)]),
    # order 81: the doubles are the inverses, so each is kept once
    (GradingGroup(0, (3,) * 4), [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                                 (0, 0, 1, 0), (0, 0, 0, 1), (2, 0, 0, 0),
                                 (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]),
], ids=["ZxZ_3", "Z_3^4"])
def test_sample_above_order_64_is_identity_generators_inverses_doubles(group, coords):
    assert [g.coords for g in group.sample()] == coords


@pytest.mark.parametrize("torsion", [(4, 2), (2,) * 6, (4, 4, 4)])
def test_sample_up_to_order_64_is_the_whole_group(torsion):
    group = GradingGroup(0, torsion)
    assert group.sample() == group.elements()


@pytest.mark.parametrize("group, sample", [
    (GradingGroup(0, (4, 2)), GradingGroup(0, (4, 2)).elements()),
    (GradingGroup(1, (3,)), GradingGroup(1, (3,)).sample()),
], ids=["Z_4xZ_2", "ZxZ_3-cqt-sample"])
def test_memoised_group_arithmetic_follows_the_coordinate_formulas(group, sample):
    twin = GradingGroup(group.free_rank, group.torsion)
    for _ in range(2):  # sums are built on the first pass, read from the memo on the second
        for g in sample:
            neg = _reduced(group, [-a for a in g.coords])
            assert (-g).coords == neg
            for h in sample:
                for result, coords in [
                        (g + h, [a + b for a, b in zip(g.coords, h.coords)]),
                        (g - h, [a - b for a, b in zip(g.coords, h.coords)])]:
                    assert result.coords == _reduced(group, coords)
                    for fresh in (group.element(coords), twin.element(coords)):
                        assert result == fresh and hash(result) == hash(fresh)


def test_equal_groups_combine_and_foreign_groups_are_refused():
    G, H = GradingGroup(1, (3,)), GradingGroup(1, (3,))
    assert G is not H
    g, h = G.element((1, 2)), H.element((2, 2))
    assert g + h == h + g == G.element((3, 1)) == H.element((3, 1))
    assert g - h == H.element((-1, 0))
    g + G.element((1, 2))  # the memo now holds the pair ((1, 2), (1, 2))
    foreign = GradingGroup(2).element((1, 2))
    for op in (lambda: g + foreign, lambda: foreign + g, lambda: g - foreign):
        with pytest.raises(GroupMismatchError):
            op()


def test_repr_of_an_element_is_unchanged():
    g = GradingGroup(1, (3,)).element((2, 4))
    text = "GroupElement(group=GradingGroup(free_rank=1, torsion=(3,)), coords={})"
    assert repr(g) == text.format("(2, 1)")
    assert repr(g + g) == text.format("(4, 2)")
    assert repr(GradingGroup(0, (2,))) == "GradingGroup(free_rank=0, torsion=(2,))"


def test_a_sum_in_a_huge_cyclic_group_takes_constant_memory():
    G = GradingGroup(0, (10**9,))
    g, h = G.element((123456789,)), G.element((999999999,))
    tracemalloc.start()
    try:
        total = g + h
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total.coords == (123456788,)
    assert peak < 64 * 1024
