import tracemalloc

import pytest
from hypothesis import given, strategies as st

from qgraded.errors import GroupMismatchError
from qgraded.groups import GradingGroup, GroupElement


def test_composition_in_z2():
    Z2 = GradingGroup(0, (2,))
    a = Z2.element((1,))
    assert a + a == Z2.identity()


def test_composition_in_a_rank_two_group_reduces_each_coordinate():
    G = GradingGroup(0, (3, 4))
    assert G.element((1, 0)) + G.element((0, 1)) == G.element((1, 1))
    assert (G.element((2, 3)) + G.element((2, 3))).coords == (1, 2)
    assert G.element((2, 3)) + G.element((1, 1)) == G.identity()


def test_inverse_with_torsion_reduction():
    G = GradingGroup(0, (5, 3))
    assert -G.element((2, 1)) == G.element((-2, 2))
    assert (-G.element((2, 1))).coords == (3, 2)


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
    # integer coordinates -> Z_n^N is element() on the group
    assert GradingGroup(0, (n, n)).element(coords).coords == expected


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=2),
       st.lists(st.integers(-20, 20), min_size=2, max_size=2),
       st.integers(2, 7))
def test_reduce_mod_is_a_homomorphism(a, b, n):
    Q = GradingGroup(0, (n, n))
    total = tuple(x + y for x, y in zip(a, b))
    assert Q.element(total) == Q.element(tuple(a)) + Q.element(tuple(b))


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


@pytest.mark.parametrize("free_rank", [1, 2, int("9" * 4300)],
                         ids=["1", "2", "4300-digit"])
def test_a_free_part_is_refused(free_rank):
    # grading groups are finite: free_rank stays in the signature and is 0
    with pytest.raises(ValueError, match="^free_rank must be 0: grading groups are finite$"):
        GradingGroup(free_rank, (3,))
    assert GradingGroup(0, (3,)).is_finite


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


def _reduced(group, coords):
    return tuple(c % n for c, n in zip(coords, group.torsion))


@pytest.mark.parametrize("group, coords", [
    # order 96: (0, 2) is both the inverse and the double of (0, 1)
    (GradingGroup(0, (32, 3)), [(0, 0), (1, 0), (0, 1), (31, 0), (0, 2), (2, 0)]),
    # order 81: the doubles are the inverses, so each is kept once
    (GradingGroup(0, (3,) * 4), [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                                 (0, 0, 1, 0), (0, 0, 0, 1), (2, 0, 0, 0),
                                 (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]),
], ids=["Z_32xZ_3", "Z_3^4"])
def test_sample_above_order_64_is_identity_generators_inverses_doubles(group, coords):
    assert [g.coords for g in group.sample()] == coords


@pytest.mark.parametrize("torsion", [(4, 2), (2,) * 6, (4, 4, 4)])
def test_sample_up_to_order_64_is_the_whole_group(torsion):
    group = GradingGroup(0, torsion)
    assert group.sample() == group.elements()


@pytest.mark.parametrize("group, sample", [
    (GradingGroup(0, (4, 2)), GradingGroup(0, (4, 2)).elements()),
    (GradingGroup(0, (32, 3)), GradingGroup(0, (32, 3)).sample()),
], ids=["Z_4xZ_2", "Z_32xZ_3-cqt-sample"])
def test_memoised_group_arithmetic_follows_the_coordinate_formulas(group, sample):
    twin = GradingGroup(0, group.torsion)
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
    G, H = GradingGroup(0, (5, 3)), GradingGroup(0, (5, 3))
    assert G is not H
    g, h = G.element((1, 2)), H.element((2, 2))
    assert g + h == h + g == G.element((3, 1)) == H.element((3, 1))
    assert g - h == H.element((-1, 0))
    g + G.element((1, 2))  # the memo now holds the pair ((1, 2), (1, 2))
    foreign = GradingGroup(0, (3, 3)).element((1, 2))
    for op in (lambda: g + foreign, lambda: foreign + g, lambda: g - foreign):
        with pytest.raises(GroupMismatchError):
            op()


def test_repr_of_an_element_is_unchanged():
    g = GradingGroup(0, (5, 3)).element((2, 4))
    text = "GroupElement(group=GradingGroup(free_rank=0, torsion=(5, 3)), coords={})"
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


def test_negations_the_identity_and_the_generators_are_built_once_per_group(monkeypatch):
    G = GradingGroup(0, (4, 3))
    elements = G.elements()
    built = []
    init = GroupElement.__post_init__

    def counting(self):
        built.append(self.coords)
        init(self)

    monkeypatch.setattr(GroupElement, "__post_init__", counting)
    for _ in range(2):
        assert G.identity().coords == (0, 0)
        assert [g.coords for g in G.generators()] == [(1, 0), (0, 1)]
        assert G.generators()[0] is G.generators()[0]
        assert [(-g).coords for g in elements] == [
            _reduced(G, [-a for a in g.coords]) for g in elements]
        assert len(built) == 1 + 2 + len(elements)
    G.generators().append(G.identity())  # each call returns its own list
    assert [g.coords for g in G.generators()] == [(1, 0), (0, 1)]
