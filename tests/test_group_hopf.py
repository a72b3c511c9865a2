import itertools
import operator

import pytest

from qgraded.errors import GroupMismatchError
from qgraded.group_hopf import (GroupAlgebraElement, check_hopf_axioms,
                                default_sample)
from qgraded.groups import GradingGroup
from qgraded.scalars import Scalar


def like(group, coords):
    return GroupAlgebraElement.group_like(group.element(coords))


def test_coproduct_of_group_like():
    G = GradingGroup(0, (2, 2))
    g = G.element((1, 0))
    u = GroupAlgebraElement.group_like(g)
    assert u.coproduct() == GroupAlgebraElement(G, {(g, g): Scalar.one()})


def test_counit_is_linear_sum_of_coefficients():
    G = GradingGroup(0, (5,))
    u = like(G, (1,)).scale(2) + like(G, (2,)).scale(3)
    assert u.counit() == 5


def test_antipode_times_identity_on_group_like():
    G = GradingGroup(0, (4,))
    u = like(G, (1,))
    assert u.antipode() * u == GroupAlgebraElement.unit(G)


def test_convolution_product():
    G = GradingGroup(0, (4,))
    assert like(G, (1,)) * like(G, (2,)) == like(G, (3,))
    assert like(G, (3,)) * like(G, (2,)) == like(G, (1,))


def test_mismatched_groups_error():
    u, v = like(GradingGroup(0, (2,)), (1,)), like(GradingGroup(0, (3,)), (1,))
    for op in (operator.add, operator.mul):
        with pytest.raises(GroupMismatchError):
            op(u, v)


def test_zero_elements_over_different_groups_differ():
    zero2 = GroupAlgebraElement(GradingGroup(0, (2,)))
    zero3 = GroupAlgebraElement(GradingGroup(0, (3,)))
    assert zero2.terms == zero3.terms == {}
    assert zero2 != zero3
    assert zero2 == GroupAlgebraElement(GradingGroup(0, (2,)))


def test_witness_text_of_the_mixed_sample_element():
    assert str(default_sample(GradingGroup(0, (3,)))[-1]) == "1*[(0)] + 2*[(1)] + 3*[(2)]"


@pytest.mark.parametrize("torsion", [(2,), (3,), (2, 2), (4,), (6,)])
def test_hopf_axioms_pass_on_group_likes(torsion):
    report = check_hopf_axioms(GradingGroup(0, torsion))
    assert report.passed, report.failures()


def test_hopf_axioms_pass_on_random_combination(monkeypatch):
    G = GradingGroup(0, (3,))
    sample = [like(G, (i,)) for i in range(3)]
    sample.append(like(G, (0,)) + like(G, (1,)).scale(2) + like(G, (2,)).scale(-5))
    monkeypatch.setattr("qgraded.group_hopf.default_sample", lambda group: sample)
    report = check_hopf_axioms(G)
    assert report.passed, report.failures()


def test_corrupted_antipode_is_caught(monkeypatch):
    # on Z_2 the identity map IS the antipode (every element is its own
    # inverse), so the fixture uses Z_4 where g != g^{-1}
    monkeypatch.setattr(GroupAlgebraElement, "antipode", lambda self: self)
    report = check_hopf_axioms(GradingGroup(0, (4,)))
    failed = {r.check_id for r in report.failures()}
    assert "hopf.antipode-left" in failed
    assert "hopf.antipode-right" in failed
    # the first failing sample element is the group-like of (1)
    assert report.result("hopf.antipode-left").witness == "1*[(1)]"
    assert report.result("hopf.antipode-right").witness == "1*[(1)]"
    assert len(report.failures()) == 2


def test_the_checks_use_the_element_antipode(monkeypatch):
    monkeypatch.setattr(GroupAlgebraElement, "antipode", lambda self: self)
    report = check_hopf_axioms(GradingGroup(0, (3,)))
    assert [r.check_id for r in report.failures()] == ["hopf.antipode-left",
                                                       "hopf.antipode-right"]
    assert report.result("hopf.antipode-left").witness == "1*[(1)]"
    assert report.result("hopf.antipode-right").witness == "1*[(1)]"


def test_identity_antipode_is_fine_on_z2(monkeypatch):
    monkeypatch.setattr(GroupAlgebraElement, "antipode", lambda self: self)
    report = check_hopf_axioms(GradingGroup(0, (2,)))
    assert report.passed


def test_coproduct_is_multiplicative_on_group_likes():
    G = GradingGroup(0, (2, 2))
    for g in G.elements():
        for h in G.elements():
            u, v = (GroupAlgebraElement.group_like(g),
                    GroupAlgebraElement.group_like(h))
            lhs = (u * v).coproduct()
            gh = g + h
            assert lhs == GroupAlgebraElement(G, {(gh, gh): Scalar.one()})


def test_coproduct_is_multiplicative_on_mixed_elements():
    G = GradingGroup(0, (4,))
    sample = [like(G, (1,)).scale(3) + like(G, (2,)).scale(-1),
              like(G, (0,)) + like(G, (3,)).scale(2) + like(G, (1,))]
    for u in sample:
        for v in sample:
            assert (u * v).coproduct() == u.coproduct() * v.coproduct()


def test_antipode_is_an_antihomomorphism():
    G = GradingGroup(0, (4,))
    sample = [like(G, (1,)), like(G, (2,)) + like(G, (3,)).scale(2)]
    for u in sample:
        for v in sample:
            assert (u * v).antipode() == v.antipode() * u.antipode()
            assert (u * v).antipode() == u.antipode() * v.antipode()  # abelian


def test_counit_composed_with_antipode():
    G = GradingGroup(0, (6,))
    u = like(G, (1,)).scale(3) + like(G, (4,)).scale(-1)
    assert u.antipode().counit() == u.counit()


def test_unit_is_two_sided():
    G = GradingGroup(0, (3,))
    one = GroupAlgebraElement.unit(G)
    u = like(G, (1,)).scale(2) + like(G, (2,))
    assert one * u == u
    assert u * one == u


def test_tensor_element_arithmetic_drops_zeros():
    G = GradingGroup(0, (2,))
    g, h = G.element((0,)), G.element((1,))
    t = GroupAlgebraElement(G, {(g, h): Scalar.from_rational(2)})
    s = GroupAlgebraElement(G, {(g, h): Scalar.from_rational(-2),
                                (h, h): Scalar.one()})
    total = t + s
    assert total == GroupAlgebraElement(G, {(h, h): Scalar.one()})
    assert (total + total.scale(-1)).terms == {}
    assert total.scale(Scalar.zero()).terms == {}


def test_tensor_element_equality_ignores_construction_order():
    G = GradingGroup(0, (2,))
    g, h = G.element((0,)), G.element((1,))
    a = GroupAlgebraElement(G, {(g, g): Scalar.one(), (h, h): Scalar.from_rational(2)})
    b = GroupAlgebraElement(G, {(h, h): Scalar.from_rational(2), (g, g): Scalar.one()})
    assert a == b


def _coproduct_onto_the_identity(u):
    """g -> g (x) e: coassociative and multiplicative, but not counital."""
    e = u.group.identity()
    return GroupAlgebraElement(u.group, {(g, e): c for (g,), c in u.terms.items()})


_COUNIT = GroupAlgebraElement.counit
_COPRODUCT = GroupAlgebraElement.coproduct
_AT_ONE = ["hopf.counit-left", "hopf.counit-right", "hopf.antipode-left",
           "hopf.antipode-right"]


@pytest.mark.parametrize("group, attr, fake, failures", [
    (GradingGroup(0, (4, 4)), "coproduct", _coproduct_onto_the_identity,
     [("hopf.counit-left", "1*[(0,1)]"), ("hopf.antipode-left", "1*[(0,1)]"),
      ("hopf.antipode-right", "1*[(0,1)]")]),
    (GradingGroup(0, (24, 3)), "coproduct", _coproduct_onto_the_identity,
     [("hopf.counit-left", "1*[(1,0)]"), ("hopf.antipode-left", "1*[(1,0)]"),
      ("hopf.antipode-right", "1*[(1,0)]")]),
    (GradingGroup(0, (4, 4)), "coproduct", lambda u: _COPRODUCT(u).scale(2),
     [(c, "1*[(0,0)]") for c in _AT_ONE]
     + [("hopf.coproduct-multiplicative", "1*[(0,0)], 1*[(0,0)]"),
        ("hopf.unit-counit", "1")]),
    (GradingGroup(0, (4, 4)), "counit", lambda u: _COUNIT(u) * 2,
     [(c, "1*[(0,0)]") for c in _AT_ONE]
     + [("hopf.counit-multiplicative", "1*[(0,0)], 1*[(0,0)]"),
        ("hopf.unit-counit", "1")]),
    (GradingGroup(0, (24, 3)), "counit", lambda u: _COUNIT(u) * 2,
     [(c, "1*[(0,0)]") for c in _AT_ONE]
     + [("hopf.counit-multiplicative", "1*[(0,0)], 1*[(0,0)]"),
        ("hopf.unit-counit", "1")]),
], ids=["g-to-g-e-on-Z4xZ4", "g-to-g-e-on-Z24xZ3", "twice-coproduct-on-Z4xZ4",
        "twice-counit-on-Z4xZ4", "twice-counit-on-Z24xZ3"])
def test_patched_element_maps_fail_the_laws_they_enter(monkeypatch, group, attr,
                                                       fake, failures):
    monkeypatch.setattr(GroupAlgebraElement, attr, fake)
    report = check_hopf_axioms(group)
    assert [(r.check_id, r.witness) for r in report.failures()] == failures


def _is_like(coords):
    return lambda u: u == like(u.group, coords)


@pytest.mark.parametrize("attr, wrong", [("coproduct", lambda d: d.scale(2)),
                                         ("counit", lambda e: e * 2)],
                         ids=["coproduct", "counit"])
@pytest.mark.parametrize("group, bad, witness_off_the_proof_set", [
    (GradingGroup(0, (4, 4)), _is_like((2, 2)), True),
    (GradingGroup(0, (4, 4)), lambda u: len(u.terms) > 1, False),
    (GradingGroup(0, (24, 3)), _is_like((2, 0)), False),
    (GradingGroup(0, (24, 3)), _is_like((4, 0)), False),
], ids=["Z_4xZ_4-at-(2,2)", "Z_4xZ_4-off-the-group-likes", "Z_24xZ_3-at-(2,0)",
        "Z_24xZ_3-at-(4,0)"])
def test_a_map_wrong_off_the_proof_set_gets_the_full_loops_first_witness(
        monkeypatch, group, bad, witness_off_the_proof_set, attr, wrong):
    # the map is wrong only on elements that are neither the unit nor a
    # generator: one group-like, or the mix and its products (checked in
    # the proof set); Z_24 x Z_3 (order 72) has a partial sample, so its
    # full loop runs, and (4,0) is outside it, reached only as (2,0) + (2,0)
    original = getattr(GroupAlgebraElement, attr)

    def fake(u):
        return wrong(original(u)) if bad(u) else original(u)

    monkeypatch.setattr(GroupAlgebraElement, attr, fake)
    sample = default_sample(group)
    first = next(f"{u}, {v}" for u, v in itertools.product(sample, repeat=2)
                 if fake(u * v) != fake(u) * fake(v))
    report = check_hopf_axioms(group)
    assert report.result(f"hopf.{attr}-multiplicative").witness == first
    if witness_off_the_proof_set:
        ends = [group.identity()] + group.generators()
        assert first.split(", ")[1] not in {str(GroupAlgebraElement.group_like(g)) for g in ends}


def test_a_sample_without_every_group_like_runs_the_full_loop(monkeypatch):
    # whether the group-likes are the whole group is read from the sample
    # checked: with only (0) and (2) of Z_4, a counit wrong on (2) fails
    # only at ((2), (2)), a pair no proof on the unit and generator holds
    G = GradingGroup(0, (4,))
    two = like(G, (2,))
    monkeypatch.setattr("qgraded.group_hopf.default_sample",
                        lambda group: [like(G, (0,)), two])
    monkeypatch.setattr(GroupAlgebraElement, "counit",
                        lambda u: _COUNIT(u) * 2 if u == two else _COUNIT(u))
    report = check_hopf_axioms(G)
    assert report.result("hopf.counit-multiplicative").witness == "1*[(2)], 1*[(2)]"


def test_hopf_checks_evaluate_each_map_once_per_sample_element(monkeypatch):
    calls = {"coproduct": 0, "counit": 0}

    def counted(name, original):
        def wrapper(u):
            calls[name] += 1
            return original(u)
        return wrapper

    monkeypatch.setattr(GroupAlgebraElement, "coproduct",
                        counted("coproduct", _COPRODUCT))
    monkeypatch.setattr(GroupAlgebraElement, "counit", counted("counit", _COUNIT))
    group = GradingGroup(0, (4, 4))
    size = len(default_sample(group))
    assert size == 17
    assert check_hopf_axioms(group).passed
    # one per product in the proof set (16 * 3 group-like pairs (g, s) with
    # s the unit or a generator, and 33 pairs with the mix), one per sample
    # element, one per key in the laws that apply a map to one slot of a
    # coproduct, one on the unit
    assert max(calls.values()) <= 81 + 4 * size, calls


@pytest.mark.parametrize("group", [GradingGroup(0, (4, 4)), GradingGroup(0, (3,) * 4),
                                   GradingGroup(0, (2,) * 8), GradingGroup(0, (24, 3))],
                         ids=["Z_4xZ_4", "Z_3^4", "Z_2^8", "Z_24xZ_3"])
def test_default_sample_is_the_group_sample_plus_one_mix(group):
    likes = [GroupAlgebraElement.group_like(g) for g in group.sample()]
    assert default_sample(group)[:-1] == likes


def test_hopf_checks_at_the_order_cap_run_on_the_group_sample(monkeypatch):
    calls = []

    def counted(u):
        calls.append(u)
        return _COPRODUCT(u)

    monkeypatch.setattr(GroupAlgebraElement, "coproduct", counted)
    group = GradingGroup(0, (4,) * 4)  # order 256: 13 sample elements, not 256
    size = len(group.sample()) + 1
    assert check_hopf_axioms(group).passed
    assert len(calls) <= size * size + 4 * size
