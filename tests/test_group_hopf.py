import itertools
import operator

import pytest

from qgraded import group_hopf
from qgraded.errors import GroupMismatchError
from qgraded.group_hopf import (antipode, check_hopf_axioms, coproduct, counit,
                                default_sample, group_like, product, tensor_text)
from qgraded.groups import GradingGroup
from qgraded.linalg import vec_add_at
from qgraded.scalars import Scalar


def like(group, coords):
    return group_like(group.element(coords))


def combination(group, *terms):
    """The sum of c*[coords] over the (coords, c) pairs."""
    out = {}
    for coords, c in terms:
        vec_add_at(out, (group.element(coords),), Scalar.from_rational(c))
    return out


def scaled(t, c):
    return {key: v * c for key, v in t.items()}


def test_coproduct_of_group_like():
    G = GradingGroup(0, (2, 2))
    g = G.element((1, 0))
    assert coproduct(group_like(g)) == {(g, g): Scalar.one()}


def test_counit_is_linear_sum_of_coefficients():
    G = GradingGroup(0, (5,))
    u = combination(G, ((1,), 2), ((2,), 3))
    assert counit(u) == 5


def test_antipode_times_identity_on_group_like():
    G = GradingGroup(0, (4,))
    u = like(G, (1,))
    assert product(antipode(u), u) == group_like(G.identity())


def test_convolution_product():
    G = GradingGroup(0, (4,))
    assert product(like(G, (1,)), like(G, (2,))) == like(G, (3,))
    assert product(like(G, (3,)), like(G, (2,))) == like(G, (1,))


def test_mismatched_groups_error():
    u, v = like(GradingGroup(0, (2,)), (1,)), like(GradingGroup(0, (3,)), (1,))
    with pytest.raises(GroupMismatchError):
        product(u, v)


def test_witness_text_of_the_mixed_sample_element():
    assert tensor_text(default_sample(GradingGroup(0, (3,)))[-1]) == \
        "1*[(0)] + 2*[(1)] + 3*[(2)]"


def test_text_of_a_rank_2_tensor_and_of_the_empty_tensor():
    G = GradingGroup(0, (2, 2))
    g = G.element((1, 0))
    assert tensor_text({(g, g): Scalar.one()}) == "1*[(1,0)](x)[(1,0)]"
    assert tensor_text({}) == "0"


@pytest.mark.parametrize("torsion", [(2,), (3,), (2, 2), (4,), (6,)])
def test_hopf_axioms_pass_on_group_likes(torsion):
    report = check_hopf_axioms(GradingGroup(0, torsion))
    assert report.passed, report.failures()


def test_hopf_axioms_pass_on_random_combination(monkeypatch):
    G = GradingGroup(0, (3,))
    sample = [like(G, (i,)) for i in range(3)]
    sample.append(combination(G, ((0,), 1), ((1,), 2), ((2,), -5)))
    monkeypatch.setattr(group_hopf, "default_sample", lambda group: sample)
    report = check_hopf_axioms(G)
    assert report.passed, report.failures()


def test_hopf_axioms_pass_on_an_element_of_counit_zero(monkeypatch):
    # m(S (x) id)D([0] - [1]) drops every key, and eps([0] - [1]) * 1 is
    # the empty dict too, not {(e,): 0}
    G = GradingGroup(0, (3,))
    sample = [like(G, (0,)), combination(G, ((0,), 1), ((1,), -1))]
    monkeypatch.setattr(group_hopf, "default_sample", lambda group: sample)
    report = check_hopf_axioms(G)
    assert report.passed, report.failures()


def test_corrupted_antipode_is_caught(monkeypatch):
    # on Z_2 the identity map IS the antipode (every element is its own
    # inverse), so the fixture uses Z_4 where g != g^{-1}
    monkeypatch.setattr(group_hopf, "antipode", lambda u: u)
    report = check_hopf_axioms(GradingGroup(0, (4,)))
    failed = {r.check_id for r in report.failures()}
    assert "hopf.antipode-left" in failed
    assert "hopf.antipode-right" in failed
    # the first failing sample element is the group-like of (1)
    assert report.result("hopf.antipode-left").witness == "1*[(1)]"
    assert report.result("hopf.antipode-right").witness == "1*[(1)]"
    assert len(report.failures()) == 2


def test_the_checks_use_the_element_antipode(monkeypatch):
    monkeypatch.setattr(group_hopf, "antipode", lambda u: u)
    report = check_hopf_axioms(GradingGroup(0, (3,)))
    assert [r.check_id for r in report.failures()] == ["hopf.antipode-left",
                                                       "hopf.antipode-right"]
    assert report.result("hopf.antipode-left").witness == "1*[(1)]"
    assert report.result("hopf.antipode-right").witness == "1*[(1)]"


def test_identity_antipode_is_fine_on_z2(monkeypatch):
    monkeypatch.setattr(group_hopf, "antipode", lambda u: u)
    report = check_hopf_axioms(GradingGroup(0, (2,)))
    assert report.passed


def test_coproduct_is_multiplicative_on_group_likes():
    G = GradingGroup(0, (2, 2))
    for g in G.elements():
        for h in G.elements():
            lhs = coproduct(product(group_like(g), group_like(h)))
            gh = g + h
            assert lhs == {(gh, gh): Scalar.one()}


def test_coproduct_is_multiplicative_on_mixed_elements():
    G = GradingGroup(0, (4,))
    sample = [combination(G, ((1,), 3), ((2,), -1)),
              combination(G, ((0,), 1), ((3,), 2), ((1,), 1))]
    for u in sample:
        for v in sample:
            assert coproduct(product(u, v)) == product(coproduct(u), coproduct(v))


def test_antipode_is_an_antihomomorphism():
    G = GradingGroup(0, (4,))
    sample = [like(G, (1,)), combination(G, ((2,), 1), ((3,), 2))]
    for u in sample:
        for v in sample:
            assert antipode(product(u, v)) == product(antipode(v), antipode(u))
            assert antipode(product(u, v)) == product(antipode(u), antipode(v))  # abelian


def test_counit_composed_with_antipode():
    G = GradingGroup(0, (6,))
    u = combination(G, ((1,), 3), ((4,), -1))
    assert counit(antipode(u)) == counit(u)


def test_unit_is_two_sided():
    G = GradingGroup(0, (3,))
    one = group_like(G.identity())
    u = combination(G, ((1,), 2), ((2,), 1))
    assert product(one, u) == u
    assert product(u, one) == u


def test_tensor_element_arithmetic_drops_zeros():
    G = GradingGroup(0, (2,))
    g, h = G.element((0,)), G.element((1,))
    one, minus_one = Scalar.one(), Scalar.from_rational(-1)
    # (e + h)(e - h) = e - h^2 = 0 in kZ_2, and likewise slot by slot
    assert product({(g,): one, (h,): one}, {(g,): one, (h,): minus_one}) == {}
    assert product({(g, g): one, (h, h): one}, {(g, g): one, (h, h): minus_one}) == {}
    t = {(g, h): Scalar.from_rational(2), (h, h): Scalar.one()}
    assert product(t, {(g, g): Scalar.one()}) == t
    assert counit({}) == 0 and coproduct({}) == {} and antipode({}) == {}


def test_tensor_element_equality_ignores_construction_order():
    G = GradingGroup(0, (2,))
    g, h = G.element((0,)), G.element((1,))
    a = {(g, g): Scalar.one(), (h, h): Scalar.from_rational(2)}
    b = {(h, h): Scalar.from_rational(2), (g, g): Scalar.one()}
    assert a == b
    assert tensor_text(a) == tensor_text(b) == "1*[(0)](x)[(0)] + 2*[(1)](x)[(1)]"


def _coproduct_onto_the_identity(u):
    """g -> g (x) e: coassociative and multiplicative, but not counital."""
    return {(g, g.group.identity()): c for (g,), c in u.items()}


_AT_ONE = ["hopf.counit-left", "hopf.counit-right", "hopf.antipode-left",
           "hopf.antipode-right"]


def _fails_at(e, g):
    """The failures of the patched maps below on a partial sample whose
    first two elements are the group-likes e and g."""
    return {
        "g-to-g-e": [("hopf.counit-left", g), ("hopf.antipode-left", g),
                     ("hopf.antipode-right", g)],
        "twice-coproduct": [(c, e) for c in _AT_ONE]
        + [("hopf.coproduct-multiplicative", f"{e}, {e}"), ("hopf.unit-counit", "1")],
        "twice-counit": [(c, e) for c in _AT_ONE]
        + [("hopf.counit-multiplicative", f"{e}, {e}"), ("hopf.unit-counit", "1")],
    }


_ON_Z4_4 = _fails_at("1*[(0,0,0,0)]", "1*[(1,0,0,0)]")
_ON_Z2_8 = _fails_at("1*[(0,0,0,0,0,0,0,0)]", "1*[(1,0,0,0,0,0,0,0)]")


@pytest.mark.parametrize("group, attr, fake, failures", [
    (GradingGroup(0, (4, 4)), "coproduct", _coproduct_onto_the_identity,
     [("hopf.counit-left", "1*[(0,1)]"), ("hopf.antipode-left", "1*[(0,1)]"),
      ("hopf.antipode-right", "1*[(0,1)]")]),
    (GradingGroup(0, (24, 3)), "coproduct", _coproduct_onto_the_identity,
     [("hopf.counit-left", "1*[(1,0)]"), ("hopf.antipode-left", "1*[(1,0)]"),
      ("hopf.antipode-right", "1*[(1,0)]")]),
    (GradingGroup(0, (4, 4)), "coproduct", lambda u: scaled(coproduct(u), 2),
     [(c, "1*[(0,0)]") for c in _AT_ONE]
     + [("hopf.coproduct-multiplicative", "1*[(0,0)], 1*[(0,0)]"),
        ("hopf.unit-counit", "1")]),
    (GradingGroup(0, (4, 4)), "counit", lambda u: counit(u) * 2,
     [(c, "1*[(0,0)]") for c in _AT_ONE]
     + [("hopf.counit-multiplicative", "1*[(0,0)], 1*[(0,0)]"),
        ("hopf.unit-counit", "1")]),
    (GradingGroup(0, (24, 3)), "counit", lambda u: counit(u) * 2,
     [(c, "1*[(0,0)]") for c in _AT_ONE]
     + [("hopf.counit-multiplicative", "1*[(0,0)], 1*[(0,0)]"),
        ("hopf.unit-counit", "1")]),
    (GradingGroup(0, (4,) * 4), "coproduct", _coproduct_onto_the_identity,
     _ON_Z4_4["g-to-g-e"]),
    (GradingGroup(0, (4,) * 4), "coproduct", lambda u: scaled(coproduct(u), 2),
     _ON_Z4_4["twice-coproduct"]),
    (GradingGroup(0, (4,) * 4), "counit", lambda u: counit(u) * 2,
     _ON_Z4_4["twice-counit"]),
    (GradingGroup(0, (2,) * 8), "coproduct", _coproduct_onto_the_identity,
     _ON_Z2_8["g-to-g-e"]),
    (GradingGroup(0, (2,) * 8), "coproduct", lambda u: scaled(coproduct(u), 2),
     _ON_Z2_8["twice-coproduct"]),
    (GradingGroup(0, (2,) * 8), "counit", lambda u: counit(u) * 2,
     _ON_Z2_8["twice-counit"]),
], ids=["g-to-g-e-on-Z4xZ4", "g-to-g-e-on-Z24xZ3", "twice-coproduct-on-Z4xZ4",
        "twice-counit-on-Z4xZ4", "twice-counit-on-Z24xZ3", "g-to-g-e-on-Z4^4",
        "twice-coproduct-on-Z4^4", "twice-counit-on-Z4^4", "g-to-g-e-on-Z2^8",
        "twice-coproduct-on-Z2^8", "twice-counit-on-Z2^8"])
def test_patched_element_maps_fail_the_laws_they_enter(monkeypatch, group, attr,
                                                       fake, failures):
    monkeypatch.setattr(group_hopf, attr, fake)
    report = check_hopf_axioms(group)
    assert [(r.check_id, r.witness) for r in report.failures()] == failures


def _is_like(coords):
    return lambda u: [(g.coords, c.is_one()) for (g,), c in u.items()] == [(coords, True)]


@pytest.mark.parametrize("attr, wrong, times", [
    ("coproduct", lambda d: scaled(d, 2), product),
    ("counit", lambda e: e * 2, operator.mul)], ids=["coproduct", "counit"])
@pytest.mark.parametrize("group, bad, witness_off_the_proof_set", [
    (GradingGroup(0, (4, 4)), _is_like((2, 2)), True),
    (GradingGroup(0, (4, 4)), lambda u: len(u) > 1, False),
    (GradingGroup(0, (24, 3)), _is_like((2, 0)), False),
    (GradingGroup(0, (24, 3)), _is_like((4, 0)), False),
], ids=["Z_4xZ_4-at-(2,2)", "Z_4xZ_4-off-the-group-likes", "Z_24xZ_3-at-(2,0)",
        "Z_24xZ_3-at-(4,0)"])
def test_a_map_wrong_off_the_proof_set_gets_the_full_loops_first_witness(
        monkeypatch, group, bad, witness_off_the_proof_set, attr, wrong, times):
    # the map is wrong only on elements that are neither the unit nor a
    # generator: one group-like, or the mix and its products (checked in
    # the proof set); Z_24 x Z_3 (order 72) has a partial sample, so its
    # full loop runs, and (4,0) is outside it, reached only as (2,0) + (2,0)
    original = getattr(group_hopf, attr)

    def fake(u):
        return wrong(original(u)) if bad(u) else original(u)

    monkeypatch.setattr(group_hopf, attr, fake)
    sample = default_sample(group)
    first = next(f"{tensor_text(u)}, {tensor_text(v)}"
                 for u, v in itertools.product(sample, repeat=2)
                 if fake(product(u, v)) != times(fake(u), fake(v)))
    report = check_hopf_axioms(group)
    assert report.result(f"hopf.{attr}-multiplicative").witness == first
    if witness_off_the_proof_set:
        ends = [group.identity()] + group.generators()
        assert first.split(", ")[1] not in {tensor_text(group_like(g)) for g in ends}


def test_a_sample_without_every_group_like_runs_the_full_loop(monkeypatch):
    # whether the group-likes are the whole group is read from the sample
    # checked: with only (0) and (2) of Z_4, a counit wrong on (2) fails
    # only at ((2), (2)), a pair no proof on the unit and generator holds
    G = GradingGroup(0, (4,))
    two = like(G, (2,))
    monkeypatch.setattr(group_hopf, "default_sample",
                        lambda group: [like(G, (0,)), two])
    monkeypatch.setattr(group_hopf, "counit",
                        lambda u: counit(u) * 2 if u == two else counit(u))
    report = check_hopf_axioms(G)
    assert report.result("hopf.counit-multiplicative").witness == "1*[(2)], 1*[(2)]"


def test_hopf_checks_evaluate_each_map_once_per_sample_element(monkeypatch):
    calls = {"coproduct": 0, "counit": 0}

    def counted(name, original):
        def wrapper(u):
            calls[name] += 1
            return original(u)
        return wrapper

    monkeypatch.setattr(group_hopf, "coproduct", counted("coproduct", coproduct))
    monkeypatch.setattr(group_hopf, "counit", counted("counit", counit))
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
    likes = [group_like(g) for g in group.sample()]
    assert default_sample(group)[:-1] == likes


def test_hopf_checks_at_the_order_cap_run_on_the_group_sample(monkeypatch):
    calls = []

    def counted(u):
        calls.append(u)
        return coproduct(u)

    monkeypatch.setattr(group_hopf, "coproduct", counted)
    group = GradingGroup(0, (4,) * 4)  # order 256: 13 sample elements, not 256
    size = len(group.sample()) + 1
    assert check_hopf_axioms(group).passed
    assert len(calls) <= size * size + 4 * size
