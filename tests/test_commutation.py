import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qgraded.commutation import (_is_root_of_unity, check_cqt_axioms, standard_factor,
                                 trivial_factor)
from qgraded.groups import GradingGroup
from qgraded.scalars import Scalar, root_of_unity


def test_fermionic_generator():
    b = standard_factor(GradingGroup(0, (2,)), [[1]], [[0]], Scalar.from_rational(5))
    assert b.generator_value(0, 0) == -1


def test_generator_values_from_omega():
    G = GradingGroup(0, (3, 3))
    z3 = root_of_unity(3)
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]], z3)
    assert b.generator_value(0, 1) == z3
    assert b.generator_value(1, 0) == z3.inverse()


def test_trivial_factor_is_constant_one():
    G = GradingGroup(0, (3, 3))
    b = trivial_factor(G)
    for g in G.elements():
        for h in G.elements():
            assert b.evaluate(g, h) == 1


def test_construction_rejects_bad_matrices():
    G = GradingGroup(0, (2, 2))
    with pytest.raises(ValueError, match="symmetric"):
        standard_factor(G, [[0, 1], [0, 0]], [[0, 0], [0, 0]], Scalar.one())
    with pytest.raises(ValueError, match="antisymmetric"):
        standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [1, 0]], Scalar.one())
    with pytest.raises(ValueError, match="nonzero"):
        standard_factor(G, [[0, 0], [0, 0]], [[0, 0], [0, 0]], Scalar.zero())
    with pytest.raises(ValueError, match="2x2"):
        standard_factor(G, [[0]], [[0]], Scalar.one())


def test_construction_rejects_torsion_descent_violation():
    # b(gen0, gen1) = -1 does not satisfy (-1)^3 = 1 on Z_3^2
    with pytest.raises(ValueError, match="gen 0, gen 1"):
        standard_factor(GradingGroup(0, (3, 3)),
                        [[0, 1], [1, 0]], [[0, 0], [0, 0]], Scalar.one())


def test_the_root_of_unity_predicate_holds_exactly_on_roots_of_unity():
    # Q(zeta_n) holds only the roots of unity of order dividing 2n
    for n in (1, 2, 3, 4, 5, 6, 8, 12, 15):
        z = root_of_unity(n)
        values = [s * root_of_unity(n, k) for k in range(n) for s in (1, -1)]
        values += [Scalar.from_rational(2), Scalar.from_rational(Fraction(1, 2)),
                   1 + z, 2 + z, (3 + 4 * z) / 5, 1 + z + z ** 3]
        for x in values:
            if not x.is_zero():
                assert _is_root_of_unity(x) == (x ** (2 * n)).is_one(), (n, x)
    # 1 + zeta_3 = -zeta_3^2; 1 + zeta_5 is a unit of absolute value 1.618
    assert _is_root_of_unity(1 + root_of_unity(3))
    assert not _is_root_of_unity(1 + root_of_unity(5))
    assert not _is_root_of_unity(Scalar.from_rational(Fraction(-3, 4)))


def test_torsion_descent_takes_no_power_of_a_value_that_is_no_root_of_unity():
    # b(gen 0, gen 1) = 2 has no power 1, however large the modulus
    with pytest.raises(ValueError, match=r"gen 0, gen 1\)\^1000000000 != 1"):
        standard_factor(GradingGroup(0, (10 ** 9, 2)), [[0, 0], [0, 0]],
                        [[0, 1], [-1, 0]], Scalar.from_rational(2))


def _bilinear_oracle(b, g, h):
    """Expand b(g, h) one generator step at a time using only the
    bimultiplicative laws and generator values."""
    value = Scalar.one()
    for i, gi in enumerate(g.coords):
        for j, hj in enumerate(h.coords):
            for _ in range(abs(gi * hj)):
                step = b.generator_value(i, j)
                if gi * hj < 0:
                    step = step.inverse()
                value = value * step
    return value


def test_evaluate_matches_bimultiplicative_expansion():
    G = GradingGroup(0, (8, 8))
    q = root_of_unity(8)
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]], q)
    g = G.element((2, 0))
    h = G.element((0, 3))
    assert b.evaluate(g, h) == q ** 6
    assert b.evaluate(g, h) == _bilinear_oracle(b, g, h)


def test_identity_evaluates_to_one():
    G = GradingGroup(0, (4, 4))
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]], root_of_unity(4))
    e = G.identity()
    for h in G.elements():
        assert b.evaluate(e, h) == 1
        assert b.evaluate(h, e) == 1


def test_generator_power_rule():
    G = GradingGroup(0, (5, 5))
    q = root_of_unity(5)
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]], q)
    xi0, xi1 = G.generators()
    for n in range(-3, 7):
        n_xi1 = G.element(tuple(n * c for c in xi1.coords))
        assert b.evaluate(xi0, n_xi1) == b.generator_value(0, 1) ** n


@pytest.mark.parametrize("torsion,sigma,omega,q", [
    ((2, 2), [[0, 1], [1, 0]], [[0, 0], [0, 0]], "1"),
    ((2, 2), [[1, 1], [1, 1]], [[0, 1], [-1, 0]], "zeta(2)"),
    ((3, 3), [[0, 0], [0, 0]], [[0, 1], [-1, 0]], "zeta(3)"),
    ((4, 4), [[0, 0], [0, 0]], [[0, 2], [-2, 0]], "zeta(4)"),
])
def test_cqt_axioms_pass(torsion, sigma, omega, q):
    from qgraded.scalars import parse_scalar
    b = standard_factor(GradingGroup(0, torsion), sigma, omega, parse_scalar(q))
    report = check_cqt_axioms(b)
    assert report.passed, report.failures()


def test_cqt_axioms_pass_for_trivial_factor():
    report = check_cqt_axioms(trivial_factor(GradingGroup(0, (2, 2))))
    assert report.passed


def test_broken_pairing_fails_bimultiplicativity_with_witness(monkeypatch):
    G = GradingGroup(0, (2, 2))
    b = standard_factor(G, [[0, 1], [1, 0]], [[0, 0], [0, 0]], Scalar.one())
    evaluate = b.evaluate

    def broken(g, h):
        # violates b(g, h+k) = b(g,h) b(g,k) while staying nonzero
        if g.coords == (1, 1) and h.coords == (1, 1):
            return Scalar.from_rational(7)
        return evaluate(g, h)

    monkeypatch.setattr(b, "evaluate", broken)
    report = check_cqt_axioms(b)
    result = report.result("cqt.bimultiplicative-right")
    assert not result.passed
    assert result.witness == "((1,1), (0,1), (1,0))"
    assert report.result("cqt.bimultiplicative-left").witness == \
        "((0,1), (1,0), (1,1))"
    assert report.result("cqt.commutation-identity").passed
    assert report.result("cqt.convolution-invertible").passed


def _order_81_factor():
    omega = [[0, 1, 0, -1], [-1, 0, 2, 0], [0, -2, 0, 1], [1, 0, -1, 0]]
    sigma = [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]]
    return standard_factor(GradingGroup(0, (3, 3, 3, 3)), sigma, omega,
                           root_of_unity(3))


def _z32xz4_factor():
    # order 128, so the laws run on a partial sample
    return standard_factor(GradingGroup(0, (32, 4)), [[0, 1], [1, 0]],
                           [[0, 1], [-1, 0]], root_of_unity(4))


@pytest.mark.parametrize("make", [_z32xz4_factor, _order_81_factor])
def test_cqt_axioms_pass_on_the_sample_of_a_large_group(make):
    # order > 64: the laws run on the identity, generators,
    # their inverses and doubles (on Z_3^4 the doubles are the inverses)
    report = check_cqt_axioms(make())
    assert report.passed, report.failures()
    assert [r.check_id for r in report.results] == [
        "cqt.commutation-identity", "cqt.bimultiplicative-right",
        "cqt.bimultiplicative-left", "cqt.convolution-invertible"]


@pytest.mark.parametrize("make,g,h,right,left", [
    (_z32xz4_factor, (1, 0), (2, 0),
     "((1,0), (1,0), (1,0))", "((1,0), (1,0), (2,0))"),
    (_order_81_factor, (0, 1, 0, 0), (2, 0, 0, 0),
     "((0,1,0,0), (1,0,0,0), (1,0,0,0))", "((1,0,0,0), (0,1,0,0), (2,0,0,0))"),
])
def test_broken_pairing_on_the_sample_gives_its_first_witness(make, g, h, right, left,
                                                              monkeypatch):
    b = make()
    evaluate = b.evaluate

    def broken(x, y):
        if x.coords == g and y.coords == h:
            return Scalar.from_rational(7)
        return evaluate(x, y)

    monkeypatch.setattr(b, "evaluate", broken)
    report = check_cqt_axioms(b)
    assert report.result("cqt.bimultiplicative-right").witness == right
    assert report.result("cqt.bimultiplicative-left").witness == left
    assert report.result("cqt.commutation-identity").passed
    assert report.result("cqt.convolution-invertible").passed


def test_equal_values_stored_at_different_orders_give_no_witness(monkeypatch, embed):
    # b(g, h) in Q(zeta_3) and the same value embedded in Q(zeta_12) have
    # different stored forms; the laws compare values, not forms
    G = GradingGroup(0, (3, 3))
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]], root_of_unity(3))
    evaluate = b.evaluate

    def mixed(g, h):
        value = evaluate(g, h)
        return embed(value, 12) if (g.coords[0] + h.coords[1]) % 2 else value

    monkeypatch.setattr(b, "evaluate", mixed)
    report = check_cqt_axioms(b)
    assert report.passed, report.failures()


def _first_failures(evaluate, els):
    """The first failing triple of each bimultiplicative law over all of
    els^3 in (h, k, l) order, by brute force."""
    def first(law):
        return next((f"({h}, {k}, {l})" for h, k, l in itertools.product(els, repeat=3)
                     if law(h, k, l)), None)
    return (first(lambda h, k, l: evaluate(h, k + l) != evaluate(h, k) * evaluate(h, l)),
            first(lambda h, k, l: evaluate(h + k, l) != evaluate(h, l) * evaluate(k, l)))


def _z4x4_factor():
    return standard_factor(GradingGroup(0, (4, 4)), [[0, 0], [0, 0]],
                           [[0, 1], [-1, 0]], root_of_unity(4))


def _z24xz3_factor():
    # order 72, so the laws run on a partial sample; b(gen 0, gen 0) = -1
    # and b(gen 0, gen 1) = zeta_3 need 6 | 24
    return standard_factor(GradingGroup(0, (24, 3)), [[1, 0], [0, 0]],
                           [[0, 1], [-1, 0]], root_of_unity(3))


@pytest.mark.parametrize("m", [2, -1])
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("make", [_z4x4_factor, _z24xz3_factor],
                         ids=["Z_4xZ_4", "Z_24xZ_3"])
def test_a_pairing_wrong_off_the_proof_set_gets_the_full_loops_first_witness(
        make, side, m, monkeypatch):
    # b is wrong only where its right (or left) argument is m times a
    # generator and the other one is not 0: never at l (right law) or k
    # (left law) in the proof set {0} and the generators; Z_24 x Z_3 has a
    # partial sample, so its full loop runs without a proof
    b = make()
    evaluate = b.evaluate
    off = {b.group.element(tuple(m * c for c in g.coords))
           for g in b.group.generators()}

    def broken(x, y):
        value = evaluate(x, y)
        slot, other = (y, x) if side == "right" else (x, y)
        return value * 7 if slot in off and not other.is_identity() else value

    monkeypatch.setattr(b, "evaluate", broken)
    report = check_cqt_axioms(b)
    els = b.group.sample()
    right, left = _first_failures(broken, els)
    assert report.result("cqt.bimultiplicative-right").witness == right
    assert report.result("cqt.bimultiplicative-left").witness == left
    if m == -1:
        # the full loop's first failure lies off the proof set
        ends = {str(g) for g in [b.group.identity()] + b.group.generators()}
        witness = right if side == "right" else left
        assert witness[1:-1].split(", ")[2 if side == "right" else 1] not in ends


@pytest.mark.parametrize("side", ["right", "left"])
def test_a_partial_sample_runs_the_full_loop(side, monkeypatch):
    # b is wrong only where one argument is (4,0), outside the sample of
    # Z_24 x Z_3 and reached only as (2,0) + (2,0), which no triple with l
    # (or k) in {0} and the generators sums to
    b = _z24xz3_factor()
    assert b.group.element((4, 0)) not in b.group.sample()
    evaluate = b.evaluate
    far = b.group.element((4, 0))

    def broken(x, y):
        value = evaluate(x, y)
        slot, other = (y, x) if side == "right" else (x, y)
        return value * 7 if slot == far and not other.is_identity() else value

    monkeypatch.setattr(b, "evaluate", broken)
    right, left = _first_failures(broken, b.group.sample())
    witness = right if side == "right" else left
    assert witness is not None
    assert check_cqt_axioms(b).result(f"cqt.bimultiplicative-{side}").witness == witness


def test_bimultiplicative_laws_are_proved_on_generator_ended_triples(monkeypatch):
    import qgraded.commutation as commutation
    triples = []

    def product(*iterables, **kw):
        for t in itertools.product(*iterables, **kw):
            if len(t) == 3:
                triples.append(t)
            yield t

    monkeypatch.setattr(commutation, "itertools", SimpleNamespace(product=product))
    assert check_cqt_axioms(_z4x4_factor()).passed
    # 16^2 * 3 per law, {0} and the two generators in the induction slot
    assert len(triples) == 2 * 16 ** 2 * 3


def _counting(monkeypatch, b):
    calls = []
    evaluate = b.evaluate

    def counted(g, h):
        calls.append((g.coords, h.coords))
        return evaluate(g, h)
    monkeypatch.setattr(b, "evaluate", counted)
    return calls


@pytest.mark.parametrize("torsion,omega,q", [
    ((4, 4), [[0, 1], [-1, 0]], root_of_unity(4)),
    ((2,) * 6, [[(i < j) - (i > j) for j in range(6)] for i in range(6)],
     Scalar.from_rational(-1)),
])
def test_cqt_cube_evaluates_each_pair_once(monkeypatch, torsion, omega, q):
    G = GradingGroup(0, torsion)
    b = standard_factor(G, [[0] * len(torsion)] * len(torsion), omega, q)
    calls = _counting(monkeypatch, b)
    assert check_cqt_axioms(b).passed
    assert len(calls) == len(set(calls)) <= G.order ** 2


def test_cqt_sample_evaluates_each_pair_of_ids_once(monkeypatch):
    # ids are the sample and the sums of two sample elements
    b = _z32xz4_factor()
    sample = [(0, 0), (1, 0), (0, 1), (31, 0), (0, 3), (2, 0), (0, 2)]
    assert [g.coords for g in b.group.sample()] == sample
    ids = {((x + u) % 32, (y + v) % 4) for x, y in sample for u, v in sample}
    calls = _counting(monkeypatch, b)
    assert check_cqt_axioms(b).passed
    assert len(calls) == len(set(calls)) <= len(ids) ** 2


def test_cqt_report_documents_commutativity_reduction():
    report = check_cqt_axioms(trivial_factor(GradingGroup(0, (2,))))
    note = report.result("cqt.commutation-identity").note
    assert "commutativity" in note


def test_bicharacter_laws_exhaustively_on_small_groups():
    cases = [
        (GradingGroup(0, (2, 2)), [[0, 1], [1, 0]], [[0, 0], [0, 0]], Scalar.one()),
        (GradingGroup(0, (4,)), [[0]], [[0]], root_of_unity(4)),
        (GradingGroup(0, (3, 3)), [[0, 0], [0, 0]], [[0, 1], [-1, 0]],
         root_of_unity(3)),
    ]
    for G, sigma, omega, q in cases:
        b = standard_factor(G, sigma, omega, q)
        els = G.elements()
        for g, h, k in itertools.product(els, els, els):
            assert b.evaluate(g + h, k) == b.evaluate(g, k) * b.evaluate(h, k)
            assert b.evaluate(g, h + k) == b.evaluate(g, h) * b.evaluate(g, k)


# -- quotient descent: building the factor on Z_n^N ------------------------

def _descent_error(sigma, omega, q, n):
    """The constructor's error for (sigma, omega, q) on Z_n^N, None if it builds."""
    N = len(sigma)
    try:
        b = standard_factor(GradingGroup(0, (n,) * N), sigma, omega, q)
    except ValueError as exc:
        return str(exc)
    assert b.group == GradingGroup(0, (n,) * N)
    return None


def test_descent_succeeds_for_even_roots():
    for n in (2, 4, 6, 8):
        assert _descent_error([[1, 1], [1, 1]], [[0, 1], [-1, 0]],
                              root_of_unity(n), n) is None


def test_descent_fails_for_odd_root_with_odd_sigma():
    error = _descent_error([[0, 1], [1, 0]], [[0, 0], [0, 0]], root_of_unity(3), 3)
    assert "b(gen 0, gen 1)^3 != 1" in error


def test_descent_takes_no_power_above_twice_the_order_of_a_root_of_unity(monkeypatch):
    pow_ = Scalar.__pow__

    def bounded(self, exponent):
        assert abs(exponent) <= 1000, "a power of the reduction modulus was taken"
        return pow_(self, exponent)

    monkeypatch.setattr(Scalar, "__pow__", bounded)
    # b(xi_0, xi_1) = 2 is no root of unity, so it has no power 1
    error = _descent_error([[0, 0], [0, 0]], [[0, 1], [-1, 0]],
                           Scalar.from_rational(2), 10 ** 9)
    assert "b(gen 0, gen 1)^1000000000 != 1" in error
    # b(xi_0, xi_1) = -zeta_4 has order 4, and (10^9 + 2) % 8 == 2
    for n in (10 ** 9 + 2, 2):
        error = _descent_error([[0, 1], [1, 0]], [[0, 1], [-1, 0]], root_of_unity(4), n)
        assert f"b(gen 0, gen 1)^{n} != 1" in error


def _order(x):
    """Multiplicative order of x if it is at most 24, else None; every root
    of unity in the grid below has order dividing 12."""
    return next((t for t in range(1, 25) if (x ** t).is_one()), None)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 10 ** 9])
@pytest.mark.parametrize("q", [Scalar.one(), Scalar.from_rational(-1), root_of_unity(3),
                               root_of_unity(4), Scalar.from_rational(2)],
                         ids=["1", "-1", "zeta3", "zeta4", "2"])
def test_descent_holds_exactly_when_the_factor_builds_on_the_quotient(q, n):
    # (sigma, omega, q) gives a factor on Z_n^2 iff the generator values
    # (-1)^sigma_ij * q^omega_ij have b(xi_i, xi_j)^n = 1; the error names
    # the first failing pair
    for s00, s01, s11 in itertools.product((0, 1), repeat=3):
        for w in (0, 1, -1, 2, -2):
            sigma, omega = [[s00, s01], [s01, s11]], [[0, w], [-w, 0]]
            values = [[(-1) ** sigma[i][j] * q ** omega[i][j] for j in range(2)]
                      for i in range(2)]
            failing = [(i, j) for i in range(2) for j in range(2)
                       if (k := _order(values[i][j])) is None or n % k]
            error = _descent_error(sigma, omega, q, n)
            if failing:
                i, j = failing[0]
                assert f"b(gen {i}, gen {j})^{n} != 1" in error
            else:
                assert error is None


def test_descent_trivial_factor_always_descends():
    for n in (2, 3, 5):
        assert _descent_error([[0] * 3] * 3, [[0] * 3] * 3, Scalar.one(), n) is None


def test_descent_parity_rule():
    """With q a primitive n-th root and an odd sigma entry, descent holds
    exactly for even n."""
    for n in range(2, 13):
        error = _descent_error([[0, 1], [1, 0]], [[0, 1], [-1, 0]], root_of_unity(n), n)
        assert (error is None) == (n % 2 == 0)


def test_induced_factor_satisfies_bicharacter_laws():
    induced = standard_factor(GradingGroup(0, (4, 4)), [[0, 1], [1, 0]],
                              [[0, 2], [-2, 0]], root_of_unity(4))
    els = induced.group.elements()
    rng = random.Random(7)
    for _ in range(50):
        g, h, k = (rng.choice(els) for _ in range(3))
        assert induced.evaluate(g + h, k) == \
            induced.evaluate(g, k) * induced.evaluate(h, k)


@settings(max_examples=40)
@given(n=st.sampled_from([2, 4, 6, 8, 10, 12]),
       s01=st.integers(0, 3), s00=st.integers(0, 3), s11=st.integers(0, 3),
       w=st.integers(-3, 3))
def test_descent_always_holds_for_even_primitive_roots(n, s01, s00, s11, w):
    assert _descent_error([[s00, s01], [s01, s11]], [[0, w], [-w, 0]],
                          root_of_unity(n), n) is None


def test_pointwise_product_with_inverse_is_one():
    # the inverse of b is b with omega negated: q^(-w) goes through the
    # factor's one inverse of q
    G = GradingGroup(0, (6, 6))
    q = root_of_unity(6)
    b = standard_factor(G, [[1, 1], [1, 0]], [[0, 3], [-3, 0]], q)
    inv = standard_factor(G, [[1, 1], [1, 0]], [[0, -3], [3, 0]], q)
    assert b.generator_value(0, 1) * inv.generator_value(0, 1) == 1
    rng = random.Random(11)
    for _ in range(20):
        g = G.element((rng.randint(-4, 4), rng.randint(-4, 4)))
        h = G.element((rng.randint(-4, 4), rng.randint(-4, 4)))
        assert b.evaluate(g, h) * inv.evaluate(g, h) == 1


def test_sigma_reduced_mod_two_on_ingestion():
    b1 = standard_factor(GradingGroup(0, (2,)), [[3]], [[0]], Scalar.one())
    b2 = standard_factor(GradingGroup(0, (2,)), [[1]], [[0]], Scalar.one())
    assert b1.sigma == b2.sigma
    assert b1.generator_value(0, 0) == b2.generator_value(0, 0) == -1
