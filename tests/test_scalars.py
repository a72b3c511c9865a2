import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qgraded.errors import CapExceededError, ScalarParseError
from qgraded.scalars import (MAX_ZETA_ORDER, Scalar, cyclotomic_polynomial,
                             format_scalar, parse_scalar, product_memo,
                             root_of_unity)

DEGREES = {1: 1, 2: 1, 3: 2, 4: 2, 8: 4, 12: 4}

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@st.composite
def scalars(draw, order=None):
    n = order if order is not None else draw(st.sampled_from(sorted(DEGREES)))
    coeffs = draw(st.lists(small_fractions, min_size=DEGREES[n],
                           max_size=DEGREES[n]))
    return Scalar.cyclotomic(n, coeffs)


# -- frozen examples -------------------------------------------------------

def test_rational_addition():
    assert Scalar.from_rational(Fraction(1, 2)) + Fraction(1, 3) == Fraction(5, 6)


def test_root_of_unity_order_relation():
    z3 = root_of_unity(3)
    assert z3 * z3 ** 2 == 1
    assert root_of_unity(8) ** 8 == 1


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_polynomials_multiply_to_x_n_minus_1(n):
    product = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            phi = cyclotomic_polynomial(d)
            assert phi[-1] == 1 and all(type(c) is int for c in phi)
            out = [0] * (len(product) + len(phi) - 1)
            for i, a in enumerate(product):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            product = out
    assert product == [-1] + [0] * (n - 1) + [1]


def test_cyclotomic_polynomial_105_and_5040():
    # Phi_105 is the first cyclotomic polynomial with a coefficient other
    # than 0 and +-1
    assert cyclotomic_polynomial(105) == (
        1, 1, 1, 0, 0, -1, -1, -2, -1, -1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, -1,
        0, -1, 0, -1, 0, -1, 0, -1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, -1, -1, -2,
        -1, -1, 0, 0, 1, 1, 1)
    # deg Phi_5040 = phi(5040) = 5040 * (1/2) * (2/3) * (4/5) * (6/7)
    assert len(cyclotomic_polynomial(5040)) - 1 == 1152


def _pdeg(p):
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return d


def _pzero(p):
    return all(c == 0 for c in p)


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _psub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _xgcd_poly(a, b):
    # extended Euclid over Q[x]; returns (gcd, s) with s*a = gcd mod b
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    while not _pzero(r1):
        q = [Fraction(0)] * (max(_pdeg(r0) - _pdeg(r1), 0) + 1)
        rem = list(r0)
        while not _pzero(rem) and _pdeg(rem) >= _pdeg(r1):
            d = _pdeg(rem) - _pdeg(r1)
            c = rem[_pdeg(rem)] / r1[_pdeg(r1)]
            q[d] += c
            rem = _psub(rem, _pmul([Fraction(0)] * d + [c], r1))
        r0, r1 = r1, rem
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
    return r0, s0


def test_invert_zeta3_against_euclid_oracle():
    """Independent extended-Euclid computation of zeta_3^{-1} in Q[x]/(x^2+x+1)."""
    phi3 = [Fraction(c) for c in cyclotomic_polynomial(3)]
    g, s = _xgcd_poly([Fraction(0), Fraction(1)], phi3)
    # normalize so the gcd is 1, then s * zeta == 1 mod phi3
    lead = next(c for c in reversed(g) if c != 0)
    s = [c / lead for c in s]
    expected = Scalar.cyclotomic(3, s)
    z3 = root_of_unity(3)
    assert z3.inverse() == expected
    assert z3.inverse() * z3 == 1
    # frozen power-basis form: zeta_3^2 = -1 - zeta_3
    assert z3.inverse() == Scalar.cyclotomic(3, [-1, -1])
    assert z3.inverse() == z3 ** 2


@pytest.mark.parametrize("n,k,expected", [
    (2, 1, Scalar.from_rational(-1)),
    (4, 2, Scalar.from_rational(-1)),
    (1, 0, Scalar.one()),
])
def test_root_of_unity_values(n, k, expected):
    assert root_of_unity(n, k) == expected


def test_pow_examples():
    assert Scalar.from_rational(-1) ** 3 == -1
    z3 = root_of_unity(3)
    assert z3 ** -1 == z3 ** 2
    for q in (Scalar.from_rational(7), root_of_unity(8, 3)):
        assert q ** 0 == 1


def test_pow_zero_base_negative_exponent():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero() ** -1


@pytest.mark.parametrize("text,value", [
    ("2/3", Scalar.from_rational(Fraction(2, 3))),
    ("-zeta(8)^3", -root_of_unity(8, 3)),
    ("zeta(4)^2", Scalar.from_rational(-1)),
    ("0", Scalar.zero()),
    ("-2/3*zeta(3)", root_of_unity(3) * Fraction(-2, 3)),
    ("zeta(3)^-1", root_of_unity(3, -1)),
    ("2*3", Scalar.from_rational(6)),
    ("+1", Scalar.one()),
])
def test_parse_examples(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["zeta(0)", "1/0", "", "zeta(3", "1 +", "x",
                                  # more digits than Python converts
                                  pytest.param("7" * 5000, id="5000-digits"),
                                  pytest.param("zeta(%s)" % ("7" * 5000),
                                               id="zeta-5000-digits")])
def test_parse_errors(text):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(text)
    assert "position" in str(err.value)


def test_parse_error_position():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("zeta(0)")
    assert err.value.position == 5


def test_trailing_input_is_an_error_at_its_position():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("1 2")
    assert err.value.position == 2
    assert "unexpected trailing input" in str(err.value)


def test_parsed_zeta_orders_are_capped_before_any_arithmetic(monkeypatch):
    phi = cyclotomic_polynomial

    def bounded(n):
        assert n <= MAX_ZETA_ORDER, f"arithmetic in Q(zeta_{n}) above the cap"
        return phi(n)

    monkeypatch.setattr("qgraded.scalars.cyclotomic_polynomial", bounded)
    assert MAX_ZETA_ORDER == 512
    assert parse_scalar("zeta(512)") == root_of_unity(512)
    assert parse_scalar("zeta(16)^3*zeta(3)") == root_of_unity(48, 9 + 16)
    # the cap bounds the order of the field that holds the whole scalar
    for text in ("zeta(513)", "zeta(100000000)", "zeta(509)*zeta(503)",
                 "zeta(256) + zeta(3)"):
        with pytest.raises(CapExceededError, match="cyclotomic order exceeds the cap 512"):
            parse_scalar(text)
    monkeypatch.undo()
    # only parsing is capped
    assert root_of_unity(1021).order == Scalar.cyclotomic(1021, [0, 1]).order == 1021


# -- properties ------------------------------------------------------------

@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Scalar.zero()
    assert a * Scalar.one() == a


@given(scalars())
def test_multiplicative_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == 1
        assert a.inverse().inverse() == a


@given(scalars())
def test_print_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@pytest.mark.parametrize("n", range(1, 17))
def test_root_of_unity_inverse_pairs(n):
    for k in range(n):
        assert root_of_unity(n, k) * root_of_unity(n, n - k) == 1


@pytest.mark.parametrize("n,m", [(1, 8), (2, 4), (3, 12), (4, 8), (3, 3)])
@given(data=st.data())
def test_embedding_is_a_ring_map(n, m, data, embed):
    a = data.draw(scalars(order=n))
    b = data.draw(scalars(order=n))
    assert embed(a, m) + embed(b, m) == embed(a + b, m)
    assert embed(a, m) * embed(b, m) == embed(a * b, m)
    # injectivity on the sample: nonzero stays nonzero
    if not a.is_zero():
        assert not embed(a, m).is_zero()


def test_mixed_order_arithmetic_reduces_rationals():
    z8 = root_of_unity(8)
    assert (z8 ** 4).is_rational()
    assert z8 ** 4 == -1
    assert (z8 * z8.inverse()).is_rational()


def test_equality_and_hash_across_orders():
    assert root_of_unity(8) ** 2 == root_of_unity(4)
    assert hash(root_of_unity(8) ** 2) == hash(root_of_unity(4))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar.one() / Scalar.zero()


# -- canonical integer form, against a plain-Fraction oracle -----------------
#
# The oracle writes every value in the power basis of Q(zeta_24), which holds
# Q(zeta_n) for every order n below, modulo Phi_24 = x^8 - x^4 + 1.

CANONICAL_ORDERS = [1, 3, 4, 8, 12]
_PHI_24_TAIL = {0: -1, 4: 1}  # x^8 = x^4 - 1


def _oracle_reduce(poly):
    poly = list(poly) + [Fraction(0)] * max(0, 8 - len(poly))
    for i in range(len(poly) - 1, 7, -1):
        c, poly[i] = poly[i], Fraction(0)
        for k, t in _PHI_24_TAIL.items():
            poly[i - 8 + k] += c * t
    return tuple(poly[:8])


def _oracle(s):
    poly = [Fraction(0)] * (24 * len(s.nums))
    for i, c in enumerate(s.nums):
        poly[i * (24 // s.order)] += Fraction(c, s.den)
    return _oracle_reduce(poly)


def _oracle_mul(a, b):
    out = [Fraction(0)] * 15
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _oracle_reduce(out)


_ORACLE_ONE = (Fraction(1),) + (Fraction(0),) * 7

sparse_fractions = st.one_of(st.just(Fraction(0)), small_fractions)


@st.composite
def canonical_inputs(draw):
    n = draw(st.sampled_from(CANONICAL_ORDERS))
    coeffs = draw(st.lists(sparse_fractions, min_size=DEGREES[n],
                           max_size=DEGREES[n]))
    return Scalar.cyclotomic(n, coeffs)


def _assert_canonical(s):
    assert type(s.den) is int and s.den > 0
    assert all(type(c) is int for c in s.nums)
    assert math.gcd(s.den, *s.nums) == 1
    if s.order == 1:
        assert len(s.nums) == 1
    else:
        assert len(s.nums) == len(cyclotomic_polynomial(s.order)) - 1
        assert any(s.nums[1:]), "rational values are folded to order 1"


@given(canonical_inputs(), canonical_inputs(), st.integers(-3, 3))
def test_every_operation_returns_the_canonical_form(embed, a, b, k):
    m = math.lcm(a.order, b.order)
    results = [a, b, a + b, a - b, a * b, -a, embed(a, m), embed(a, 24)]
    if not b.is_zero():
        results += [a / b, b.inverse(), b ** k]
    for r in results:
        _assert_canonical(r)
    assert _oracle(a + b) == tuple(x + y for x, y in zip(_oracle(a), _oracle(b)))
    assert _oracle(a * b) == _oracle_mul(_oracle(a), _oracle(b))
    assert _oracle(embed(a, m)) == _oracle(embed(a, 24)) == _oracle(a)
    if not b.is_zero():
        assert _oracle_mul(_oracle(b.inverse()), _oracle(b)) == _ORACLE_ONE


@given(canonical_inputs(), canonical_inputs(),
       st.sampled_from(CANONICAL_ORDERS))
def test_cross_order_equality_and_hash_agree_with_oracle(embed, a, b, m):
    # the same value written over a larger order
    same = embed(a, math.lcm(a.order, m))
    # a/2 keeps the numerators of a unless they are all even
    for x, y in [(a, same), (a, b), (same, b), (a, a / 2)]:
        assert (x == y) == (_oracle(x) == _oracle(y))
        if _oracle(x) == _oracle(y):
            assert hash(x) == hash(y)


# -- multiplication fast paths against the general path ----------------------
#
# A product with the rational 1 returns the other operand and a product of
# two rationals is normalised inline, and any other product folds its high
# terms with a per-order table; each must give the exact stored form of the
# general path: lift to Q(zeta_lcm), multiply polynomials, reduce modulo
# Phi_lcm, normalise.  Orders 5, 8 and 12 have degree 4, so the table folds
# more than one high term.

FAST_PATH_ORDERS = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4}


def _polymul(a, b) -> list[int]:
    # the schoolbook product, unreduced: the reference for Scalar.__mul__
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _general_product(x, y):
    m, a, b = x._common(y)
    return Scalar._make(m, _polymul(a, b), x.den * y.den)


@st.composite
def fast_path_operands(draw, orders=tuple(FAST_PATH_ORDERS)):
    n = draw(st.sampled_from(sorted(orders)))
    return draw(st.one_of(
        st.sampled_from([Scalar.one(), Scalar.from_rational(-1)]),
        small_fractions.map(Scalar.from_rational),
        st.lists(small_fractions, min_size=FAST_PATH_ORDERS[n],
                 max_size=FAST_PATH_ORDERS[n]).map(
            lambda coeffs: Scalar.cyclotomic(n, coeffs))))


@given(fast_path_operands(), fast_path_operands())
def test_products_match_the_general_path_in_both_orders(x, y):
    for a, b in ((x, y), (y, x)):
        product, general = a * b, _general_product(a, b)
        assert product == general
        assert (product.order, product.nums, product.den) == \
            (general.order, general.nums, general.den)
        _assert_canonical(product)


def test_a_product_with_the_rational_one_is_the_other_operand():
    assert Scalar.one() is Scalar.one()
    assert Scalar.zero() is Scalar.zero()
    z4 = root_of_unity(4)
    for product in (Scalar.one() * z4, z4 * Scalar.one(), 1 * z4, z4 * 1):
        assert product is z4
        assert product.order == 4
    half = Scalar.from_rational(Fraction(1, 2))
    assert Scalar.one() * half is half and half * Scalar.one() is half
    # the shared one is not changed by arithmetic on it
    assert -Scalar.one() == -1 and Scalar.one() + Scalar.one() == 2
    assert (Scalar.one().order, Scalar.one().nums, Scalar.one().den) == (1, (1,), 1)
    assert (Scalar.zero().order, Scalar.zero().nums, Scalar.zero().den) == (1, (0,), 1)


def test_a_product_of_two_rationals_is_reduced_by_one_gcd():
    a, b = Scalar.from_rational(Fraction(4, 9)), Scalar.from_rational(Fraction(-3, 2))
    assert ((a * b).order, (a * b).nums, (a * b).den) == (1, (-2,), 3)
    zero = Scalar.from_rational(0) * Scalar.from_rational(Fraction(5, 7))
    assert (zero.nums, zero.den) == ((0,), 1)


# -- the fused multiply-accumulate --------------------------------------------
#
# x.add_product(a, b) normalises x + a*b once; it must store exactly what
# the two-step sum stores, including the field order of the result.

# the oracle computes in Q(zeta_24), so orders that do not divide 24 stay out
mixed_operands = st.one_of(canonical_inputs(), fast_path_operands(
    [n for n in FAST_PATH_ORDERS if 24 % n == 0]))


@given(mixed_operands, mixed_operands, mixed_operands)
def test_the_fused_sum_is_the_two_step_sum(x, a, b):
    fused, two_step = x.add_product(a, b), x + a * b
    assert (fused.order, fused.nums, fused.den) == \
        (two_step.order, two_step.nums, two_step.den)
    _assert_canonical(fused)
    assert _oracle(fused) == tuple(
        u + v for u, v in zip(_oracle(x), _oracle_mul(_oracle(a), _oracle(b))))


def test_a_product_memo_returns_each_product_in_its_stored_form():
    # zeta_8 * zeta_8 equals zeta_4 but is stored at order 8, and times
    # zeta_3 lands at order 24 where zeta_4 * zeta_3 lands at order 12, so
    # the two must never share a memo entry
    z4, z8_squared = root_of_unity(4), root_of_unity(8) * root_of_unity(8)
    assert z4 == z8_squared and (z4.order, z8_squared.order) == (4, 8)
    z3 = root_of_unity(3)
    pairs = [(Scalar.from_rational(Fraction(-2, 3)), Scalar.cyclotomic(5, [1, 2, 0, 3])),
             (root_of_unity(4), root_of_unity(6)),
             (z4, z3), (z8_squared, z3), (z3, z4), (z3, z8_squared),
             (z4, Scalar.one()), (z8_squared, Scalar.one())]
    mul = product_memo()
    for a, b in pairs + pairs:
        got, want = mul(a, b), a * b
        assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
    assert (mul(z8_squared, z3).order, mul(z4, z3).order) == (24, 12)


def test_a_product_memo_passes_a_unit_factor_through():
    # a unit on either side returns the other operand object itself, not a
    # memoised equal one, in its stored form: zeta_8^2 stays at order 8
    # although it equals zeta_4
    one, stored_one = Scalar.one(), Scalar.from_rational(1)
    mul = product_memo()
    for make in (lambda: root_of_unity(8) ** 2, lambda: Scalar.from_rational(Fraction(1, 2)),
                 lambda: root_of_unity(3), lambda: Scalar.from_rational(-1)):
        for a in (make(), make()):
            assert mul(a, one) is a and mul(one, a) is a
            assert mul(a, stored_one) is a and mul(stored_one, a) is a
    z8_squared = root_of_unity(8) ** 2
    assert mul(z8_squared, one).order == mul(one, z8_squared).order == 8


def test_a_product_that_folds_to_a_rational_keeps_the_sum_in_its_field():
    # zeta_4 * zeta_4^3 = 1, so the sum stays in Q(zeta_3), not Q(zeta_12)
    z3 = root_of_unity(3)
    fused = z3.add_product(root_of_unity(4), root_of_unity(4, 3))
    assert (fused.order, fused.nums, fused.den) == (3, (1, 1), 1)
    assert str(fused) == str(z3 + 1) == "-zeta(3)^2"
    # a rational x takes the product's field, or order 1 when the sum folds
    half = Scalar.from_rational(Fraction(1, 2))
    folded = half.add_product(root_of_unity(4), root_of_unity(4, 3))
    assert (folded.order, folded.nums, folded.den) == (1, (3,), 2)
    assert half.add_product(root_of_unity(3), root_of_unity(3)).order == 3
    cancel = root_of_unity(4).add_product(Scalar.from_rational(-1), root_of_unity(4))
    assert (cancel.order, cancel.nums, cancel.den) == (1, (0,), 1)
