from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qgraded.errors import ScalarParseError
from qgraded.scalars import (Scalar, cyclotomic_polynomial, format_scalar,
                             parse_scalar, root_of_unity)

DEGREES = {1: 1, 2: 1, 3: 2, 4: 2, 8: 4}

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
def test_embedding_is_a_ring_map(n, m, data):
    a = data.draw(scalars(order=n))
    b = data.draw(scalars(order=n))
    assert a.embed(m) + b.embed(m) == (a + b).embed(m)
    assert a.embed(m) * b.embed(m) == (a * b).embed(m)
    # injectivity on the sample: nonzero stays nonzero
    if not a.is_zero():
        assert not a.embed(m).is_zero()


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
