from qgraded.reports import combination_text
from qgraded.scalars import Scalar


def test_combination_text_of_no_pairs_is_zero():
    assert combination_text([]) == "0"
    assert combination_text(iter(())) == "0"


def test_combination_text_keeps_the_given_order():
    pairs = [(Scalar.from_rational(3), "b"), (Scalar.from_rational(-1), "a")]
    assert combination_text(pairs) == "3*b + -1*a"
    assert combination_text(reversed(pairs)) == "-1*a + 3*b"
