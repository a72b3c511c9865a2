from fractions import Fraction

import pytest
from hypothesis import settings

from qgraded.corpus import standard_corpus
from qgraded.scalars import Scalar

# the same examples on every run: no random seed and no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def embed():
    """embed(x, m): x in Q(zeta_m) for a multiple m of x.order, from its
    power-basis coefficients spread by m / x.order (zeta_n = zeta_m^(m/n))."""
    def embed(x: Scalar, m: int) -> Scalar:
        step = m // x.order
        coeffs = [Fraction(0)] * ((len(x.nums) - 1) * step + 1)
        coeffs[::step] = [Fraction(c, x.den) for c in x.nums]
        return Scalar.cyclotomic(m, coeffs)
    return embed


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="session")
def strong_corpus(corpus):
    return [e for e in corpus if e.expect_strong]


@pytest.fixture(scope="session")
def weak_corpus(corpus):
    return [e for e in corpus if not e.expect_strong]
