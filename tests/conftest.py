from fractions import Fraction

import pytest
from hypothesis import settings

from qgraded.algebras import GradedAlgebra
from qgraded.corpus import standard_corpus
from qgraded.groups import GradingGroup
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


@pytest.fixture
def window_algebra():
    """Basis 1, x, y graded by Z in degrees 0, 1, 2 with x*x deleted: of the
    six grade pairs whose target grade is present, only (1, 1) is not
    spanned by its products."""
    group = GradingGroup(1)
    basis = [("1", group.element((0,))), ("x", group.element((1,))),
             ("y", group.element((2,)))]
    one = Scalar.one()
    products = {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
                (1, 0): {1: one}, (2, 0): {2: one}}
    return GradedAlgebra(group, basis, products, {0: one})
