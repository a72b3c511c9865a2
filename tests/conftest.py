import pytest
from hypothesis import settings

from qgraded.corpus import standard_corpus

# the same examples on every run: no random seed and no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="session")
def strong_corpus(corpus):
    return [e for e in corpus if e.expect_strong]


@pytest.fixture(scope="session")
def weak_corpus(corpus):
    return [e for e in corpus if not e.expect_strong]
