import pytest

from twinprimes import build_sieve

import oracles


@pytest.fixture(scope="session")
def sieve_1e4():
    return build_sieve(10**4)


@pytest.fixture(scope="session")
def sieve_1e5():
    return build_sieve(10**5)


@pytest.fixture(scope="session")
def sieve_1e6():
    return build_sieve(10**6)


@pytest.fixture(scope="session")
def trial_pi_1e4():
    return oracles.prime_prefix_counts(10**4)


@pytest.fixture(scope="session")
def trial_pi_1e5():
    return oracles.prime_prefix_counts(10**5)


@pytest.fixture(scope="session")
def trial_twin_1e4():
    return oracles.twin_prefix_counts(10**4)
