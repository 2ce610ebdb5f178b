import pytest

from twinprimes import build_sieve

import oracles


# Counts that share no code with the package, for the tests whose subject
# is what is computed from pi and pi2 (bounds, estimators, reports).
@pytest.fixture(scope="session")
def sieve_1e4():
    return oracles.PrefixCounts(10**4)


@pytest.fixture(scope="session")
def sieve_1e5():
    return oracles.PrefixCounts(10**5)


@pytest.fixture(scope="session")
def sieve_1e6():
    return oracles.PrefixCounts(10**6)


# Stores, for the tests whose subject is the package's own counts (the
# counting and acceptance suites) and for what only a store has:
# primes_between, its SieveRangeError, the PrimeSieve methods.
@pytest.fixture(scope="session")
def store_1e4():
    return build_sieve(10**4)


@pytest.fixture(scope="session")
def store_1e5():
    return build_sieve(10**5)


@pytest.fixture(scope="session")
def store_1e6():
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
