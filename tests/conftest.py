import pytest

import oracles


# Counts that share no code with the package, for the tests whose subject
# is what is computed from pi and pi2 (bounds, estimators, reports), and to
# check the package's own counts against.
@pytest.fixture(scope="session")
def sieve_1e4():
    return oracles.PrefixCounts(10**4)


@pytest.fixture(scope="session")
def sieve_1e5():
    return oracles.PrefixCounts(10**5)


@pytest.fixture(scope="session")
def sieve_1e6():
    return oracles.PrefixCounts(10**6)


@pytest.fixture(scope="session")
def trial_pi_1e4():
    return oracles.prime_prefix_counts(10**4)


@pytest.fixture(scope="session")
def trial_pi_1e5():
    return oracles.prime_prefix_counts(10**5)


@pytest.fixture(scope="session")
def trial_twin_1e4():
    return oracles.twin_prefix_counts(10**4)


@pytest.fixture
def flag_sieves(monkeypatch):
    """The limits at which the Euler products' flag sieve really sieves, in
    order, from empty caches: the misses of its cache, as estimators calls
    it."""
    from twinprimes import estimators, sieve

    real, calls = sieve.prime_flags, []

    def counted(limit):
        misses = real.cache_info().misses
        flags = real(limit)
        if real.cache_info().misses > misses:
            calls.append(limit)
        return flags

    for cached in (real, estimators.twin_prime_constant,
                   estimators.twin_ratio_product):
        cached.cache_clear()
    monkeypatch.setattr(estimators, "prime_flags", counted)
    return calls
