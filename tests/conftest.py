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
    order, from an empty sieve: the calls, as estimators makes them, that
    return a longer sieve than the one held before."""
    from twinprimes import estimators, sieve

    real, calls = sieve.prime_flags, []

    def counted(limit):
        held = len(sieve._flags)
        flags = real(limit)
        if len(flags) > held:
            calls.append(limit)
        return flags

    estimators.twin_prime_constant.cache_clear()
    monkeypatch.setattr(sieve, "_flags", bytearray())
    monkeypatch.setattr(estimators, "prime_flags", counted)
    return calls
