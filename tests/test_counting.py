import numpy as np
import pytest

from twinprimes import (
    SieveRangeError,
    checkpoint_rows,
    composed_count,
    count_primes,
    count_twin_pairs,
)


def test_count_primes_reference_checkpoints(store_1e6):
    assert count_primes(store_1e6, 25) == 9
    assert count_primes(store_1e6, 10**6) == 78498
    assert count_primes(store_1e6, 2) == 1


def test_count_primes_at_1e4_settles_the_suspect_cell(store_1e4, trial_pi_1e4):
    # The published table prints 1226 here; trial division says otherwise.
    assert count_primes(store_1e4, 10**4) == trial_pi_1e4[10**4] == 1229


def test_count_primes_equals_trial_division_everywhere(store_1e4, trial_pi_1e4):
    for x in range(2, 10**4 + 1):
        assert count_primes(store_1e4, x) == trial_pi_1e4[x], x


def test_count_twin_pairs_reference_checkpoints(store_1e6):
    assert count_twin_pairs(store_1e6, 25) == 4
    assert count_twin_pairs(store_1e6, 5) == 1
    assert count_twin_pairs(store_1e6, 10**5) == 1224


def test_count_twin_pairs_equals_slow_enumeration(store_1e4, trial_twin_1e4):
    for x in range(5, 10**4 + 1):
        assert count_twin_pairs(store_1e4, x) == trial_twin_1e4[x], x


def test_pair_straddling_x_is_excluded(store_1e4):
    # (149, 151) has its upper member beyond 150, so it does not count yet.
    assert count_twin_pairs(store_1e4, 150) == 11
    assert count_twin_pairs(store_1e4, 151) == 12


def test_count_range_errors(store_1e4):
    with pytest.raises(SieveRangeError):
        count_primes(store_1e4, 10**4 + 1)
    with pytest.raises(SieveRangeError):
        count_primes(store_1e4, 1)
    with pytest.raises(SieveRangeError):
        count_twin_pairs(store_1e4, 4)


def test_composed_count_values(store_1e6):
    assert composed_count(store_1e6, 25) == 4    # pi(pi(25)) = pi(9)
    assert composed_count(store_1e6, 900) == 36  # pi(154)
    assert composed_count(store_1e6, 5) == 2     # pi(3)
    with pytest.raises(SieveRangeError):
        composed_count(store_1e6, 4)


def test_checkpoint_row_smallest_x(store_1e4):
    (row,) = checkpoint_rows(store_1e4, [5])
    assert (row.x, row.pi_x, row.pi2_x, row.pi_pi_x, row.ratio) == (5, 3, 1, 2, 0.5)


def test_checkpoint_row_25(store_1e4):
    (row,) = checkpoint_rows(store_1e4, [25])
    assert (row.pi_x, row.pi2_x, row.pi_pi_x, row.ratio) == (9, 4, 4, 1.0)


def test_checkpoint_row_150_uses_pair_upper_member_convention(store_1e4):
    # The published row lists 12 twin pairs at 150 by counting (149, 151);
    # under the p + 2 <= x convention used throughout, the count is 11.
    (row,) = checkpoint_rows(store_1e4, [150])
    assert (row.pi_x, row.pi2_x, row.pi_pi_x) == (35, 11, 11)
    assert row.ratio == 1.0


def test_checkpoint_rows_validation(store_1e4):
    with pytest.raises(ValueError):
        checkpoint_rows(store_1e4, [])
    with pytest.raises(ValueError):
        checkpoint_rows(store_1e4, [50, 50])
    with pytest.raises(ValueError):
        checkpoint_rows(store_1e4, [100, 50])
    with pytest.raises(ValueError):
        checkpoint_rows(store_1e4, [4, 50])
    with pytest.raises(ValueError):
        checkpoint_rows(store_1e4, [50, 10**4 + 1])


def test_counts_never_decrease_dense(store_1e6):
    prime_flags = np.zeros(10**6 + 1, dtype=np.int64)
    prime_flags[store_1e6.primes_between(2, 10**6)] = 1
    prime_cum = np.cumsum(prime_flags)  # prime_cum[x] = pi(x)
    assert np.all(np.diff(prime_cum) >= 0)
    # twin_cum[x] counts the pairs (p, p + 2) with p + 2 <= x
    twin_cum = np.cumsum(
        np.concatenate(([0, 0], prime_flags[:-2] & prime_flags[2:])))
    assert np.all(np.diff(twin_cum) >= 0)
    # tie the dense arrays back to the public API at a few points
    for x in (5, 17, 1000, 54321, 10**6):
        assert count_primes(store_1e6, x) == int(prime_cum[x])
        assert count_twin_pairs(store_1e6, x) == int(twin_cum[x])


def test_twin_count_never_exceeds_prime_count(store_1e6):
    for x in (5, 100, 10**3, 10**4, 10**5, 10**6):
        assert count_twin_pairs(store_1e6, x) <= count_primes(store_1e6, x) <= x


def test_vanishing_density_trends(store_1e6):
    xs = [10**3, 10**4, 10**5, 10**6]
    by_x = [count_twin_pairs(store_1e6, x) / x for x in xs]
    by_pi = [
        count_twin_pairs(store_1e6, x) / count_primes(store_1e6, x) for x in xs
    ]
    assert all(b < a for a, b in zip(by_x, by_x[1:]))
    assert all(b < a for a, b in zip(by_pi, by_pi[1:]))
