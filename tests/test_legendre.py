import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinprimes import (
    density_upper_bound,
    first_primes,
    phi_mobius,
    phi_mobius_row,
    phi_recursive,
    small_primes,
)
from twinprimes.legendre import MAX_MOBIUS_R

import oracles


def test_first_primes_prefixes():
    assert first_primes(0) == ()
    assert first_primes(1) == (2,)
    assert first_primes(5) == (2, 3, 5, 7, 11)
    assert first_primes(25)[-1] == 97
    ps = first_primes(100)
    assert list(ps) == sorted(ps) and len(set(ps)) == 100
    # One sieve to its bound holds the first r primes, for every r; a bound
    # below p_r would return fewer.  p_2000 = 17389.
    primes = tuple(small_primes(17389))
    assert len(primes) == 2000
    for r in range(2001):
        assert first_primes(r) == primes[:r], r


def test_first_primes_keeps_one_result():
    # The budget admits each tuple alone, so the cache never holds two.
    first_primes(7)
    first_primes(8)
    assert first_primes.cache_info().currsize == 1
    assert first_primes(7) == (2, 3, 5, 7, 11, 13, 17)


@pytest.mark.parametrize(
    "y,r,expected",
    [
        (10, 2, 3),   # {1, 5, 7}
        (20, 3, 6),   # {1, 7, 11, 13, 17, 19}
        (7, 1, 4),    # {1, 3, 5, 7}
        (100, 4, 22),
        (0, 5, 0),
        (1, 5, 1),
    ],
)
def test_phi_known_values_both_routes(y, r, expected):
    assert phi_recursive(y, r) == expected
    assert phi_mobius(y, r) == expected


def test_phi_with_no_excluded_primes_is_identity():
    for y in (0, 1, 17, 1000):
        assert phi_recursive(y, 0) == y
        assert phi_mobius(y, 0) == y


def test_phi_mobius_term_expansion_matches_hand_sum():
    # y=10, r=2: floor terms 10, -10/2, -10/3, +10/6
    assert phi_mobius(10, 2) == 10 - 5 - 3 + 1


def test_phi_negative_arguments_rejected():
    with pytest.raises(ValueError):
        phi_recursive(-1, 2)
    with pytest.raises(ValueError):
        phi_mobius(10, -2)


def test_phi_mobius_term_count_guard():
    with pytest.raises(ValueError) as err:
        phi_mobius(10**6, 26)
    assert "2**26" in str(err.value)


def test_phi_routes_agree_with_scan_exhaustively():
    primes = list(first_primes(7))
    for r in range(0, 8):
        flags = np.ones(2001, dtype=bool)
        flags[0] = False
        for p in primes[:r]:
            flags[p::p] = False
        scan = np.cumsum(flags)
        for y in range(0, 2001):
            expected = int(scan[y])
            assert phi_recursive(y, r) == expected, (y, r)
            assert phi_mobius(y, r) == expected, (y, r)


def test_phi_routes_agree_below_2500_for_r_up_to_12():
    # The recurrence stops at the wheel of min(r, 4) primes; the Moebius
    # row sums one sorted divisor list per r.
    ys = range(2500)
    for r in range(13):
        assert [phi_recursive(y, r) for y in ys] == phi_mobius_row(ys, r), r


def test_phi_routes_equal_the_scan_at_wheel_edges():
    # y within 3 of each multiple of 30, 210 and 2310 (the primorials of
    # the wheels and the next one) up to 5 * 2310: v mod m near 0 and m.
    primes = oracles.primes_upto_trial(37)  # the first 12
    ys = sorted({y for m in (30, 210, 2310) for k in range(5 * 2310 // m + 1)
                 for y in range(k * m - 3, k * m + 4) if y >= 0})
    for r in range(13):
        scan = oracles.phi_scan_many(ys, r, primes)
        mobius = phi_mobius_row(ys, r)
        assert scan[ys[-1]] == oracles.phi_scan(ys[-1], r, primes)
        for y, m in zip(ys, mobius):
            assert phi_recursive(y, r) == m == scan[y], (y, r)


def test_phi_mobius_row_is_the_scalar_at_each_y():
    ys = [97, 0, 5, 2310, 5, 1, 0, 211, 96]  # unsorted, repeats and 0
    for r in (0, 1, 4, 5, 9):
        assert phi_mobius_row(ys, r) == [phi_mobius(y, r) for y in ys], r
    assert phi_mobius_row([], 3) == []


@pytest.mark.parametrize("y,r", [(-1, 2), (10, -2), (10, MAX_MOBIUS_R + 1)])
def test_phi_mobius_row_raises_as_the_scalar(y, r):
    with pytest.raises(ValueError) as scalar:
        phi_mobius(y, r)
    with pytest.raises(ValueError) as row:
        phi_mobius_row([5, y, 3], r)
    assert str(row.value) == str(scalar.value)


def test_phi_scan_oracle_spot_agreement():
    primes = list(first_primes(6))
    for y, r in [(50, 3), (333, 5), (999, 6)]:
        assert phi_recursive(y, r) == oracles.phi_scan(y, r, primes)


@settings(max_examples=80, deadline=None)
@given(y=st.integers(0, 5000), r=st.integers(0, 8))
def test_phi_routes_agree_everywhere(y, r):
    assert phi_recursive(y, r) == phi_mobius(y, r)


@settings(max_examples=150, deadline=None)
@given(y=st.integers(1, 10**5), r=st.integers(0, 3000))
def test_phi_recursive_far_past_the_mobius_cap(y, r, trial_pi_1e5):
    # With P_{r+1}**2 > y, the survivors of the first r primes up to y are
    # 1 and the primes above P_r.
    if first_primes(r + 1)[-1] ** 2 > y:
        assert phi_recursive(y, r) == 1 + max(0, trial_pi_1e5[y] - r)
    if r <= 25:
        assert phi_recursive(y, r) == phi_mobius(y, r)


def test_phi_monotone_in_both_arguments():
    for y in (0, 10, 100, 999, 2000):
        values = [phi_recursive(y, r) for r in range(10)]
        assert all(b <= a for a, b in zip(values, values[1:]))
    for r in (0, 3, 7):
        values = [phi_recursive(y, r) for y in range(0, 500)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_prime_count_bound_examples(sieve_1e4):
    # pi(y) <= phi(y, r) + r
    pi = sieve_1e4.count_primes_upto
    assert (pi(100), phi_recursive(100, 4)) == (25, 22)
    assert (pi(10), phi_recursive(10, 0)) == (4, 10)
    assert pi(10**4) <= phi_recursive(10**4, 10) + 10


def test_prime_count_bound_small_grid(sieve_1e4):
    for y in range(1, 2001):
        pi_y = sieve_1e4.count_primes_upto(y) if y >= 2 else 0
        for r in range(0, 8):
            assert pi_y <= phi_recursive(y, r) + r, (y, r)


def test_density_params_reject_large_c(sieve_1e6):
    with pytest.raises(ValueError) as err:
        density_upper_bound(1.5, 10**6)
    assert str(err.value) == "c*ln(2) = 1.039721 must be < 1 (c < 1.442695)"
    pi = sieve_1e6.count_primes_upto(10**6)
    assert pi / 10**6 < density_upper_bound(1.4, 10**6)  # 1.4*ln(2) < 1


def test_density_params_reject_nonpositive_denominator():
    with pytest.raises(ValueError) as err:
        density_upper_bound(1.0, 2)
    assert str(err.value) == "ln(c) + ln(ln(y)) = -0.366513 must be > 0"


@pytest.mark.parametrize("c,y,message", [
    (0.0, 10**6, "c must be positive, got c=0.0"),
    (-1.0, 10**6, "c must be positive, got c=-1.0"),
    (1.0, 1, "y must be >= 2, got y=1"),
    (1.0, 0, "y must be >= 2, got y=0"),
], ids=["c=0", "c=-1", "y=1", "y=0"])
def test_density_params_reject_nonpositive_c_and_small_y(c, y, message):
    with pytest.raises(ValueError) as err:
        density_upper_bound(c, y)
    assert str(err.value) == message


def test_density_bound_value_at_reference_point(sieve_1e6):
    bound = density_upper_bound(1.0, 10**6)
    # frozen from 40-digit evaluation of 1/ln(ln(1e6)) + 2*1e6**(ln2 - 1)
    assert bound == pytest.approx(0.4096720326725310, rel=1e-12)
    actual = sieve_1e6.count_primes_upto(10**6) / 10**6
    assert actual == pytest.approx(0.078498, rel=1e-12)
    assert actual < bound


def test_density_bound_grid(sieve_1e6):
    for c in (0.8, 1.0, 1.2, 1.4):
        for y in (10**3, 10**4, 10**5, 10**6):
            actual = sieve_1e6.count_primes_upto(y) / y
            assert actual < density_upper_bound(c, y), (c, y)
