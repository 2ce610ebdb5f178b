import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinprimes import (
    EstimateRow,
    RunConfig,
    bounds_rows,
    density_ratio,
    estimate_rows,
    hardy_littlewood_product,
    hardy_littlewood_simple,
    log_grid,
    mean_density_ratio,
    round_half_away,
    sandwich_bounds,
    trost_bounds,
    twin_count_estimate,
    small_primes,
    twin_prime_constant,
    twin_ratio_product,
)

import oracles

# Frozen from 40-digit evaluations (see oracles for the exact-rational ones).
TROST_100 = (14.476482730108394, 34.743558552260146)
TROST_5 = (2.0711164485320394, 4.970679476476894)
TROST_1E6 = (48254.942433694648, 115811.86184086715)
A_50, B_50 = 2.6513349322522495, 10.841599579441242
A_500, B_500 = 8.979378405299893, 42.399889281280740
A_1E4, B_1E4 = 73.285120073388704, 372.58421952406535
A_1E6, B_1E6 = 2983.0494541808122, 15892.229215330882
TWIN_CONST_1E6 = 1.3203237211796815
TWIN_CONST_1E5 = 1.3203246909334731
HL_SIMPLE_1E3 = 191.13643547810110   # with products truncated at 10**6


class TestTrostBounds:
    def test_values_and_containment(self, sieve_1e6):
        for x, frozen in [(100, TROST_100), (5, TROST_5), (10**6, TROST_1E6)]:
            lo, up = trost_bounds(x)
            assert lo == pytest.approx(frozen[0], rel=1e-12)
            assert up == pytest.approx(frozen[1], rel=1e-12)
            assert lo < sieve_1e6.count_primes_upto(x) < up

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            trost_bounds(4)

    def test_ordering_on_grid(self):
        for x in log_grid(5, 10**6, 50).tolist():
            lo, up = trost_bounds(x)
            assert lo < up


class TestSandwichBounds:
    @pytest.mark.parametrize(
        "x,a,b",
        [(50, A_50, B_50), (500, A_500, B_500), (10**4, A_1E4, B_1E4),
         (10**6, A_1E6, B_1E6)],
    )
    def test_frozen_values(self, x, a, b):
        got_a, got_b = sandwich_bounds(x)
        assert got_a == pytest.approx(a, rel=1e-12)
        assert got_b == pytest.approx(b, rel=1e-12)

    def test_integer_rendering_of_frozen_values(self):
        assert round_half_away(A_50) == 3 and round_half_away(B_50) == 11
        assert round_half_away(A_1E6) == 2983
        # The value behind the reference table's oddly printed b cell:
        # direct evaluation lands near 15,892, i.e. about 5 above the
        # printed 15,887 even after fixing its separator.
        assert round_half_away(B_1E6) == 15892

    def test_a_below_b_and_denominator_guard(self):
        for x in log_grid(5, 10**6, 100).tolist():
            a, b = sandwich_bounds(x)
            assert a < b
        with pytest.raises(ValueError):
            sandwich_bounds(4)

    @settings(max_examples=300)
    @example(5)
    @example(10**18)
    @given(st.integers(5, 10**18))
    def test_a_is_positive_and_below_b_to_1e18(self, x):
        # A's denominator ln x - ln ln x - ln 1.5 has no guard of its own:
        # it grows for ln x > 1 and is ~0.728 at x = 5.
        a, b = sandwich_bounds(x)
        assert 0 < a < b

    def test_check_against_counts(self, sieve_1e6):
        a, b = sandwich_bounds(500)
        assert round_half_away(a) == 9 and round_half_away(b) == 42
        pi_pi = sieve_1e6.count_primes_upto(sieve_1e6.count_primes_upto(500))
        pi2 = sieve_1e6.count_twins_upto(500)
        assert pi2 == 24 and pi_pi == 24
        assert a < pi_pi < b and a < pi2 < b

    def test_check_at_smallest_x(self, sieve_1e6):
        a, b = sandwich_bounds(5)
        assert a < sieve_1e6.count_primes_upto(3) == 2 < b  # pi(pi(5)) = pi(3)
        assert sieve_1e6.count_primes_upto(5) == 3
        assert sieve_1e6.count_twins_upto(5) == 1 < a  # a ~ 1.90

    def test_rows_builder(self, sieve_1e5):
        rows = bounds_rows(sieve_1e5, [50, 500, 10**4])
        assert [r.pi2_x for r in rows] == [6, 24, 205]
        assert all(r.a_bound < r.b_bound for r in rows)


class TestTwinPrimeConstant:
    def test_single_factor(self):
        assert twin_prime_constant(3) == pytest.approx(1.5, abs=1e-15)

    def test_small_truncations_match_exact_rationals(self):
        for pmax in (7, 100):
            exact = float(oracles.twin_constant_exact(pmax))
            assert twin_prime_constant(pmax) == pytest.approx(exact, abs=1e-12)
        assert twin_prime_constant(7) == pytest.approx(1.3671875, abs=1e-12)

    def test_large_truncation_against_high_precision(self):
        assert twin_prime_constant(10**6) == pytest.approx(
            TWIN_CONST_1E6, abs=1e-9
        )
        assert twin_prime_constant(10**5) == pytest.approx(
            TWIN_CONST_1E5, abs=1e-9
        )

    def test_monotone_decreasing_in_truncation(self):
        ladder = [3, 7, 100, 10**3, 10**4, 10**5, 10**6]
        values = [twin_prime_constant(p) for p in ladder]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_tail_gap_between_1e5_and_1e6(self):
        # The true gap, from 40-digit arithmetic, is 9.6975379e-7: the
        # truncation is still moving in the 7th decimal at pmax = 10**5.
        gap = twin_prime_constant(10**5) - twin_prime_constant(10**6)
        assert gap == pytest.approx(9.697537915594437e-07, rel=1e-6)

    def test_rejects_tiny_pmax(self):
        with pytest.raises(ValueError):
            twin_prime_constant(2)


class TestRatioProduct:
    def test_small_values_exact(self):
        assert twin_ratio_product(3) == pytest.approx(2.0, abs=1e-15)
        assert twin_ratio_product(5) == pytest.approx(8 / 3, abs=1e-14)
        exact = float(oracles.ratio_product_exact(100))
        assert twin_ratio_product(100) == pytest.approx(exact, rel=1e-13)

    def test_divergence_between_truncations(self):
        r3, r6 = twin_ratio_product(10**3), twin_ratio_product(10**6)
        assert r3 == pytest.approx(9.353317144894675, rel=1e-12)
        assert r6 == pytest.approx(18.637386084106073, rel=1e-12)
        assert r6 / r3 > 1.5  # no finite limit: truncation choice dominates


class TestHardyLittlewoodForms:
    def test_simple_form_values(self, sieve_1e6):
        assert hardy_littlewood_simple(10**3) == pytest.approx(
            HL_SIMPLE_1E3, rel=1e-12
        )
        # gross overshoot: order of magnitude above the actual twin count
        actual = sieve_1e6.count_twins_upto(10**6)
        assert hardy_littlewood_simple(10**6) / actual > 10

    def test_simple_form_overshoot_grows(self, sieve_1e6):
        ratios = [
            hardy_littlewood_simple(10**k) / sieve_1e6.count_twins_upto(10**k)
            for k in (3, 4, 5, 6)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_product_form_tracks_truncation(self):
        assert hardy_littlewood_product(10**3, 100) == pytest.approx(
            174.17991330081062, rel=1e-12
        )
        # the same point evaluated with equally truncated bare products
        expected = (
            twin_prime_constant(100)
            * 10**3 / math.log(10**3) ** 2
            * twin_ratio_product(100)
        )
        assert hardy_littlewood_product(10**3, 100) == pytest.approx(
            expected, rel=1e-12
        )

    def test_minimal_truncation_hand_value(self):
        # with everything truncated at the first odd prime:
        # 1.5 * x/ln(x)**2 * 2 at x = 1000
        expected = 1.5 * 10**3 / math.log(10**3) ** 2 * 2
        got = (
            twin_prime_constant(3)
            * 10**3 / math.log(10**3) ** 2
            * twin_ratio_product(3)
        )
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(62.87, abs=0.005)

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            hardy_littlewood_simple(4)
        with pytest.raises(ValueError):
            hardy_littlewood_product(3)


class TestDensityRatio:
    def test_exact_rational_point(self):
        assert density_ratio(50, 15, 6) == pytest.approx(4 / 3, rel=1e-15)

    def test_no_twins_gives_zero(self):
        assert density_ratio(100, 25, 0) == 0.0

    def test_zero_pi_rejected(self):
        with pytest.raises(ValueError):
            density_ratio(100, 0, 0)

    def test_cap_on_grid(self, sieve_1e6):
        for x in log_grid(5, 10**6, 200).tolist():
            pi2 = sieve_1e6.count_twins_upto(x)
            if pi2 > 0:
                h = density_ratio(x, sieve_1e6.count_primes_upto(x), pi2)
                assert 0 < h < 5.12, x


def _rows_with_h(hs):
    return [
        EstimateRow(x=50, eta_p=0.0, eta_pp=0.0, h=h, pi2_x=1, pi2_star=1,
                    abs_delta=0, rel_error=0.0)
        for h in hs
    ]


class TestCalibration:
    def test_mean_of_reference_h_column(self):
        from twinprimes import load_reference_tables

        hs = [row["h"] for row in load_reference_tables()["table3"]["rows"]]
        mean = mean_density_ratio(_rows_with_h(hs))
        assert mean == pytest.approx(1.3260151578947370, rel=1e-12)
        assert abs(mean - 1.325067) < 1e-2

    def test_single_row(self):
        assert mean_density_ratio(_rows_with_h([1.0])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_density_ratio([])


class TestTwinCountEstimate:
    def test_reference_points(self):
        assert twin_count_estimate(50, 15) == 6
        assert twin_count_estimate(10**6, 78498) == 8165

    def test_tie_rounds_away_from_zero(self):
        # 1.0 * 2**2 / 8 = 0.5 exactly
        assert twin_count_estimate(8, 2, 1.0) == 1
        assert round_half_away(0.5) == 1
        assert round_half_away(1.5) == 2
        assert round_half_away(2.5) == 3
        assert round_half_away(-0.5) == -1
        assert round_half_away(-2.5) == -3

    def test_preconditions(self):
        with pytest.raises(ValueError):
            twin_count_estimate(4, 2)
        with pytest.raises(ValueError):
            twin_count_estimate(50, 0)
        with pytest.raises(ValueError):  # h_c * pi_x**2 / x overflows
            twin_count_estimate(20000, 2262, 1e308)


@settings(max_examples=200)
@given(st.floats(-1e12, 1e12))
def test_round_half_away_properties(v):
    r = round_half_away(v)
    assert r in (math.floor(v), math.ceil(v))
    assert abs(v - r) <= 0.5


class TestEstimateRows:
    def test_row_fields_are_consistent(self, sieve_1e5):
        rows = estimate_rows(sieve_1e5, [50, 1000, 10**5])
        for row in rows:
            pi_x = sieve_1e5.count_primes_upto(row.x)
            assert row.eta_p == pytest.approx(pi_x / row.x, rel=1e-12)
            assert row.eta_pp == pytest.approx(row.pi2_x / pi_x, rel=1e-12)
            assert row.h == pytest.approx(
                row.eta_pp / row.eta_p, rel=1e-12
            )
            assert row.abs_delta == abs(row.pi2_x - row.pi2_star)
            assert row.rel_error == pytest.approx(
                row.abs_delta / row.pi2_x, rel=1e-12
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(h_c=0.0)
        with pytest.raises(ValueError):
            RunConfig(h_c=math.inf)
        with pytest.raises(ValueError):
            RunConfig(euler_pmax=99)


def test_log_grid_shape():
    grid = log_grid(5, 10**6, 200)
    assert len(grid) == 200
    assert grid[0] == 5 and grid[-1] == 10**6
    assert np.all(np.diff(grid) >= 0)


@pytest.mark.parametrize("n", [50, 100, 200])
def test_log_grid_is_numpys_rounded_geomspace(n):
    # numpy's formula, which the grid replaced, is the reference: at every
    # hi up to 10**4, then at every 997th up to 10**6.
    for hi in [*range(5, 10**4 + 1), *range(10**4 + 997, 10**6, 997), 10**6]:
        want = np.round(np.geomspace(5, hi, n)).astype(np.int64).tolist()
        assert log_grid(5, hi, n).tolist() == want, hi


@pytest.mark.parametrize("pmax", [
    100, 10**3, 10**4, 10**5, 10**6,
    *np.random.default_rng(20261018).integers(3, 10**6, 6).tolist()])
def test_euler_products_are_numpys_bit_for_bit(pmax):
    # The numpy products they replaced: the same factors, multiplied in the
    # same order.
    p = np.asarray(small_primes(pmax)[1:], dtype=np.float64)
    assert twin_prime_constant(pmax) == 2.0 * float(
        np.prod(1.0 - 1.0 / (p - 1.0) ** 2))
    assert twin_ratio_product(pmax) == float(np.prod((p - 1.0) / (p - 2.0)))


def _naive_products(primes, pmax):
    """float.hex of C2 and of the ratio product at pmax, one factor per odd
    prime of the oracle's in turn."""
    c2 = ratio = 1
    for p in primes[1 : bisect_right(primes, pmax)]:
        c2 *= 1.0 - 1.0 / (p - 1.0) ** 2
        ratio *= (p - 1.0) / (p - 2.0)
    return (2.0 * c2).hex(), ratio.hex()


@pytest.fixture(scope="module")
def oracle_primes(sieve_1e6):
    return sieve_1e6.primes_upto(10**6)


def test_streamed_products_are_the_naive_products_bit_for_bit(oracle_primes):
    # Every residue mod 6 and both plane edges (6j + 5, 6j + 7) up to 60,
    # then past the first few thousand flags and at the suite's top rung.
    for pmax in [*range(3, 61), *range(10**4 - 3, 10**4 + 4), 10**6]:
        got = twin_prime_constant(pmax).hex(), twin_ratio_product(pmax).hex()
        assert got == _naive_products(oracle_primes, pmax), pmax


@pytest.mark.parametrize("ladder", [
    list(range(3, 61)),                       # every pmax, one apart
    [3, 5, 7, 101, 997, 9973, 99989],         # on a prime
    [4, 6, 8, 102, 998, 9974, 99990],         # on a prime + 1
    [35, 95, 9995, 99995],                    # on 6j + 5, composite
    [25, 91, 10003, 100009],                  # on 6j + 7, composite
    [100, 10**3, 10**4, 10**5, 10**6],        # the suite's
])
def test_each_rung_of_a_ladder_is_its_naive_product(oracle_primes, ladder):
    got = [twin_prime_constant(pmax).hex() for pmax in ladder]
    assert got == [_naive_products(oracle_primes, pmax)[0]
                   for pmax in ladder]


def test_both_euler_products_share_one_sieve(flag_sieves):
    # The product estimator reads both products; pmax is sieved once for
    # the two.
    for pmax in (12_347, 12_349):
        hardy_littlewood_product(10**6, pmax)
        twin_ratio_product(pmax), twin_prime_constant(pmax)
    assert flag_sieves == [12_347, 12_349]
