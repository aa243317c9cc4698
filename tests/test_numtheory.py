import math

import pytest
from hypothesis import given, strategies as st

from totalprime import numtheory
from totalprime.errors import (
    InvalidParameterError,
    NoPrimeError,
    SieveLimitError,
)
from totalprime.numtheory import (
    PrimeTable,
    check_label_capacity_bounds,
    check_prime_counting_bounds,
    largest_prime_leq,
    nth_prime,
    prime_count,
)


class TestPrimes:
    @pytest.mark.parametrize("index,value", [(1, 2), (3, 5), (9, 23), (25, 97)])
    def test_nth_prime(self, index, value):
        assert nth_prime(index) == value

    def test_nth_prime_grows_table(self):
        assert nth_prime(10_000) == 104_729

    def test_nth_prime_bad_index(self):
        with pytest.raises(InvalidParameterError):
            nth_prime(0)

    @pytest.mark.parametrize("x,value", [(12, 11), (2, 2), (30, 29), (100, 97)])
    def test_largest_prime_leq(self, x, value):
        assert largest_prime_leq(x) == value

    def test_largest_prime_leq_below_two(self):
        with pytest.raises(NoPrimeError):
            largest_prime_leq(1)

    @given(st.integers(4, 50_000))
    def test_bertrand(self, x):
        assert largest_prime_leq(x) > x / 2

    @pytest.mark.parametrize("x,count", [(0, 0), (1, 0), (2, 1), (10, 4), (17, 7), (100, 25)])
    def test_prime_count(self, x, count):
        assert prime_count(x) == count

    def test_prime_count_real_argument(self):
        assert prime_count(10.9) == 4

    def test_prime_count_lower_bound_at_100(self):
        assert prime_count(100) == 25 > 100 / math.log(100)

    def test_count_matches_sequence_at_prime_boundaries(self):
        table = numtheory.shared_table()
        table.ensure_limit(1000)
        for idx, p in enumerate(table.primes[:168], start=1):
            assert prime_count(p) == idx
            assert prime_count(p - 1) == idx - 1


class TestPrimeTable:
    def test_extension_preserves_prefix(self):
        table = PrimeTable(limit=16)
        head = list(table.primes)
        table.ensure_limit(10_000)
        assert table.primes[: len(head)] == head

    def test_cap_enforced(self):
        table = PrimeTable(limit=64, max_limit=128)
        table.ensure_limit(100)
        with pytest.raises(SieveLimitError):
            table.ensure_limit(1000)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(numtheory.SIEVE_LIMIT_ENV, "2048")
        numtheory.reset_shared_table()
        try:
            with pytest.raises(SieveLimitError):
                numtheory.largest_prime_leq(1_000_000)
        finally:
            monkeypatch.delenv(numtheory.SIEVE_LIMIT_ENV)
            numtheory.reset_shared_table()


class TestCapacityBounds:
    def test_order_four_is_tight(self):
        # p_3 = 5 = (16 - 4 - 2) / 2: equality, not a counterexample
        assert nth_prime(3) == (4 * 4 - 4 - 2) // 2

    def test_order_five_pair_bound(self):
        assert nth_prime(7) == 17 < 20

    def test_sweep_to_1000(self):
        report = check_label_capacity_bounds(1000)
        assert report.ok and report.failure is None

    def test_rejects_tiny_n(self):
        with pytest.raises(InvalidParameterError):
            check_label_capacity_bounds(3)


def test_prime_counting_sweep_matches_every_x_reference():
    # reference: walk every x, stopping at the first failure
    table = numtheory.shared_table()
    table.ensure_limit(5000)
    flags = table.flags
    pi_ok = bertrand_ok = True
    count = last_prime = 0
    for x in range(2, 5001):
        if flags[x]:
            count += 1
            last_prime = x
        if pi_ok and bertrand_ok:
            if x >= 17 and count <= x / math.log(x):
                pi_ok = False
            elif x >= 4 and 2 * last_prime <= x:
                bertrand_ok = False
        assert check_prime_counting_bounds(x) == (pi_ok, bertrand_ok), x


@pytest.mark.parametrize("limit", [1, 0, -5])
def test_prime_counting_sweep_rejects_limits_below_two(limit):
    with pytest.raises(InvalidParameterError):
        check_prime_counting_bounds(limit)
