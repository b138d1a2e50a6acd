from collections import Counter
from functools import cache
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from elgamalmap import numth
from elgamalmap.numth import (
    MAX_TABLE_MODULUS,
    GroupParams,
    all_generators,
    generator_count,
    is_prime,
    power_table,
    smallest_generator,
)
from elgamalmap.permstat import fixed_point_sweep


def test_is_prime_examples():
    assert is_prime(1009)
    assert not is_prime(1)
    assert is_prime(2111)
    assert not is_prime(0)
    assert is_prime(2)
    assert not is_prime(4)
    assert is_prime(10007)


@given(st.integers(min_value=0, max_value=10**12))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_matches_a_sieve():
    n = 2**17
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for q in range(2, isqrt(n - 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    assert [is_prime(k) for k in range(n)] == sieve.tolist()


def test_prime_divisors_examples():
    assert numth._prime_divisors(1008) == (2, 3, 7)
    assert numth._prime_divisors(2) == (2,)
    assert numth._prime_divisors(12) == (2, 3)
    assert numth._prime_divisors(1) == ()


@given(st.integers(min_value=1, max_value=10**6))
def test_prime_divisors_matches_sympy(n):
    assert numth._prime_divisors(n) == tuple(sympy.primefactors(n))


def test_generator_count_examples():
    assert generator_count(1009) == 288
    assert generator_count(3) == 1
    assert generator_count(11) == 4


@given(st.integers(min_value=2, max_value=10**6).map(sympy.nextprime))
def test_generator_count_matches_sympy(p):
    assert generator_count(p) == sympy.totient(p - 1)


def test_smallest_generator_examples():
    assert smallest_generator(1009).g == 11
    assert smallest_generator(5).g == 2
    assert smallest_generator(3).g == 2


def test_group_params_fields():
    params = smallest_generator(1009)
    assert (params.p, params.g, params.d) == (1009, 11, 1008)


def test_group_params_validation():
    GroupParams(7, 3)
    with pytest.raises(ValueError):
        GroupParams(8, 3)  # composite modulus
    with pytest.raises(ValueError):
        GroupParams(7, 2)  # 2**3 = 1 mod 7, not a generator
    with pytest.raises(ValueError):
        GroupParams(7, 1)  # out of range
    with pytest.raises(ValueError):
        GroupParams(7, 9)  # out of range


def test_all_generators_examples():
    assert len(all_generators(1009)) == 288
    assert all_generators(5) == [2, 3]
    assert all_generators(3) == [2]


SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_all_generators_against_order_oracle(p):
    """Brute force: g generates iff its successive powers pass through
    every nonzero residue."""
    expected = []
    for g in range(2, p):
        seen = set()
        acc = 1
        for _ in range(p - 1):
            acc = acc * g % p
            seen.add(acc)
        if len(seen) == p - 1:
            expected.append(g)
    assert all_generators(p) == expected


@pytest.mark.parametrize("p", SMALL_PRIMES + [101, 1009])
def test_generator_count_is_phi_of_group_order(p):
    assert len(all_generators(p)) == sympy.totient(p - 1) == generator_count(p)


def test_group_order_is_factorized_once(monkeypatch):
    """Every cache miss of _prime_divisors: one per group order p-1."""
    calls = Counter()
    uncached = numth._prime_divisors.__wrapped__

    def counting_prime_divisors(n):
        calls[n] += 1
        return uncached(n)

    monkeypatch.setattr(numth, "_prime_divisors", cache(counting_prime_divisors))
    assert smallest_generator(1009).g == 11
    GroupParams(1009, 17)
    with pytest.raises(ValueError, match="does not generate"):
        GroupParams(1009, 2)  # still validated against the one cached entry
    assert generator_count(1009) == 288
    assert calls == {1008: 1}
    calls.clear()
    numth._prime_divisors.cache_clear()
    numth._smallest_generator.cache_clear()  # else a cached 211 would skip its search
    fixed_point_sweep(211)
    assert calls == {p - 1: 1 for p in range(3, 212) if is_prime(p)}


@pytest.mark.parametrize("p", SMALL_PRIMES + [101, 1009])
def test_smallest_is_minimum(p):
    assert smallest_generator(p).g == min(all_generators(p))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31, 61, 101])
def test_generators_are_bijective_exhaustive(p):
    """Every generator's power map must hit all of {1..p-1}."""
    full = set(range(1, p))
    for g in all_generators(p):
        assert {pow(g, x, p) for x in range(1, p)} == full


@pytest.mark.parametrize("p", [1009, 2111])
def test_generators_are_bijective_large(p):
    full = set(range(1, p))
    for g in all_generators(p):
        seen = set()
        acc = 1
        for _ in range(1, p):
            acc = acc * g % p
            seen.add(acc)
        assert seen == full


def test_power_table_agrees_with_mod_pow():
    """Every g in [1, p-1], including non-generators, and the edge
    cases d = p-1 = 1 and 2; exponents wrap mod p-1."""
    for p in [2, 3, 5, 7, 11, 13, 17, 61, 101]:
        for g in range(1, p):
            table = power_table(p, g)
            assert table.dtype == np.int64
            assert len(table) == p - 1
            for x in range(3 * p):
                assert pow(g, x, p) == table[x % (p - 1)]


def test_power_table_at_the_size_limit():
    p = 999983  # the largest prime below MAX_TABLE_MODULUS
    assert p <= MAX_TABLE_MODULUS
    table = power_table(p, 5)
    for e in [0, 1, 2, 524287, 524288, 524289, p - 2]:
        assert table[e] == pow(5, e, p)
    for bad in [1, MAX_TABLE_MODULUS + 1, 18446744073709551557]:
        with pytest.raises(ValueError):
            power_table(bad, 2)
