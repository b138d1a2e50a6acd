from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from elgamalmap import numth
from elgamalmap.numth import (
    MAX_TABLE_MODULUS,
    FactoredInteger,
    GroupParams,
    all_generators,
    euler_phi,
    factorize,
    generator_count,
    is_prime,
    mod_inverse,
    mod_pow,
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


def test_factorize_examples():
    assert factorize(1008).factors == ((2, 4), (3, 2), (7, 1))
    assert factorize(2).factors == ((2, 1),)
    assert factorize(12).factors == ((2, 2), (3, 1))


@pytest.mark.parametrize("n", [1, 0, -5])
def test_factorize_rejects_small(n):
    with pytest.raises(ValueError):
        factorize(n)


@given(st.integers(min_value=2, max_value=10**9))
def test_factorize_roundtrip(n):
    f = factorize(n)
    prod = 1
    prev = 1
    for p, e in f.factors:
        assert is_prime(p)
        assert p > prev and e >= 1
        prev = p
        prod *= p**e
    assert prod == n == f.value


def test_factored_integer_validation():
    FactoredInteger(1, ())  # the unit is representable
    with pytest.raises(ValueError):
        FactoredInteger(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(ValueError):
        FactoredInteger(12, ((3, 1), (2, 2)))  # out of order
    with pytest.raises(ValueError):
        FactoredInteger(8, ((8, 1),))  # not prime


def test_euler_phi_examples():
    assert euler_phi(factorize(1008)) == 288
    assert euler_phi(FactoredInteger(1, ())) == 1
    assert euler_phi(factorize(10)) == 4


@given(st.integers(min_value=2, max_value=20000))
def test_euler_phi_matches_sympy(n):
    assert euler_phi(factorize(n)) == sympy.totient(n)


def test_mod_pow_examples():
    assert mod_pow(11, 1, 1009) == 11
    assert mod_pow(2, 4, 5) == 1
    assert mod_pow(11, 1008, 1009) == 1  # Fermat


@given(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=10**9),
)
def test_mod_pow_matches_builtin(base, exp, modulus):
    assert mod_pow(base, exp, modulus) == pow(base, exp, modulus)


def test_mod_pow_rejects_bad_args():
    with pytest.raises(ValueError):
        mod_pow(2, 3, 1)
    with pytest.raises(ValueError):
        mod_pow(2, -1, 5)


def test_mod_inverse_examples():
    assert mod_inverse(3, 10) == 7
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(5, 1008) == 605
    assert 5 * 605 % 1008 == 1


def test_mod_inverse_rejects_noncoprime():
    with pytest.raises(ValueError):
        mod_inverse(4, 10)
    with pytest.raises(ValueError):
        mod_inverse(0, 7)


@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=2, max_value=10**9),
)
def test_mod_inverse_property(a, modulus):
    from math import gcd

    if gcd(a, modulus) != 1:
        with pytest.raises(ValueError):
            mod_inverse(a, modulus)
    else:
        x = mod_inverse(a, modulus)
        assert 1 <= x < modulus
        assert a * x % modulus == 1


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
    assert len(all_generators(p)) == euler_phi(factorize(p - 1)) == generator_count(p)


def test_group_order_is_factorized_once(monkeypatch):
    calls = Counter()

    def counting_factorize(n):
        calls[n] += 1
        return factorize(n)

    monkeypatch.setattr(numth, "factorize", counting_factorize)
    numth._factorization.cache_clear()
    assert smallest_generator(1009).g == 11
    GroupParams(1009, 17)
    with pytest.raises(ValueError, match="does not generate"):
        GroupParams(1009, 2)  # still validated against the one factorization
    assert generator_count(1009) == 288
    assert calls == {1008: 1}
    calls.clear()
    numth._factorization.cache_clear()
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
        assert {mod_pow(g, x, p) for x in range(1, p)} == full


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
                assert mod_pow(g, x, p) == table[x % (p - 1)]


def test_power_table_at_the_size_limit():
    p = 999983  # the largest prime below MAX_TABLE_MODULUS
    assert p <= MAX_TABLE_MODULUS
    table = power_table(p, 5)
    for e in [0, 1, 2, 524287, 524288, 524289, p - 2]:
        assert table[e] == pow(5, e, p)
    for bad in [1, MAX_TABLE_MODULUS + 1, 18446744073709551557]:
        with pytest.raises(ValueError):
            power_table(bad, 2)
