"""Integer and modular arithmetic substrate.

Primality, factorization, Euler's totient, modular exponentiation and
inverses, primitive-root discovery for prime moduli, and the power table
e -> g**e mod p that every experiment reads.  Everything here is a pure
function of its arguments; only the power table is a numpy array, the
rest operates on plain Python integers.  The experiments run at desk
scale (moduli up to MAX_TABLE_MODULUS = 10**6), so trial division and a
deterministic Miller-Rabin base set are entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import gcd

import numpy as np

__all__ = [
    "FactoredInteger",
    "GroupParams",
    "is_prime",
    "factorize",
    "euler_phi",
    "mod_pow",
    "mod_inverse",
    "smallest_generator",
    "all_generators",
    "generator_count",
    "MAX_TABLE_MODULUS",
    "power_table",
    "generator_logs",
]

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10**24,
# which covers the full 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 64-bit integers.

    Args:
        n: candidate, n >= 0.

    Returns:
        True iff n is prime.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its complete prime factorization.

    `factors` is a tuple of (prime, exponent) pairs with primes strictly
    increasing and exponents >= 1; their product reconstructs `value`.
    The unit 1 is represented by an empty factor tuple.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError(f"value must be positive, got {self.value}")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError("factor exponents must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(
                f"factors multiply to {prod}, expected {self.value}"
            )

    def prime_divisors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> FactoredInteger:
    """Complete prime factorization by trial division.

    Args:
        n: integer >= 2, fits in 64 bits.

    Raises:
        ValueError: if n < 2.
    """
    if n < 2:
        raise ValueError(f"cannot factor {n}: need n >= 2")
    value = n
    factors = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    # Remaining divisors are of the form 6k +- 1.
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                factors.append((p, e))
        f += 6
    if n > 1:
        factors.append((n, 1))
    return FactoredInteger(value, tuple(factors))


@cache
def _factorization(n: int) -> FactoredInteger:
    """factorize(n), computed once per n: the group order p-1 is read by
    smallest_generator, by every GroupParams of p and by generator_count."""
    return factorize(n)


def euler_phi(n: FactoredInteger) -> int:
    """Euler's totient from a factorization: n * prod(1 - 1/p)."""
    phi = n.value
    for p, _ in n.factors:
        phi = phi // p * (p - 1)
    return phi


def mod_pow(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus, the builtin pow with its arguments checked.

    The result is always in [0, modulus), including for negative bases.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exp < 0:
        raise ValueError(f"exponent must be >= 0, got {exp}")
    return pow(base, exp, modulus)


def mod_inverse(a: int, modulus: int) -> int:
    """Multiplicative inverse of a modulo modulus, in [1, modulus).

    Raises:
        ValueError: if gcd(a, modulus) != 1 (no inverse exists).
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    a %= modulus
    if gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    return pow(a, -1, modulus)


@dataclass(frozen=True)
class GroupParams:
    """An odd prime p with a designated generator g of the multiplicative
    group mod p.

    `d` is the group order p - 1.  Construction validates that p is an
    odd prime and that g is a primitive root, i.e. g**((p-1)/q) != 1
    mod p for every prime q dividing p - 1.
    """

    p: int
    g: int
    d: int = field(init=False)

    def __post_init__(self) -> None:
        if self.p < 3 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if not 2 <= self.g <= self.p - 1:
            raise ValueError(f"g must lie in [2, p-1], got {self.g}")
        d = self.p - 1
        if not _is_primitive_root(self.g, self.p, _factorization(d).prime_divisors()):
            raise ValueError(f"{self.g} does not generate the group mod {self.p}")
        object.__setattr__(self, "d", d)


def _is_primitive_root(g: int, p: int, prime_divisors: tuple[int, ...]) -> bool:
    d = p - 1
    return all(mod_pow(g, d // q, p) != 1 for q in prime_divisors)


def smallest_generator(p: int) -> GroupParams:
    """The least g >= 2 that is a primitive root mod p.

    Args:
        p: odd prime.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    divisors = _factorization(p - 1).prime_divisors()
    g = 2
    while not _is_primitive_root(g, p, divisors):
        g += 1
    return GroupParams(p, g)


def all_generators(p: int) -> list[int]:
    """All phi(p-1) primitive roots mod p, in ascending order.

    Once one primitive root g0 is known, the full set is
    {g0**j mod p : gcd(j, p-1) = 1}.
    """
    d = p - 1
    table = power_table(p, smallest_generator(p).g)
    return sorted(table[np.gcd(np.arange(d), d) == 1].tolist())


def generator_count(p: int) -> int:
    """phi(p-1), the number of primitive roots mod the odd prime p, without
    listing them."""
    return euler_phi(_factorization(p - 1))


# Largest modulus power_table accepts.  Its table takes 8 bytes per entry
# (8 MB here); the int64 products table * step stay exact for any
# modulus below about 3 * 10**9.
MAX_TABLE_MODULUS = 10**6


def power_table(p: int, g: int) -> np.ndarray:
    """The int64 table with table[e] = g**e mod p for e = 0..p-2.

    Exponents index Z_{p-1}: for a unit g of a prime p, g**x mod p is
    table[x mod (p-1)] for every x >= 0.  The table fills by doubling,
    block [n, 2n) being block [0, n) times g**n, so it costs O(log p)
    numpy steps.

    Raises:
        ValueError: if p < 2 or p > MAX_TABLE_MODULUS.
    """
    if not 2 <= p <= MAX_TABLE_MODULUS:
        raise ValueError(f"modulus must lie in [2, {MAX_TABLE_MODULUS}], got {p}")
    d = p - 1
    table = np.empty(d, dtype=np.int64)
    table[0] = 1
    n, step = 1, g % p  # step = g**n mod p
    while n < d:
        m = min(n, d - n)
        table[n : n + m] = table[:m] * step % p
        n += m
        step = step * step % p
    return table


def generator_logs(p: int, generators: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The power table of the smallest generator g0 mod p and its inverse
    log (log[table[e]] = e; log[0] is unused), after the checks of
    GroupParams on every entry of `generators`.  Every generator g = g0**j,
    j = log[g], has g0's table read at j*x mod (p-1) as its power table."""
    table = power_table(p, smallest_generator(p).g)
    log = np.zeros(p, dtype=np.int64)
    log[table] = np.arange(p - 1)
    for g in generators:
        if not 2 <= g <= p - 1:
            raise ValueError(f"g must lie in [2, p-1], got {g}")
        if gcd(int(log[g]), p - 1) != 1:
            raise ValueError(f"{g} does not generate the group mod {p}")
    return table, log
