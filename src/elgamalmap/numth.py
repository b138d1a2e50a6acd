"""Integer and modular arithmetic substrate.

Primality, the prime divisors of a group order, primitive-root discovery
for prime moduli, and the power table e -> g**e mod p that every
experiment reads, kept once per prime as `smallest_generator(p).table`;
`GroupParams.exponents` is the one map from a generator to its exponent.
The experiments run at desk scale (moduli up to MAX_TABLE_MODULUS =
10**6), so primality and factoring are both plain trial division.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from math import gcd, isqrt

import numpy as np

__all__ = [
    "GroupParams",
    "is_prime",
    "smallest_generator",
    "all_generators",
    "generator_count",
    "MAX_TABLE_MODULUS",
    "power_table",
]


def is_prime(n: int) -> bool:
    """Whether n >= 0 is prime, by trial division by 2 and the odd
    q <= isqrt(n): exact, in O(sqrt(n)) steps, the cost of factoring
    p - 1 that every GroupParams already pays.  The program asks it only
    about moduli up to MAX_TABLE_MODULUS."""
    return n == 2 or (n > 2 and n % 2 == 1 and all(n % q for q in range(3, isqrt(n) + 1, 2)))


@cache
def _prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, ascending, by trial division.

    Computed once per n: the group order p-1 is read by
    smallest_generator, by every GroupParams of p and by generator_count.
    """
    divisors = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            divisors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        divisors.append(n)
    return tuple(divisors)


def _exponent_gcds(d: int) -> np.ndarray:
    """The int64 table of gcd(e, d) for e = 0..d-1, d >= 1, built from the
    prime powers dividing d, one strided product per power."""
    gcds = np.ones(d, dtype=np.int64)
    for q in _prime_divisors(d):
        qk = q
        while d % qk == 0:
            gcds[::qk] *= q
            qk *= q
    return gcds


@dataclass(frozen=True)
class GroupParams:
    """An odd prime p with a designated generator g of the multiplicative
    group mod p.

    `d` is the group order p - 1.  Construction validates that p is an
    odd prime and that g is a primitive root, i.e. g**((p-1)/q) != 1
    mod p for every prime q dividing p - 1.  `table`, g's power table,
    is read-only and computed on first use, once per instance.
    """

    p: int
    g: int
    d: int = field(init=False)

    def __post_init__(self) -> None:
        p, g = self.p, self.g
        # a primitive root proves p prime (Lucas's test), so a valid pair
        # needs no is_prime; it only words the error of an invalid one
        if not (p >= 3 and 2 <= g <= p - 1 and _is_primitive_root(g, p)):
            if p < 3 or not is_prime(p):
                raise ValueError(f"p must be an odd prime, got {p}")
            if not 2 <= g <= p - 1:
                raise ValueError(f"g must lie in [2, p-1], got {g}")
            raise ValueError(f"{g} does not generate the group mod {p}")
        object.__setattr__(self, "d", p - 1)

    @cached_property
    def table(self) -> np.ndarray:
        table = power_table(self.p, self.g)
        table.flags.writeable = False
        return table

    def exponents(self, generators: list[int]) -> np.ndarray:
        """The exponents j (g = self.g**j mod p; 1 for self.g) of
        `generators`, after checking that each lies in [2, p-1] and
        generates the group, i.e. that j is a unit mod p-1.  Each one's
        power table is then `table` read at j*x mod (p-1).  A call that
        names any other generator than self.g inverts `table` once."""
        if any(g != self.g for g in generators):
            log = np.empty(self.p, dtype=np.int64)  # log[table[e]] = e; log[0] unused
            log[self.table] = np.arange(self.d)
        js = []
        for g in generators:
            if not 2 <= g <= self.p - 1:
                raise ValueError(f"g must lie in [2, p-1], got {g}")
            j = 1 if g == self.g else int(log[g])
            if gcd(j, self.d) != 1:
                raise ValueError(f"{g} does not generate the group mod {self.p}")
            js.append(j)
        return np.array(js, dtype=np.int64)


def _is_primitive_root(g: int, n: int) -> bool:
    """Whether 2 <= g < n generates Z_n^*, n prime.  By Lucas's test no
    g passes for a composite n."""
    d = n - 1
    return pow(g, d, n) == 1 and all(pow(g, d // q, n) != 1 for q in _prime_divisors(d))


def smallest_generator(p: int) -> GroupParams:
    """The GroupParams of the least primitive root g0 mod the odd prime p,
    shared by every call on the same p until another prime is asked for."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return _smallest_generator(p)


@lru_cache(maxsize=1)
def _smallest_generator(p: int) -> GroupParams:
    """smallest_generator of a p known to be an odd prime.  One entry, since
    each holds 8 bytes a residue once its table is read."""
    g = 2
    while not _is_primitive_root(g, p):
        g += 1
    return GroupParams(p, g)


def all_generators(p: int) -> list[int]:
    """All phi(p-1) primitive roots mod p, in ascending order.

    Once one primitive root g0 is known, the full set is
    {g0**j mod p : gcd(j, p-1) = 1}.
    """
    g0 = smallest_generator(p)
    return sorted(g0.table[_exponent_gcds(g0.d) == 1].tolist())


def generator_count(p: int) -> int:
    """phi(p-1), the number of primitive roots mod the odd prime p, without
    listing them."""
    phi = p - 1
    for q in _prime_divisors(p - 1):
        phi = phi // q * (q - 1)
    return phi


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

