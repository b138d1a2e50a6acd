"""Integer and modular arithmetic substrate.

Primality, the prime divisors of a group order, primitive-root discovery
for prime moduli, and the power table e -> g**e mod p that every
experiment reads, kept once per prime as `smallest_generator(p).table`;
`GroupParams.exponents` is the one map from a generator to its exponent.
The experiments run at desk scale (moduli up to MAX_TABLE_MODULUS =
10**6), so trial division and a deterministic Miller-Rabin base set are
entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from math import gcd

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
    mod p for every prime q dividing p - 1.  `table` (g's power table)
    and `log` (its inverse, log[table[e]] = e; log[0] is unused) are
    read-only and computed on first use, once per instance.
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

    @cached_property
    def log(self) -> np.ndarray:
        log = np.zeros(self.p, dtype=np.int64)
        log[self.table] = np.arange(self.d)
        log.flags.writeable = False
        return log

    def exponents(self, generators: list[int]) -> np.ndarray:
        """The exponents j = log[g] (g = self.g**j mod p; 1 for self.g, which
        needs no log) of `generators`, after checking that each lies in
        [2, p-1] and generates the group, i.e. that j is a unit mod p-1.
        Each one's power table is then `table` read at j*x mod (p-1)."""
        js = []
        for g in generators:
            if not 2 <= g <= self.p - 1:
                raise ValueError(f"g must lie in [2, p-1], got {g}")
            j = 1 if g == self.g else int(self.log[g])
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
    each holds 16 bytes a residue once its table and log are read."""
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

