"""Cycle statistics of permutations and the exact random-permutation
baseline they are compared against.

The baseline facts: a uniform permutation of n elements has s(n,c)/n!
probability of exactly c cycles (unsigned Stirling numbers of the first
kind), H_n = 1 + 1/2 + ... + 1/n cycles on average, and 1/k cycles of
length k on average.  A seeded sampler of uniform permutations is
included for calibration runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

import numpy as np

from .elgamal import Permutation, elgamal_permutation
from .numth import GroupParams, is_prime, power_table, smallest_generator

__all__ = [
    "CycleStructure",
    "CycleCountDistribution",
    "FamilyStatistics",
    "cycle_decompose",
    "count_cycles",
    "count_k_cycles",
    "stirling_cycle_distribution",
    "expected_cycles",
    "expected_k_cycles",
    "random_permutation",
    "family_statistics",
    "fixed_point_sweep",
]


@dataclass(frozen=True)
class CycleStructure:
    """Multiset of cycle lengths of a permutation, stored descending.

    The lengths always sum to the degree.
    """

    degree: int
    cycle_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(k < 1 for k in self.cycle_lengths):
            raise ValueError("cycle lengths must be >= 1")
        if sum(self.cycle_lengths) != self.degree:
            raise ValueError(
                f"cycle lengths sum to {sum(self.cycle_lengths)}, "
                f"expected degree {self.degree}"
            )


def cycle_decompose(perm: Permutation) -> CycleStructure:
    """Cycle lengths of a permutation by orbit following, O(n)."""
    n = perm.n
    image = perm.image
    seen = bytearray(n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = image[x - 1]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return CycleStructure(n, tuple(lengths))


def count_cycles(cs: CycleStructure) -> int:
    """Total number of cycles."""
    return len(cs.cycle_lengths)


def count_k_cycles(cs: CycleStructure, k: int) -> int:
    """Number of cycles of length exactly k."""
    if k < 1:
        raise ValueError(f"cycle length must be >= 1, got {k}")
    return cs.cycle_lengths.count(k)


@dataclass(frozen=True, eq=False)
class CycleCountDistribution:
    """probs[c] = probability that a uniform permutation of n elements has
    exactly c cycles, for c in [1, n].  probs[0] is unused and zero."""

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("cycle-count probabilities must sum to 1")
        if float(self.probs.min()) < 0.0:
            raise ValueError("cycle-count probabilities must be >= 0")

    def mean(self) -> float:
        return float(np.arange(self.n + 1) @ self.probs)


def stirling_cycle_distribution(n: int) -> CycleCountDistribution:
    """Exact distribution of the number of cycles of a uniform permutation.

    The count of cycles is a sum of independent Bernoulli(1/i) variables
    for i = 1..n, so the distribution follows the recurrence

        P_m(c) = P_{m-1}(c-1) / m + P_{m-1}(c) * (1 - 1/m)

    starting from P_1(1) = 1.  Computed in doubles; probabilities below
    the underflow threshold clamp to zero.  The values s(n,c)/n! agree
    with the unsigned-Stirling-number definition.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    probs = np.zeros(n + 1)
    probs[1] = 1.0
    for m in range(2, n + 1):
        q = 1.0 / m
        probs[1 : m + 1] = probs[0:m] * q + probs[1 : m + 1] * (1.0 - q)
    return CycleCountDistribution(n, probs)


def expected_cycles(n: int) -> float:
    """Harmonic number H_n, the mean cycle count of a uniform permutation.

    Summed from the smallest term up for accuracy.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    return sum(1.0 / i for i in range(n, 0, -1))


def expected_k_cycles(k: int) -> float:
    """Mean number of k-cycles of a uniform permutation: exactly 1/k."""
    if k < 1:
        raise ValueError(f"cycle length must be >= 1, got {k}")
    return 1.0 / k


def random_permutation(n: int, seed: int) -> Permutation:
    """A uniform permutation of {1..n} from an unbiased seeded shuffle.

    The generator is numpy's PCG64 (`numpy.random.default_rng`); a given
    seed always reproduces the same permutation for a fixed numpy
    version.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    image = rng.permutation(n) + 1
    return Permutation(n, tuple(int(v) for v in image))


@dataclass(frozen=True)
class FamilyStatistics:
    """Cycle statistics of the exponentiation permutations of one prime,
    over a family of generators.

    cycle_counts[i] is the number of cycles for generators[i]; histogram
    maps a cycle count c to how many generators produced it;
    avg_k_cycles[k-1] is the mean number of k-cycles over the family.
    """

    p: int
    generators: tuple[int, ...]
    cycle_counts: tuple[int, ...]
    histogram: dict[int, int]
    avg_k_cycles: tuple[float, ...]

    @property
    def mean_cycles(self) -> float:
        return sum(self.cycle_counts) / len(self.cycle_counts)


def family_statistics(p: int, generators: list[int], k_max: int) -> FamilyStatistics:
    """Decompose the permutation x -> g**x for every generator in the
    family and aggregate cycle counts and k-cycle averages for
    k = 1..k_max.

    Raises:
        ValueError: if any entry of `generators` is not a generator mod p.
    """
    if not generators:
        raise ValueError("generator family must be nonempty")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    cycle_counts = []
    k_totals = Counter()
    for g in generators:
        structure = cycle_decompose(elgamal_permutation(GroupParams(p, g)))
        cycle_counts.append(count_cycles(structure))
        k_totals.update(structure.cycle_lengths)
    m = len(generators)
    histogram = dict(sorted(Counter(cycle_counts).items()))
    avg = tuple(k_totals[k] / m for k in range(1, k_max + 1))
    return FamilyStatistics(
        p=p,
        generators=tuple(generators),
        cycle_counts=tuple(cycle_counts),
        histogram=histogram,
        avg_k_cycles=avg,
    )


def fixed_point_sweep(max_prime: int) -> list[tuple[int, float]]:
    """Average fixed-point count of x -> g**x over all generators g, for
    every prime p <= max_prime.

    Every generator is a power g0**j of the smallest one with
    gcd(j, p-1) = 1, and its permutation is the index-j relabeling of
    g0's power table: g**x = g0**(j*x mod (p-1)).  Fixed points are
    therefore counted with one vectorized table comparison per
    generator instead of rebuilding each permutation.

    p = 2 is included: its group is the single element {1}, the map is
    the identity on it, so the sole generator has one fixed point.
    """
    rows: list[tuple[int, float]] = []
    for p in range(2, max_prime + 1):
        if not is_prime(p):
            continue
        if p == 2:
            rows.append((2, 1.0))
            continue
        d = p - 1
        ptab = power_table(p, smallest_generator(p).g)
        xs = np.arange(1, p, dtype=np.int64)
        xmod = xs % d  # exponent of x = p-1 wraps to 0
        total = 0
        count = 0
        for j in range(1, d):
            if gcd(j, d) != 1:
                continue
            total += int(np.count_nonzero(ptab[(j * xmod) % d] == xs))
            count += 1
        rows.append((p, total / count))
    return rows
