"""Cycle statistics of permutations and the exact random-permutation
baseline they are compared against.

Every cycle statistic comes from one kernel, `_cycle_lengths`, which
decomposes a block of image tables at once; the generator family of a
prime and the seeded random sample are both fed to it in blocks of at
most `_BLOCK_CELLS` cells.

The baseline facts: a uniform permutation of n elements has s(n,c)/n!
probability of exactly c cycles (unsigned Stirling numbers of the first
kind), H_n = 1 + 1/2 + ... + 1/n cycles on average, and 1/k cycles of
length k on average.  A seeded sampler of uniform permutations is
included for calibration runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .elgamal import Permutation
from .numth import generator_logs

__all__ = [
    "FamilyStatistics",
    "MAX_DENSE_CELLS",
    "MAX_FAMILY_CELLS",
    "MAX_SWEEP_CELLS",
    "stirling_cycle_distribution",
    "expected_k_cycles",
    "random_permutation",
    "random_cycle_counts",
    "family_cycle_lengths",
    "family_statistics",
    "fixed_point_sweep",
]


def _cycle_lengths(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cycle lengths of every row of an (m, n) block of 1-based image
    tables, m, n >= 1.

    Each row must be a bijection on {1..n}: with row offsets added, one
    bincount over the m*n cells must see every cell exactly once.  Orbits
    are then labeled by pointer doubling: after ceil(log2 n) rounds of
    label = min(label, label[succ]); succ = succ[succ], each element
    carries the least element of its cycle, and the cycle lengths are the
    label counts at the elements that are their own label.

    Returns:
        (row, length) arrays with one entry per cycle, ordered by row and
        within a row by the least element of the cycle.

    Raises:
        ValueError: if a row is not a bijection on {1..n}.
    """
    m, n = images.shape
    cells = m * n
    succ = images.astype(np.int64) - 1
    if succ.min() < 0 or succ.max() >= n:
        raise ValueError("image is not a bijection on {1..n}")
    succ = (succ + np.arange(0, cells, n, dtype=np.int64)[:, None]).ravel()
    if np.bincount(succ, minlength=cells).max() > 1:
        raise ValueError("image is not a bijection on {1..n}")
    label = np.arange(cells, dtype=np.int64)
    for _ in range((n - 1).bit_length()):
        np.minimum(label, label.take(succ), out=label)
        succ = succ.take(succ)
    roots = np.flatnonzero(label == np.arange(cells))
    return roots // n, np.bincount(label, minlength=cells)[roots]


def stirling_cycle_distribution(n: int) -> np.ndarray:
    """Exact distribution of the number of cycles of a uniform permutation:
    the float64 array probs with probs[c] the probability of exactly c
    cycles, for c in [1, n], and probs[0] = 0.

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
    return probs


def expected_k_cycles(k: int) -> float:
    """Mean number of k-cycles of a uniform permutation: exactly 1/k."""
    if k < 1:
        raise ValueError(f"cycle length must be >= 1, got {k}")
    return 1.0 / k


def _random_image(n: int, seed: int) -> np.ndarray:
    """The image table of the seeded uniform permutation of {1..n}: the
    one sampler behind `random_permutation` and `random_cycle_counts`."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    return np.random.default_rng(seed).permutation(n) + 1


def random_permutation(n: int, seed: int) -> Permutation:
    """A uniform permutation of {1..n} from an unbiased seeded shuffle.

    The generator is numpy's PCG64 (`numpy.random.default_rng`); a given
    seed always reproduces the same permutation for a fixed numpy
    version.
    """
    return Permutation(n, tuple(_random_image(n, seed).tolist()))


# Cells (rows x degree) per block of the batched cycle kernel: 2**16
# cells ran no faster and raised the peak RSS of `cycle-dist --prime 4001`
# from 30.3 to 32.3 MB.
_BLOCK_CELLS = 2**14

# Largest phi(p-1) * (p-1) a whole-family cycle run accepts.  It admits
# every prime up to 10007, whose 50,050,012 cells `cycle-dist` decomposes
# in about 4.5 s on 2 shared cores.  It also bounds the generators times
# p*(p-1) ordered pairs `sidon` counts: one generator up to p = 8191.
# And it bounds the n(n+1)/2 cells that the recurrence of
# `stirling_cycle_distribution` reads for `random-baseline --degree n`:
# every degree up to 11584, which takes about 0.2 s.  The recurrence
# slows further once its tail becomes subnormal: 3.6 s at n = 30000.
MAX_FAMILY_CELLS = 2**26

# Largest degree*samples a `random-baseline` run accepts, and the bound
# max_prime**2 on `fixed-points --max-prime`, whose sweep reads p-1
# residues for every prime up to it.
MAX_DENSE_CELLS = 2**25

# Largest (p-1)*(p+2+boxes) a `discrepancy` sweep accepts, the cells a
# scan of every box would read.  `count_boxes` instead builds about
# p*(p-1)/64 uint16 prefix cells and 65*65*(p-1)/64 uint8 rank cells, then
# makes 27 table reads per box: O(p**2/64 + boxes), no per-box scan.  With
# no random boxes the cap admits p = 23167, whose 46,333 boxes take about
# 0.15 s and 56 MB in `cli.main` on 2 shared cores.
MAX_SWEEP_CELLS = 2**29


def _row_blocks(m: int, n: int) -> Iterator[tuple[int, int]]:
    """[start, stop) ranges covering m rows of n cells, each block at most
    _BLOCK_CELLS cells and at least one row."""
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, m, step):
        yield start, min(start + step, m)


def random_cycle_counts(n: int, samples: int, seed: int) -> list[int]:
    """Cycle counts of the uniform permutations random_permutation(n, seed + i)
    for i = 0..samples-1, decomposed a block of samples at a time."""
    counts: list[int] = []
    for start, stop in _row_blocks(samples, n):
        images = np.stack([_random_image(n, seed + i) for i in range(start, stop)])
        rows, _ = _cycle_lengths(images)
        counts.extend(np.bincount(rows, minlength=stop - start).tolist())
    return counts


def family_cycle_lengths(p: int, generators: list[int]) -> list[tuple[int, np.ndarray]]:
    """Cycle lengths of x -> g**x on {1..p-1} for every g in `generators`.

    Every generator is g = g0**j for the smallest generator g0 and a unit
    j mod p-1, so its image table is g0's power table read at
    j*x mod (p-1) (see `numth.generator_logs`).  The tables of many
    generators are decomposed together, in blocks of at most
    _BLOCK_CELLS cells.

    Returns:
        (g, lengths) per generator, in the order given; lengths holds one
        entry per cycle, ordered by the least element of the cycle.

    Raises:
        ValueError: if p is not an odd prime or an entry of `generators`
            is not a generator mod p.
    """
    table, log = generator_logs(p, generators)
    d = p - 1
    js = log[np.array(generators, dtype=np.int64)]
    xmod = np.arange(1, p, dtype=np.int64) % d  # exponent of x = p-1 wraps to 0
    lengths: list[np.ndarray] = []
    for start, stop in _row_blocks(len(js), d):
        rows, block_lengths = _cycle_lengths(table[js[start:stop, None] * xmod % d])
        lengths.extend(np.split(block_lengths, np.searchsorted(rows, np.arange(1, stop - start))))
    return list(zip(generators, lengths))


@dataclass(frozen=True)
class FamilyStatistics:
    """Cycle statistics of the exponentiation permutations of one prime,
    over a family of generators.

    cycle_counts[i] is the number of cycles for generators[i];
    avg_k_cycles[k-1] is the mean number of k-cycles over the family.
    """

    p: int
    generators: tuple[int, ...]
    cycle_counts: tuple[int, ...]
    avg_k_cycles: tuple[float, ...]


def family_statistics(p: int, generators: list[int], k_max: int) -> FamilyStatistics:
    """Cycle statistics of the permutations x -> g**x over a generator
    family: cycle counts and k-cycle averages for k = 1..k_max.

    Raises:
        ValueError: if any entry of `generators` is not a generator mod p.
    """
    if not generators:
        raise ValueError("generator family must be nonempty")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    family = family_cycle_lengths(p, generators)
    k_totals = np.bincount(np.concatenate([lengths for _, lengths in family]), minlength=k_max + 1)
    m = len(generators)
    return FamilyStatistics(
        p=p,
        generators=tuple(generators),
        cycle_counts=tuple(len(lengths) for _, lengths in family),
        avg_k_cycles=tuple(int(k_totals[k]) / m for k in range(1, k_max + 1)),
    )


def _totients(n: int) -> np.ndarray:
    """phi[k] = Euler's totient of k for k = 0..n (phi[0] = 0), by sieve."""
    phi = np.arange(n + 1, dtype=np.int64)
    for q in range(2, n + 1):
        if phi[q] == q:  # untouched so far, so q is prime
            phi[q::q] -= phi[q::q] // q
    return phi


def fixed_point_sweep(max_prime: int) -> list[tuple[int, float]]:
    """Average fixed-point count of x -> g**x over all generators g, for
    every prime p <= max_prime.

    With d = p-1, every generator is g0**j for a unit j mod d, and x is
    fixed by it iff j*x = log x (mod d).  With h = gcd(x mod d, d), a unit
    solution j exists iff gcd(log x, d) = h, and then exactly
    phi(d)/phi(d/h) units solve it.  Summing that over x counts the fixed
    points of all phi(d) generators in O(p), exactly.

    p = 2 is included: its group is the single element {1}, the map is
    the identity on it, so the sole generator has one fixed point.
    """
    phi = _totients(max_prime)
    rows: list[tuple[int, float]] = []
    for p in range(2, max_prime + 1):
        if phi[p] != p - 1:
            continue
        if p == 2:
            rows.append((2, 1.0))
            continue
        d = p - 1
        _, log = generator_logs(p, [])
        xs = np.arange(1, p, dtype=np.int64)
        h = np.gcd(xs % d, d)
        solvable = np.gcd(log[xs], d) == h
        total = int((phi[d] // phi[d // h[solvable]]).sum())
        rows.append((p, total / int(phi[d])))
    return rows
