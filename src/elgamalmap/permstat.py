"""Cycle statistics of permutations and the exact random-permutation
baseline they are compared against.

Every cycle statistic comes from one kernel, `_cycle_lengths`, which
decomposes a block of image tables at once in three work arrays; the
generator family of a prime and the seeded random sample are both fed
to it in blocks of at most `_BLOCK_CELLS` cells.  Its callers reduce
each row's cycles to counts, so none depends on their order in a row.

The baseline facts: a uniform permutation of n elements has s(n,c)/n!
probability of exactly c cycles (unsigned Stirling numbers of the first
kind), H_n = 1 + 1/2 + ... + 1/n cycles on average, and 1/k cycles of
length k on average.  A seeded sampler of uniform permutations is
included for calibration runs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .elgamal import Permutation
from .numth import _prime_divisors, _smallest_generator, smallest_generator

__all__ = [
    "FamilyStatistics",
    "stirling_cycle_distribution",
    "random_permutation",
    "random_cycle_counts",
    "family_cycle_types",
    "family_statistics",
    "fixed_point_sweep",
]


def _cycle_lengths(
    m: int, n: int, fill: Callable[[int, int, np.ndarray, np.ndarray], None]
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Cycle lengths of m permutations of {1..n}, n >= 1, decomposed a
    block of `_block_rows(m, n)` rows at a time.

    fill(start, stop, out, scratch) writes the 1-based image tables of
    rows [start, stop) into the int64 array `out` of shape
    (stop - start, n).  Each row must be a bijection on {1..n}: with row
    offsets added, the block's images must hit every one of its cells.
    Orbits are then labeled by pointer doubling: after ceil(log2 n) rounds
    of label = min(label, label[succ]); succ = succ[succ], each element
    carries the least element of its cycle, and the cycle lengths are the
    label counts at the elements that are their own label.

    The three work arrays are allocated once per call and every step
    writes into them, so no block allocates or frees an array of its size.
    `scratch`, shaped like `out`, is the gather buffer, free for fill to use.

    Yields:
        (rows, row, length) per block of `rows` permutations: one entry per
        cycle, ordered by row within the block (within a row, by the least
        element of the cycle, which no caller relies on).

    Raises:
        ValueError: if a row is not a bijection on {1..n}.
    """
    step = _block_rows(m, n)
    succ, work, label = (np.empty(step * n, dtype=np.int64) for _ in range(3))
    for start in range(0, m, step):
        rows = min(step, m - start)
        s, w, lab = (a[: rows * n] for a in (succ, work, label))
        fill(start, start + rows, s.reshape(rows, n), w.reshape(rows, n))
        if s.min() < 1 or s.max() > n:
            raise ValueError("image is not a bijection on {1..n}")
        for r in range(rows):  # no broadcast, so numpy allocates no iteration buffer
            s[r * n : (r + 1) * n] += r * n - 1  # to 0-based cells of the block
        lab.fill(-1)
        lab[s] = s  # the identity iff the images hit every cell
        if lab.min() < 0:
            raise ValueError("image is not a bijection on {1..n}")
        for _ in range((n - 1).bit_length()):
            # mode="clip" writes into `out` in place ("raise" copies it); no index is out of range
            np.take(lab, s, out=w, mode="clip")
            np.minimum(lab, w, out=lab)
            np.take(s, s, out=w, mode="clip")
            s, w = w, s
        w.fill(0)
        np.add.at(w, lab, 1)  # nonzero exactly at each cycle's least element
        roots = np.flatnonzero(w)
        yield rows, roots // n, w[roots]


def stirling_cycle_distribution(n: int) -> np.ndarray:
    """Exact distribution of the number of cycles of a uniform permutation:
    the float64 array probs with probs[c] the probability of exactly c
    cycles, for c in [1, n], and probs[0] = 0.

    The count of cycles is a sum of independent Bernoulli(1/i) variables
    for i = 1..n, so the distribution follows the recurrence

        P_m(c) = P_{m-1}(c-1) / m + P_{m-1}(c) * (1 - 1/m)

    starting from P_1(1) = 1.  Computed in doubles; probabilities below
    the underflow threshold clamp to zero, and each step skips that
    all-zero upper tail.  The values s(n,c)/n! agree with the
    unsigned-Stirling-number definition.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    probs = np.zeros(n + 1)
    probs[1] = 1.0
    top = 1  # probs[c] is exactly 0.0 for every c > top, so each step skips them
    for m in range(2, n + 1):
        q = 1.0 / m
        probs[1 : top + 2] = probs[0 : top + 1] * q + probs[1 : top + 2] * (1.0 - q)
        if probs[top + 1] != 0.0:
            top += 1
    return probs


def random_permutation(n: int, seed: int) -> Permutation:
    """A uniform permutation of {1..n} from an unbiased seeded shuffle.

    The generator is numpy's PCG64 (`numpy.random.default_rng`); a given
    seed always reproduces the same permutation for a fixed numpy
    version.  `random_cycle_counts` shuffles the same way.
    """
    image = np.arange(1, n + 1)  # empty for n < 1, which Permutation rejects
    np.random.default_rng(seed).shuffle(image)
    return Permutation(n, tuple(image.tolist()))


# Cells (rows x degree) per block of the cycle kernel: the most that keeps
# each int64 work array below glibc's 128 KiB default mmap threshold, so it
# comes from the heap whatever the import left the threshold at (mapping
# 2**14-cell arrays once per block took 42,000 minor page faults at p = 4001).
# 2**13 cells slowed `cycle-dist --prime 4001` from 0.44 to 0.51 s; 2**16
# ran no faster and raised its peak RSS from 30.3 to 32.3 MB.
_BLOCK_CELLS = 2**14 - 16


def _block_rows(m: int, n: int) -> int:
    """Rows per block of m rows of n cells: at most _BLOCK_CELLS cells and
    at least one row."""
    return max(1, min(m, _BLOCK_CELLS // n))


def random_cycle_counts(n: int, samples: int, seed: int) -> list[int]:
    """Cycle counts of the uniform permutations random_permutation(n, seed + i)
    for i = 0..samples-1, decomposed a block of samples at a time."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    identity = np.arange(1, n + 1)

    def fill(start: int, stop: int, out: np.ndarray, _: np.ndarray) -> None:
        for i, row in enumerate(out, start):
            row[:] = identity
            np.random.default_rng(seed + i).shuffle(row)

    counts: list[int] = []
    for m, rows, _ in _cycle_lengths(samples, n, fill):
        counts.extend(np.bincount(rows, minlength=m).tolist())
    return counts


def _family_blocks(p: int, generators: list[int]) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """`_cycle_lengths` of the generators' image tables, in the order given:
    g = g0**j, for the smallest generator g0 and a unit j mod p-1
    (`GroupParams.exponents`), reads g0's one power table at j*x mod (p-1),
    and x and the products j*x live in the kernel's gather buffer."""
    g0 = smallest_generator(p)
    d, js = g0.d, g0.exponents(generators)

    def fill(start: int, stop: int, out: np.ndarray, scratch: np.ndarray) -> None:
        x = scratch[-1]  # x = 1..p-1 as a running sum, multiplied in place last
        x.fill(1)
        np.cumsum(x, out=x)
        for row, j in zip(scratch, js[start:stop]):
            np.multiply(x, j, out=row)
        np.remainder(scratch, d, out=scratch)  # x = p-1 reduces to exponent 0
        np.take(g0.table, scratch, out=out, mode="clip")  # scratch < d

    return _cycle_lengths(len(js), d, fill)


def family_cycle_types(p: int, generators: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cycle type of x -> g**x on {1..p-1} for every g in `generators`.

    Returns:
        (index, length, count): int64 columns with one row per distinct
        cycle length of generators[index], ordered by index and within an
        index longest cycle first; count is the number of cycles of that
        length, so the lengths times the counts of an index sum to p-1.

    Raises:
        ValueError: if p is not an odd prime or an entry of `generators`
            is not a generator mod p.
    """
    blocks, start = [np.empty((2, 0), dtype=np.int64)], 0  # no generators, no rows
    for m, rows, lengths in _family_blocks(p, generators):
        # every length is below p, so one code sorts by row, then longest first
        blocks.append(np.unique((start + rows) * p + p - lengths, return_counts=True))
        start += m
    code, count = np.concatenate(blocks, axis=1)
    return code // p, p - code % p, count


@dataclass(frozen=True)
class FamilyStatistics:
    """Cycle statistics of the exponentiation permutations of one prime,
    over a family of generators.

    cycle_counts[i] is the number of cycles for the i-th generator given;
    avg_k_cycles[k-1] is the mean number of k-cycles over the family.
    """

    cycle_counts: tuple[int, ...]
    avg_k_cycles: tuple[float, ...]


def family_statistics(p: int, generators: list[int], k_max: int) -> FamilyStatistics:
    """Cycle statistics of the permutations x -> g**x over a generator
    family: cycle counts and k-cycle averages for k = 1..k_max.

    Both are counted a block of generators at a time and keep no length
    array per generator, which saves 0.2 MB of peak RSS at p = 4001.

    Raises:
        ValueError: if any entry of `generators` is not a generator mod p.
    """
    if not generators:
        raise ValueError("generator family must be nonempty")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    cycle_counts: list[int] = []
    k_totals = np.zeros(k_max + 1, dtype=np.int64)
    for m, rows, lengths in _family_blocks(p, generators):
        cycle_counts.extend(np.bincount(rows, minlength=m).tolist())
        k_totals += np.bincount(lengths, minlength=k_max + 1)[: k_max + 1]
    return FamilyStatistics(
        cycle_counts=tuple(cycle_counts),
        avg_k_cycles=tuple(int(k_totals[k]) / len(generators) for k in range(1, k_max + 1)),
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
        log = _smallest_generator(p).log  # the sieve has proved p prime
        gcd_d = np.ones(d, dtype=np.int64)  # gcd_d[r] = gcd(r, d)
        for q in _prime_divisors(d):
            qk = q
            while d % qk == 0:
                gcd_d[::qk] *= q
                qk *= q
        h = np.roll(gcd_d, -1)  # h[x-1] = gcd(x mod d, d) for x = 1..d
        solvable = gcd_d[log[1:]] == h
        total = int((phi[d] // phi[d // h[solvable]]).sum())
        rows.append((p, total / int(phi[d])))
    return rows
