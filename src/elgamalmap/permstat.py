"""Cycle statistics of permutations and the exact random-permutation
baseline they are compared against.

Every cycle statistic comes from one kernel, `_cycle_lengths`, which
decomposes a block of 0-based image tables at once in three work
arrays; the generator family of a prime, in a conjugate form with the
same cycle types, and the seeded random sample are both fed to it in
blocks of at most `_BLOCK_CELLS` cells.  Its callers reduce each row's
cycles to counts, so none depends on their order in a row.  Every
function returns numpy columns: cycle types, cycle counts (of the family
or of a seeded sample), k-cycle means, the exact law, fixed-point means.

The baseline facts: a uniform permutation of n elements has s(n,c)/n!
probability of exactly c cycles (unsigned Stirling numbers of the first
kind), H_n = 1 + 1/2 + ... + 1/n cycles on average, and 1/k cycles of
length k on average.  `random_cycle_counts` samples seeded uniform
permutations for calibration runs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from .numth import GroupParams, _exponent_gcds, _smallest_generator, smallest_generator

DIST_MAX_CYCLES = 20  # cycle-count tables truncate here

__all__ = [
    "stirling_cycle_distribution",
    "random_cycle_counts",
    "family_cycle_types",
    "family_statistics",
    "fixed_point_sweep",
]


def _cycle_lengths(
    m: int, n: int, fill: Callable[[int, int, np.ndarray, np.ndarray], None]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Cycle lengths of m permutations of {0..n-1}, n >= 1, decomposed a
    block of `_block_rows(m, n)` rows at a time.

    fill(start, stop, out, scratch) writes the 0-based image tables of
    rows [start, stop) into the int64 array `out` of shape
    (stop - start, n).  Each row must be a bijection on {0..n-1}: with row
    offsets added, the block's images must hit every one of its cells.
    After r rounds of label = min(label, label[succ]); succ = succ[succ],
    succ is pi**W (W = 2**r) and each cell carries the least cell of its
    window of W steps.  Each distinct label then walks ceil(n/W) - 1 hops
    of pi**W, whose windows tile its whole cycle, to the least label met:
    the cycle's least cell, where the label counts sum to its length.
    r = max(ceil(log2 n) - 5, ceil(ceil(log2 n) / 2)) keeps a walk within
    31 hops (README, "Conventions").  A random row has about 2n/W labels;
    the identity, every cell a label, is the worst case.

    The three work arrays are allocated once per call and every step
    writes into them, so no block allocates or frees an array of its size.
    `scratch`, shaped like `out`, is the gather buffer, free for fill to use.

    Yields:
        (row, length) per block: one entry per cycle, row being the index
        in [0, m) of its permutation, ordered by row (within a row, by the
        least cell of the cycle, which no caller relies on).

    Raises:
        ValueError: if a row is not a bijection on {0..n-1}.
    """
    step = _block_rows(m, n)
    succ, work, label = (np.empty(step * n, dtype=np.int64) for _ in range(3))
    bits = (n - 1).bit_length()
    rounds = max(bits - 5, (bits + 1) // 2)
    hops = -(-n >> rounds) - 1  # ceil(n / W) - 1
    for start in range(0, m, step):
        rows = min(step, m - start)
        s, w, lab = (a[: rows * n] for a in (succ, work, label))
        fill(start, start + rows, s.reshape(rows, n), w.reshape(rows, n))
        if s.min() < 0 or s.max() >= n:
            raise ValueError("image is not a bijection on {0..n-1}")
        for r in range(1, rows):  # no broadcast, so numpy allocates no iteration buffer
            s[r * n : (r + 1) * n] += r * n  # to cells of the block
        lab.fill(-1)
        lab[s] = s  # the identity iff the images hit every cell
        if lab.min() < 0:
            raise ValueError("image is not a bijection on {0..n-1}")
        for _ in range(rounds):
            # mode="clip" writes into `out` in place ("raise" copies it); no index is out of range
            np.take(lab, s, out=w, mode="clip")
            np.minimum(lab, w, out=lab)
            np.take(s, s, out=w, mode="clip")
            s, w = w, s
        w.fill(0)
        np.add.at(w, lab, 1)  # nonzero exactly at the labels
        labels = np.flatnonzero(w)
        cells = w[labels]
        w[labels] = 0
        least, at = lab[labels], labels
        for _ in range(hops):
            at = s[at]
            np.minimum(least, lab[at], out=least)
        np.add.at(w, least, cells)
        roots = labels[least == labels]  # a cycle's least cell is its own label
        yield start + roots // n, w[roots]


def stirling_cycle_distribution(n: int) -> np.ndarray:
    """Exact distribution of the number of cycles of a uniform permutation
    of degree n: the float64 array probs with probs[c] the probability of
    exactly c cycles, for c in [1, min(n, DIST_MAX_CYCLES)], and probs[0] = 0.

    The count of cycles is a sum of independent Bernoulli(1/i) variables
    for i = 1..n, so the distribution follows the recurrence

        P_m(c) = P_{m-1}(c-1) / m + P_{m-1}(c) * (1 - 1/m)

    starting from P_1(1) = 1.  Entry c reads entries c-1 and c only, so the
    kept prefix is the full recurrence's, byte for byte.  Computed in
    doubles, underflow clamping to zero; the values s(n,c)/n! agree with
    the unsigned-Stirling-number definition.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    probs = np.zeros(min(n, DIST_MAX_CYCLES) + 1)
    probs[1] = 1.0
    for m in range(2, n + 1):
        q = 1.0 / m
        probs[1:] = probs[:-1] * q + probs[1:] * (1.0 - q)
    return probs


# Cells (rows x degree) per block of the cycle kernel: the most that keeps
# each int64 work array below glibc's 128 KiB default mmap threshold, so it
# comes from the heap whatever the import left the threshold at (mapping
# 2**14-cell arrays once per block took 42,000 minor page faults at p = 4001).
# 2**13 cells slowed `family_statistics(4001, 20)` from 0.16 to 0.18 s;
# 2**16 took 0.15 s but raised the peak RSS of `cycle-dist --prime 4001`
# from 29.6 to 31.0 MB.
_BLOCK_CELLS = 2**14 - 16


def _block_rows(m: int, n: int) -> int:
    """Rows per block of m rows of n cells: at most _BLOCK_CELLS cells and
    at least one row."""
    return max(1, min(m, _BLOCK_CELLS // n))


def random_cycle_counts(n: int, samples: int, seed: int) -> np.ndarray:
    """The int64 column of the cycle counts of `samples` uniform
    permutations of {0..n-1}, decomposed a block of samples at a time.

    Sample i is an unbiased shuffle of the identity by numpy's PCG64
    (`numpy.random.default_rng(seed + i)`), so a given seed always
    reproduces the same counts for a fixed numpy version, those of
    `perm_oracle.random_permutation(n, seed + i)`, its shuffle of {1..n}.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    identity = np.arange(n)

    def fill(start: int, stop: int, out: np.ndarray, _: np.ndarray) -> None:
        for i, row in enumerate(out, start):
            row[:] = identity
            np.random.default_rng(seed + i).shuffle(row)

    counts = np.zeros(samples, dtype=np.int64)
    for row, _ in _cycle_lengths(samples, n, fill):
        np.add.at(counts, row, 1)
    return counts


def _family_blocks(g0: GroupParams, js: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`_cycle_lengths` of g0**j for the units j mod p-1 in `js`, in order,
    each as e -> j*table[e] mod (p-1) on {0..p-2}: x -> g0**(j*x)
    conjugated by multiplication by j, so of the same cycle type.  The
    quotients mod p-1 live in the kernel's gather buffer."""

    def fill(start: int, stop: int, out: np.ndarray, scratch: np.ndarray) -> None:
        np.multiply.outer(js[start:stop], g0.table, out=out)
        # out - out // d * d, faster than np.remainder
        np.floor_divide(out, g0.d, out=scratch)
        np.multiply(scratch, g0.d, out=scratch)
        np.subtract(out, scratch, out=out)

    return _cycle_lengths(len(js), g0.d, fill)


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
    g0 = smallest_generator(p)
    blocks = [np.empty((2, 0), dtype=np.int64)]  # no generators, no rows
    for row, lengths in _family_blocks(g0, g0.exponents(generators)):
        # every length is below p, so one code sorts by row, then longest first
        blocks.append(np.unique(row * p + p - lengths, return_counts=True))
    code, count = np.concatenate(blocks, axis=1)
    return code // p, p - code % p, count


def family_statistics(p: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Cycle statistics of x -> g**x over the family g = g0**j of all
    phi(p-1) generators of the odd prime p, g0 the smallest and j the units
    mod p-1 in ascending order, counted a block at a time with no length
    array per generator (reducing `family_cycle_types` instead took 0.6 MB
    more peak RSS at p = 4001).

    Returns:
        (cycle_counts, avg_k_cycles): cycle_counts[i], int64, is the number
        of cycles of g0**j for the i-th unit j; avg_k_cycles[k-1], float64,
        is the mean number of k-cycles for k = 1..k_max, 0 past p-1.

    Raises:
        ValueError: if p is not an odd prime or k_max < 1.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    g0 = smallest_generator(p)
    js = np.flatnonzero(_exponent_gcds(g0.d) == 1)
    cycle_counts = np.zeros(len(js), dtype=np.int64)
    k_totals = np.zeros(k_max + 1, dtype=np.int64)
    for row, lengths in _family_blocks(g0, js):
        np.add.at(cycle_counts, row, 1)
        k_totals += np.bincount(lengths, minlength=k_max + 1)[: k_max + 1]
    # divide, then slice: dividing a 1-element array (k_max = 1) maps 64 KB more numpy code
    return cycle_counts, (k_totals / len(js))[1:]


def _totients(n: int) -> np.ndarray:
    """phi[k] = Euler's totient of k for k = 0..n (phi[0] = 0), by sieve."""
    phi = np.arange(n + 1, dtype=np.int64)
    for q in range(2, n + 1):
        if phi[q] == q:  # untouched so far, so q is prime
            phi[q::q] -= phi[q::q] // q
    return phi


def fixed_point_sweep(max_prime: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 column of the primes p <= max_prime and the float64 column
    of the average fixed-point count of x -> g**x over all generators g.

    With d = p-1, every generator is g0**j for a unit j mod d, and
    x = g0**e is fixed by it iff j*x = e (mod d).  With h = gcd(x mod d,
    d), a unit solution j exists iff gcd(e, d) = h, and then exactly
    phi(d)/phi(d/h) units solve it.  Summing that over g0's table counts
    the fixed points of all phi(d) generators in O(p), exactly.

    p = 2 is included: its group is the single element {1}, the map is
    the identity on it, so the sole generator has one fixed point.
    """
    phi = _totients(max_prime)
    primes = np.flatnonzero(phi == np.arange(-1, max_prime))  # phi(p) = p-1 iff p is prime
    means = (_mean_fixed_points(p, phi) for p in map(int, primes))
    return primes, np.fromiter(means, np.float64, len(primes))


def _mean_fixed_points(p: int, phi: np.ndarray) -> float:
    """fixed_point_sweep's mean at p, which the totient sieve phi has proved
    prime; its arrays are freed on return, before the next prime's are built."""
    if p == 2:
        return 1.0
    d = p - 1
    gcd_d = _exponent_gcds(d)  # gcd_d[r] = gcd(r, d)
    h = gcd_d[_smallest_generator(p).table % d]  # h[e] = gcd(x mod d, d) for x = g0**e
    solvable = h[gcd_d == h]  # the h of the e with a unit solution j
    return int((phi[d] // phi[d // solvable]).sum()) / int(phi[d])
