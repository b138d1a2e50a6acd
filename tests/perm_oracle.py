"""Reference permutations that the batched cycle kernel of `permstat`
is checked against: each one an explicit `Permutation` tuple, built one
at a time, and the orbit walk that decomposes such a permutation."""

import itertools
from math import factorial

import numpy as np

from elgamalmap.elgamal import Permutation
from elgamalmap.numth import GroupParams


def elgamal_permutation(params: GroupParams) -> Permutation:
    """The permutation x -> g**x mod p of {1, ..., p-1}."""
    p, d = params.p, params.d
    image = params.table[np.arange(1, p) % d]
    return Permutation(d, tuple(image.tolist()))


def random_permutation(n: int, seed: int) -> Permutation:
    """A uniform permutation of {1..n} from an unbiased seeded shuffle.

    The generator is numpy's PCG64 (`numpy.random.default_rng`); a given
    seed always reproduces the same permutation for a fixed numpy
    version.  `random_cycle_counts` applies the same shuffle to
    {0..n-1}, so its sample i has the cycle counts of
    random_permutation(n, seed + i).
    """
    image = np.arange(1, n + 1)  # empty for n < 1, which Permutation rejects
    np.random.default_rng(seed).shuffle(image)
    return Permutation(n, tuple(image.tolist()))


def orbit_walk_lengths(image) -> list[int]:
    """Cycle lengths of the permutation of {1..n} with 1-based image table
    `image`, by walking each orbit from its least element."""
    n = len(image)
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
    return lengths


def enumerated_cycle_distribution(n: int) -> list[float]:
    """Ground truth by walking all n! permutations of {1..n}: entry c is
    the fraction with exactly c cycles, for c = 0..n."""
    counts = [0] * (n + 1)
    for image in itertools.permutations(range(1, n + 1)):
        counts[len(orbit_walk_lengths(image))] += 1
    return [v / factorial(n) for v in counts]
