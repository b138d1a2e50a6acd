"""Reference permutations that the batched cycle kernel of `permstat`
is checked against: each one an explicit `Permutation` tuple, built one
at a time."""

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
    version.  `random_cycle_counts` shuffles the same way.
    """
    image = np.arange(1, n + 1)  # empty for n < 1, which Permutation rejects
    np.random.default_rng(seed).shuffle(image)
    return Permutation(n, tuple(image.tolist()))
