"""The graph of the exponentiation map as a point set in Z_p x Z_{p-1}.

The set {(g**x mod p, x) : x in Z_{p-1}} is a Sidon set: every nonzero
element of the product group arises as a difference of two points at
most once.  This module verifies that by exhaustive difference counting,
measures the difference-set cardinality (which must be
(p-1)**2 - (p-1) + 1), evaluates additive characters of the product
group against the point set, and computes the incomplete exponential
sums that control box equidistribution.

The difference count reads all (p-1)**2 ordered pairs, one block of
exponent lags at a time, in O(p) memory.  The largest character sums of
a whole generator family are one length-(p-1) FFT and the incomplete-sum
total one O(n) pass over closed forms.

Exponents are the residues {0, ..., p-2} of Z_{p-1}, the index set of
`numth.power_table`; the permutation module reads the same table at
x mod p-1 for x in {1, ..., p-1}, and generator families read the
smallest generator's one table.  Points are (group element, exponent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numth import generator_logs
from .permstat import _row_blocks

__all__ = [
    "SidonGraph",
    "CharacterIndex",
    "SidonCheck",
    "build_graphs",
    "verify_sidon",
    "max_nontrivial_character_sums",
    "incomplete_exponential_sum_total",
    "polya_vinogradov_bound",
    "sidon_character_bound",
]

Point = tuple[int, int]


@dataclass(frozen=True, eq=False)
class SidonGraph:
    """The graph {(first[x], x) : x in Z_{p-1}} of a table
    first: Z_{p-1} -> Z_p, one point per exponent.

    Genuine graphs from `build_graphs` hold the power table of g; any
    other table of p-1 values in [0, p) may be wrapped directly, so that
    the failure path of `verify_sidon` can be exercised.
    """

    p: int
    g: int
    first: np.ndarray  # first[x] is the Z_p coordinate of exponent x

    def __post_init__(self) -> None:
        if self.p < 3 or len(self.first) != self.p - 1:
            raise ValueError(f"need p >= 3 and p-1 table values, got p={self.p}, {len(self.first)}")
        if self.first.min() < 0 or self.first.max() >= self.p:
            raise ValueError(f"table values must lie in [0, {self.p})")

    @property
    def d(self) -> int:
        """Order of the exponent group Z_{p-1}."""
        return self.p - 1

    @property
    def size(self) -> int:
        return len(self.first)

    @property
    def points(self) -> list[Point]:
        return [(int(u), v) for v, u in enumerate(self.first)]


def build_graphs(p: int, generators: list[int]) -> list[SidonGraph]:
    """The p-1 points (g**x, x), x ascending from 0, for every g in
    `generators`, in the order given: g = g0**j reads the smallest
    generator g0's one table at j*x mod (p-1)."""
    table, log = generator_logs(p, generators)
    x = np.arange(p - 1, dtype=np.int64)
    return [SidonGraph(p=p, g=g, first=table[int(log[g]) * x % (p - 1)]) for g in generators]


@dataclass(frozen=True)
class SidonCheck:
    """Outcome of the exhaustive difference count.

    `diff_set_size` is the cardinality of {a - b : a, b in the set},
    zero difference included; for a genuine exponentiation graph it is
    (p-1)**2 - (p-1) + 1.  On failure, `witness` holds two distinct
    ordered point pairs ((a, b), (c, d)) with a - b = c - d != 0
    componentwise mod (p, p-1).
    """

    ok: bool
    diff_set_size: int
    witness: tuple[tuple[Point, Point], tuple[Point, Point]] | None = None


def verify_sidon(graph: SidonGraph) -> SidonCheck:
    """Count, for every difference, the ordered point pairs realizing
    it; the set is Sidon iff every nonzero difference is realized at
    most once.

    The graph has one point per exponent, so the pairs at exponent lag
    v realize the differences (t[(y+v) mod d] - t[y] mod p, v) over y,
    and lag 0 realizes only the zero difference.  Each block of lags
    v = 1..d-1 (at most _BLOCK_CELLS pairs) is counted by one
    `bincount` of lag_index*p + u, which stays exhaustive over all
    size**2 ordered pairs in O(p) memory.  On failure the witness is the
    first colliding difference in (v, u) lexicographic order, realized
    by its two smallest y.
    """
    p, d, t = graph.p, graph.d, graph.first
    shifted = np.lib.stride_tricks.sliding_window_view(np.concatenate([t, t]), d)
    diff_set_size = 1  # the zero difference
    witness = None
    for start, stop in _row_blocks(d - 1, d):
        codes = (shifted[start + 1 : stop + 1] - t) % p
        codes += np.arange(0, (stop - start) * p, p)[:, None]
        counts = np.bincount(codes.ravel(), minlength=(stop - start) * p)
        diff_set_size += int(np.count_nonzero(counts))
        collisions = np.flatnonzero(counts > 1)
        if witness is None and len(collisions):
            row = int(collisions[0]) // p
            v, pts = start + 1 + row, graph.points
            y1, y2 = np.flatnonzero(codes[row] == collisions[0])[:2].tolist()
            witness = ((pts[(y1 + v) % d], pts[y1]), (pts[(y2 + v) % d], pts[y2]))
    return SidonCheck(ok=witness is None, diff_set_size=diff_set_size, witness=witness)


@dataclass(frozen=True)
class CharacterIndex:
    """Index (s, t) of the additive character
    (x, y) -> exp(2*pi*i*(s*x/p + t*y/(p-1))) of Z_p x Z_{p-1}.

    The character is trivial iff s = 0 and t = 0.
    """

    s: int
    t: int


def max_nontrivial_character_sums(p: int, generators: list[int]) -> list[tuple]:
    """(g, value, index) for every g in `generators`, in the order given:
    the largest character-sum magnitude over all p*(p-1) - 1 nontrivial
    characters of the graph of x -> g**x, and its CharacterIndex.

    Shifting x by k maps the sum at (s, t) to the one at (s*g**k, t)
    times a unit phase, so every row s != 0 has the magnitudes of row 1,
    and row 0 is exactly 0 for t != 0.  Row 1 is one length-(p-1) FFT of
    exp(2*pi*i*g**x/p); its entries for t != 0 are Gauss sums of
    magnitude sqrt(p) (Ireland and Rosen, ch. 8).  For g = g0**j the
    row of g at t is the row of the smallest generator g0 at t*j**-1
    mod p-1, so one FFT serves the family and every g gets the same
    float.  The index is (1, t) for the first t whose magnitude lies
    within a relative 1e-9 of the maximum, which is (1, 1): the first
    index in row-major order of the full grid, picked by a rule rather
    than by rounding noise.
    """
    table, log = generator_logs(p, generators)
    row = np.abs(np.fft.fft(np.exp(2j * np.pi * table / p)))
    peak = float(row.max())
    near = row >= peak * (1.0 - 1e-9)
    inverses = [pow(int(log[g]), -1, p - 1) for g in generators]
    return [
        (g, peak, CharacterIndex(1, next(t for t in range(p - 1) if near[t * k % (p - 1)])))
        for g, k in zip(generators, inverses)
    ]


def incomplete_exponential_sum_total(n: int, N: int) -> float:
    """sum over a in [0, n) of |sum over a window x in [h, h+N) of
    exp(2*pi*i*a*x/n)|, for any start h.

    The window length N must satisfy 1 <= N < n.  Each inner sum is a
    geometric series of magnitude N at a = 0 and
    |sin(pi*(a*N mod n)/n) / sin(pi*a/n)| otherwise, so the total takes
    O(n) and does not depend on h.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if not 1 <= N < n:
        raise ValueError(f"window length must satisfy 1 <= N < n, got N={N}, n={n}")
    a = np.arange(1, n, dtype=np.int64)
    return N + float(np.abs(np.sin(np.pi * (a * N % n) / n) / np.sin(np.pi * a / n)).sum())


def polya_vinogradov_bound(n: int) -> float:
    """The bound 5 * n * ln(n) the totals stay under."""
    return 5.0 * n * math.log(n)


def sidon_character_bound(p: int) -> float:
    """The bound sqrt(3*(p-1)) every nontrivial character sum of a
    genuine graph stays under."""
    return math.sqrt(3.0 * (p - 1))
