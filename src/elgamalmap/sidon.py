"""The graph of the exponentiation map as a point set in Z_p x Z_{p-1}.

The set {(g**x mod p, x) : x in Z_{p-1}} is a Sidon set: every nonzero
element of the product group arises as a difference of two points at
most once.  This module verifies that by exhaustive difference counting,
measures the difference-set cardinality (which must be
(p-1)**2 - (p-1) + 1), evaluates additive characters of the product
group against the point set, and computes the incomplete exponential
sums that control box equidistribution.

Exponents are the residues {0, ..., p-2} of Z_{p-1}, the index set of
`numth.power_table`; the permutation module reads the same table at
x mod p-1 for x in {1, ..., p-1}.  Points are ordered
(group element, exponent), i.e. the Z_p coordinate first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numth import GroupParams, power_table

__all__ = [
    "MAX_DENSE_CELLS",
    "SidonGraph",
    "CharacterIndex",
    "SidonCheck",
    "build_graph",
    "point_set",
    "verify_sidon",
    "character_sum",
    "max_nontrivial_character_sum",
    "incomplete_exponential_sum_total",
    "incomplete_exponential_sum_profile",
    "polya_vinogradov_bound",
    "sidon_character_bound",
]

Point = tuple[int, int]


@dataclass(frozen=True, eq=False)
class SidonGraph:
    """A point set in Z_p x Z_{p-1}, held as parallel coordinate arrays.

    Genuine graphs from `build_graph` contain exactly the p-1 points
    (g**x, x) for x = 0..p-2; `point_set` wraps arbitrary collections so
    that the failure path of `verify_sidon` can be exercised (g is 0 for
    those).
    """

    p: int
    g: int
    first: np.ndarray  # Z_p coordinates
    second: np.ndarray  # Z_{p-1} coordinates

    @property
    def d(self) -> int:
        """Order of the second factor, p - 1."""
        return self.p - 1

    @property
    def size(self) -> int:
        return len(self.first)

    @property
    def points(self) -> list[Point]:
        return [(int(u), int(v)) for u, v in zip(self.first, self.second)]


def build_graph(params: GroupParams) -> SidonGraph:
    """The p-1 points (g**x, x), x ascending from 0."""
    p, g, d = params.p, params.g, params.d
    return SidonGraph(p=p, g=g, first=power_table(p, g), second=np.arange(d, dtype=np.int64))


def point_set(p: int, points: list[Point]) -> SidonGraph:
    """Wrap an arbitrary list of distinct points of Z_p x Z_{p-1}.

    Intended for tests: graphs from `build_graph` never fail
    `verify_sidon`, so synthetic sets are the only way to see a witness.
    """
    if p < 3:
        raise ValueError(f"ambient group needs p >= 3, got {p}")
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    d = p - 1
    for u, v in points:
        if not (0 <= u < p and 0 <= v < d):
            raise ValueError(f"point ({u}, {v}) outside Z_{p} x Z_{d}")
    arr = np.asarray(points, dtype=np.int64).reshape(len(points), 2)
    return SidonGraph(p=p, g=0, first=arr[:, 0].copy(), second=arr[:, 1].copy())


# Largest dense array, in cells, the CLI runs the O(p**2) kernels on:
# p*(p-1) for the difference counts and the character-sum grid, n*N for
# the incomplete-sum root table.  p = 5791 is the largest prime inside.
MAX_DENSE_CELLS = 2**25


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

    Exhaustive over all size**2 ordered pairs, with differences encoded
    as u*(p-1) + v and counted in one `bincount` (the zero difference,
    realized exactly `size` times on the diagonal, is exempt).  On
    failure the reported witness is the smallest colliding difference in
    (u, v) lexicographic order, realized by its first two ordered pairs
    in row-major order.
    """
    p, d = graph.p, graph.d
    codes = (graph.first[:, None] - graph.first[None, :]) % p
    codes *= d
    codes += (graph.second[:, None] - graph.second[None, :]) % d
    codes = codes.ravel()
    counts = np.bincount(codes, minlength=p * d)
    diff_set_size = int(np.count_nonzero(counts))
    collisions = np.flatnonzero(counts[1:] > 1)
    if len(collisions) == 0:
        return SidonCheck(ok=True, diff_set_size=diff_set_size)
    pts = graph.points
    (i, j), (k, l) = (
        divmod(int(pos), graph.size) for pos in np.flatnonzero(codes == collisions[0] + 1)[:2]
    )
    witness = ((pts[i], pts[j]), (pts[k], pts[l]))
    return SidonCheck(ok=False, diff_set_size=diff_set_size, witness=witness)


@dataclass(frozen=True)
class CharacterIndex:
    """Index (s, t) of the additive character
    (x, y) -> exp(2*pi*i*(s*x/p + t*y/(p-1))) of Z_p x Z_{p-1}.

    The character is trivial iff s = 0 and t = 0.
    """

    s: int
    t: int

    @property
    def is_trivial(self) -> bool:
        return self.s == 0 and self.t == 0


def _roots_of_unity(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def character_sum(graph: SidonGraph, chi: CharacterIndex) -> float:
    """|sum over points of exp(2*pi*i*(s*x/p + t*y/(p-1)))|.

    Phases are reduced to exact integer indices into root-of-unity
    tables before exponentiation, so no precision is lost to large
    arguments.
    """
    p, d = graph.p, graph.d
    if not (0 <= chi.s < p and 0 <= chi.t < d):
        raise ValueError(f"character index ({chi.s}, {chi.t}) outside [0,{p}) x [0,{d})")
    wp = _roots_of_unity(p)
    wd = _roots_of_unity(d)
    terms = wp[(chi.s * graph.first) % p] * wd[(chi.t * graph.second) % d]
    return float(abs(terms.sum()))


def max_nontrivial_character_sum(graph: SidonGraph) -> tuple[float, CharacterIndex]:
    """Largest character-sum magnitude over all p*(p-1) - 1 nontrivial
    characters, with its index.

    All magnitudes are obtained at once as the 2-D discrete Fourier
    transform of the point set's indicator array on the Z_p x Z_{p-1}
    grid; entry (s, t) of the transform is the conjugate of the
    character sum, so the magnitudes are identical.  The index is the
    first in row-major order (smallest s, then t) whose magnitude lies
    within a relative 1e-9 of the maximum: for a genuine graph every
    (s, t) with s, t != 0 has magnitude sqrt(p), so the exact argmax
    would be picked by rounding noise, and this rule gives (1, 1).
    """
    p, d = graph.p, graph.d
    indicator = np.zeros((p, d))
    indicator[graph.first, graph.second] = 1.0
    magnitudes = np.abs(np.fft.fft2(indicator))
    magnitudes[0, 0] = -1.0  # exclude the trivial character
    peak = float(magnitudes.max())
    s, t = divmod(int(np.argmax(magnitudes >= peak * (1.0 - 1e-9))), d)
    return peak, CharacterIndex(s, t)


def incomplete_exponential_sum_total(n: int, N: int, h: int) -> float:
    """sum over a in [0, n) of |sum over the window x in [h, h+N) of
    exp(2*pi*i*a*x/n)|.

    The window length N must satisfy 1 <= N < n; the start h may be any
    integer (only x mod n matters).
    """
    _check_window(n, N)
    w = _roots_of_unity(n)
    a = np.arange(n, dtype=np.int64)
    x = (h % n + np.arange(N, dtype=np.int64)) % n
    inner = w[(a[:, None] * x[None, :]) % n].sum(axis=1)
    return float(np.abs(inner).sum())


def incomplete_exponential_sum_profile(n: int, h: int) -> np.ndarray:
    """The totals for every window length at once: entry N-1 equals
    incomplete_exponential_sum_total(n, N, h) for N = 1..n-1.

    Computed by accumulating the window sums column by column, an
    independent route from the direct per-N evaluation.
    """
    _check_window(n, 1)
    w = _roots_of_unity(n)
    a = np.arange(n, dtype=np.int64)
    x = (h % n + np.arange(n - 1, dtype=np.int64)) % n
    partial = np.cumsum(w[(a[:, None] * x[None, :]) % n], axis=1)
    return np.abs(partial).sum(axis=0)


def _check_window(n: int, N: int) -> None:
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if not 1 <= N < n:
        raise ValueError(f"window length must satisfy 1 <= N < n, got N={N}, n={n}")


def polya_vinogradov_bound(n: int) -> float:
    """The bound 5 * n * ln(n) the totals stay under."""
    return 5.0 * n * math.log(n)


def sidon_character_bound(p: int) -> float:
    """The bound sqrt(3*(p-1)) every nontrivial character sum of a
    genuine graph stays under."""
    return math.sqrt(3.0 * (p - 1))
