"""The graph of the exponentiation map as a point set in Z_p x Z_{p-1}.

The set {(g**x mod p, x) : x in Z_{p-1}} is a Sidon set: every nonzero
element of the product group arises as a difference of two points at
most once.  This module verifies that by exhaustive difference counting,
measures the difference-set cardinality (which must be
(p-1)**2 - (p-1) + 1), evaluates additive characters of the product
group against the point set, and computes the incomplete exponential
sums that control box equidistribution.

The difference count is the one dense O(p**2) kernel.  The largest
character sum is one length-(p-1) FFT and the incomplete-sum total one
O(n) pass over closed forms.

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


# Largest dense array, in cells, the CLI builds: p*(p-1) difference
# codes for `verify_sidon` (p = 5791 is the largest prime inside) and
# degree*samples for the random cycle baseline.
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


def max_nontrivial_character_sum(params: GroupParams) -> tuple[float, CharacterIndex]:
    """Largest character-sum magnitude over all p*(p-1) - 1 nontrivial
    characters of the graph of x -> g**x, with its index.

    Shifting x by k maps the sum at (s, t) to the one at (s*g**k, t)
    times a unit phase, so every row s != 0 has the magnitudes of row 1,
    and row 0 is exactly 0 for t != 0.  Row 1 is one length-(p-1) FFT of
    exp(2*pi*i*g**x/p); its entries for t != 0 are Gauss sums of
    magnitude sqrt(p) (Ireland and Rosen, ch. 8).  The index is (1, t)
    for the first t whose magnitude lies within a relative 1e-9 of the
    maximum, which is (1, 1): the first index in row-major order of the
    full grid, picked by a rule rather than by rounding noise.
    """
    p = params.p
    row = np.abs(np.fft.fft(np.exp(2j * np.pi * power_table(p, params.g) / p)))
    peak = float(row.max())
    return peak, CharacterIndex(1, int(np.argmax(row >= peak * (1.0 - 1e-9))))


def incomplete_exponential_sum_total(n: int, N: int, h: int) -> float:
    """sum over a in [0, n) of |sum over the window x in [h, h+N) of
    exp(2*pi*i*a*x/n)|.

    The window length N must satisfy 1 <= N < n.  Each inner sum is a
    geometric series of magnitude N at a = 0 and
    |sin(pi*(a*N mod n)/n) / sin(pi*a/n)| otherwise, so the total takes
    O(n) and does not depend on the start h, which may be any integer.
    """
    _check_window(n, N)
    a = np.arange(1, n, dtype=np.int64)
    return N + float(np.abs(np.sin(np.pi * (a * N % n) / n) / np.sin(np.pi * a / n)).sum())


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
