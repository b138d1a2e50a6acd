"""The graph of the exponentiation map as a point set in Z_p x Z_{p-1}.

The set {(g**x mod p, x) : x in Z_{p-1}} is a Sidon set: every nonzero
element of the product group arises as a difference of two points at
most once, so the difference set has (p-1)*(p-2) + 1 elements.  This
module certifies that from the power table's recurrence in O(p),
evaluates additive characters of the product group against the point
set, and computes the incomplete exponential sums that control box
equidistribution.

The certificate is the Welch construction of Costas arrays (S. W.
Golomb, "Algebraic constructions for Costas arrays", J. Combin. Theory
A 37 (1984)): a table t with t[y+1] = g*t[y] that is a bijection onto
Z_p^* has lag-v differences t[y+v] - t[y] = t[y]*(g**v - 1), distinct
in y and nonzero for v != 0.  The largest nontrivial character sum of
such a table is a Gauss-sum magnitude, exactly sqrt(p); one
length-(p-1) FFT certifies it, and the incomplete-sum total is one O(n)
pass over closed forms.

Exponents are the residues {0, ..., p-2} of Z_{p-1}, the index set of
`numth.power_table`, and points are (group element, exponent).  The
graph of g = g0**j reads the smallest generator g0's one table at
j*x mod (p-1), j from `GroupParams.exponents`; `permstat` decomposes
e -> j*table[e] mod (p-1), x -> g**x conjugated by multiplication by j,
which has the same cycle type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numth import smallest_generator

__all__ = [
    "SidonGraph",
    "build_graph",
    "verify_sidon",
    "max_nontrivial_character_sum",
    "incomplete_exponential_sum_total",
    "polya_vinogradov_bound",
    "sidon_character_bound",
]


@dataclass(frozen=True, eq=False)
class SidonGraph:
    """The graph {(first[x], x) : x in Z_{p-1}} of a table
    first: Z_{p-1} -> Z_p, one point per exponent.

    Genuine graphs from `build_graph` hold the power table of g; any
    other table of p-1 values in [0, p) may be wrapped directly, so that
    the failure paths of `verify_sidon` and `max_nontrivial_character_sum`
    can be exercised.
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


def build_graph(p: int, g: int) -> SidonGraph:
    """The p-1 points (g**x, x), x ascending from 0: g = g0**j reads the
    smallest generator g0's one table at j*x mod (p-1), after the checks
    of `GroupParams.exponents` on g."""
    g0 = smallest_generator(p)
    [j] = g0.exponents([g])
    # g0's own graph reads its table in place, adding no copy of p-1 cells
    first = g0.table if j == 1 else g0.table[j * np.arange(g0.d, dtype=np.int64) % g0.d]
    return SidonGraph(p=p, g=g, first=first)


def verify_sidon(graph: SidonGraph) -> int | None:
    """Certify the Sidon property of any table from p-1 cells: every
    value occurs once, and t[(y+1) mod d] = g*t[y] mod p for every y, with
    d = p-1.  Returns None when it holds, else the witness broken_at: the
    first y at which the table is 0, holds a value that occurs more than
    once, or breaks the recurrence.  A 0 at y needs no test of its own:
    its successor is then 0 too, a repeat, or breaks the recurrence, so
    y fails either way.

    The test is sound for any table and g: when it passes,
    t[y] = t[0]*g**y is a bijection onto Z_p^*, so g**v != 1 for
    v != 0 mod d, and the pairs at exponent lag v realize the differences
    (t[y]*(g**v - 1) mod p, v), one for each of the d distinct t[y].
    Lags differ in the second coordinate, and lag 0 realizes only the
    zero difference, so no nonzero difference repeats and there are
    d*(d-1) + 1 differences (Golomb 1984, the Welch construction).  A
    genuine power table passes by construction.
    """
    p, t = graph.p, graph.first
    broken = np.bincount(t)[t] != 1
    broken |= np.roll(t, -1) != graph.g % p * t % p
    return int(np.argmax(broken)) if broken.any() else None


def max_nontrivial_character_sum(graph: SidonGraph) -> tuple[float, int | None]:
    """(max_sum, off_at): the largest magnitude of the graph's sums over
    all p*(p-1) - 1 nontrivial characters (x, y) ->
    exp(2*pi*i*(s*x/p + t*y/(p-1))), certified against its exact value.

    For a power table (first[y+1] = g*first[y], which `verify_sidon`
    certifies) the sums at s = 0, t != 0 are exactly 0, and shifting y by
    k maps the sum at (s, t) to the one at (s*g**k, t) times a unit phase,
    so every row s != 0 has the magnitudes of row 1, the one row computed:
    one length-(p-1) FFT of exp(2*pi*i*first/p), -1 at t = 0 and Gauss
    sums of magnitude exactly sqrt(p) at t != 0 (Ireland and Rosen,
    ch. 8).  The maximum is sqrt(p), first reached at (1, 1) in row-major
    order.

    When every |row[t]| lies within 1e-9*sqrt(p) of its exact value (over
    1000 times the FFT's rounding error up to p = 10**6), the result is
    (math.sqrt(p), None), so no digit depends on rounding; otherwise it is
    the measured row maximum and the first t that is off.  A table that
    is not a power table is checked on row 1 alone.
    """
    p = graph.p
    root, tol = math.sqrt(p), 1e-9 * math.sqrt(p)
    row = np.multiply(graph.first, 2j * np.pi / p)
    np.exp(row, out=row)
    row = np.abs(np.fft.fft(row, out=row))
    peak = float(row.max())
    if abs(row[0] - 1.0) <= tol and root - tol <= row[1:].min() and peak <= root + tol:
        return root, None
    exact = np.full(p - 1, root)
    exact[0] = 1.0
    return peak, int(np.argmax(np.abs(row - exact) > tol))


def incomplete_exponential_sum_total(n: int, N: int) -> float:
    """sum over a in [0, n) of |sum over a window x in [h, h+N) of
    exp(2*pi*i*a*x/n)|, for any start h.

    The window length N must satisfy 1 <= N < n.  Each inner sum is a
    geometric series of magnitude N at a = 0 and
    |sin(pi*(a*N mod n)/n) / sin(pi*a/n)| otherwise, so the total takes
    O(n) and does not depend on h.  Both sines take arguments folded into
    [0, pi/2], where sin does not amplify relative error, so with
    eps = 2**-52 and sin within 4 ulp each term is within 12*eps of exact
    and the pairwise sum within (25 + log2(n))*eps*total.  The total is
    rounded to the finest decimal place at or above that bound (1e-9 at
    n = 4000).
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if not 1 <= N < n:
        raise ValueError(f"window length must satisfy 1 <= N < n, got N={N}, n={n}")
    a = np.arange(1, n, dtype=np.int64)
    r = a * N % n
    terms = np.sin(np.pi * np.minimum(r, n - r) / n) / np.sin(np.pi * np.minimum(a, n - a) / n)
    total = N + float(terms.sum())
    return round(total, -math.ceil(math.log10((25 + math.log2(n)) * 2.0**-52 * total)))


def polya_vinogradov_bound(n: int) -> float:
    """The bound 5 * n * ln(n) the totals stay under."""
    return 5.0 * n * math.log(n)


def sidon_character_bound(p: int) -> float:
    """The bound sqrt(3*(p-1)) every nontrivial character sum of a
    genuine graph stays under."""
    return math.sqrt(3.0 * (p - 1))
