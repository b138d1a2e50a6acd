"""Box counting against the exponentiation graph.

For a box B, the number of graph points inside should be close to
#B / p; every deviation |#(S cap B) - #B/p| observed here is measured
against the bound 50 * sqrt(p) * ln(p)**2.  Boxes are products of two
cyclic integer windows and may wrap around either modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sidon import SidonGraph

__all__ = [
    "DiscrepancyReport",
    "count_in_box",
    "theorem_bound",
    "sweep",
]


def count_in_box(graph: SidonGraph, h: int, N: int, k: int, M: int) -> int:
    """Number of graph points inside the box {h+1, ..., h+N} x
    {k+1, ..., k+M}, each window reduced modulo its group order (p and
    p-1 respectively), so windows may wrap.  The lengths must satisfy
    1 <= N <= p and 1 <= M <= p-1.

    Walks the M exponents of the second window as one or two contiguous
    slices of the power table and tests the first coordinate by the
    cyclic-interval criterion (value - h - 1) mod p < N, so the cost is
    O(M).
    """
    p, d = graph.p, graph.d
    if not (1 <= N <= p and 1 <= M <= d):
        raise ValueError(f"box ({h}, {N}, {k}, {M}) needs 1 <= N <= {p} and 1 <= M <= {d}")
    start = (k + 1) % d
    if start + M <= d:
        values = graph.first[start : start + M]
    else:
        values = np.concatenate([graph.first[start:], graph.first[: start + M - d]])
    return int(np.count_nonzero((values - h - 1) % p < N))


def theorem_bound(p: int) -> float:
    """50 * sqrt(p) * ln(p)**2, the deviation bound for every box."""
    if p < 3:
        raise ValueError(f"p must be an odd prime, got {p}")
    return 50.0 * math.sqrt(p) * math.log(p) ** 2


@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    """All box measurements of one sweep as columns, one entry per box in
    generation order, plus their maxima.

    `boxes` is an (n, 4) int64 array of rows (h, N, k, M), the arguments
    of `count_in_box`; the other columns are 1-D arrays of length n.
    `expected` is N*M / p and `deviation` is |hits - expected|.  `ratio`
    is deviation / (sqrt(p) * ln(p)**2), so the bound holds iff
    ratio <= 50.  `large_box` flags boxes whose cardinality N*M exceeds
    p**1.5 * ln(p)**2, the size regime where the relative deviation is
    expected to shrink.
    """

    p: int
    g: int
    boxes: np.ndarray
    hits: np.ndarray
    expected: np.ndarray
    deviation: np.ndarray
    ratio: np.ndarray
    large_box: np.ndarray
    max_deviation: float
    max_ratio: float


def sweep(graph: SidonGraph, num_random_boxes: int, seed: int) -> DiscrepancyReport:
    """Measure a deterministic family of boxes: the full box, single-row
    and single-column boxes (all of them for p <= 101, else a seeded
    sample of p-1 of each kind), and `num_random_boxes` boxes with
    uniformly drawn position and size.

    Reporting only; nothing is asserted.  The box order is the
    generation order and depends only on the seed.  The random boxes
    come from one draw whose bounds repeat (h, N, k, M) once per box,
    which yields the stream of four scalar draws per box.
    """
    if num_random_boxes < 0:
        raise ValueError("num_random_boxes must be >= 0")
    p, d = graph.p, graph.d
    rng = np.random.default_rng(seed)

    if p <= 101:
        rows, cols = np.arange(p), np.arange(d)
    else:
        rows = np.sort(rng.choice(p, size=d, replace=False))
        cols = np.sort(rng.choice(d, size=d, replace=False))
    random_boxes = rng.integers(
        np.tile([0, 1, 0, 1], num_random_boxes), np.tile([p, p + 1, d, d + 1], num_random_boxes)
    )
    boxes = np.concatenate(
        [
            [[0, p, 0, d]],
            np.column_stack(np.broadcast_arrays(rows, 1, 0, d)),
            np.column_stack(np.broadcast_arrays(0, p, cols, 1)),
            random_boxes.reshape(-1, 4),
        ],
        dtype=np.int64,
    )

    hits = np.array([count_in_box(graph, *box) for box in boxes.tolist()], dtype=np.int64)
    cardinality = boxes[:, 1] * boxes[:, 3]
    expected = cardinality / p
    deviation = np.abs(hits - expected)
    ratio = deviation / (math.sqrt(p) * math.log(p) ** 2)
    return DiscrepancyReport(
        p=p,
        g=graph.g,
        boxes=boxes,
        hits=hits,
        expected=expected,
        deviation=deviation,
        ratio=ratio,
        large_box=cardinality > p**1.5 * math.log(p) ** 2,
        max_deviation=float(deviation.max()),
        max_ratio=float(ratio.max()),
    )
