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

from .permstat import _row_blocks
from .sidon import SidonGraph

__all__ = ["DiscrepancyReport", "count_boxes", "theorem_bound", "sweep"]


def count_boxes(graph: SidonGraph, boxes: np.ndarray) -> np.ndarray:
    """Number of graph points inside each box (h, N, k, M), the product
    {h+1, ..., h+N} x {k+1, ..., k+M} of two windows reduced modulo p and
    p-1, so either may wrap.  Every box must have 1 <= N <= p and
    1 <= M <= p-1, else ValueError is raised before anything is counted.

    One table C[j, v] = #{y < 64*j : first[y] < v} of p * ceil((p-1)/64)
    uint16 cells (int32 from p-1 = 2**16 on) serves every box.  The
    exponent window is a signed sum of three prefixes y, each read from C
    at the ends of the (at most two) value intervals plus a fringe of the
    fewer than 64 exponents from 64*(y//64) to y, tested directly:
    O(p**2/64 + 64*boxes) in all.
    """
    p, d = graph.p, graph.d
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
    bad = (boxes[:, 1] < 1) | (boxes[:, 1] > p) | (boxes[:, 3] < 1) | (boxes[:, 3] > d)
    if bad.any():
        h, N, k, M = boxes[bad.argmax()].tolist()
        raise ValueError(f"box ({h}, {N}, {k}, {M}) needs 1 <= N <= {p} and 1 <= M <= {d}")
    C = np.zeros((-(-d // 64) + 1, p + 1), dtype=np.uint16 if d < 2**16 else np.int32)
    np.add.at(C, (np.arange(d) // 64 + 1, graph.first + 1), 1)
    np.cumsum(C, axis=0, out=C)
    np.cumsum(C, axis=1, out=C)
    first, offsets = graph.first.astype(np.int32), np.arange(64, dtype=np.int32)
    hits = np.empty(len(boxes), dtype=np.int64)
    for start, stop in _row_blocks(len(boxes), 3 * 64):  # fringe cells per box
        h, N, k, M = boxes[start:stop, :, None].transpose(1, 0, 2)
        a, s = ((h % p + 1) % p).astype(np.int32), (k % d + 1) % d
        # [s, s+M) mod d is [s, min(s+M, d)) plus [0, s+M-d) when it wraps
        ends = np.hstack([np.minimum(s + M, d), s, np.maximum(s + M - d, 0)])
        row, rest = np.divmod(ends, 64)
        # C may be uint16: widen before the signed sum
        below = (C[row, np.minimum(a + N, p)].astype(np.int64) - C[row, a]
                 + C[row, np.maximum(a + N - p, 0)])
        # a fringe cell clipped from past the table has offset >= rest
        cells = np.take(first, row[..., None] * 64 + offsets, mode="clip")
        inside = ((cells - a[..., None]) % p < N[..., None]) & (offsets < rest[..., None])
        hits[start:stop] = (below + np.count_nonzero(inside, axis=2)) @ [1, -1, 1]
    return hits


def theorem_bound(p: int) -> float:
    """50 * sqrt(p) * ln(p)**2, the deviation bound for every box."""
    if p < 3:
        raise ValueError(f"p must be an odd prime, got {p}")
    return 50.0 * math.sqrt(p) * math.log(p) ** 2


@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    """All box measurements of one sweep as columns, one entry per box in
    generation order, plus their maxima.

    `boxes` is an (n, 4) int64 array of rows (h, N, k, M), as counted by
    `count_boxes`; the other columns are 1-D arrays of length n.
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
    come from one draw whose bounds (h, N, k, M) broadcast over the
    boxes, which yields the stream of four scalar draws per box.
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
    boxes = np.concatenate(
        [
            [[0, p, 0, d]],
            np.column_stack(np.broadcast_arrays(rows, 1, 0, d)),
            np.column_stack(np.broadcast_arrays(0, p, cols, 1)),
            rng.integers([0, 1, 0, 1], [p, p + 1, d, d + 1], size=(num_random_boxes, 4)),
        ],
        dtype=np.int64,
    )

    hits = count_boxes(graph, boxes)
    cardinality = boxes[:, 1] * boxes[:, 3]
    expected = cardinality / p
    deviation = np.abs(hits - expected)
    ratio = deviation / (math.sqrt(p) * math.log(p) ** 2)
    return DiscrepancyReport(
        p=p, g=graph.g, boxes=boxes, hits=hits, expected=expected, deviation=deviation,
        ratio=ratio, large_box=cardinality > p**1.5 * math.log(p) ** 2,
        max_deviation=float(deviation.max()), max_ratio=float(ratio.max()),
    )
