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

    One prefix table C[j, v] = #{y < 64*j : first[y] < v} (uint16, int32
    from p-1 = 2**16 on) and one uint8 rank table serve every box.  A value
    x of block b = y//64 is below v iff its rank C[b+1, x] - C[b, x] in the
    block is below v's, so T[b, r, k] = #{offsets < r in block b of rank
    < k} gives F(y, v) = #{y' < y : first[y'] < v} in three reads.  A box
    is a signed 3 x 3 sum of F over the ends of the (at most two)
    intervals of its windows, with no per-box scan: O(p**2/64 + boxes).
    """
    p, d = graph.p, graph.d
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
    bad = (boxes[:, 1] < 1) | (boxes[:, 1] > p) | (boxes[:, 3] < 1) | (boxes[:, 3] > d)
    if bad.any():
        h, N, k, M = boxes[bad.argmax()].tolist()
        raise ValueError(f"box ({h}, {N}, {k}, {M}) needs 1 <= N <= {p} and 1 <= M <= {d}")
    # one spare row, so that y = d reads C[d//64 + 1] when 64 divides d
    C = np.zeros((-(-d // 64) + 2, p + 1), dtype=np.uint16 if d < 2**16 else np.int32)
    block, offset = np.divmod(np.arange(d), 64)
    np.add.at(C, (block + 1, graph.first + 1), 1)
    np.cumsum(C, axis=0, out=C)
    np.cumsum(C, axis=1, out=C)
    T = np.zeros((len(C) - 1, 65, 65), dtype=np.uint8)
    T[block, offset + 1, C[block + 1, graph.first] - C[block, graph.first] + 1] = 1
    np.cumsum(T, axis=1, out=T)
    np.cumsum(T, axis=2, out=T)
    hits = np.empty(len(boxes), dtype=np.int64)
    for start, stop in _row_blocks(len(boxes), 64):  # 256 boxes of 27 table reads
        h, N, k, M = boxes[start:stop, :, None].transpose(1, 0, 2)
        a, s = (h % p + 1) % p, (k % d + 1) % d
        # [s, s+M) mod d is [s, min(s+M, d)) plus [0, s+M-d) when it wraps
        y = np.hstack([np.minimum(s + M, d), s, np.maximum(s + M - d, 0)])[..., None]
        v = np.hstack([np.minimum(a + N, p), a, np.maximum(a + N - p, 0)])[:, None, :]
        row, rest = np.divmod(y, 64)
        # F[box, y, v]; C may be uint16: widen before the signed sum
        F = C[row, v].astype(np.int64) + T[row, rest, C[row + 1, v] - C[row, v]]
        hits[start:stop] = F @ [1, -1, 1] @ [1, -1, 1]
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
