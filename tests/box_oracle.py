"""Reference box counts that the batched `discrepancy.count_boxes` is
checked against: one box at a time, by two independent routes."""

import numpy as np


def count_in_box(graph, h, N, k, M):
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


def naive_count(graph, h, N, k, M):
    """Test both coordinates of every point individually.  The box
    arguments are scalars, or columns of shape (n, 1) for n boxes at
    once."""
    in_first = (graph.first - h - 1) % graph.p < N
    in_second = (np.arange(graph.d) - k - 1) % graph.d < M
    return np.count_nonzero(in_first & in_second, axis=-1)
