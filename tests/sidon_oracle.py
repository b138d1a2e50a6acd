"""Exhaustive difference counts that the O(p) Sidon certificate
`sidon.verify_sidon` is checked against: every ordered pair of graph
points, by two independent routes."""

from collections import Counter

import numpy as np


def points(graph):
    """The graph's points (first[x], x) as plain int pairs, x ascending."""
    return [(int(u), v) for v, u in enumerate(graph.first)]


def brute_force_difference_counts(pts, p):
    """Dict-count every ordered nonzero difference of the points `pts`
    componentwise mod (p, p-1)."""
    d = p - 1
    counts = Counter()
    for a in pts:
        for b in pts:
            if a == b:
                continue
            counts[((a[0] - b[0]) % p, (a[1] - b[1]) % d)] += 1
    return counts


def dense_difference_counts(graph):
    """Every ordered pair's difference encoded as u*(p-1) + v and counted
    in one bincount over the p*(p-1) grid; entry 0 counts the zero
    difference."""
    p, d = graph.p, graph.d
    second = np.arange(d)
    codes = (graph.first[:, None] - graph.first[None, :]) % p * d
    codes += (second[:, None] - second[None, :]) % d
    return np.bincount(codes.ravel(), minlength=p * d)


def first_collision_witness(pts, p):
    """The first repeated nonzero difference in (v, u) order, as the two
    point pairs (a, b) with the smallest exponents b that realize it."""
    d = p - 1
    counts = brute_force_difference_counts(pts, p)
    v, u = min((v, u) for (u, v), count in counts.items() if count > 1)
    pairs = sorted(
        (b[1], (a, b))
        for a in pts
        for b in pts
        if ((a[0] - b[0]) % p, (a[1] - b[1]) % d) == (u, v)
    )
    return pairs[0][1], pairs[1][1]
