import math

import numpy as np
import pytest

from elgamalmap.discrepancy import Box, count_in_box, sweep, theorem_bound
from elgamalmap.numth import GroupParams, smallest_generator
from elgamalmap.sidon import build_graph


def _naive_count(graph, box):
    """Oracle: test both coordinates of every point individually."""
    p, d = graph.p, graph.d
    in_first = (graph.first - box.h - 1) % p < box.N
    in_second = (np.arange(graph.d) - box.k - 1) % d < box.M
    return int(np.count_nonzero(in_first & in_second))


def test_count_in_box_examples():
    graph = build_graph(GroupParams(5, 2))
    assert count_in_box(graph, Box(h=0, N=5, k=0, M=4)) == 4  # full box
    # first coordinates in {1, 2}: points (1,0) and (2,1)
    box = Box(h=0, N=2, k=-1, M=4)
    assert count_in_box(graph, box) == 2
    assert box.cardinality / 5 == pytest.approx(1.6)
    assert count_in_box(graph, Box(h=0, N=1, k=0, M=4)) == 1  # only g**x = 1


def test_box_validation():
    with pytest.raises(ValueError):
        Box(h=0, N=0, k=0, M=1)
    with pytest.raises(ValueError):
        Box(h=0, N=1, k=0, M=0)
    graph = build_graph(GroupParams(5, 2))
    with pytest.raises(ValueError):
        count_in_box(graph, Box(h=0, N=6, k=0, M=4))
    with pytest.raises(ValueError):
        count_in_box(graph, Box(h=0, N=5, k=0, M=5))


def test_theorem_bound_examples():
    assert theorem_bound(1009) == pytest.approx(75982.81029540849, rel=1e-12)
    assert theorem_bound(3) == pytest.approx(104.5248461134925, rel=1e-12)
    assert theorem_bound(5) == pytest.approx(289.60327012022583, rel=1e-12)
    with pytest.raises(ValueError):
        theorem_bound(2)


@pytest.mark.parametrize("p", [5, 101, 1009])
def test_count_matches_naive_oracle(p):
    graph = build_graph(smallest_generator(p))
    d = p - 1
    rng = np.random.default_rng(p)
    for _ in range(500):
        box = Box(
            h=int(rng.integers(0, p)),
            N=int(rng.integers(1, p + 1)),
            k=int(rng.integers(0, d)),
            M=int(rng.integers(1, d + 1)),
        )
        assert count_in_box(graph, box) == _naive_count(graph, box)


def test_window_split_additivity():
    """Splitting the first-coordinate window keeps hit counts additive."""
    graph = build_graph(GroupParams(101, 2))
    rng = np.random.default_rng(3)
    for _ in range(200):
        h = int(rng.integers(0, 101))
        total_n = int(rng.integers(2, 102))
        n1 = int(rng.integers(1, total_n))
        k = int(rng.integers(0, 100))
        m = int(rng.integers(1, 101))
        whole = count_in_box(graph, Box(h=h, N=total_n, k=k, M=m))
        left = count_in_box(graph, Box(h=h, N=n1, k=k, M=m))
        right = count_in_box(graph, Box(h=h + n1, N=total_n - n1, k=k, M=m))
        assert whole == left + right


@pytest.mark.parametrize("wrap_k", [0, -1, 50])
def test_full_width_boxes_have_zero_deviation(wrap_k):
    graph = build_graph(GroupParams(101, 2))
    for m in (1, 7, 100):
        box = Box(h=0, N=101, k=wrap_k, M=m)
        hits = count_in_box(graph, box)
        assert hits == m
        assert abs(hits - box.cardinality / 101) == 0.0


def test_sweep_p5_structured_only():
    report = sweep(build_graph(GroupParams(5, 2)), num_random_boxes=0, seed=0)
    # full box + 5 single-row + 4 single-column boxes
    assert len(report.records) == 10
    assert report.records[0].deviation == 0.0  # the full box, exactly
    assert report.max_deviation < 1.6  # worst structured box on 4 points
    assert report.max_ratio < 1.0  # far below the bound's factor 50
    assert report.max_deviation <= theorem_bound(5)


def test_sweep_is_deterministic():
    graph = build_graph(GroupParams(101, 2))
    a = sweep(graph, num_random_boxes=50, seed=11)
    b = sweep(graph, num_random_boxes=50, seed=11)
    assert a == b
    c = sweep(graph, num_random_boxes=50, seed=12)
    assert [r.box for r in c.records] != [r.box for r in a.records]


def test_sweep_maxima_match_records():
    report = sweep(build_graph(GroupParams(101, 2)), num_random_boxes=25, seed=4)
    assert report.max_deviation == max(r.deviation for r in report.records)
    assert report.max_ratio == max(r.ratio for r in report.records)
    assert all(r.ratio >= 0 for r in report.records)


def test_large_box_flag():
    p = 101
    graph = build_graph(GroupParams(p, 2))
    report = sweep(graph, num_random_boxes=0, seed=0)
    threshold = p**1.5 * math.log(p) ** 2
    for record in report.records:
        assert record.large_box == (record.box.cardinality > threshold)
    # at p=101 even the full box (cardinality p*(p-1)) stays below p**1.5 ln(p)**2
    assert not report.records[0].large_box


def test_ratio_scaling():
    p = 101
    report = sweep(build_graph(GroupParams(p, 2)), num_random_boxes=10, seed=9)
    scale = math.sqrt(p) * math.log(p) ** 2
    for record in report.records:
        assert record.ratio == pytest.approx(record.deviation / scale, rel=1e-12)
