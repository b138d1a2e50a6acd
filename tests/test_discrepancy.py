import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elgamalmap.discrepancy import count_boxes, sweep, theorem_bound
from elgamalmap.numth import all_generators, is_prime, smallest_generator
from elgamalmap.sidon import SidonGraph, build_graph

from box_oracle import count_in_box, naive_count

_COLUMNS = ("boxes", "hits", "expected", "deviation", "ratio", "large_box")


def _scalar_sweep(graph, num_random_boxes, seed):
    """Oracle: the sweep one box at a time, with four scalar draws per
    random box and the per-box formulas, as one list per name in
    _COLUMNS."""
    p, d = graph.p, graph.d
    rng = np.random.default_rng(seed)
    scale = math.sqrt(p) * math.log(p) ** 2
    size_threshold = p**1.5 * math.log(p) ** 2
    boxes = [[0, p, 0, d]]
    if p <= 101:
        rows, cols = range(p), range(d)
    else:
        rows = sorted(int(v) for v in rng.choice(p, size=d, replace=False))
        cols = sorted(int(v) for v in rng.choice(d, size=d, replace=False))
    boxes.extend([h, 1, 0, d] for h in rows)
    boxes.extend([0, p, k, 1] for k in cols)
    for _ in range(num_random_boxes):
        h = int(rng.integers(0, p))
        N = int(rng.integers(1, p + 1))
        k = int(rng.integers(0, d))
        M = int(rng.integers(1, d + 1))
        boxes.append([h, N, k, M])
    hits = [count_in_box(graph, *box) for box in boxes]
    expected = [N * M / p for _, N, _, M in boxes]
    deviation = [abs(hit - e) for hit, e in zip(hits, expected)]
    ratio = [dev / scale for dev in deviation]
    large_box = [N * M > size_threshold for _, N, _, M in boxes]
    return boxes, hits, expected, deviation, ratio, large_box


def test_count_in_box_examples():
    graph = build_graph(5, 2)
    boxes = [
        (0, 5, 0, 4),  # full box
        (0, 2, -1, 4),  # first coordinates in {1, 2}: points (1,0) and (2,1)
        (0, 1, 0, 4),  # only g**x = 1
    ]
    assert count_boxes(graph, boxes).tolist() == [4, 2, 1]
    assert [count_in_box(graph, *box) for box in boxes] == [4, 2, 1]


def test_box_validation():
    """Window lengths outside 1 <= N <= p, 1 <= M <= p-1 are rejected,
    whichever box of the batch carries them."""
    graph = build_graph(5, 2)
    for N, M in [(0, 1), (1, 0), (6, 4), (5, 5)]:
        with pytest.raises(ValueError, match=rf"box \(0, {N}, 0, {M}\) needs 1 <= N <= 5"):
            count_boxes(graph, [(0, 5, 0, 4), (0, N, 0, M), (1, 1, 1, 1)])
    assert count_boxes(graph, np.empty((0, 4), dtype=np.int64)).tolist() == []


def test_theorem_bound_examples():
    assert theorem_bound(1009) == pytest.approx(75982.81029540849, rel=1e-12)
    assert theorem_bound(3) == pytest.approx(104.5248461134925, rel=1e-12)
    assert theorem_bound(5) == pytest.approx(289.60327012022583, rel=1e-12)
    with pytest.raises(ValueError):
        theorem_bound(2)


def test_theorem_bound_exceeds_every_deviation_discrepancy_admits():
    """A box holds at most p-1 points and expects at most p-1, so no
    deviation exceeds p-1; over every odd prime with p*(p-1) <= 2**29,
    the discrepancy command's limit, the bound is at least 33 times that,
    so `discrepancy` cannot exit 2."""
    primes = [p for p in range(3, 23171) if is_prime(p)]
    assert 23170 * 23169 <= 2**29 < 23171 * 23170
    assert min(theorem_bound(p) / (p - 1) for p in primes) > 33


@pytest.mark.parametrize("p", [5, 101, 1009])
def test_count_matches_naive_oracle(p):
    graph = build_graph(p, smallest_generator(p).g)
    d = p - 1
    rng = np.random.default_rng(p)
    boxes = np.column_stack(
        [rng.integers(0, p, 500), rng.integers(1, p + 1, 500), rng.integers(0, d, 500),
         rng.integers(1, d + 1, 500)]
    )
    hits = count_boxes(graph, boxes)
    assert hits.tolist() == naive_count(graph, *boxes.T[:, :, None]).tolist()
    assert hits.tolist() == [count_in_box(graph, *box) for box in boxes.tolist()]


# d < 64, d a multiple of 64, and d just past one
_PINNED_PRIMES = (3, 5, 61, 67, 193, 257)


@st.composite
def _table_and_boxes(draw):
    """An arbitrary table of p-1 values in [0, p), 0 and repeats allowed,
    and up to 200 boxes (more than one block) with any int64 shifts."""
    p = draw(st.sampled_from(_PINNED_PRIMES))
    d = p - 1
    first = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    shift = st.integers(-3 * p, 3 * p) | st.integers(-(2**63), 2**63 - 1)
    boxes = draw(
        st.lists(
            st.tuples(
                shift, st.sampled_from([1, p]) | st.integers(1, p),
                shift, st.sampled_from([1, d]) | st.integers(1, d),
            ),
            min_size=1,
            max_size=200,
        )
    )
    return SidonGraph(p=p, g=0, first=np.array(first, dtype=np.int64)), boxes


@settings(max_examples=300, deadline=None)
@given(case=_table_and_boxes())
def test_count_boxes_matches_oracle_on_arbitrary_tables(case):
    """The prefix and rank tables agree with the per-box scan on
    tables that are no power table, for wrapping and full-length windows
    on both axes.  The oracle gets the shifts reduced, which names the
    same box."""
    graph, boxes = case
    p, d = graph.p, graph.d
    want = [count_in_box(graph, h % p, N, k % d, M) for h, N, k, M in boxes]
    assert count_boxes(graph, boxes).tolist() == want


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_count_boxes_every_box_small_primes(p):
    """Every box (h, N, k, M) at small p, on every genuine graph and on
    one table with repeats and zeros."""
    d = p - 1
    h, N, k, M = np.meshgrid(
        np.arange(p), np.arange(1, p + 1), np.arange(d), np.arange(1, d + 1), indexing="ij"
    )
    boxes = np.column_stack([h.ravel(), N.ravel(), k.ravel(), M.ravel()])
    table = np.random.default_rng(p).integers(0, p, d)
    table[0] = 0
    graphs = [build_graph(p, g) for g in all_generators(p)] + [SidonGraph(p=p, g=0, first=table)]
    for graph in graphs:
        hits = count_boxes(graph, boxes)
        assert hits.tolist() == naive_count(graph, *boxes.T[:, :, None]).tolist(), graph.g


@pytest.mark.parametrize("p", [193, 257])
def test_count_boxes_every_exponent_window_across_blocks(p):
    """Every exponent window (k, M) where 64 divides p-1, so windows
    cross 64-exponent blocks and an end y = p-1 reads the spare row of
    the prefix table, with a full, a single, a wrapping and a mid-size
    first-coordinate window, on the genuine graph and on one table with
    repeats and zeros."""
    d = p - 1
    k, M = (grid.reshape(-1, 1) for grid in np.meshgrid(np.arange(d), np.arange(1, d + 1)))
    table = np.random.default_rng(p).integers(0, p, d)
    table[:3] = 0
    h, N = np.array([[0, p], [5, 1], [p - 3, 10], [40, p // 2]]).T[:, :, None]
    boxes = np.stack(np.broadcast_arrays(h, N, k.T, M.T), axis=-1).reshape(-1, 4)
    for graph in build_graph(p, smallest_generator(p).g), SidonGraph(p=p, g=0, first=table):
        hits = count_boxes(graph, boxes).reshape(len(h), -1)
        for part in np.array_split(np.arange(len(k)), 16):
            want = naive_count(graph, h[..., None], N[..., None], k[part], M[part])
            assert hits[:, part].tolist() == want.tolist(), graph.g


def test_count_boxes_at_the_largest_admitted_prime():
    """At p = 23167, the sweep's largest prime, the batched count agrees
    with the per-box scan on the full box, full-width rows and columns,
    windows that wrap on both axes and seeded random boxes."""
    p = 23167
    d = p - 1
    graph = build_graph(p, smallest_generator(p).g)
    rng = np.random.default_rng(23167)
    boxes = [(0, p, 0, d), (p - 1, p, d - 1, d), (p - 1, 1, d - 1, 1)]
    boxes += [(int(h), 1, 0, d) for h in rng.integers(0, p, 50)]
    boxes += [(0, p, int(k), 1) for k in rng.integers(0, d, 50)]
    for _ in range(100):
        N, M = int(rng.integers(2, p + 1)), int(rng.integers(2, d + 1))
        boxes.append((int(rng.integers(p - N, p - 1)), N, int(rng.integers(d - M, d - 1)), M))
    boxes += rng.integers([0, 1, 0, 1], [p, p + 1, d, d + 1], size=(100, 4)).tolist()
    assert sum((h + 1) % p + N > p and (k + 1) % d + M > d for h, N, k, M in boxes) >= 100
    want = [count_in_box(graph, *box) for box in boxes]
    assert count_boxes(graph, boxes).tolist() == want


def test_window_split_additivity():
    """Splitting the first-coordinate window keeps hit counts additive."""
    graph = build_graph(101, 2)
    rng = np.random.default_rng(3)
    wholes, lefts, rights = [], [], []
    for _ in range(200):
        h = int(rng.integers(0, 101))
        total_n = int(rng.integers(2, 102))
        n1 = int(rng.integers(1, total_n))
        k = int(rng.integers(0, 100))
        m = int(rng.integers(1, 101))
        wholes.append((h, total_n, k, m))
        lefts.append((h, n1, k, m))
        rights.append((h + n1, total_n - n1, k, m))
    whole, left, right = (count_boxes(graph, boxes) for boxes in (wholes, lefts, rights))
    assert whole.tolist() == (left + right).tolist()


@pytest.mark.parametrize("wrap_k", [0, -1, 50])
def test_full_width_boxes_have_zero_deviation(wrap_k):
    graph = build_graph(101, 2)
    lengths = [1, 7, 100]
    hits = count_boxes(graph, [(0, 101, wrap_k, m) for m in lengths])
    assert hits.tolist() == lengths
    assert (np.abs(hits - 101 * np.array(lengths) / 101) == 0.0).all()


def test_sweep_p5_structured_only():
    report = sweep(build_graph(5, 2), num_random_boxes=0, seed=0)
    # full box + 5 single-row + 4 single-column boxes
    assert report.boxes.shape == (10, 4) and report.boxes.dtype == np.int64
    assert report.boxes[0].tolist() == [0, 5, 0, 4]
    assert report.deviation[0] == 0.0  # the full box, exactly
    assert report.max_deviation < 1.6  # worst structured box on 4 points
    assert report.max_ratio < 1.0  # far below the bound's factor 50
    assert report.max_deviation <= theorem_bound(5)


def test_sweep_is_deterministic():
    graph = build_graph(101, 2)
    a = sweep(graph, num_random_boxes=50, seed=11)
    b = sweep(graph, num_random_boxes=50, seed=11)
    for name in _COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.max_deviation, a.max_ratio) == (b.max_deviation, b.max_ratio)
    c = sweep(graph, num_random_boxes=50, seed=12)
    assert not np.array_equal(c.boxes, a.boxes)


@pytest.mark.parametrize("num_random_boxes", [0, 1, 50])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("p", [3, 5, 17, 101, 257, 1009])
def test_sweep_matches_scalar_oracle(p, seed, num_random_boxes):
    """The column sweep equals the per-box loop exactly: the same draws
    in the same order, counts and float columns.  At p = 17 and 257 the
    bounds p-1 on k and M are powers of two."""
    graph = build_graph(p, smallest_generator(p).g)
    report = sweep(graph, num_random_boxes, seed)
    oracle = _scalar_sweep(graph, num_random_boxes, seed)
    for name, want in zip(_COLUMNS, oracle):
        assert getattr(report, name).tolist() == want, name
    assert report.max_deviation == max(oracle[3])
    assert report.max_ratio == max(oracle[4])


def test_sweep_maxima_match_records():
    report = sweep(build_graph(101, 2), num_random_boxes=25, seed=4)
    assert report.max_deviation == report.deviation.max()
    assert report.max_ratio == report.ratio.max()
    assert (report.ratio >= 0).all()


def test_large_box_flag():
    p = 101
    graph = build_graph(p, 2)
    report = sweep(graph, num_random_boxes=0, seed=0)
    threshold = p**1.5 * math.log(p) ** 2
    cardinality = report.boxes[:, 1] * report.boxes[:, 3]
    assert report.large_box.tolist() == [int(c) > threshold for c in cardinality]
    # at p=101 even the full box (cardinality p*(p-1)) stays below p**1.5 ln(p)**2
    assert not report.large_box[0]


def test_ratio_scaling():
    p = 101
    report = sweep(build_graph(p, 2), num_random_boxes=10, seed=9)
    scale = math.sqrt(p) * math.log(p) ** 2
    for ratio, deviation in zip(report.ratio.tolist(), report.deviation.tolist()):
        assert ratio == pytest.approx(deviation / scale, rel=1e-12)
