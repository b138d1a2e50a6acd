import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elgamalmap.cli import main
from elgamalmap.numth import all_generators, power_table, smallest_generator
from elgamalmap.sidon import (
    CharacterIndex,
    SidonGraph,
    build_graphs,
    incomplete_exponential_sum_total,
    max_nontrivial_character_sums,
    polya_vinogradov_bound,
    sidon_character_bound,
    verify_sidon,
)


def _graph(p, g):
    [graph] = build_graphs(p, [g])
    return graph


def test_build_graph_examples():
    assert _graph(3, 2).points == [(1, 0), (2, 1)]
    assert _graph(5, 2).points == [(1, 0), (2, 1), (4, 2), (3, 3)]
    # 3 = 2**3 mod 5: the table of 2 read at 3*x mod 4
    assert [graph.points for graph in build_graphs(5, [3, 2])] == [
        [(1, 0), (3, 1), (4, 2), (2, 3)],
        [(1, 0), (2, 1), (4, 2), (3, 3)],
    ]


def _direct_graph(p, g):
    """Oracle: the graph from g's own power table, one table per generator."""
    return SidonGraph(p=p, g=g, first=power_table(p, g))


def _direct_character_maximum(p, g):
    """Oracle: one FFT of g's own power table, with the index chosen by
    the tie rule of the family route."""
    row = np.abs(np.fft.fft(np.exp(2j * np.pi * power_table(p, g) / p)))
    peak = float(row.max())
    return peak, CharacterIndex(1, int(np.argmax(row >= peak * (1.0 - 1e-9))))


@pytest.mark.parametrize("p", [3, 5, 7, 13, 61, 101, 1009])
def test_family_route_matches_direct_route(p):
    """Reading the smallest generator's table at j*x mod p-1 gives every
    generator's own table, Sidon check and largest character sum.  At
    1009 the Sidon check (about 20 ms a graph) runs on 8 of the 288
    generators; the tables of all of them are compared."""
    generators = all_generators(p)
    graphs = build_graphs(p, generators)
    checked = set(generators if p < 1000 else generators[:4] + generators[-4:])
    for g, graph in zip(generators, graphs):
        direct = _direct_graph(p, g)
        assert graph.g == g
        assert np.array_equal(graph.first, direct.first), g
        if g in checked:
            assert verify_sidon(graph) == verify_sidon(direct), g
    family = max_nontrivial_character_sums(p, generators)
    assert [g for g, _, _ in family] == generators
    assert len({value for _, value, _ in family}) == 1
    for g, value, chi in family:
        direct_value, direct_chi = _direct_character_maximum(p, g)
        assert value == pytest.approx(direct_value, rel=1e-12, abs=0), g
        assert chi == direct_chi, g


@pytest.mark.parametrize("p", [3, 5, 13, 101, 1009])
def test_graph_has_p_minus_1_points(p):
    graph = _graph(p, smallest_generator(p).g)
    assert graph.size == p - 1
    firsts = {u for u, _ in graph.points}
    assert len(firsts) == p - 1 and 0 not in firsts
    assert [v for _, v in graph.points] == list(range(p - 1))


def _brute_force_difference_counts(points, p):
    """Independent oracle: dict-count every ordered nonzero difference."""
    d = p - 1
    counts = Counter()
    for a in points:
        for b in points:
            if a == b:
                continue
            counts[((a[0] - b[0]) % p, (a[1] - b[1]) % d)] += 1
    return counts


def test_verify_sidon_small_graphs():
    assert verify_sidon(_graph(5, 2)).ok
    assert verify_sidon(_graph(3, 2)).ok


def _dense_difference_counts(graph):
    """Oracle: every ordered pair's difference encoded as u*(p-1) + v and
    counted in one bincount over the p*(p-1) grid."""
    p, d = graph.p, graph.d
    second = np.arange(d)
    codes = (graph.first[:, None] - graph.first[None, :]) % p * d
    codes += (second[:, None] - second[None, :]) % d
    return np.bincount(codes.ravel(), minlength=p * d)


def test_verify_sidon_failure_witness():
    # The arithmetic progression t[y] = y is not Sidon: the pairs at lag v
    # that do not wrap all differ by (v, v).
    graph = SidonGraph(p=5, g=0, first=np.arange(4))
    check = verify_sidon(graph)
    assert not check.ok
    assert check.witness == (((1, 1), (0, 0)), ((2, 2), (1, 1)))
    # (0, 0), then (v, v) and, across the wrap, (v - 4 mod 5, v) for v = 1, 2, 3
    assert check.diff_set_size == 7


def test_graph_table_validation():
    with pytest.raises(ValueError):
        SidonGraph(p=5, g=0, first=np.arange(3))  # too short
    with pytest.raises(ValueError):
        SidonGraph(p=5, g=0, first=np.arange(5))  # too long
    with pytest.raises(ValueError):
        SidonGraph(p=5, g=0, first=np.array([0, 1, 2, 5]))  # value outside Z_5
    with pytest.raises(ValueError):
        SidonGraph(p=5, g=0, first=np.array([0, -1, 2, 3]))
    with pytest.raises(ValueError):
        SidonGraph(p=2, g=0, first=np.array([1]))  # no p >= 3
    assert SidonGraph(p=5, g=0, first=np.array([0, 0, 4, 4])).points == [
        (0, 0), (0, 1), (4, 2), (4, 3)
    ]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_sidon_and_difference_size_against_oracle(p):
    for graph in build_graphs(p, all_generators(p)):
        counts = _brute_force_difference_counts(graph.points, p)
        assert max(counts.values()) == 1
        check = verify_sidon(graph)
        assert check.ok
        assert check.diff_set_size == len(counts) + 1  # plus zero


def test_difference_set_size_examples():
    assert verify_sidon(_graph(5, 2)).diff_set_size == 13
    assert verify_sidon(_graph(3, 2)).diff_set_size == 3


def test_difference_set_size_at_1009():
    graph = _graph(1009, 11)
    assert verify_sidon(graph).diff_set_size == 1008**2 - 1008 + 1 == 1015057


def _first_collision_witness(points, p):
    """Oracle for the witness: the first colliding difference in (v, u)
    order, realized by the pairs (a, b) of its two smallest exponents b."""
    d = p - 1
    counts = _brute_force_difference_counts(points, p)
    v, u = min((v, u) for (u, v), count in counts.items() if count > 1)
    pairs = sorted(
        (b[1], (a, b))
        for a in points
        for b in points
        if ((a[0] - b[0]) % p, (a[1] - b[1]) % d) == (u, v)
    )
    return pairs[0][1], pairs[1][1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 17, 131, 137]),
    st.data(),
)
def test_random_tables_match_oracle(p, data):
    """Verdict, difference-set size and witness agree with the
    brute-force count and the dense grid on arbitrary tables
    t: Z_{p-1} -> Z_p, most of them not Sidon.  At 131 and 137 a block
    holds 126 and 120 lags, so the 129 and 135 lags span two blocks."""
    d = p - 1
    values = data.draw(
        st.one_of(
            st.permutations(range(1, p)),  # injective, like a power table
            st.lists(st.integers(0, p - 1), min_size=d, max_size=d),
        )
    )
    graph = SidonGraph(p=p, g=0, first=np.array(values, dtype=np.int64))
    points = graph.points
    counts = _brute_force_difference_counts(points, p)
    dense = _dense_difference_counts(graph)
    check = verify_sidon(graph)
    assert check.ok == (max(counts.values()) <= 1) == (dense[1:].max() <= 1)
    assert check.diff_set_size == len(counts) + 1 == np.count_nonzero(dense)
    if check.ok:
        assert check.witness is None
    else:
        assert check.witness == _first_collision_witness(points, p)


def _dense_character_maximum(p, first, second):
    """Oracle: every character sum of the points (first[i], second[i]) at
    once as the 2-D FFT of the indicator array on the Z_p x Z_{p-1} grid
    (entry (s, t) is the conjugate of the sum), maximized over the
    nontrivial characters; the index is the first in row-major order
    within a relative 1e-9 of the maximum."""
    d = p - 1
    indicator = np.zeros((p, d))
    indicator[first, second] = 1.0
    magnitudes = np.abs(np.fft.fft2(indicator))
    magnitudes[0, 0] = -1.0  # exclude the trivial character
    peak = float(magnitudes.max())
    s, t = divmod(int(np.argmax(magnitudes >= peak * (1.0 - 1e-9))), d)
    return peak, CharacterIndex(s, t)


def _roots_table(n, N, h):
    """exp(2*pi*i*a*x/n) for a in [0, n) (rows) and x in [h, h+N) (columns),
    from exact integer phase indices."""
    a = np.arange(n, dtype=np.int64)
    x = (h % n + np.arange(N, dtype=np.int64)) % n
    return np.exp(2j * np.pi * ((a[:, None] * x[None, :]) % n) / n)


def _matrix_total(n, N, h):
    """Oracle: the n x N root table summed along each row."""
    return float(np.abs(_roots_table(n, N, h).sum(axis=1)).sum())


def _cumulative_profile(n, h):
    """Oracle: the totals for every window length N = 1..n-1 at once, from
    the window sums accumulated column by column."""
    return np.abs(np.cumsum(_roots_table(n, n - 1, h), axis=1)).sum(axis=0)


def _roots_of_unity(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def _character_sum(graph, chi):
    """Direct evaluator: |sum over points of exp(2*pi*i*(s*x/p + t*y/(p-1)))|.

    Phases are reduced to exact integer indices into root-of-unity
    tables before exponentiation, so no precision is lost to large
    arguments.
    """
    p, d = graph.p, graph.d
    if not (0 <= chi.s < p and 0 <= chi.t < d):
        raise ValueError(f"character index ({chi.s}, {chi.t}) outside [0,{p}) x [0,{d})")
    wp = _roots_of_unity(p)
    wd = _roots_of_unity(d)
    terms = wp[(chi.s * graph.first) % p] * wd[(chi.t * np.arange(d)) % d]
    return float(abs(terms.sum()))


def test_character_sum_trivial_is_size():
    graph = _graph(5, 2)
    assert _character_sum(graph, CharacterIndex(0, 0)) == pytest.approx(4.0, abs=1e-12)


def test_character_sum_p3_example():
    graph = _graph(3, 2)
    # the two nonzero cube roots of unity sum to -1
    assert _character_sum(graph, CharacterIndex(1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_character_sum_rejects_out_of_range_index():
    graph = _graph(5, 2)
    with pytest.raises(ValueError):
        _character_sum(graph, CharacterIndex(5, 0))
    with pytest.raises(ValueError):
        _character_sum(graph, CharacterIndex(0, 4))


def test_max_character_sum_p5_under_bound():
    graph = _graph(5, 2)
    direct_max = max(
        _character_sum(graph, CharacterIndex(s, t))
        for s in range(5)
        for t in range(4)
        if (s, t) != (0, 0)
    )
    [(_, value, chi)] = max_nontrivial_character_sums(5, [2])
    assert (chi.s, chi.t) != (0, 0)
    assert value == pytest.approx(direct_max, abs=1e-9)
    assert value < math.sqrt(12)


@pytest.mark.parametrize("p", [3, 5, 13, 61])
def test_max_scan_agrees_with_direct_evaluator(p):
    """The transform row and the per-character evaluator are separate
    routes; they must agree everywhere."""
    g = smallest_generator(p).g
    graph = _graph(p, g)
    [(_, value, chi)] = max_nontrivial_character_sums(p, [g])
    assert _character_sum(graph, chi) == pytest.approx(value, abs=1e-9)
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = int(rng.integers(0, p))
        t = int(rng.integers(0, p - 1))
        if (s, t) == (0, 0):
            continue
        assert _character_sum(graph, CharacterIndex(s, t)) <= value + 1e-9


@pytest.mark.parametrize("p", [3, 5, 61])
def test_character_bound_small_primes(p):
    for _, value, _ in max_nontrivial_character_sums(p, all_generators(p)):
        assert value < sidon_character_bound(p)


@pytest.mark.parametrize("p", [3, 5, 61, 101])
def test_argmax_is_first_index_of_the_tie(p):
    """Every (s, t) with s, t != 0 ties at sqrt(p); the first in
    row-major order wins, whatever the rounding noise."""
    for _, _, chi in max_nontrivial_character_sums(p, all_generators(p)):
        assert chi == CharacterIndex(1, 1)
    # the oracle's rule: with one point every character has magnitude 1,
    # so (0, 1) comes first
    _, chi = _dense_character_maximum(p, [1], [0])
    assert chi == CharacterIndex(0, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 61, 101])
def test_max_matches_dense_grid(p):
    """The one-row transform agrees with the full p x (p-1) grid on every
    generator: the same maximum and the same index under the tie rule."""
    generators = all_generators(p)
    for graph, (g, value, chi) in zip(
        build_graphs(p, generators), max_nontrivial_character_sums(p, generators)
    ):
        dense_value, dense_chi = _dense_character_maximum(p, graph.first, range(p - 1))
        assert value == pytest.approx(dense_value, rel=1e-12, abs=0), g
        assert chi == dense_chi, g


@pytest.mark.parametrize("p", [5, 13])
def test_parseval_via_direct_evaluator(p):
    graph = _graph(p, smallest_generator(p).g)
    total = sum(
        _character_sum(graph, CharacterIndex(s, t)) ** 2
        for s in range(p)
        for t in range(p - 1)
    )
    expected = p * (p - 1) * (p - 1)
    assert total == pytest.approx(expected, rel=1e-6)


def test_incomplete_sum_examples():
    assert incomplete_exponential_sum_total(2, 1) == pytest.approx(2.0, abs=1e-12)
    assert incomplete_exponential_sum_total(4, 2) == pytest.approx(
        2 + 2 * math.sqrt(2), abs=1e-12
    )


def test_total_is_the_same_float_for_every_shift(capsys):
    """The window start h enters only as polya --shift, which is echoed;
    the closed form never sees it, so no output digit depends on it."""
    base = incomplete_exponential_sum_total(4000, 2000)
    for h in [*range(50), 3999, -1, 10**20 + 7]:
        code = main(["polya", "--n", "4000", "--window", "2000", "--shift", str(h)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0, h
        assert doc["shift"] == h
        assert doc["total"] == base, h


def test_incomplete_sum_rejects_bad_window():
    with pytest.raises(ValueError):
        incomplete_exponential_sum_total(4, 4)
    with pytest.raises(ValueError):
        incomplete_exponential_sum_total(4, 0)
    with pytest.raises(ValueError):
        incomplete_exponential_sum_total(1, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=300),
    st.data(),
)
def test_profile_matches_direct_total(n, data):
    """The closed form agrees with the matrix route and the cumulative
    profile, two dense routes over the root table, at every window start."""
    N = data.draw(st.integers(min_value=1, max_value=n - 1))
    h = data.draw(st.integers(min_value=-20, max_value=2 * n))
    profile = _cumulative_profile(n, h)
    assert len(profile) == n - 1
    closed = incomplete_exponential_sum_total(n, N)
    assert closed == pytest.approx(_matrix_total(n, N, h), rel=1e-12, abs=0)
    assert closed == pytest.approx(float(profile[N - 1]), rel=1e-12, abs=0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.data(),
)
def test_shift_invariance(n, data):
    """The total at any start h equals the closed form, which has no h."""
    N = data.draw(st.integers(min_value=1, max_value=n - 1))
    h = data.draw(st.integers(min_value=-50, max_value=1000))
    assert abs(_matrix_total(n, N, h) - incomplete_exponential_sum_total(n, N)) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 10, 25, 50])
def test_polya_bound_small(n):
    bound = polya_vinogradov_bound(n)
    for h in (0, 7, n - 1):
        profile = _cumulative_profile(n, h)
        assert float(profile.max()) < bound
