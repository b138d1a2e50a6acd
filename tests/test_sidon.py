import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elgamalmap.cli import main
from elgamalmap.numth import all_generators, is_prime, power_table, smallest_generator
from elgamalmap.sidon import (
    SidonGraph,
    build_graph,
    incomplete_exponential_sum_total,
    max_nontrivial_character_sum,
    polya_vinogradov_bound,
    sidon_character_bound,
    verify_sidon,
)

from sidon_oracle import (
    brute_force_difference_counts,
    dense_difference_counts,
    first_collision_witness,
    points,
)


def test_build_graph_examples():
    assert points(build_graph(3, 2)) == [(1, 0), (2, 1)]
    assert points(build_graph(5, 2)) == [(1, 0), (2, 1), (4, 2), (3, 3)]
    # 3 = 2**3 mod 5: the table of 2 read at 3*x mod 4
    assert [points(build_graph(5, g)) for g in [3, 2]] == [
        [(1, 0), (3, 1), (4, 2), (2, 3)],
        [(1, 0), (2, 1), (4, 2), (3, 3)],
    ]


def _direct_graph(p, g):
    """Oracle: the graph from g's own power table, one table per generator."""
    return SidonGraph(p=p, g=g, first=power_table(p, g))


def _direct_character_maximum(p, g):
    """Oracle: one FFT of g's own power table, the row s = 1 of the grid,
    with the index (1, t) of the first t within a relative 1e-9 of the
    row's maximum."""
    row = np.abs(np.fft.fft(np.exp(2j * np.pi * power_table(p, g) / p)))
    peak = float(row.max())
    return peak, (1, int(np.argmax(row >= peak * (1.0 - 1e-9))))


@pytest.mark.parametrize("p", [3, 5, 7, 13, 61, 101, 1009])
def test_family_route_matches_direct_route(p):
    """Reading the smallest generator's table at j*x mod p-1 gives every
    generator's own table, Sidon check and largest character sum.  Each
    graph has the verdict of g0's graph, the one certificate `sidon`
    makes for all generators, and the certified
    maximum sqrt(p) of g0's graph, which a direct FFT of each g's own
    table reaches first at (1, 1)."""
    generators = all_generators(p)
    assert generators[0] == smallest_generator(p).g
    smallest = verify_sidon(build_graph(p, generators[0]))
    for g in generators:
        graph, direct = build_graph(p, g), _direct_graph(p, g)
        assert graph.g == g
        assert np.array_equal(graph.first, direct.first), g
        check = verify_sidon(direct)
        assert verify_sidon(graph) == check == smallest, g
        assert max_nontrivial_character_sum(graph) == (math.sqrt(p), None), g
        direct_value, direct_chi = _direct_character_maximum(p, g)
        assert direct_value == pytest.approx(math.sqrt(p), rel=1e-12, abs=0), g
        assert direct_chi == (1, 1), g


@pytest.mark.parametrize("p", [3, 5, 13, 101, 1009])
def test_graph_has_p_minus_1_points(p):
    graph = build_graph(p, smallest_generator(p).g)
    assert graph.size == p - 1
    firsts = {u for u, _ in points(graph)}
    assert len(firsts) == p - 1 and 0 not in firsts
    assert [v for _, v in points(graph)] == list(range(p - 1))


def _difference_set_size(graph):
    """|S - S| as `sidon` reports it: d*(d-1) + 1, zero difference
    included, when `verify_sidon` certifies the graph, else None."""
    d = graph.d
    return d * (d - 1) + 1 if verify_sidon(graph) is None else None


def test_verify_sidon_small_graphs():
    assert verify_sidon(build_graph(5, 2)) is None
    assert verify_sidon(build_graph(3, 2)) is None


def test_verify_sidon_failure_witness():
    # The arithmetic progression t[y] = y is not Sidon: the pairs at lag v
    # that do not wrap all differ by (v, v).  The certificate rejects it
    # at y = 0, where the table is 0.
    graph = SidonGraph(p=5, g=0, first=np.arange(4))
    assert verify_sidon(graph) == 0
    assert _difference_set_size(graph) is None
    pts = points(graph)
    assert first_collision_witness(pts, 5) == (((1, 1), (0, 0)), ((2, 2), (1, 1)))
    # (0, 0), then (v, v) and, across the wrap, (v - 4 mod 5, v) for v = 1, 2, 3
    assert len(brute_force_difference_counts(pts, 5)) + 1 == 7
    assert np.count_nonzero(dense_difference_counts(graph)) == 7


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
    # any table of p-1 values in [0, p) is a graph, repeats included
    assert points(SidonGraph(p=5, g=0, first=np.array([0, 0, 4, 4]))) == [
        (0, 0), (0, 1), (4, 2), (4, 3)
    ]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_sidon_and_difference_size_against_oracle(p):
    for graph in [build_graph(p, g) for g in all_generators(p)]:
        counts = brute_force_difference_counts(points(graph), p)
        assert max(counts.values()) == 1
        assert verify_sidon(graph) is None
        assert _difference_set_size(graph) == len(counts) + 1  # plus zero


def test_difference_set_size_examples():
    assert _difference_set_size(build_graph(5, 2)) == 13
    assert _difference_set_size(build_graph(3, 2)) == 3


def test_difference_set_size_at_1009():
    graph = build_graph(1009, 11)
    assert _difference_set_size(graph) == 1008**2 - 1008 + 1 == 1015057


def _first_broken_exponent(graph):
    """Oracle for the witness of `verify_sidon`: the first y whose table value is 0 or
    occurs twice, or whose successor is not g times it, else None."""
    p, d, g = graph.p, graph.d, graph.g
    t = graph.first.tolist()
    for y in range(d):
        if t[y] == 0 or t.count(t[y]) > 1 or t[(y + 1) % d] != g * t[y] % p:
            return y
    return None


@st.composite
def _tables(draw):
    """(p, g, table) with table: Z_{p-1} -> Z_p and g any integer: scaled
    power tables c*g**y, which the certificate accepts, those with one
    entry changed, and arbitrary tables, most of them not Sidon."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 61, 137]))
    d = p - 1
    generators = all_generators(p)
    g = draw(st.one_of(st.sampled_from(generators), st.integers(-2 * p, 2 * p)))
    kind = draw(st.sampled_from(["scaled", "changed", "permutation", "arbitrary"]))
    if kind == "permutation":  # injective and nonzero, like a power table
        return p, g, draw(st.permutations(range(1, p)))
    if kind == "arbitrary":
        return p, g, draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    c = draw(st.integers(1, p - 1))
    table = [c * pow(g, y, p) % p for y in range(d)]
    if kind == "changed":
        table[draw(st.integers(0, d - 1))] = draw(st.integers(0, p - 1))
    return p, g, table


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_random_tables_match_oracle(case):
    """The certificate is sound on arbitrary tables t: Z_{p-1} -> Z_p:
    when it accepts, the exhaustive count finds a Sidon set with
    (p-1)(p-2) + 1 differences; when it rejects, it returns the first
    exponent that breaks the per-y definition, a plain int.  The converse need not
    hold: a Sidon table need not satisfy the recurrence."""
    p, g, values = case
    graph = SidonGraph(p=p, g=g, first=np.array(values, dtype=np.int64))
    broken_at = verify_sidon(graph)
    assert broken_at == _first_broken_exponent(graph)
    if broken_at is None:
        dense = dense_difference_counts(graph)
        assert dense[1:].max() <= 1
        assert _difference_set_size(graph) == np.count_nonzero(dense) == (p - 1) * (p - 2) + 1
        assert max(brute_force_difference_counts(points(graph), p).values()) == 1
    else:
        assert type(broken_at) is int  # JSON-serializable, unlike a numpy integer
        assert _difference_set_size(graph) is None


def test_every_swap_of_a_power_table_is_rejected():
    """Exchanging entries i < j of g0's table breaks the recurrence first
    at y = i-1 (at y = 0 when i = 0), so from p = 5 on the certificate
    rejects every such table, whether or not it is still Sidon.  The one
    swap at p = 3 gives 2*2**y, a scaled power table, which it accepts."""
    assert verify_sidon(SidonGraph(p=3, g=2, first=np.array([2, 1]))) is None
    swaps = 0
    for p in range(5, 102):
        if not is_prime(p):
            continue
        g = smallest_generator(p).g
        table = build_graph(p, g).first
        for i in range(p - 1):
            for j in range(i + 1, p - 1):
                swapped = table.copy()
                swapped[[i, j]] = swapped[[j, i]]
                broken_at = verify_sidon(SidonGraph(p=p, g=g, first=swapped))
                assert broken_at == max(i - 1, 0), (p, i, j)
                swaps += 1
    assert swaps == sum(math.comb(p - 1, 2) for p in range(5, 102) if is_prime(p))


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
    return peak, divmod(int(np.argmax(magnitudes >= peak * (1.0 - 1e-9))), d)


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
    """Direct evaluator: |sum over points of exp(2*pi*i*(s*x/p + t*y/(p-1)))|
    for chi = (s, t).

    Phases are reduced to exact integer indices into root-of-unity
    tables before exponentiation, so no precision is lost to large
    arguments.
    """
    p, d = graph.p, graph.d
    s, t = chi
    if not (0 <= s < p and 0 <= t < d):
        raise ValueError(f"character index ({s}, {t}) outside [0,{p}) x [0,{d})")
    wp = _roots_of_unity(p)
    wd = _roots_of_unity(d)
    terms = wp[(s * graph.first) % p] * wd[(t * np.arange(d)) % d]
    return float(abs(terms.sum()))


def test_character_sum_trivial_is_size():
    graph = build_graph(5, 2)
    assert _character_sum(graph, (0, 0)) == pytest.approx(4.0, abs=1e-12)


def test_character_sum_p3_example():
    graph = build_graph(3, 2)
    # the two nonzero cube roots of unity sum to -1
    assert _character_sum(graph, (1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_character_sum_rejects_out_of_range_index():
    graph = build_graph(5, 2)
    with pytest.raises(ValueError):
        _character_sum(graph, (5, 0))
    with pytest.raises(ValueError):
        _character_sum(graph, (0, 4))


def test_max_character_sum_p5_under_bound():
    graph = build_graph(5, 2)
    direct_max = max(
        _character_sum(graph, (s, t))
        for s in range(5)
        for t in range(4)
        if (s, t) != (0, 0)
    )
    value, off_at = max_nontrivial_character_sum(graph)
    assert (value, off_at) == (math.sqrt(5), None)
    assert value == pytest.approx(direct_max, abs=1e-9)
    assert value < math.sqrt(12)


@pytest.mark.parametrize("p", [3, 5, 13, 61])
def test_max_scan_agrees_with_direct_evaluator(p):
    """The certified row and the per-character evaluator are separate
    routes; they must agree everywhere."""
    graph = build_graph(p, smallest_generator(p).g)
    value, _ = max_nontrivial_character_sum(graph)
    assert _character_sum(graph, (1, 1)) == pytest.approx(value, abs=1e-9)
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = int(rng.integers(0, p))
        t = int(rng.integers(0, p - 1))
        if (s, t) == (0, 0):
            continue
        assert _character_sum(graph, (s, t)) <= value + 1e-9


@pytest.mark.parametrize("p", [3, 5, 61])
def test_character_bound_small_primes(p):
    for g in all_generators(p):
        value, off_at = max_nontrivial_character_sum(build_graph(p, g))
        assert off_at is None, g
        assert value < sidon_character_bound(p)


@pytest.mark.parametrize("p", [3, 5, 61, 101])
def test_argmax_is_first_index_of_the_tie(p, capsys):
    """Every (s, t) with s, t != 0 ties at sqrt(p); the first in
    row-major order is (1, 1), which `char-sums` reports for every
    generator."""
    assert main(["char-sums", "--prime", str(p), "--generator", "all"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert len(rows) == len(all_generators(p))
    assert {(row["argmax_s"], row["argmax_t"]) for row in rows} == {(1, 1)}
    for g in all_generators(p):
        _, chi = _dense_character_maximum(p, build_graph(p, g).first, range(p - 1))
        assert chi == (1, 1), g
    # the oracle's rule: with one point every character has magnitude 1,
    # so (0, 1) comes first
    _, chi = _dense_character_maximum(p, [1], [0])
    assert chi == (0, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 61, 101])
def test_max_matches_dense_grid(p):
    """The certified maximum agrees with the full p x (p-1) grid on every
    generator: the grid's maximum is sqrt(p), first reached at (1, 1)."""
    for g in all_generators(p):
        graph = build_graph(p, g)
        value, off_at = max_nontrivial_character_sum(graph)
        dense_value, dense_chi = _dense_character_maximum(p, graph.first, range(p - 1))
        assert (value, off_at) == (math.sqrt(p), None), g
        assert value == pytest.approx(dense_value, rel=1e-12, abs=0), g
        assert dense_chi == (1, 1), g


def test_character_check_accepts_every_generator_below_400():
    graphs = 0
    for p in range(3, 400, 2):
        if is_prime(p):
            for g in all_generators(p):
                assert max_nontrivial_character_sum(build_graph(p, g)) == (math.sqrt(p), None)
                graphs += 1
    assert graphs > 5000  # sanity: every generator of every prime was checked


def test_every_swap_of_a_power_table_fails_the_character_check():
    """Exchanging two entries of g0's table moves its row of sums off the
    exact profile (1 at t = 0, sqrt(p) elsewhere) for 7 <= p <= 61; the
    result is then the measured row maximum and the first t that is off.
    At p = 3 and 5 a swap can give another generator's table, whose sums
    have the same magnitudes, so those primes are not claimed."""
    swaps = 0
    for p in range(7, 62):
        if not is_prime(p):
            continue
        g = smallest_generator(p).g
        table = build_graph(p, g).first
        for i in range(p - 1):
            for j in range(i + 1, p - 1):
                swapped = table.copy()
                swapped[[i, j]] = swapped[[j, i]]
                value, off_at = max_nontrivial_character_sum(SidonGraph(p=p, g=g, first=swapped))
                row = np.abs(np.fft.fft(np.exp(2j * np.pi * swapped / p)))
                exact = np.where(np.arange(p - 1) == 0, 1.0, math.sqrt(p))
                off = np.abs(row - exact) > 1e-9 * math.sqrt(p)
                assert off.any(), (p, i, j)
                assert off_at == int(np.argmax(off)), (p, i, j)
                assert value == pytest.approx(float(row.max()), rel=1e-12), (p, i, j)
                swaps += 1
    assert swaps == sum(math.comb(p - 1, 2) for p in range(7, 62) if is_prime(p))


@pytest.mark.parametrize("p", [5, 13])
def test_parseval_via_direct_evaluator(p):
    graph = build_graph(p, smallest_generator(p).g)
    total = sum(
        _character_sum(graph, (s, t)) ** 2
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
