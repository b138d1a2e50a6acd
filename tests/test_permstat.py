import tracemalloc
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elgamalmap import permstat
from elgamalmap.numth import GroupParams, all_generators, smallest_generator
from elgamalmap.permstat import (
    DIST_MAX_CYCLES,
    _block_rows,
    _cycle_lengths,
    family_cycle_types,
    family_statistics,
    fixed_point_sweep,
    random_cycle_counts,
    stirling_cycle_distribution,
)

from perm_oracle import (
    elgamal_permutation,
    enumerated_cycle_distribution,
    orbit_walk_lengths,
    random_permutation,
)


def _expected_cycles(n: int) -> float:
    """Oracle: the harmonic number H_n, the mean cycle count of a uniform
    permutation, summed from the smallest term up for accuracy."""
    return sum(1.0 / i for i in range(n, 0, -1))


def _decompose(images) -> tuple[np.ndarray, np.ndarray]:
    """(row, length) of every row of the (m, n) block of 1-based image
    tables `images`, through the blocked kernel, which takes them 0-based,
    with rows numbered from 0 across its blocks."""
    images = np.asarray(images)

    def fill(start, stop, out, scratch):
        out[:] = images[start:stop] - 1

    blocks = list(_cycle_lengths(*images.shape, fill))
    starts = np.cumsum([0] + [m for m, _, _ in blocks])
    return (np.concatenate([row + start for (_, row, _), start in zip(blocks, starts)]),
            np.concatenate([lengths for _, _, lengths in blocks]))


@settings(max_examples=100)
@example(1, 0, 0)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**63 - 1),
)
def test_cycle_lengths_matches_orbit_walk(n, random_rows, seed):
    rng = np.random.default_rng(seed)
    identity = np.arange(1, n + 1)
    n_cycle = np.roll(identity, -1)  # x -> x+1, n -> 1
    images = np.stack([identity, n_cycle] + [rng.permutation(n) + 1 for _ in range(random_rows)])
    rows, lengths = _decompose(images)
    assert rows.tolist() == sorted(rows.tolist())
    for r, image in enumerate(images.tolist()):
        assert lengths[rows == r].tolist() == orbit_walk_lengths(image)


@pytest.mark.parametrize("block_rows", [None, 1], ids=["multi-row", "one-row"])
@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 1023, 1024, 1025])
def test_cycle_lengths_edges_match_orbit_walk(monkeypatch, n, block_rows):
    """At and around the powers of two, where the kernel's doubling rounds
    and its walk's hop count change, each row's lengths are the orbit
    walk's: the identity (every cell its own label, the most labels), the
    n-cycle (whose labels walk every hop to reach its least cell) and four
    random rows, in one block of six rows and in blocks of one row."""
    rng = np.random.default_rng(n)
    identity = np.arange(1, n + 1)
    images = np.stack([identity, np.roll(identity, -1)] + [rng.permutation(n) + 1 for _ in range(4)])
    if block_rows is not None:
        monkeypatch.setattr(permstat, "_BLOCK_CELLS", block_rows * n)
    assert _block_rows(len(images), n) == (block_rows or len(images))
    rows, lengths = _decompose(images)
    for r, image in enumerate(images.tolist()):
        assert lengths[rows == r].tolist() == orbit_walk_lengths(image)


@pytest.mark.parametrize("n", [1, 2, 7, 20000])  # 20000: one row per block
def test_cycle_lengths_rejects_non_bijections(n):
    """Images n and -1 (out of range) and a repeat, each in a row alone
    and between two good rows; `_decompose` shifts these 1-based rows."""
    good = np.arange(1, n + 1)
    bad_rows = [np.full(n, n + 1), np.zeros(n, dtype=np.int64)]
    if n > 1:
        bad_rows.append(np.r_[good[:-1], 1])  # 1 repeated, n missing
    for bad in bad_rows:
        with pytest.raises(ValueError):
            _decompose(bad.reshape(1, n))
        with pytest.raises(ValueError):
            _decompose(np.stack([good, bad, good]))


def test_cycle_decompose_examples():
    rows, lengths = _decompose([[1, 2, 3, 4]])
    assert lengths.tolist() == [1, 1, 1, 1]
    assert rows.tolist() == [0, 0, 0, 0]
    index, length, count = family_cycle_types(5, [2, 3])
    # g=2: cycle (1 2 4) and fixed point 3; g=3: the 4-cycle (1 3 2 4)
    assert (index.tolist(), length.tolist(), count.tolist()) == ([0, 0, 1], [3, 1, 4], [1, 1, 1])
    assert [a.tolist() for a in family_cycle_types(3, [2])] == [[0], [2], [1]]
    assert [a.dtype for a in family_cycle_types(3, [])] == [np.int64] * 3


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**63 - 1))
def test_cycle_lengths_sum_to_degree(n, seed):
    _, lengths = _decompose([random_permutation(n, seed).image])
    assert lengths.sum() == n


@pytest.mark.parametrize(
    ("n", "samples", "seed"),
    [(1, 3, 0), (100, 400, 7), (20000, 2, 3), (5, 0, 0)],  # 3 blocks; one row per block; none
)
def test_random_cycle_counts_matches_orbit_walk(n, samples, seed):
    expected = [
        len(orbit_walk_lengths(random_permutation(n, seed + i).image)) for i in range(samples)
    ]
    counts = random_cycle_counts(n, samples, seed)
    assert isinstance(counts, np.ndarray) and counts.dtype == np.int64
    assert counts.tolist() == expected


def test_random_cycle_counts_is_seeded_per_sample():
    """The same arguments give the same counts, and sample i is seeded
    with seed + i, across the 3 kernel blocks of 400 samples at n = 100."""
    counts = random_cycle_counts(100, 400, 7).tolist()
    assert len(set(counts)) > 1
    assert random_cycle_counts(100, 400, 7).tolist() == counts
    assert random_cycle_counts(100, 399, 8).tolist() == counts[1:]


def test_stirling_examples():
    one = stirling_cycle_distribution(1)
    assert one.dtype == np.float64
    assert one.tolist() == [0.0, 1.0]
    three = stirling_cycle_distribution(3)
    assert three[1:4] == pytest.approx([1 / 3, 1 / 2, 1 / 6], abs=1e-15)
    with pytest.raises(ValueError):
        stirling_cycle_distribution(0)


def _full_stirling_recurrence(n):
    """Oracle: the recurrence over every entry 1..m at each step m."""
    probs = np.zeros(n + 1)
    probs[1] = 1.0
    for m in range(2, n + 1):
        q = 1.0 / m
        probs[1 : m + 1] = probs[0:m] * q + probs[1 : m + 1] * (1.0 - q)
    return probs


def _printed_prefix(n):
    """The entries 0..min(n, 20) of the full recurrence, those the tables print."""
    return _full_stirling_recurrence(n)[: min(n, DIST_MAX_CYCLES) + 1]


@pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 60, 170, 1008, 4000, 12486, 14820, 32768])
def test_stirling_nonzero_prefix_matches_full_recurrence(n):
    """Computing only the entries the tables print changes none of their
    bytes: the full recurrence's entry c reads only its entries c-1 and c."""
    assert stirling_cycle_distribution(n).tobytes() == _printed_prefix(n).tobytes()


def test_stirling_1009_mode_is_near_seven():
    dist = stirling_cycle_distribution(1009)
    assert int(np.argmax(dist)) == 7


@pytest.mark.parametrize("n", [2, 5, 17, 100, 1009, 5000])
def test_stirling_normalization_and_mean(n):
    """The full recurrence is a distribution with mean H_n, and every entry
    that production computes is that oracle's, byte for byte."""
    dist = _full_stirling_recurrence(n)
    assert stirling_cycle_distribution(n).tobytes() == _printed_prefix(n).tobytes()
    assert dist[0] == 0.0 and float(dist.min()) >= 0.0
    assert abs(float(dist.sum()) - 1.0) <= 1e-9
    mean = float(np.arange(n + 1) @ dist)
    assert mean == pytest.approx(_expected_cycles(n), rel=1e-6)


@pytest.mark.parametrize("n", range(1, 9))
def test_stirling_matches_exhaustive_enumeration(n):
    dp = stirling_cycle_distribution(n)
    exact = enumerated_cycle_distribution(n)
    assert max(abs(dp[c] - exact[c]) for c in range(n + 1)) <= 1e-12


def test_expected_cycles_examples():
    assert _expected_cycles(1) == 1.0
    assert _expected_cycles(3) == pytest.approx(11 / 6, abs=1e-15)
    # frozen from direct summation
    assert _expected_cycles(1009) == pytest.approx(7.4944261435405535, abs=1e-9)


def test_random_permutation_degree_one():
    assert random_permutation(1, 99).image == (1,)


def test_random_permutation_determinism():
    a = random_permutation(1009, 42)
    b = random_permutation(1009, 42)
    assert a.image == b.image
    assert random_permutation(1009, 43).image != a.image


def test_random_permutations_distinct_across_seeds():
    images = {random_permutation(1009, seed).image for seed in range(20)}
    assert len(images) == 20


def test_monte_carlo_k_cycle_averages():
    """10**4 seeded samples of degree 200: k-cycle averages within
    1/k +- 0.05 for k = 1..5."""
    images = np.array([random_permutation(200, seed).image for seed in range(10_000)])
    totals = np.bincount(_decompose(images)[1], minlength=6)
    for k in range(1, 6):
        assert abs(totals[k] / 10_000 - 1 / k) < 0.05


def test_family_statistics_p5():
    cycle_counts, avg_k_cycles = family_statistics(5, k_max=4)
    # g=2=2**1 has cycles (3,1); g=3=2**3 is the 4-cycle (1 3 2 4)
    assert np.array_equal(cycle_counts, [2, 1])
    assert avg_k_cycles[0] == pytest.approx(0.5)
    assert cycle_counts.sum() / len(cycle_counts) == 1.5


def test_family_statistics_p3():
    cycle_counts, avg_k_cycles = family_statistics(3, k_max=2)
    assert np.array_equal(cycle_counts, [1])
    assert np.array_equal(avg_k_cycles, [0.0, 1.0])


def test_family_statistics_is_deterministic():
    a = family_statistics(13, k_max=6)
    b = family_statistics(13, k_max=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_family_statistics_rejects_bad_input():
    for p in (-1, 0, 1, 2, 4, 9, 10):
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}"):
            family_statistics(p, k_max=3)
    with pytest.raises(ValueError, match="k_max must be >= 1, got 0"):
        family_statistics(5, k_max=0)


# (p, how many of its generators, smallest first; None for all of them)
_ORACLE_CASES = [(p, None) for p in range(3, 200) if all(p % q for q in range(2, p))]
_ORACLE_CASES += [(1009, None), (16381, 3)]


@pytest.mark.parametrize("p, how_many", _ORACLE_CASES, ids=[str(p) for p, _ in _ORACLE_CASES])
def test_family_cycle_lengths_matches_orbit_walk(p, how_many):
    """`family_cycle_types`: each generator's rows are the multiset of
    orbit-walk lengths of its own permutation x -> pow(g, x, p), longest
    first, and cover p-1."""
    generators = all_generators(p)[:how_many]
    index, length, count = family_cycle_types(p, generators)
    assert all(a.dtype == np.int64 for a in (index, length, count))
    assert np.all(np.diff(index) >= 0)
    assert np.all(np.diff(length)[np.diff(index) == 0] < 0)  # longest first, each length once
    assert np.bincount(index, weights=length * count).tolist() == [p - 1] * len(generators)
    for i, g in enumerate(generators):
        walk = orbit_walk_lengths([pow(g, x, p) for x in range(1, p)])
        lengths, counts = np.unique(walk, return_counts=True)
        assert length[index == i].tolist() == lengths[::-1].tolist()
        assert count[index == i].tolist() == counts[::-1].tolist()


# the whole family at 16381 is about 57 M cells, so its 3-generator case stays with the oracle
_FAMILY_PRIMES = [p for p, how_many in _ORACLE_CASES if how_many is None]


@pytest.mark.parametrize("p", _FAMILY_PRIMES, ids=str)
def test_family_statistics_matches_cycle_types(p):
    """`family_statistics` reduces the oracle-tested `family_cycle_types`
    of all generators: the same cycle counts, compared sorted since the
    two order the family differently, and the mean count of each length k;
    with k_max = p + 1, the rows past p-1 read 0."""
    generators = all_generators(p)
    index, length, count = family_cycle_types(p, generators)
    cycle_counts, avg_k_cycles = family_statistics(p, k_max=p + 1)
    assert (cycle_counts.dtype, avg_k_cycles.dtype) == (np.int64, np.float64)
    assert np.array_equal(np.sort(cycle_counts), np.sort(np.bincount(index, weights=count)))
    k_totals = np.bincount(length, weights=count, minlength=p + 2)
    assert np.array_equal(avg_k_cycles, k_totals[1:] / len(generators))
    assert not avg_k_cycles[p - 1 :].any()


@pytest.mark.parametrize("p", [11, 101, 1009])
def test_family_statistics_orders_by_exponent(p):
    """cycle_counts[i] belongs to g0**j for the i-th unit j mod p-1, which
    at these primes is not the ascending order of the generators."""
    g0 = smallest_generator(p)
    units = [j for j in range(1, p - 1) if gcd(j, p - 1) == 1]
    generators = [pow(g0.g, j, p) for j in units]
    assert generators != sorted(generators)
    index, _, count = family_cycle_types(p, generators)
    cycle_counts, _ = family_statistics(p, k_max=1)
    assert np.array_equal(cycle_counts, np.bincount(index, weights=count))


@pytest.mark.parametrize("rows", [1, 3], ids=["one-row", "three-rows"])
def test_family_results_do_not_depend_on_block_size(monkeypatch, rows):
    """At 101, whose 40 generators take 100 cells each, blocks of one row
    and of three rows (40 = 13*3 + 1, so the last block holds one row)
    give the results of the default single block."""
    generators = all_generators(101)
    expected = (family_statistics(101, k_max=102), family_cycle_types(101, generators))
    assert _block_rows(40, 100) == 40
    monkeypatch.setattr(permstat, "_BLOCK_CELLS", rows * 100)
    assert _block_rows(40, 100) == rows
    got = (family_statistics(101, k_max=102), family_cycle_types(101, generators))
    for want, have in zip(expected, got):
        assert all(np.array_equal(a, b) for a, b in zip(want, have))


def test_family_cycle_types_cases_cross_blocks():
    """The oracle's two large cases add each block's row offset: all 288
    generators of 1009 at 16 rows a block (18 blocks), and at 16381,
    whose p-1 cells exceed _BLOCK_CELLS, one row a block."""
    assert _block_rows(288, 1008) == 16
    assert _block_rows(3, 16380) == 1


@pytest.mark.parametrize(
    "p, generators, run",
    [
        (999983, lambda p: [smallest_generator(p).g], family_cycle_types),
        (4001, all_generators, lambda p, generators: family_statistics(p, 20)),
    ],
    ids=["one-row-blocks", "all-generators"],
)
def test_family_kernel_allocates_only_its_work_arrays(p, generators, run):
    """With g0's table built beforehand, a family run allocates the
    kernel's three work arrays and at most 128 KiB besides: the
    generators' exponents and the small per-block results.  One more
    array of p-1 cells breaks the bound: 8 MB at 999983, and at 4001 the
    160 KB that a block of exponents and a column of residues took."""
    generators = generators(p)
    smallest_generator(p).table  # built once per prime, before tracing
    work_arrays = 3 * _block_rows(len(generators), p - 1) * (p - 1) * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run(p, generators)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= work_arrays + 2**17


def test_fixed_point_sweep_matches_brute_force():
    """Count image[x-1] == x over every generator's permutation."""
    expected = [(2, 1.0)]
    for p in range(3, 212):
        if all(p % q for q in range(2, p)):
            generators = all_generators(p)
            total = 0
            for g in generators:
                image = elgamal_permutation(GroupParams(p, g)).image
                total += sum(image[x - 1] == x for x in range(1, p))
            expected.append((p, total / len(generators)))
    primes, means = fixed_point_sweep(211)
    assert list(zip(primes.tolist(), means.tolist())) == expected


def _sweep_rows(max_prime):
    """fixed_point_sweep's columns as {p: mean}."""
    return dict(zip(*(column.tolist() for column in fixed_point_sweep(max_prime))))


@pytest.mark.parametrize("max_prime", [1, 2, 3, 4, 100, 2111])
def test_fixed_point_sweep_returns_columns_of_every_prime(max_prime):
    primes, means = fixed_point_sweep(max_prime)
    assert primes.dtype == np.int64 and means.dtype == np.float64
    assert primes.shape == means.shape == (len(primes),)
    assert primes.tolist() == list(sympy.primerange(2, max_prime + 1))


def test_fixed_point_sweep_small_values():
    rows = _sweep_rows(7)
    assert rows[2] == 1.0  # identity on the one-element group
    assert rows[3] == 0.0
    assert rows[5] == 0.5
    assert rows[7] == 1.5


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 61, 101, 1009, 2111])
def test_fixed_point_sweep_agrees_with_decomposition(p):
    """Dual route: the vectorized sweep must reproduce the average number
    of 1-cycles over explicitly decomposed permutations."""
    _, avg_k_cycles = family_statistics(p, k_max=1)
    sweep_avg = _sweep_rows(p)[p]
    assert sweep_avg == pytest.approx(avg_k_cycles[0], abs=1e-12)


def test_fixed_point_sweep_allocates_only_its_arrays():
    """Besides the two columns it returns, the sweep to 20000 holds the
    totient sieve and at most five int64 arrays of p-1 cells at once: g0's
    table, the gcd table, h and the sum's temporaries.  Keeping the previous
    prime's arrays alive while the next prime's are built, or an inverse of
    the table, p cells more, breaks the bound."""
    fixed_point_sweep(20000)  # fills the prime-divisor cache before tracing
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        primes, means = fixed_point_sweep(20000)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    returned = primes.nbytes + means.nbytes
    assert peak <= returned + 8 * 20001 + 5 * 8 * 20000
