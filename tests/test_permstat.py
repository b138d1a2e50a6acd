import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elgamalmap.elgamal import elgamal_permutation
from elgamalmap.numth import GroupParams, all_generators
from elgamalmap.permstat import (
    _cycle_lengths,
    expected_k_cycles,
    family_cycle_lengths,
    family_statistics,
    fixed_point_sweep,
    random_cycle_counts,
    random_permutation,
    stirling_cycle_distribution,
)


def _expected_cycles(n: int) -> float:
    """Oracle: the harmonic number H_n, the mean cycle count of a uniform
    permutation, summed from the smallest term up for accuracy."""
    return sum(1.0 / i for i in range(n, 0, -1))


def _orbit_walk_lengths(image) -> list[int]:
    """Oracle: cycle lengths by walking each orbit from its least element."""
    n = len(image)
    seen = bytearray(n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = image[x - 1]
            length += 1
        lengths.append(length)
    return lengths


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
    rows, lengths = _cycle_lengths(images)
    assert rows.tolist() == sorted(rows.tolist())
    for r, image in enumerate(images.tolist()):
        assert lengths[rows == r].tolist() == _orbit_walk_lengths(image)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_cycle_lengths_rejects_non_bijections(n):
    good = np.arange(1, n + 1)
    bad_rows = [np.full(n, n + 1), np.zeros(n, dtype=np.int64)]
    if n > 1:
        bad_rows.append(np.r_[good[:-1], 1])  # 1 repeated, n missing
    for bad in bad_rows:
        with pytest.raises(ValueError):
            _cycle_lengths(bad.reshape(1, n))
        with pytest.raises(ValueError):
            _cycle_lengths(np.stack([good, bad, good]))


def test_cycle_decompose_examples():
    rows, lengths = _cycle_lengths(np.array([[1, 2, 3, 4]]))
    assert lengths.tolist() == [1, 1, 1, 1]
    assert rows.tolist() == [0, 0, 0, 0]
    [(_, p5)] = family_cycle_lengths(5, [2])
    assert p5.tolist() == [3, 1]  # cycle (1 2 4), fixed point 3
    [(_, p3)] = family_cycle_lengths(3, [2])
    assert p3.tolist() == [2]


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**63 - 1))
def test_cycle_lengths_sum_to_degree(n, seed):
    _, lengths = _cycle_lengths(np.array([random_permutation(n, seed).image]))
    assert lengths.sum() == n


@pytest.mark.parametrize(
    ("n", "samples", "seed"),
    [(1, 3, 0), (100, 400, 7), (20000, 2, 3)],  # 3 blocks; one row per block
)
def test_random_cycle_counts_matches_orbit_walk(n, samples, seed):
    expected = [
        len(_orbit_walk_lengths(random_permutation(n, seed + i).image)) for i in range(samples)
    ]
    assert random_cycle_counts(n, samples, seed) == expected


def test_stirling_examples():
    one = stirling_cycle_distribution(1)
    assert one.dtype == np.float64
    assert one.tolist() == [0.0, 1.0]
    three = stirling_cycle_distribution(3)
    assert three[1:4] == pytest.approx([1 / 3, 1 / 2, 1 / 6], abs=1e-15)
    with pytest.raises(ValueError):
        stirling_cycle_distribution(0)


def test_stirling_1009_mode_is_near_seven():
    dist = stirling_cycle_distribution(1009)
    assert int(np.argmax(dist)) == 7


@pytest.mark.parametrize("n", [2, 5, 17, 100, 1009, 5000])
def test_stirling_normalization_and_mean(n):
    dist = stirling_cycle_distribution(n)
    assert dist[0] == 0.0 and float(dist.min()) >= 0.0
    assert abs(float(dist.sum()) - 1.0) <= 1e-9
    mean = float(np.arange(n + 1) @ dist)
    assert mean == pytest.approx(_expected_cycles(n), rel=1e-6)


def _enumerated_cycle_distribution(n):
    """Ground truth by walking all n! permutations."""
    counts = [0] * (n + 1)
    for image in itertools.permutations(range(1, n + 1)):
        counts[len(_orbit_walk_lengths(image))] += 1
    return [v / factorial(n) for v in counts]


@pytest.mark.parametrize("n", range(1, 9))
def test_stirling_matches_exhaustive_enumeration(n):
    dp = stirling_cycle_distribution(n)
    exact = _enumerated_cycle_distribution(n)
    assert max(abs(dp[c] - exact[c]) for c in range(n + 1)) <= 1e-12


def test_expected_cycles_examples():
    assert _expected_cycles(1) == 1.0
    assert _expected_cycles(3) == pytest.approx(11 / 6, abs=1e-15)
    # frozen from direct summation
    assert _expected_cycles(1009) == pytest.approx(7.4944261435405535, abs=1e-9)


def test_expected_k_cycles_examples():
    assert expected_k_cycles(1) == 1.0
    assert expected_k_cycles(2) == 0.5
    assert expected_k_cycles(5) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        expected_k_cycles(0)


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
    totals = np.bincount(_cycle_lengths(images)[1], minlength=6)
    for k in range(1, 6):
        assert abs(totals[k] / 10_000 - 1 / k) < 0.05


def test_family_statistics_p5():
    stats = family_statistics(5, [2, 3], k_max=4)
    # g=2 has cycles (3,1); g=3 is the 4-cycle (1 3 2 4)
    assert stats.cycle_counts == (2, 1)
    assert stats.avg_k_cycles[0] == pytest.approx(0.5)
    assert sum(stats.cycle_counts) / len(stats.cycle_counts) == 1.5


def test_family_statistics_p3():
    stats = family_statistics(3, [2], k_max=2)
    assert stats.cycle_counts == (1,)
    assert stats.avg_k_cycles == (0.0, 1.0)


def test_family_statistics_is_deterministic():
    a = family_statistics(13, all_generators(13), k_max=6)
    b = family_statistics(13, all_generators(13), k_max=6)
    assert a == b


def test_family_statistics_rejects_bad_input():
    with pytest.raises(ValueError):
        family_statistics(5, [], k_max=3)
    for g in (4, 1, 0, 5, -1):
        message = "does not generate" if g == 4 else "must lie in"  # 4 has order 2 mod 5
        with pytest.raises(ValueError, match=message):
            family_statistics(5, [g], k_max=3)
        with pytest.raises(ValueError, match=message):
            family_statistics(5, [2, g, 3], k_max=3)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 61, 101, 1009])
def test_family_cycle_lengths_matches_orbit_walk(p):
    """Every generator, relabeled from g0's table in blocks (18 of them at
    p = 1009), against the orbit walk on its own permutation."""
    generators = all_generators(p)
    family = family_cycle_lengths(p, generators)
    assert [g for g, _ in family] == generators
    for g, lengths in family:
        image = elgamal_permutation(GroupParams(p, g)).image
        assert lengths.tolist() == _orbit_walk_lengths(image)


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
    assert fixed_point_sweep(211) == expected


def test_fixed_point_sweep_small_values():
    rows = dict(fixed_point_sweep(7))
    assert rows[2] == 1.0  # identity on the one-element group
    assert rows[3] == 0.0
    assert rows[5] == 0.5
    assert rows[7] == 1.5


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 61, 101])
def test_fixed_point_sweep_agrees_with_decomposition(p):
    """Dual route: the vectorized sweep must reproduce the average number
    of 1-cycles over explicitly decomposed permutations."""
    stats = family_statistics(p, all_generators(p), k_max=1)
    sweep_avg = dict(fixed_point_sweep(p))[p]
    assert sweep_avg == pytest.approx(stats.avg_k_cycles[0], abs=1e-12)
