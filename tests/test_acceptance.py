"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its elapsed time.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete.
"""

import math
import time
from math import gcd

import numpy as np
import sympy

from elgamalmap.discrepancy import count_boxes, sweep, theorem_bound
from elgamalmap.elgamal import sign, verify
from elgamalmap.numth import all_generators, is_prime, smallest_generator
from elgamalmap.permstat import (
    family_statistics,
    fixed_point_sweep,
    random_cycle_counts,
    stirling_cycle_distribution,
)
from elgamalmap.sidon import (
    build_graph,
    incomplete_exponential_sum_total,
    max_nontrivial_character_sum,
    sidon_character_bound,
    verify_sidon,
)

from box_oracle import count_in_box, naive_count
from perm_oracle import enumerated_cycle_distribution, random_permutation
from sidon_oracle import dense_difference_counts


def _criterion(number, description):
    """Print one PASS/FAIL line per criterion, whatever pytest shows."""

    class _Reporter:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {number:2d}] {verdict} ({elapsed:6.2f}s): {description}")
            return False

    return _Reporter()


def _odd_primes_up_to(limit):
    return [p for p in range(3, limit + 1) if is_prime(p)]


def test_criterion_01_generator_count():
    with _criterion(1, "1009 has 288 generators, the smallest being 11"):
        assert len(all_generators(1009)) == 288
        assert smallest_generator(1009).g == 11


def test_criterion_02_sidon_exactness():
    with _criterion(2, "Sidon property and difference-set size, all p <= 200, all generators"):
        graphs = 0
        for p in _odd_primes_up_to(200):
            expected = (p - 1) ** 2 - (p - 1) + 1
            for graph in [build_graph(p, g) for g in all_generators(p)]:
                counts = dense_difference_counts(graph)
                assert counts[1:].max() == 1, (p, graph.g)  # every nonzero difference once
                assert np.count_nonzero(counts) == expected, (p, graph.g)
                assert verify_sidon(graph) is None, (p, graph.g)  # certified, |S - S| = expected
                graphs += 1
        assert graphs > 1000  # sanity: the sweep really was exhaustive


def test_criterion_03_character_sum_bound_exhaustive():
    with _criterion(3, "every nontrivial character sum < sqrt(3(p-1)), 3 <= p <= 61"):
        for p in _odd_primes_up_to(61):
            bound = sidon_character_bound(p)
            for g in all_generators(p):
                graph = build_graph(p, g)
                value, off_at = max_nontrivial_character_sum(graph)
                assert (value, off_at) == (math.sqrt(p), None), (p, g)
                # every character at once: the 2-D FFT of the indicator grid
                indicator = np.zeros((p, p - 1))
                indicator[graph.first, np.arange(p - 1)] = 1.0
                sums = np.abs(np.fft.fft2(indicator))
                sums[0, 0] = 0.0  # the trivial character
                assert abs(float(sums.max()) - value) <= 1e-9 * value, (p, g)
                assert bound - value > 1e-9, (p, g, value)


def _character_sum(graph, s, t):
    """Direct evaluator: |sum over points of exp(2*pi*i*(s*x/p + t*y/(p-1)))|,
    from exact integer phase indices into root-of-unity tables."""
    p, d = graph.p, graph.d
    wp = np.exp(2j * np.pi * np.arange(p) / p)
    wd = np.exp(2j * np.pi * np.arange(d) / d)
    return float(abs((wp[(s * graph.first) % p] * wd[(t * np.arange(d)) % d]).sum()))


def test_criterion_04_parseval():
    with _criterion(4, "Parseval: sum of squared character sums = p(p-1)^2, p in {5,13,61}"):
        for p in (5, 13, 61):
            graph = build_graph(p, smallest_generator(p).g)
            total = sum(
                _character_sum(graph, s, t) ** 2
                for s in range(p)
                for t in range(p - 1)
            )
            expected = p * (p - 1) * (p - 1)
            assert abs(total - expected) / expected <= 1e-6, p


def _cumulative_profile(n, h):
    """Dense oracle: the totals for every window length N = 1..n-1, from
    the root table's window sums accumulated column by column."""
    a = np.arange(n, dtype=np.int64)
    x = (h % n + np.arange(n - 1, dtype=np.int64)) % n
    roots = np.exp(2j * np.pi * ((a[:, None] * x[None, :]) % n) / n)
    return np.abs(np.cumsum(roots, axis=1)).sum(axis=0)


def test_criterion_05_incomplete_sum_bound():
    with _criterion(5, "incomplete sums < 5n ln n and shift-invariant, n in [2,300]"):
        rng = np.random.default_rng(17)
        for n in range(2, 301):
            bound = 5.0 * n * math.log(n)
            base = _cumulative_profile(n, 0)
            assert float(base.max()) < bound, n
            for h in (7, n - 1):
                shifted = _cumulative_profile(n, h)
                assert float(np.abs(shifted - base).max()) < 1e-9, (n, h)
            # the closed form agrees with the profile route
            N = int(rng.integers(1, n))
            h = int(rng.integers(0, n))
            direct = incomplete_exponential_sum_total(n, N)
            assert abs(direct - float(_cumulative_profile(n, h)[N - 1])) < 1e-9, (n, N, h)
            assert direct < bound


def test_criterion_06_box_deviation_bound():
    with _criterion(6, "box deviations <= 50 sqrt(p) ln(p)^2 at p in {101, 1009, 10007}"):
        cases = [
            (101, smallest_generator(101).g),
            (1009, 11),
            (10007, smallest_generator(10007).g),
        ]
        for p, g in cases:
            graph = build_graph(p, g)
            boxes, _, _, deviation, ratio, _ = sweep(graph, num_random_boxes=10_000, seed=42)
            bound = theorem_bound(p)
            assert deviation.max() <= bound, p
            assert ratio.max() <= 50.0, p
            full_width = boxes[:, 1] == p  # full-width boxes are exact
            assert (deviation[full_width] == 0.0).all(), p
            rng = np.random.default_rng(p)
            boxes = [
                (
                    int(rng.integers(0, p)),
                    int(rng.integers(1, p + 1)),
                    int(rng.integers(0, p - 1)),
                    int(rng.integers(1, p)),
                )
                for _ in range(500)
            ]
            for box, hits in zip(boxes, count_boxes(graph, boxes).tolist()):
                assert hits == count_in_box(graph, *box) == naive_count(graph, *box), (p, box)


def test_criterion_07_cycle_statistics_at_1009():
    with _criterion(7, "cycle statistics of all 288 generators track the random baseline"):
        generators = all_generators(1009)
        assert len(generators) == 288
        cycle_counts, avg_k_cycles = family_statistics(1009, k_max=5)
        harmonic = sum(1.0 / i for i in range(1009, 0, -1))  # direct-summation oracle
        assert abs(cycle_counts.sum() / len(generators) - harmonic) <= 0.5
        assert abs(avg_k_cycles[0] - 1.0) <= 0.3
        for k in range(1, 6):
            assert abs(avg_k_cycles[k - 1] - 1.0 / k) <= 0.25, k


def test_criterion_08_random_baseline_calibration():
    with _criterion(8, "288 seeded uniform permutations calibrate the theory line"):
        images = {random_permutation(1009, seed).image for seed in range(288)}
        assert len(images) == 288  # distinct permutations per seed
        counts = random_cycle_counts(1009, 288, 0)
        harmonic = sum(1.0 / i for i in range(1009, 0, -1))
        assert abs(sum(counts) / 288 - harmonic) <= 0.5
        for n in range(1, 9):
            dp = stirling_cycle_distribution(n)
            exact = enumerated_cycle_distribution(n)
            assert max(abs(dp[c] - exact[c]) for c in range(n + 1)) <= 1e-12, n


def test_criterion_09_fixed_point_sweep():
    with _criterion(9, "grand mean of fixed points over all generators, p <= 2111, in [0.85, 1.15]"):
        rows = fixed_point_sweep(2111)
        assert rows[0] == (2, 1.0)
        assert rows[-1][0] == 2111
        weighted = 0.0
        weight = 0
        for p, avg in rows:
            n_generators = int(sympy.totient(p - 1))
            weighted += avg * n_generators
            weight += n_generators
        grand_mean = weighted / weight
        assert 0.85 <= grand_mean <= 1.15, grand_mean


def test_criterion_10_signature_round_trip():
    with _criterion(10, "exhaustive sign/verify round trip at p in {5, 7, 11}"):
        for p in (5, 7, 11):
            params = smallest_generator(p)
            d = p - 1
            for a in range(d):
                public_A = pow(params.g, a, p)
                for k in (k for k in range(1, d) if gcd(k, d) == 1):
                    for m in range(d):
                        sig = sign(params, a, k, m)
                        assert verify(params, public_A, m, sig), (p, a, k, m)
                        tampered = (m + 1) % d
                        if pow(params.g, tampered, p) != pow(params.g, m, p):
                            assert not verify(params, public_A, tampered, sig), (p, a, k, m)
