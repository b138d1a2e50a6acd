"""Randomness diagnostics for the permutation x -> g**x over prime fields.

Library layout:

- numth: primes, primitive roots and the power table g**e mod p
- elgamal: the exponentiation permutation and an ElGamal sign/verify pair
- permstat: cycle statistics and the exact random-permutation baseline
- sidon: the map's graph as a Sidon set; character and exponential sums
- discrepancy: box counting and the deviation bound 50 sqrt(p) ln(p)^2
- render: SVG cycle diagrams
- cli: the `elgamalmap` command-line harness
"""

from .discrepancy import DiscrepancyReport, count_boxes, sweep, theorem_bound
from .elgamal import Permutation, Signature, elgamal_permutation, sign, verify
from .numth import (
    GroupParams,
    all_generators,
    generator_count,
    generator_logs,
    is_prime,
    smallest_generator,
)
from .permstat import (
    FamilyStatistics,
    expected_k_cycles,
    family_cycle_lengths,
    family_statistics,
    fixed_point_sweep,
    random_cycle_counts,
    random_permutation,
    stirling_cycle_distribution,
)
from .render import cycle_diagram_svg
from .sidon import (
    CharacterIndex,
    SidonCheck,
    SidonGraph,
    build_graphs,
    incomplete_exponential_sum_total,
    max_nontrivial_character_sums,
    polya_vinogradov_bound,
    sidon_character_bound,
    verify_sidon,
)

__version__ = "0.1.0"
