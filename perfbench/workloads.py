"""The benchmark's workloads: fixed sequences of `elgamalmap` invocations.

A workload seed fixes every generated argument (explicit generators,
`--seed` values, the `polya` window shift); the program sees only those
arguments.  `SIZES["full"]` is what the benchmark measures and
`SIZES["tiny"]` is the same sequence at small primes for the self-test.
"""

from __future__ import annotations

import random

WORKLOADS = ("structure", "cycles", "boxes")

SIZES = {
    "full": {
        "sidon_p": 2003,
        "char_p": 4001,
        "polya_n": 4000,
        "polya_window": 2000,
        "all_gens_p": 211,
        "dist_p": 4001,
        "k_max": 20,
        "max_prime": 2111,
        "cycles_p": 1009,
        "box_p": 10007,
        "boxes": 20000,
        "degree": 1008,
        "samples": 288,
    },
    "tiny": {
        "sidon_p": 61,
        "char_p": 101,
        "polya_n": 100,
        "polya_window": 50,
        "all_gens_p": 13,
        "dist_p": 101,
        "k_max": 20,
        "max_prime": 61,
        "cycles_p": 61,
        "box_p": 101,
        "boxes": 200,
        "degree": 60,
        "samples": 20,
    },
}

# Placeholders for `--out` targets; the runner substitutes temp files.
OUT_CSV = "<out.csv>"
OUT_SVG = "<out.svg>"


def _prime_divisors(n: int) -> list[int]:
    divisors = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            divisors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        divisors.append(n)
    return divisors


def primitive_roots(p: int) -> list[int]:
    """All primitive roots mod the odd prime p, ascending.

    Computed here, not by the package, so the generated inputs do not
    depend on the code under test.
    """
    d = p - 1
    qs = _prime_divisors(d)
    return [g for g in range(2, p) if all(pow(g, d // q, p) != 1 for q in qs)]


def invocations(workload: str, seed: int, size: str = "full") -> list[list[str]]:
    """The argv lists of one pass over the workload, for this seed."""
    s = SIZES[size]
    rng = random.Random(f"{workload}/{seed}")

    def generator(p: int) -> str:
        return str(rng.choice(primitive_roots(p)))

    def program_seed() -> str:
        return str(rng.randrange(2**31))

    if workload == "structure":
        return [
            ["sidon", "--prime", str(s["sidon_p"]), "--generator", generator(s["sidon_p"])],
            ["char-sums", "--prime", str(s["char_p"]), "--generator", generator(s["char_p"])],
            ["polya", "--n", str(s["polya_n"]), "--window", str(s["polya_window"]),
             "--shift", str(rng.randrange(s["polya_n"]))],
            ["sidon", "--prime", str(s["all_gens_p"]), "--generator", "all"],
            ["char-sums", "--prime", str(s["all_gens_p"]), "--generator", "all"],
        ]
    if workload == "cycles":
        # Every invocation here covers all generators, so the seed has
        # nothing to choose.
        return [
            ["cycle-dist", "--prime", str(s["dist_p"])],
            ["kcycles", "--prime", str(s["dist_p"]), "--k-max", str(s["k_max"])],
            ["fixed-points", "--max-prime", str(s["max_prime"])],
            ["cycles", "--prime", str(s["cycles_p"]), "--generator", "all"],
        ]
    if workload == "boxes":
        p = str(s["box_p"])
        return [
            ["discrepancy", "--prime", p, "--generator", generator(s["box_p"]),
             "--boxes", str(s["boxes"]), "--seed", program_seed(), "--out", OUT_CSV],
            ["render-cycles", "--prime", p, "--generator", generator(s["box_p"]),
             "--out", OUT_SVG],
            ["random-baseline", "--degree", str(s["degree"]), "--samples", str(s["samples"]),
             "--seed", program_seed()],
            ["sign-demo", "--prime", p, "--seed", program_seed()],
        ]
    raise ValueError(f"unknown workload {workload!r}")
