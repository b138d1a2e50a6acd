#!/usr/bin/env python3
"""Render cycle diagrams for the smallest generators of one prime field,
one standalone SVG per generator."""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from elgamalmap.numth import MAX_TABLE_MODULUS, all_generators, is_prime
from elgamalmap.permstat import family_cycle_types
from elgamalmap.render import cycle_diagram_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=1009)
    parser.add_argument("--count", type=int, default=12, help="how many generators, smallest first")
    parser.add_argument("--outdir", type=Path, default=Path("out/gallery"))
    args = parser.parse_args()
    if args.count < 1:
        parser.error(f"argument --count: must be >= 1, got {args.count}")
    if not (3 <= args.prime <= MAX_TABLE_MODULUS and is_prime(args.prime)):
        parser.error(
            f"argument --prime: must be an odd prime up to {MAX_TABLE_MODULUS}, got {args.prime}"
        )

    args.outdir.mkdir(parents=True, exist_ok=True)
    generators = all_generators(args.prime)[: args.count]
    index, length, count = family_cycle_types(args.prime, generators)
    for i, g in enumerate(generators):
        lengths = np.repeat(length[index == i], count[index == i])
        path = args.outdir / f"cycles_p{args.prime}_g{g}.svg"
        path.write_text(cycle_diagram_svg(lengths.tolist()), encoding="utf-8")
        print(f"wrote {path} ({len(lengths)} cycles)")


if __name__ == "__main__":
    main()
