#!/usr/bin/env python3
"""Render cycle diagrams for the smallest generators of one prime field,
one standalone SVG per generator."""

from __future__ import annotations

import argparse
from pathlib import Path

from elgamalmap import all_generators, family_cycle_lengths
from elgamalmap.render import cycle_diagram_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=1009)
    parser.add_argument("--count", type=int, default=12, help="how many generators, smallest first")
    parser.add_argument("--outdir", type=Path, default=Path("out/gallery"))
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    generators = all_generators(args.prime)[: args.count]
    for g, lengths in family_cycle_lengths(args.prime, generators):
        path = args.outdir / f"cycles_p{args.prime}_g{g}.svg"
        path.write_text(cycle_diagram_svg(lengths.tolist()), encoding="utf-8")
        print(f"wrote {path} ({len(lengths)} cycles)")


if __name__ == "__main__":
    main()
