#!/usr/bin/env python3
"""Render cycle diagrams for the smallest generators of one prime field,
one standalone SVG per generator, each the `render-cycles` output for it.
The process exit code is the worst exit code of those runs."""

from __future__ import annotations

import argparse
from pathlib import Path

from elgamalmap.cli import main as cli_main
from elgamalmap.numth import MAX_TABLE_MODULUS, all_generators, is_prime


def main() -> int:
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
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --outdir names a file
        parser.error(f"argument --outdir: {exc}")

    worst = 0
    for g in all_generators(args.prime)[: args.count]:
        path = args.outdir / f"cycles_p{args.prime}_g{g}.svg"
        code = cli_main(["render-cycles", "--prime", str(args.prime), "--generator", str(g),
                         "--out", str(path)])
        if code == 0:
            print(f"wrote {path}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
