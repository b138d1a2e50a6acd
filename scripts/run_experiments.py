#!/usr/bin/env python3
"""Regenerate every experiment table and verification verdict.

Writes the CSV/JSON/SVG outputs into --outdir.  The default run covers
the headline prime 1009 plus the larger sweeps; --quick shrinks all
parameters for a fast smoke run.  The process exit code is the worst
exit code of the individual runs (so a failed mathematical check is
visible to calling automation).
"""

from __future__ import annotations

import argparse
import contextlib
import io
from pathlib import Path

from elgamalmap.cli import main as cli_main


def _run(outfile: Path, argv: list[str]) -> int:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    text = buffer.getvalue()
    if text:  # empty when the CLI wrote outfile itself
        outfile.write_text(text, encoding="utf-8", newline="")
    print(f"exit {code}  {outfile.name:34s}  elgamalmap {' '.join(argv)}")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--quick", action="store_true", help="small parameters only")
    args = parser.parse_args()
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --outdir names a file
        parser.error(f"argument --outdir: {exc}")

    p = "101" if args.quick else "1009"
    max_prime = "101" if args.quick else "2111"
    boxes = "1000" if args.quick else "10000"
    samples = "50" if args.quick else "288"

    out = args.outdir
    jobs: list[tuple[Path, list[str]]] = [
        (out / f"cycles_{p}.csv", ["cycles", "--prime", p, "--generator", "all"]),
        (out / f"cycle_dist_{p}.csv", ["cycle-dist", "--prime", p]),
        (out / f"random_baseline_{p}.csv",
         ["random-baseline", "--degree", p, "--samples", samples, "--seed", "0"]),
        (out / f"kcycles_{p}.csv", ["kcycles", "--prime", p, "--k-max", "20"]),
        (out / f"fixed_points_{max_prime}.csv", ["fixed-points", "--max-prime", max_prime]),
        (out / f"sidon_{p}.json", ["sidon", "--prime", p, "--generator", "smallest"]),
        (out / "char_sums_61.json", ["char-sums", "--prime", "61", "--generator", "all"]),
        (out / "polya_300.json", ["polya", "--n", "300", "--window", "150"]),
        # --out names the CLI's second file: the per-box records
        (out / f"discrepancy_{p}.json",
         ["discrepancy", "--prime", p, "--boxes", boxes, "--seed", "42",
          "--out", str(out / f"discrepancy_{p}_records.csv")]),
        # render-cycles writes its SVG only to --out
        (out / f"cycles_{p}_smallest.svg",
         ["render-cycles", "--prime", p, "--out", str(out / f"cycles_{p}_smallest.svg")]),
        (out / f"sign_demo_{p}.json", ["sign-demo", "--prime", p, "--seed", "0"]),
    ]

    worst = 0
    for outfile, argv in jobs:
        worst = max(worst, _run(outfile, argv))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
