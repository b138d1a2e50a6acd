#!/usr/bin/env python3
"""Compare the bytes that two checkouts' command lines write.

Runs one declared list of `elgamalmap` invocations through
`elgamalmap.cli.main`, once with this checkout's `src/` and once with
`--against DIR`'s (for example a `git archive` of the parent commit),
each side in a fresh interpreter.  For every invocation it compares the
SHA-256 of the exit code, stdout, stderr and `--out` file, in order.  It
prints the count and exits 0 when every invocation agrees; at the first
difference it names that invocation and the stream, shows the head of
their diff and exits 1.  --quick runs a short list at small primes.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STREAMS = ("code", "stdout", "stderr", "out")
DIFF_LINES = 20

# Run in each side's work directory with that side's src/ on the path: the
# invocations arrive as JSON on stdin, "{out}" in one stands for the file
# i/out, and each stream's bytes go to i/<stream>.  Each invocation prints
# one line of its streams' SHA-256 digests.  --out paths are relative, so
# an error message that names one reads the same on both sides.
_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from elgamalmap.cli import main
for i, argv in enumerate(json.load(sys.stdin)):
    work = Path(str(i))
    work.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([arg.replace("{out}", str(work / "out")) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    (work / "code").write_text(str(code))
    (work / "stdout").write_text(stdout.getvalue(), encoding="utf-8", newline="")
    (work / "stderr").write_text(stderr.getvalue(), encoding="utf-8", newline="")
    paths = [work / stream for stream in ("code", "stdout", "stderr", "out")]
    print(*(hashlib.sha256(p.read_bytes() if p.exists() else b"").hexdigest() for p in paths))
"""


def _invocations(quick: bool) -> list[list[str]]:
    """Every subcommand in both formats at each prime, the edges of
    `random-baseline` (kernel block boundaries included) and
    `fixed-points`, and then one input of each kind that `main` rejects,
    in the order it checks them.  The primes are found here, not by the
    package, so the list does not depend on the code it checks."""
    if quick:
        primes = [3, 5, 13, 61]
    else:
        primes = [p for p in range(3, 400, 2) if all(p % q for q in range(3, p, 2))]
        primes += [1009, 2003, 2111, 4001]
    runs = []
    for p in map(str, primes):
        for fmt in ("csv", "json"):
            for generator in ("smallest", "2", "all"):
                runs.append(["cycles", "--prime", p, "--generator", generator, "--format", fmt])
            runs += [
                ["cycle-dist", "--prime", p, "--format", fmt],
                ["kcycles", "--prime", p, "--format", fmt],
                ["kcycles", "--prime", p, "--k-max", "3", "--format", fmt],
                ["random-baseline", "--degree", p, "--samples", "20", "--seed", "7",
                 "--format", fmt],
                ["fixed-points", "--max-prime", p, "--format", fmt],
            ]
        for generator in ("smallest", "2", "all"):
            runs += [["sidon", "--prime", p, "--generator", generator],
                     ["char-sums", "--prime", p, "--generator", generator]]
        for generator in ("smallest", "2"):
            runs += [
                ["discrepancy", "--prime", p, "--generator", generator, "--boxes", "20"],
                ["discrepancy", "--prime", p, "--generator", generator, "--boxes", "20",
                 "--seed", "3", "--out", "{out}"],
                ["render-cycles", "--prime", p, "--generator", generator, "--out", "{out}"],
            ]
        runs += [
            ["sign-demo", "--prime", p],
            ["sign-demo", "--prime", p, "--seed", "5", "--tamper"],
            ["polya", "--n", p, "--window", str(int(p) // 2 or 1), "--shift", "1"],
        ]
    if not quick:  # degrees around powers of two, every sweep to 299, the benchmark's sizes
        for n in sorted({2**k + step for k in range(1, 13) for step in (-1, 0, 1)}):
            runs += [["random-baseline", "--degree", str(n), "--samples", "30", "--seed", seed]
                     for seed in ("0", "1")]
        # two kernel blocks each, the second partial: 16,368 and 8,184 samples fill one
        runs += [["random-baseline", "--degree", "1", "--samples", "20000"],
                 ["random-baseline", "--degree", "2", "--samples", "9000"]]
        runs += [["fixed-points", "--max-prime", str(n)] for n in range(1, 300)]
        runs += [
            ["kcycles", "--prime", "4001", "--k-max", "20"],
            ["sidon", "--prime", "10007"],
            ["polya", "--n", "4000", "--window", "2000", "--shift", "17"],
            ["discrepancy", "--prime", "10007", "--boxes", "2000", "--out", "{out}"],
            ["render-cycles", "--prime", "10007", "--out", "{out}"],
            ["cycles", "--prime", "999983"],
        ]
    runs += [
        [],
        ["cycles"],
        ["cycles", "--prime", "x"],
        ["render-cycles", "--prime", "7"],
        *(["cycles", "--prime", n] for n in
          ("-7", "1", "2", "9", "1000001", "1000003", "18446744073709551557", str(10**30 + 1))),
        ["kcycles", "--prime", "10289"],
        ["kcycles", "--prime", "5", "--k-max", "0"],
        ["kcycles", "--prime", "5", "--k-max", "20000"],
        ["fixed-points", "--max-prime", "20001"],
        ["random-baseline", "--degree", "5", "--samples", "0"],
        ["random-baseline", "--degree", "5", "--samples", "5", "--seed", "-1"],
        *(["cycles", "--prime", "7", "--generator", g] for g in ("1", "2", "7", "x")),
        ["discrepancy", "--prime", "7", "--generator", "all"],
        ["polya", "--n", "4", "--window", "4"],
        ["cycles", "--prime", "5", "--out", ""],
        ["cycles", "--prime", "5", "--out", "missing/x.csv"],
    ]
    return runs


def _run_side(checkout: Path, work: Path, runs: list[list[str]]) -> list[list[str]]:
    """The SHA-256 hex digests of each run's STREAMS, from a fresh
    interpreter that imports `checkout`'s package."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    result = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(runs), cwd=work,
                            env=env, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"byte_sweep: the run of {checkout} failed:\n{result.stderr}")
    return [line.split() for line in result.stdout.splitlines()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="the checkout to compare with: a directory holding src/elgamalmap")
    parser.add_argument("--quick", action="store_true", help="a short list at small primes")
    args = parser.parse_args()
    if not (args.against / "src" / "elgamalmap").is_dir():
        parser.error(f"argument --against: no src/elgamalmap in {args.against}")

    runs = _invocations(args.quick)
    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp, "here"), Path(tmp, "there")
        digests = zip(_run_side(ROOT, here, runs), _run_side(args.against, there, runs))
        for i, (argv, (ours, theirs)) in enumerate(zip(runs, digests)):
            differ = [stream for stream, a, b in zip(STREAMS, ours, theirs) if a != b]
            if not differ:
                continue
            stream = differ[0]
            print(f"{i} of {len(runs)} invocations agree; invocation {i} differs in "
                  f"{stream}: elgamalmap {' '.join(argv)}")
            paths = [side / str(i) / stream for side in (there, here)]
            lines = [path.read_text(encoding="utf-8", errors="replace").splitlines(True)
                     if path.exists() else [] for path in paths]
            diff = difflib.unified_diff(*lines, f"{args.against}: {stream}", f"{ROOT}: {stream}")
            sys.stdout.writelines(list(diff)[:DIFF_LINES])
            return 1
    print(f"{len(runs)} invocations, 0 differences in exit code, stdout, stderr and --out")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
