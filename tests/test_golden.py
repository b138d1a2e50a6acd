"""Golden outputs: the exact bytes the CLI writes for fixed invocations.

Each case stores its stdout as `golden/<case>.stdout` and, when it writes
an `--out` file, that file as `golden/<case>.csv` or `golden/<case>.svg`.
After an intended output change, re-record every case with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from elgamalmap.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUT = "<out>"  # an --out argument "<out>.csv" becomes a temp file with that suffix


def _cases() -> dict[str, list[str]]:
    cases = {}
    for p in (3, 5, 61, 101):
        P = str(p)
        for name, argv in {
            "cycles": ["cycles", "--prime", P],
            "cycles_all": ["cycles", "--prime", P, "--generator", "all"],
            "cycles_json": ["cycles", "--prime", P, "--format", "json"],
            "cycles_all_json": ["cycles", "--prime", P, "--generator", "all", "--format", "json"],
            "cycle-dist": ["cycle-dist", "--prime", P],
            "cycle-dist_json": ["cycle-dist", "--prime", P, "--format", "json"],
            "random-baseline": ["random-baseline", "--degree", str(p - 1), "--samples", "20"],
            "random-baseline_json": [
                "random-baseline", "--degree", str(p - 1), "--samples", "20", "--format", "json",
            ],
            "kcycles": ["kcycles", "--prime", P],
            "kcycles_json": ["kcycles", "--prime", P, "--format", "json"],
            "fixed-points": ["fixed-points", "--max-prime", P],
            "fixed-points_json": ["fixed-points", "--max-prime", P, "--format", "json"],
            "sidon": ["sidon", "--prime", P],
            "sidon_all": ["sidon", "--prime", P, "--generator", "all"],
            "char-sums": ["char-sums", "--prime", P],
            "char-sums_all": ["char-sums", "--prime", P, "--generator", "all"],
            "polya": ["polya", "--n", P, "--window", str(p // 2), "--shift", "1"],
            "discrepancy": ["discrepancy", "--prime", P, "--boxes", "20", "--out", f"{OUT}.csv"],
            "render-cycles": ["render-cycles", "--prime", P, "--out", f"{OUT}.svg"],
            "sign-demo": ["sign-demo", "--prime", P],
        }.items():
            cases[f"{name}_p{p}"] = argv
    cases["cycles_p1009"] = ["cycles", "--prime", "1009"]
    cases["cycles_all_p1009"] = ["cycles", "--prime", "1009", "--generator", "all"]
    cases["cycle-dist_p1009"] = ["cycle-dist", "--prime", "1009"]
    cases["kcycles_p1009"] = ["kcycles", "--prime", "1009"]
    # p = 3 (mod 4): every generator's cycle count has one parity, so the
    # rows of the other read 0 (odd c at 2003, even c at 211)
    cases["cycle-dist_p211"] = ["cycle-dist", "--prime", "211"]
    cases["cycle-dist_p2003"] = ["cycle-dist", "--prime", "2003"]
    # the `cycles` benchmark workload's family runs
    cases["cycle-dist_p4001"] = ["cycle-dist", "--prime", "4001"]
    cases["kcycles_k20_p4001"] = ["kcycles", "--prime", "4001", "--k-max", "20"]
    cases["fixed-points_p1009"] = ["fixed-points", "--max-prime", "1009"]
    cases["fixed-points_p2111"] = ["fixed-points", "--max-prime", "2111"]
    cases["fixed-points_json_p2111"] = ["fixed-points", "--max-prime", "2111", "--format", "json"]
    cases["sidon_p1009"] = ["sidon", "--prime", "1009"]
    cases["sidon_p2003"] = ["sidon", "--prime", "2003"]
    cases["random-baseline_d1008"] = ["random-baseline", "--degree", "1008", "--samples", "288"]
    cases["render-cycles_p1009"] = ["render-cycles", "--prime", "1009", "--out", f"{OUT}.svg"]
    cases["discrepancy_p1009"] = [
        "discrepancy", "--prime", "1009", "--boxes", "50", "--out", f"{OUT}.csv",
    ]
    return cases


CASES = _cases()


def _run(argv: list[str], tmp: Path) -> tuple[int, bytes, tuple[str, bytes] | None]:
    """Exit code, stdout bytes and (suffix, bytes) of the --out file, if any."""
    out_file = None
    resolved = []
    for arg in argv:
        if arg.startswith(OUT):
            out_file = tmp / f"out{arg[len(OUT):]}"
            arg = str(out_file)
        resolved.append(arg)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(resolved)
    written = (out_file.suffix, out_file.read_bytes()) if out_file else None
    return code, buffer.getvalue().encode("utf-8"), written


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    code, stdout, written = _run(CASES[case], tmp_path)
    assert code == 0
    assert stdout == (GOLDEN / f"{case}.stdout").read_bytes()
    if written:
        suffix, data = written
        assert data == (GOLDEN / f"{case}{suffix}").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in sorted(CASES.items()):
            code, stdout, written = _run(argv, Path(tmp))
            if code != 0:
                sys.exit(f"{case}: exit code {code}")
            (GOLDEN / f"{case}.stdout").write_bytes(stdout)
            if written:
                suffix, data = written
                (GOLDEN / f"{case}{suffix}").write_bytes(data)
    print(f"recorded {len(CASES)} cases in {GOLDEN}")
