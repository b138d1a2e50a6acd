#!/usr/bin/env python3
"""Self-test of the benchmark, at small primes (under a minute).

    python3 perfbench/selftest.py

Checks that:
- every workload runs cleanly at the `tiny` sizes, untraced and traced,
  and prints exactly the metrics BENCHMARK.json declares, with their
  units;
- a corrupted reference output is counted as a failed invocation;
- an invocation over the memory or time ceiling is counted, not fatal;
- in a directory holding only BENCHMARK.json and the benchmark's own
  files, the benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

import run  # noqa: E402
from record import record  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def printed(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def corrupt(references: dict) -> dict:
    """A copy with the first integer field of the first output changed."""
    bad = copy.deepcopy(references)

    def bump(obj) -> bool:
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            if isinstance(value, int) and not isinstance(value, bool):
                obj[key] = value + 1
                return True
            if isinstance(value, (dict, list)) and bump(value):
                return True
        return False

    assert bump(next(iter(bad.values())))
    return bad


def check_workloads() -> None:
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for workload in WORKLOADS:
        references = record(workload, seeds=(SEED,), size="tiny")
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = run.run_workload(workload, SEED, 0, trace, "tiny", references)["result"]
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert printed(result) == expected, (workload, trace, printed(result))
        result = run.run_workload(workload, SEED, 0, False, "tiny", corrupt(references))["result"]
        assert not result["correct"] and result["failed"] >= 1, (workload, result)
        assert result["metrics"]["ok_frac"]["value"] < 1, (workload, result)
        print(f"ok   {workload}: metrics, traced counts, corrupted reference")


def check_ceilings() -> None:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    limit, timeout = run.MEMORY_LIMIT_BYTES, run.INVOCATION_TIMEOUT_S
    try:
        run.MEMORY_LIMIT_BYTES = 200 * 2**20
        result = run.run_pass([["sidon", "--prime", "2003"], ["sidon", "--prime", "61"]],
                              "plain", workdir, time.monotonic() + 60, {})
        assert len(result.failures) == 1 and "exit 1" in result.failures[0], result.failures
        run.MEMORY_LIMIT_BYTES = limit
        run.INVOCATION_TIMEOUT_S = 0.5
        result = run.run_pass([["fixed-points", "--max-prime", "2111"]],
                              "plain", workdir, time.monotonic() + 60, {})
        assert result.failures and "time ceiling" in result.failures[0], result.failures
    finally:
        run.MEMORY_LIMIT_BYTES, run.INVOCATION_TIMEOUT_S = limit, timeout
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok   memory and time ceilings count as failures")


def check_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name)
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "boxes",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout, (proc.returncode, proc.stdout)
    print("ok   without the program: exit", proc.returncode, "and no result")


def main() -> int:
    check_workloads()
    check_ceilings()
    check_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
