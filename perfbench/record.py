#!/usr/bin/env python3
"""Store the reference outputs the benchmark checks against.

    python3 perfbench/record.py [--workload NAME ...]

Runs each distinct invocation of every workload once, for the seeds in
RECORDED_SEEDS, and writes `perfbench/reference/<workload>.json`.  Run
it only on a commit whose outputs are trusted: a later change that must
keep the outputs is checked against these files, not re-recorded.
Recording refuses an invocation that fails or reports a failed check.

HELD_OUT_SEED is recorded too, but is kept out of development: measure
and debug a change on other seeds, then confirm its claim on this one.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

from run import REFERENCE_DIR, ROOT, run_pass  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402

HELD_OUT_SEED = 104729
RECORDED_SEEDS = tuple(range(11)) + (HELD_OUT_SEED,)


def record(workload: str, seeds=RECORDED_SEEDS, size: str = "full") -> dict:
    """Parsed outputs of every distinct invocation over `seeds`, keyed by
    the invocation's argv."""
    argvs = []
    for seed in seeds:
        argvs.extend(a for a in invocations(workload, seed, size) if a not in argvs)
    recorded: dict = {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run_pass(argvs, "plain", workdir, time.monotonic() + 3600, {}, recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.failures:
        raise SystemExit("refusing to record failing outputs:\n" + "\n".join(result.failures))
    return recorded


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        outputs = record(workload)
        # One output per line keeps the file reviewable in a diff.
        lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in outputs.items()]
        text = (
            "{\n"
            f'"seeds": {json.dumps(list(RECORDED_SEEDS))},\n'
            f'"held_out_seed": {HELD_OUT_SEED},\n'
            '"outputs": {\n' + ",\n".join(lines) + "\n}\n}\n"
        )
        (REFERENCE_DIR / f"{workload}.json").write_text(text, encoding="utf-8")
        print(f"{workload}: {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
