#!/usr/bin/env python3
"""Benchmark of the `elgamalmap` command line.

    python3 perfbench/run.py --workload structure|cycles|boxes --seed N \
        --seconds S --trace 0|1

Each invocation of a workload runs `elgamalmap.cli.main` from this
checkout's `src/` in a fresh child process, one child at a time, with a
memory and time ceiling of its own.  A pass is one run of the workload's
invocation sequence; passes repeat while the next one fits in
`--seconds`.

`--trace 0` reports the end-to-end metrics: `wall_s` (the sequence,
spawn to reap of each invocation) and `setup_s` (spawn to `cli.main`
entry), each summed over the sequence from per-invocation medians
across passes; `peak_rss_mb` (largest child `ru_maxrss` of a pass,
median over passes); and `ok_frac` (invocations that exited 0 with
checked outputs, over those attempted).  `--trace 1` makes one
tracemalloc pass, then alternates untraced and span-traced passes, and
reports per-layer metrics plus `trace.overhead_s`, the traced minus the
untraced `wall_s`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A failed invocation (nonzero exit, signal,
timeout, memory ceiling, output mismatch) is counted, not fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True

from check import check_outputs, parse_outputs  # noqa: E402
from workloads import OUT_CSV, OUT_SVG, WORKLOADS, invocations  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
REFERENCE_DIR = BENCH_DIR / "reference"

MEMORY_LIMIT_BYTES = 2 * 2**30  # per child address space
INVOCATION_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # no invocation outlives this, so a run ends in time

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}

LAYER_METRICS = (
    "sidon.verify_sidon.self_s",
    "sidon.verify_sidon.pairs",
    "sidon.verify_sidon.peak_alloc_mb",
    "sidon.difference_set_size.self_s",
    "sidon.difference_set_size.peak_alloc_mb",
    "sidon.max_nontrivial_character_sum.self_s",
    "sidon.max_nontrivial_character_sum.cells",
    "sidon.max_nontrivial_character_sum.peak_alloc_mb",
    "sidon.incomplete_exponential_sum_total.self_s",
    "sidon.incomplete_exponential_sum_total.peak_alloc_mb",
    "sidon.build_graph.calls",
    "sidon.build_graph.self_s",
    "numth.GroupParams.calls",
    "numth.GroupParams.self_s",
    "numth.factorize.calls",
    "numth.smallest_generator.calls",
    "numth.smallest_generator.self_s",
    "numth.all_generators.calls",
    "numth.all_generators.self_s",
    "numth.is_prime.calls",
    "elgamal.elgamal_permutation.calls",
    "elgamal.elgamal_permutation.self_s",
    "elgamal.Permutation.calls",
    "elgamal.Permutation.self_s",
    "permstat.cycle_decompose.calls",
    "permstat.cycle_decompose.self_s",
    "permstat.family_statistics.self_s",
    "permstat.fixed_point_sweep.self_s",
    "permstat.random_permutation.self_s",
    "permstat.stirling_cycle_distribution.self_s",
    "discrepancy.sweep.self_s",
    "discrepancy.sweep.peak_alloc_mb",
    "discrepancy.count_in_box.calls",
    "discrepancy.count_in_box.self_s",
    "render.cycle_diagram_svg.self_s",
    "cli.main.calls",
    "cli.main.self_s",
    "trace.overhead_s",
)

COUNT_STATS = ("calls", "pairs", "cells")
STAT_UNITS = {"self_s": "s", "overhead_s": "s", "peak_alloc_mb": "MB",
              **{stat: "count" for stat in COUNT_STATS}}


def layer_unit(name: str) -> str:
    return STAT_UNITS[name.rpartition(".")[2]]


@dataclass
class Pass:
    """One run of a workload's invocation sequence."""

    mode: str
    walls: list[float] = field(default_factory=list)  # per invocation, spawn to reap
    setups: list[float] = field(default_factory=list)  # per invocation, spawn to cli.main
    peak_rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child, killing it first if it outlives the timeout.
    Returns (exit code, resource usage, timed out)."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, not ready


def run_pass(argvs: list[list[str]], mode: str, workdir: Path, deadline: float,
             references: dict, recorded: dict | None = None) -> Pass:
    """Run the sequence once in `mode`, then check every output.

    Each invocation has its own files in `workdir`, so nothing but
    spawning and reaping happens inside the timed sequence.  Parsed
    outputs are stored in `recorded` when it is given.
    """
    env = child_env()
    result = Pass(mode=mode)
    runs = []
    for i, argv in enumerate(argvs):
        files = {name: workdir / f"{i}.{name}" for name in
                 ("stdout", "stderr", "result", "out.csv", "out.svg")}
        concrete = [str(files["out.csv"]) if a == OUT_CSV else
                    str(files["out.svg"]) if a == OUT_SVG else a for a in argv]
        cmd = [sys.executable, str(CHILD), mode, str(files["result"]),
               str(MEMORY_LIMIT_BYTES), "--", *concrete]
        for stale in files.values():  # left by the previous pass
            stale.unlink(missing_ok=True)
        spawn = time.monotonic()
        if spawn >= deadline:
            result.walls.append(0.0)
            runs.append((argv, files, spawn, None, None, False))
            continue
        with open(files["stdout"], "wb") as out, open(files["stderr"], "wb") as err:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=env, cwd=workdir)
        try:
            code, usage, timed_out = _wait(proc, min(INVOCATION_TIMEOUT_S, deadline - spawn))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        result.walls.append(time.monotonic() - spawn)
        runs.append((argv, files, spawn, code, usage, timed_out))

    for argv, files, spawn, code, usage, timed_out in runs:
        result.setups.append(0.0)
        error = None
        if code is None:
            error = "not started: run deadline passed"
        else:
            result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024)
            if timed_out:
                error = "killed at the time ceiling"
            elif code < 0:
                error = f"killed by signal {-code}"
            elif code != 0:
                lines = files["stderr"].read_text(errors="replace").strip().splitlines()
                error = f"exit {code}: {lines[-1] if lines else ''}"
        if error is None:
            error = _check_invocation(argv, files, spawn, references, result, recorded)
        if error is not None:
            result.failures.append(f"{' '.join(argv)}: {error}")
    return result


def _check_invocation(argv, files, spawn, references, result: Pass, recorded) -> str | None:
    try:
        record = json.loads(files["result"].read_text())
        out_file = (files["out.csv"] if OUT_CSV in argv else
                    files["out.svg"] if OUT_SVG in argv else None)
        parsed = parse_outputs(
            argv,
            files["stdout"].read_text(),
            out_file.read_text() if out_file is not None else None,
        )
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    result.setups[-1] = record["entered"] - spawn
    for name, stats in record.get("layers", {}).items():
        for stat, value in stats.items():
            key = f"{name}.{stat}"
            if stat == "peak_alloc_mb":
                result.layers[key] = max(result.layers.get(key, 0.0), value)
            else:
                result.layers[key] = result.layers.get(key, 0) + value
    key = " ".join(argv)
    if recorded is not None:
        recorded[key] = parsed
    return check_outputs(parsed, references.get(key))


def load_references(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["outputs"]


def repeat_passes(make_round, until: float) -> list:
    """Run rounds until the next one would end after the monotonic time
    `until`; at least one."""
    rounds = []
    while True:
        round_start = time.monotonic()
        rounds.append(make_round())
        now = time.monotonic()
        if now + (now - round_start) > until:
            return rounds


def sequence_median(passes: list[Pass], attr: str) -> float:
    """Sum over the sequence of each invocation's median across passes.

    A burst of load on the machine lasts seconds, so it slows one or two
    invocations of a pass; the per-invocation median drops it, where the
    median of whole-pass sums would keep it whenever it hits half the
    passes.
    """
    columns = zip(*(getattr(p, attr) for p in passes))
    return sum(statistics.median(column) for column in columns)


def summarize(name: str, values: list[float]) -> str:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (f"{name}: median {statistics.median(values):.6g}  "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", references: dict | None = None) -> dict:
    """Measure one workload and return the result object."""
    argvs = invocations(workload, seed, size)
    if references is None:
        references = load_references(workload)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S

    def one(mode: str) -> Pass:
        return run_pass(argvs, mode, workdir, deadline, references)

    try:
        if trace:
            alloc = one("alloc")
            rounds = repeat_passes(lambda: (one("plain"), one("spans")), started + seconds)
            passes = [alloc] + [p for r in rounds for p in r]
        else:
            passes = repeat_passes(lambda: one("plain"), started + seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.walls) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not failures
    lines = []
    if trace:
        plain = [p for p in passes if p.mode == "plain"]
        spans = [p for p in passes if p.mode == "spans"]
        metrics, consistent = _layer_metrics(plain, spans, alloc)
        correct &= consistent
        lines.append(summarize("traced pass wall_s", [sum(p.walls) for p in spans]))
        lines.append(summarize("untraced pass wall_s", [sum(p.walls) for p in plain]))
    else:
        metrics = {
            "wall_s": sequence_median(passes, "walls"),
            "setup_s": sequence_median(passes, "setups"),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "ok_frac": (attempted - len(failures)) / attempted,
        }
        lines.append(summarize("pass wall_s", [sum(p.walls) for p in passes]))
        lines.append(summarize("pass setup_s", [sum(p.setups) for p in passes]))
    units = END_TO_END_UNITS if not trace else {name: layer_unit(name) for name in metrics}
    return {
        "summary": lines,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        },
    }


def _layer_metrics(plain: list[Pass], spans: list[Pass], alloc: Pass):
    """Per-layer metrics from the traced passes, and whether the counts
    repeated exactly across every traced pass."""
    traced = spans + [alloc]
    consistent = True
    metrics: dict[str, float] = {}
    for name in LAYER_METRICS:
        stat = name.rpartition(".")[2]
        if stat in COUNT_STATS:
            seen = {p.layers.get(name, 0) for p in traced}
            if len(seen) > 1:
                print(f"count {name} differs across traced passes: {sorted(seen)}",
                      file=sys.stderr)
                consistent = False
            metrics[name] = max(seen)
        elif stat == "peak_alloc_mb":
            metrics[name] = alloc.layers.get(name, 0.0)
        elif name == "trace.overhead_s":
            metrics[name] = sequence_median(spans, "walls") - sequence_median(plain, "walls")
        else:
            metrics[name] = statistics.median(p.layers.get(name, 0.0) for p in spans)
    return metrics, consistent


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "elgamalmap" / "cli.py").is_file():
        print(f"perfbench: no elgamalmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    for line in outcome["summary"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
