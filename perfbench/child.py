"""Run one `elgamalmap` invocation for the benchmark, in its own process.

    python3 child.py MODE RESULT_PATH MEMORY_LIMIT_BYTES -- ARGV...

MODE is `plain` (no tracing), `spans` (time every call into the
package's public functions) or `alloc` (count the calls and take the
peak tracemalloc allocation of the heavy kernels, in a pass of its own
so it does not inflate the timings).  The
child caps its own address space at MEMORY_LIMIT_BYTES before importing
anything heavy, calls `elgamalmap.cli.main(ARGV)` and exits with its
code.  RESULT_PATH receives a JSON object: `entered`, the monotonic time
at which `cli.main` was entered, and in the traced modes `layers`, the
per-function aggregates.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import tracemalloc
from collections import defaultdict

# Extra work counts taken from a call's first argument, a SidonGraph.
COUNTERS = {
    "sidon.verify_sidon": ("pairs", lambda graph: graph.size**2),
    "sidon.max_nontrivial_character_sum": ("cells", lambda graph: graph.p * graph.d),
}

# Dataclasses whose construction is a layer's work: their __post_init__
# validates (GroupParams factorizes p-1, Permutation sorts the image).
DATACLASS_HOOKS = (("numth", "GroupParams"), ("elgamal", "Permutation"))

# Functions whose peak allocation is measured in alloc mode.
PEAK_FUNCTIONS = frozenset({
    "sidon.verify_sidon",
    "sidon.difference_set_size",
    "sidon.max_nontrivial_character_sum",
    "sidon.incomplete_exponential_sum_total",
    "discrepancy.sweep",
})


class Tracer:
    """Spans around calls into the package, recorded from outside it.

    A span is (name, start, end, parent index).  In alloc mode no times
    are kept: calls are only counted, and each function in
    PEAK_FUNCTIONS runs under tracemalloc, which is started on entry and
    stopped on exit so the rest of the program runs at full speed.
    """

    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        calls, counts = self.calls, self.counts
        counter = COUNTERS.get(name)
        if self.alloc:
            call = self._peak_call if name in PEAK_FUNCTIONS else None
        else:
            call = self._span_call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if counter:
                counts[f"{name}.{counter[0]}"] += counter[1](args[0])
            if call is None:
                return fn(*args, **kwargs)
            return call(name, fn, args, kwargs)

        return traced

    def _span_call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def _peak_call(self, name, fn, args, kwargs):
        if tracemalloc.is_tracing():  # nested inside another measured call
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def install(self) -> None:
        """Rebind every public function of the package, in every package
        module that holds a reference to it, and hook the dataclasses."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "elgamalmap" or name.startswith("elgamalmap.")
        }
        for modname, module in modules.items():
            short = modname.rpartition(".")[2]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not callable(fn) or isinstance(fn, type) or fn.__module__ != modname:
                    continue
                wrapped = self.wrap(f"{short}.{attr}", fn)
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)
        for short, cls_name in DATACLASS_HOOKS:
            cls = getattr(modules[f"elgamalmap.{short}"], cls_name)
            cls.__post_init__ = self.wrap(f"{short}.{cls_name}", cls.__post_init__)

    def layers(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = defaultdict(dict)
        for name, n in self.calls.items():
            out[name]["calls"] = n
        for key, n in self.counts.items():
            name, _, stat = key.rpartition(".")
            out[name][stat] = n
        if self.alloc:
            for name, peak in self.peaks.items():
                out[name]["peak_alloc_mb"] = peak / 2**20
            return out
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child_time in zip(self.spans, covered):
            out[name]["self_s"] = out[name].get("self_s", 0.0) + (end - start - child_time)
        return out


def main() -> int:
    mode, result_path, memory_limit, dashes, *argv = sys.argv[1:]
    if dashes != "--" or mode not in ("plain", "spans", "alloc"):
        raise SystemExit("usage: child.py plain|spans|alloc RESULT_PATH MEMORY_LIMIT -- ARGV...")
    limit = int(memory_limit)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from elgamalmap import cli

    tracer = None
    if mode != "plain":
        tracer = Tracer(alloc=mode == "alloc")
        tracer.install()
    result: dict = {"entered": time.monotonic()}
    try:
        return cli.main(argv)
    finally:
        if tracer:
            result["layers"] = tracer.layers()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
