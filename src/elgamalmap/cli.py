"""Command-line experiment harness.

Each subcommand reproduces one experiment or verification as CSV or JSON
on stdout (or a file via --out).  Runs are deterministic given their
flags and seed; repeated invocations are byte-identical.

Exit status: 0 on success, 1 on usage or input errors, 2 when a
mathematical check fails (Sidon property, character-sum bound,
exponential-sum bound, box-deviation bound, or signature verification).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import chain
from math import gcd, isqrt

import numpy as np

from .discrepancy import sweep, theorem_bound
from .elgamal import sign, verify
from .numth import (
    MAX_TABLE_MODULUS,
    all_generators,
    generator_count,
    generator_logs,
    is_prime,
    smallest_generator,
)
from .permstat import (
    MAX_DENSE_CELLS,
    MAX_FAMILY_CELLS,
    MAX_SWEEP_CELLS,
    _row_blocks,
    expected_k_cycles,
    family_cycle_lengths,
    family_statistics,
    fixed_point_sweep,
    random_cycle_counts,
    stirling_cycle_distribution,
)
from .render import cycle_diagram_svg
from .sidon import (
    build_graphs,
    incomplete_exponential_sum_total,
    max_nontrivial_character_sums,
    polya_vinogradov_bound,
    sidon_character_bound,
    verify_sidon,
)

__all__ = ["main"]

DEFAULT_SEED = 0
DIST_MAX_CYCLES = 20  # cycle-count tables truncate here


class InputError(Exception):
    """Bad user input (composite prime, non-generator, ...)."""


def _require_odd_prime(n: int) -> int:
    if n < 3 or not is_prime(n):
        raise InputError(f"{n} is not an odd prime")
    if n > MAX_TABLE_MODULUS:
        raise InputError(f"--prime {n} is above the supported maximum {MAX_TABLE_MODULUS}")
    return n


def _require_count(value: int, flag: str, low: int, high: int) -> None:
    if value < low:
        raise InputError(f"{flag} must be >= {low}, got {value}")
    if value > high:
        raise InputError(f"{flag} {value} is above the supported maximum {high}")


def _require_dense(cells: int, what: str, limit: int = MAX_DENSE_CELLS) -> None:
    """Reject an input whose arrays would exceed `limit` cells, before any is built."""
    if cells > limit:
        raise InputError(f"{what} needs {cells} cells, above the supported maximum {limit}")


def _require_family(p: int, cells_per_generator: int) -> None:
    """Reject a run over all phi(p-1) generators whose kernel calls of
    `cells_per_generator` cells each add up to more than MAX_FAMILY_CELLS."""
    _require_dense(
        generator_count(p) * cells_per_generator, f"--prime {p} with all generators", MAX_FAMILY_CELLS
    )


def _resolve_generators(p: int, selection: str) -> list[int]:
    if selection == "smallest":
        return [smallest_generator(p).g]
    if selection == "all":
        return all_generators(p)
    try:
        g = int(selection)
    except ValueError:
        raise InputError(
            f"--generator must be an integer, 'smallest', or 'all', got {selection!r}"
        ) from None
    try:
        generator_logs(p, [g])
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return [g]


def _resolve_single_generator(p: int, selection: str) -> int:
    if selection == "all":
        raise InputError("this subcommand needs a single generator, not 'all'")
    return _resolve_generators(p, selection)[0]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _table(columns: list[str], rows: list[tuple], out_format: str) -> str:
    if out_format == "json":
        return _json({"columns": columns, "rows": [list(r) for r in rows]})
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _csv_blocks(columns: list[str], arrays: tuple[np.ndarray, ...]) -> Iterator[str]:
    """`_table`'s CSV of the rows of 1-D int64/float64 `arrays`, one `%` per block of rows."""
    yield ",".join(columns) + "\n"
    row_fmt = ",".join("%.6f" if a.dtype.kind == "f" else "%d" for a in arrays) + "\n"
    for start, stop in _row_blocks(len(arrays[0]), len(arrays)):
        values = chain.from_iterable(zip(*(a[start:stop].tolist() for a in arrays)))
        yield row_fmt * (stop - start) % tuple(values)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str | Iterable[str], out_path: str | None) -> None:
    chunks = [text] if isinstance(text, str) else text
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns True unless a mathematical check failed


def _cmd_cycles(args) -> bool:
    p = _require_odd_prime(args.prime)
    if args.generator == "all":
        _require_family(p, p - 1)
    rows = []
    for g, lengths in family_cycle_lengths(p, _resolve_generators(p, args.generator)):
        multiplicity = Counter(lengths.tolist())
        rows.extend(
            (g, length, multiplicity[length]) for length in sorted(multiplicity, reverse=True)
        )
    _emit(_table(["generator", "cycle_length", "multiplicity"], rows, args.format), args.out)
    return True


def _cycle_count_table(n: int, counts: list[int]) -> list[tuple]:
    """Rows c, theory percent, empirical percent for c = 1..min(20, n)."""
    theory = stirling_cycle_distribution(n)
    hist = Counter(counts)
    total = len(counts)
    return [
        (c, 100.0 * float(theory[c]), 100.0 * hist.get(c, 0) / total)
        for c in range(1, min(DIST_MAX_CYCLES, n) + 1)
    ]


def _cmd_cycle_dist(args) -> bool:
    p = _require_odd_prime(args.prime)
    _require_family(p, p - 1)
    stats = family_statistics(p, all_generators(p), k_max=1)
    rows = _cycle_count_table(p - 1, list(stats.cycle_counts))
    _emit(_table(["c", "theory_percent", "elgamal_percent"], rows, args.format), args.out)
    return True


def _cmd_random_baseline(args) -> bool:
    _require_count(args.degree, "--degree", 1, MAX_TABLE_MODULUS)
    _require_count(args.samples, "--samples", 1, MAX_DENSE_CELLS)
    _require_dense(args.degree * args.samples, f"--degree {args.degree} --samples {args.samples}")
    # the recurrence of the exact baseline reads n(n+1)/2 cells
    _require_dense(
        args.degree * (args.degree + 1) // 2, f"the baseline of --degree {args.degree}",
        MAX_FAMILY_CELLS,
    )
    counts = random_cycle_counts(args.degree, args.samples, args.seed)
    rows = _cycle_count_table(args.degree, counts)
    _emit(_table(["c", "theory_percent", "random_percent"], rows, args.format), args.out)
    return True


def _cmd_kcycles(args) -> bool:
    p = _require_odd_prime(args.prime)
    _require_count(args.k_max, "--k-max", 1, MAX_TABLE_MODULUS)
    _require_family(p, p - 1)
    stats = family_statistics(p, all_generators(p), k_max=args.k_max)
    rows = [
        (k, expected_k_cycles(k), stats.avg_k_cycles[k - 1]) for k in range(1, args.k_max + 1)
    ]
    _emit(_table(["k", "theory", "empirical_average"], rows, args.format), args.out)
    return True


def _cmd_fixed_points(args) -> bool:
    # the sweep reads p-1 residues for every prime p <= --max-prime, fewer
    # than max_prime**2 cells in all, so this cap keeps them in the dense envelope
    _require_count(args.max_prime, "--max-prime", 2, isqrt(MAX_DENSE_CELLS))
    rows = [(p, avg) for p, avg in fixed_point_sweep(args.max_prime)]
    _emit(_table(["p", "avg_fixed_points"], rows, args.format), args.out)
    return True


def _cmd_sidon(args) -> bool:
    p = _require_odd_prime(args.prime)
    # the kernel reads p*(p-1) ordered pairs per generator
    if args.generator == "all":
        _require_family(p, p * (p - 1))
    else:
        _require_dense(p * (p - 1), f"--prime {p} --generator {args.generator}", MAX_FAMILY_CELLS)
    expected = (p - 1) ** 2 - (p - 1) + 1
    results = []
    all_ok = True
    for graph in build_graphs(p, _resolve_generators(p, args.generator)):
        check = verify_sidon(graph)
        ok = check.ok and check.diff_set_size == expected
        all_ok &= ok
        results.append(
            {
                "generator": graph.g,
                "ok": ok,
                "diff_set_size": check.diff_set_size,
                "expected_diff_set_size": expected,
            }
        )
    _emit(_json({"p": p, "results": results, "pass": all_ok}), args.out)
    return all_ok


def _cmd_char_sums(args) -> bool:
    p = _require_odd_prime(args.prime)
    if args.generator == "all":
        _require_family(p, p - 1)
    bound = sidon_character_bound(p)
    results = []
    all_ok = True
    for g, value, chi in max_nontrivial_character_sums(p, _resolve_generators(p, args.generator)):
        ok = value < bound
        all_ok &= ok
        results.append(
            {
                "generator": g,
                "max_sum": value,
                "bound": bound,
                "argmax_s": chi.s,
                "argmax_t": chi.t,
                "pass": ok,
            }
        )
    _emit(_json({"p": p, "results": results, "pass": all_ok}), args.out)
    return all_ok


def _cmd_polya(args) -> bool:
    if args.n > MAX_TABLE_MODULUS:
        raise InputError(f"--n {args.n} is above the supported maximum {MAX_TABLE_MODULUS}")
    try:
        total = incomplete_exponential_sum_total(args.n, args.window)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    bound = polya_vinogradov_bound(args.n)
    ok = total < bound
    _emit(
        _json(
            {
                "n": args.n,
                "window": args.window,
                "shift": args.shift,
                "total": total,
                "bound": bound,
                "pass": ok,
            }
        ),
        args.out,
    )
    return ok


def _cmd_discrepancy(args) -> bool:
    p = _require_odd_prime(args.prime)
    _require_count(args.boxes, "--boxes", 0, MAX_TABLE_MODULUS)
    # the cap bounds (p-1)*(p+2+boxes), the cells a scan of every box would read
    _require_dense(
        (p - 1) * (p + 2 + args.boxes), f"--prime {p} --boxes {args.boxes}", MAX_SWEEP_CELLS
    )
    [graph] = build_graphs(p, [_resolve_single_generator(p, args.generator)])
    report = sweep(graph, args.boxes, args.seed)
    bound = theorem_bound(p)
    ok = report.max_deviation <= bound
    if args.out is not None:
        columns = (*report.boxes.T, report.hits, report.expected, report.deviation,
                   report.ratio, report.large_box.astype(np.int64))
        header = ["h", "N", "k", "M", "hits", "expected", "deviation", "ratio", "large_box"]
        _emit(_csv_blocks(header, columns), args.out)
    _emit(
        _json(
            {
                "p": p,
                "generator": graph.g,
                "seed": args.seed,
                "num_boxes": len(report.boxes),
                "max_deviation": report.max_deviation,
                "bound": bound,
                "max_ratio": report.max_ratio,
                "pass": ok,
            }
        ),
        None,
    )
    return ok


def _cmd_render_cycles(args) -> bool:
    p = _require_odd_prime(args.prime)
    [(_, lengths)] = family_cycle_lengths(p, [_resolve_single_generator(p, args.generator)])
    _emit(cycle_diagram_svg(lengths.tolist()), args.out)
    return True


def _cmd_sign_demo(args) -> bool:
    p = _require_odd_prime(args.prime)
    params = smallest_generator(p)
    d = params.d
    rng = np.random.default_rng(args.seed)
    secret_a = int(rng.integers(0, d))
    session_k = int(rng.integers(1, d))
    while gcd(session_k, d) != 1:
        session_k = int(rng.integers(1, d))
    message_m = int(rng.integers(0, d))
    public_A = pow(params.g, secret_a, p)
    signature = sign(params, secret_a, session_k, message_m)
    checked_m = (message_m + 1) % d if args.tamper else message_m
    verified = verify(params, public_A, checked_m, signature)
    _emit(
        _json({"A": public_A, "K": signature.K, "b": signature.b, "verified": verified}),
        args.out,
    )
    return verified


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """--seed values: numpy's default_rng rejects negative seeds."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _flag(name: str, **options) -> tuple[str, dict]:
    return name, options


_PRIME = _flag("--prime", type=int, required=True)
_FORMAT = _flag("--format", choices=("csv", "json"), default="csv")
_SEED = _flag("--seed", type=_seed, default=DEFAULT_SEED)
_GENERATOR_OR_ALL = _flag("--generator", default="smallest", help="an integer, 'smallest', or 'all'")
_GENERATOR = _flag("--generator", default="smallest", help="an integer or 'smallest'")

# (name, handler, help, flags after --out): the one declaration of each subcommand
_SUBCOMMANDS = (
    ("cycles", _cmd_cycles, "cycle lengths of x -> g**x, per generator",
     (_PRIME, _GENERATOR_OR_ALL, _FORMAT)),
    ("cycle-dist", _cmd_cycle_dist, "cycle-count distribution vs exact theory", (_PRIME, _FORMAT)),
    ("random-baseline", _cmd_random_baseline,
     "cycle-count distribution of seeded uniform permutations",
     (_flag("--degree", type=int, required=True), _flag("--samples", type=int, required=True),
      _SEED, _FORMAT)),
    ("kcycles", _cmd_kcycles, "average k-cycle counts vs the 1/k law",
     (_PRIME, _flag("--k-max", dest="k_max", type=int, default=DIST_MAX_CYCLES), _FORMAT)),
    ("fixed-points", _cmd_fixed_points, "average fixed points per prime, all generators",
     (_flag("--max-prime", dest="max_prime", type=int, required=True), _FORMAT)),
    ("sidon", _cmd_sidon, "difference-uniqueness check and difference-set size",
     (_PRIME, _GENERATOR_OR_ALL)),
    ("char-sums", _cmd_char_sums, "largest nontrivial character sum vs sqrt(3(p-1))",
     (_PRIME, _GENERATOR_OR_ALL)),
    ("polya", _cmd_polya, "incomplete exponential sum total vs 5n ln n",
     (_flag("--n", type=int, required=True, help="modulus"),
      _flag("--window", type=int, required=True, help="window length N, 1 <= N < n"),
      _flag("--shift", type=int, default=0, help="window start h"))),
    ("discrepancy", _cmd_discrepancy, "box deviations vs 50 sqrt(p) ln(p)^2",
     (_PRIME, _GENERATOR, _flag("--boxes", type=int, default=0, help="number of random boxes"),
      _SEED)),
    ("render-cycles", _cmd_render_cycles, "SVG cycle diagram, one circle per cycle",
     (_PRIME, _GENERATOR)),
    ("sign-demo", _cmd_sign_demo, "seeded sign/verify round trip",
     (_PRIME, _SEED, _flag("--tamper", action="store_true", help="verify against m+1 instead of m"))),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="elgamalmap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, handler, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="PATH", default=None, help="write output here instead of stdout")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def _check_out_path(path: str) -> None:
    """Raise the OSError that opening `path` for writing would raise for an
    empty path, a missing or non-directory parent or a directory, creating
    nothing."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        parent_mode = os.stat(os.path.dirname(path) or ".").st_mode
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    if not stat.S_ISDIR(parent_mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "render-cycles" and args.out is None:
            raise InputError("render-cycles requires --out PATH for the SVG file")
        if args.out is not None:  # fail before the computation, not after it
            _check_out_path(args.out)
        ok = args.handler(args)
    except (InputError, OSError) as exc:
        print(f"elgamalmap: error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
