"""Command-line experiment harness.

Each subcommand reproduces one experiment or verification as CSV or JSON
on stdout (or a file via --out).  Runs are deterministic given their
flags and seed; repeated invocations are byte-identical.

Exit status: 0 on success, 1 on usage or input errors, 2 when a
mathematical check fails (Sidon property, exact character sums, or
signature verification).  `polya` and `discrepancy` report their bounds
as `pass`, but no admitted input can fail them: every box deviation is
at most p-1, below 50 sqrt(p) ln(p)^2 for every admitted p, and the
exponential-sum total is below n(2 + ln n), below 5n ln n for every
n >= 2.

`main` checks every input before it opens --out: that render-cycles has
one, then --prime, the declared costs, --generator and polya's window.
Only then does it create or truncate --out, so an input error never
touches the file, and a run that exits 2 still writes its document.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from itertools import chain
from math import gcd

import numpy as np

from .discrepancy import sweep, theorem_bound
from .elgamal import sign, verify
from .numth import (
    MAX_TABLE_MODULUS,
    GroupParams,
    all_generators,
    generator_count,
    is_prime,
    smallest_generator,
)
from .permstat import (
    DIST_MAX_CYCLES,
    family_cycle_types,
    family_statistics,
    fixed_point_sweep,
    random_cycle_counts,
    stirling_cycle_distribution,
)
from .render import cycle_diagram_svg
from .sidon import (
    build_graph,
    incomplete_exponential_sum_total,
    max_nontrivial_character_sum,
    polya_vinogradov_bound,
    sidon_character_bound,
    verify_sidon,
)

__all__ = ["main"]

DEFAULT_SEED = 0
CSV_BLOCK_VALUES = 2**14  # the CSV writer formats rows of at most this many values per `%`


class InputError(Exception):
    """Bad user input (composite prime, non-generator, ...)."""


def _require_odd_prime(n: int) -> None:
    # the power table takes p-1 cells; checked first, so that is_prime, by
    # trial division, is asked only about n <= MAX_TABLE_MODULUS
    if n > MAX_TABLE_MODULUS:
        raise InputError(
            f"--prime {n} needs {n} cells, above the supported maximum {MAX_TABLE_MODULUS}"
        )
    if n < 3 or not is_prime(n):
        raise InputError(f"{n} is not an odd prime")


def _resolve_generators(p: int, selection: str, single: bool) -> list[int]:
    if selection == "smallest":
        return [smallest_generator(p).g]
    if selection == "all":
        if single:
            raise InputError("this subcommand needs a single generator, not 'all'")
        return all_generators(p)
    try:
        g = int(selection)
    except ValueError:
        raise InputError(
            f"--generator must be an integer, 'smallest', or 'all', got {selection!r}"
        ) from None
    try:
        GroupParams(p, g)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return [g]


def _table(columns: list[str], arrays: tuple[np.ndarray, ...], out_format: str) -> Iterator[str]:
    """The table of 1-D int64/float64 column `arrays`: one JSON document
    {"columns", "rows"}, or CSV with reals to 6 places, one `%` per row block."""
    if out_format == "json":
        rows = [list(row) for row in zip(*(a.tolist() for a in arrays))]
        yield _json({"columns": columns, "rows": rows})
        return
    yield ",".join(columns) + "\n"
    row_fmt = ",".join("%.6f" if a.dtype.kind == "f" else "%d" for a in arrays) + "\n"
    step = CSV_BLOCK_VALUES // len(arrays)
    for start in range(0, len(arrays[0]), step):
        block = [a[start : start + step].tolist() for a in arrays]
        yield row_fmt * len(block[0]) % tuple(chain.from_iterable(zip(*block)))


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers; each writes to `out`, --out or stdout, and returns
# True unless a mathematical check failed


def _cmd_cycles(args, out) -> bool:
    index, length, count = family_cycle_types(args.prime, args.generators)
    arrays = (np.array(args.generators)[index], length, count)
    out.writelines(_table(["generator", "cycle_length", "multiplicity"], arrays, args.format))
    return True


def _cycle_count_table(n: int, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns c, theory and empirical percent of the int64 cycle counts, c = 1..min(20, n)."""
    c = np.arange(1, min(DIST_MAX_CYCLES, n) + 1)
    hist = np.bincount(counts, minlength=c[-1] + 1)
    return c, 100.0 * stirling_cycle_distribution(n)[c], 100.0 * hist[c] / len(counts)


def _cmd_cycle_dist(args, out) -> bool:
    cycle_counts, _ = family_statistics(args.prime, k_max=1)
    arrays = _cycle_count_table(args.prime - 1, cycle_counts)
    out.writelines(_table(["c", "theory_percent", "elgamal_percent"], arrays, args.format))
    return True


def _cmd_random_baseline(args, out) -> bool:
    counts = random_cycle_counts(args.degree, args.samples, args.seed)
    arrays = _cycle_count_table(args.degree, counts)
    out.writelines(_table(["c", "theory_percent", "random_percent"], arrays, args.format))
    return True


def _cmd_kcycles(args, out) -> bool:
    _, avg_k_cycles = family_statistics(args.prime, k_max=args.k_max)
    ks = np.arange(1, args.k_max + 1)
    arrays = (ks, 1.0 / ks, avg_k_cycles)  # a uniform permutation has 1/k k-cycles
    out.writelines(_table(["k", "theory", "empirical_average"], arrays, args.format))
    return True


def _cmd_fixed_points(args, out) -> bool:
    out.writelines(_table(["p", "avg_fixed_points"], fixed_point_sweep(args.max_prime), args.format))
    return True


def _family_check_doc(p: int, generators: list[int], row: dict, key: str, at: int | None) -> str:
    """The JSON document of one check of g0's graph that decides every
    generator: `row` for each, the verdict, and on failure `at`, where the
    check broke, under `key`."""
    doc = {"p": p, "results": [{"generator": g, **row} for g in generators], "pass": at is None}
    if at is not None:
        doc[key] = at
    return _json(doc)


def _cmd_sidon(args, out) -> bool:
    p = args.prime
    # g = g0**j has the image of g0's graph under the automorphism
    # (u, y) -> (u, y/j) of Z_p x Z_{p-1}, which keeps every difference
    # collision and |S - S|, so one certificate of g0's graph decides them all
    broken_at = verify_sidon(build_graph(p, smallest_generator(p).g))
    ok = broken_at is None
    size = (p - 1) ** 2 - (p - 1) + 1  # |S - S| of a Sidon set of p-1 points
    row = {"ok": ok, "diff_set_size": size if ok else None, "expected_diff_set_size": size}
    # broken_at is the first failing exponent of g0's table
    out.write(_family_check_doc(p, args.generators, row, "broken_at", broken_at))
    return ok


def _cmd_char_sums(args, out) -> bool:
    p = args.prime
    # g = g0**j has g0's sums with t read at t/j, the same magnitudes, so one
    # check of g0's graph decides them all; its maximum sqrt(p), first reached
    # at (1, 1) in row-major order, is below sqrt(3(p-1)) for every p >= 3
    max_sum, off_at = max_nontrivial_character_sum(build_graph(p, smallest_generator(p).g))
    ok = off_at is None
    row = {"max_sum": max_sum, "bound": sidon_character_bound(p), "argmax_s": 1, "argmax_t": 1,
           "pass": ok}
    # off_at is the first t at which g0's sums are off their exact values
    out.write(_family_check_doc(p, args.generators, row, "off_at", off_at))
    return ok


def _cmd_polya(args, out) -> bool:
    total = incomplete_exponential_sum_total(args.n, args.window)
    bound = polya_vinogradov_bound(args.n)
    ok = total < bound
    doc = {"n": args.n, "window": args.window, "shift": args.shift, "total": total,
           "bound": bound, "pass": ok}
    out.write(_json(doc))
    return ok


def _cmd_discrepancy(args, out) -> bool:
    p = args.prime
    [g] = args.generators
    graph = build_graph(p, g)
    boxes, hits, expected, deviation, ratio, large_box = sweep(graph, args.boxes, args.seed)
    max_deviation = float(deviation.max())
    bound = theorem_bound(p)
    ok = max_deviation <= bound
    if args.out is not None:
        columns = (*boxes.T, hits, expected, deviation, ratio, large_box.astype(np.int64))
        header = ["h", "N", "k", "M", "hits", "expected", "deviation", "ratio", "large_box"]
        out.writelines(_table(header, columns, "csv"))
    doc = {"p": p, "generator": g, "seed": args.seed, "num_boxes": len(boxes),
           "max_deviation": max_deviation, "bound": bound, "max_ratio": float(ratio.max()),
           "pass": ok}
    sys.stdout.write(_json(doc))
    return ok


def _cmd_render_cycles(args, out) -> bool:
    _, length, count = family_cycle_types(args.prime, args.generators)
    out.write(cycle_diagram_svg(np.repeat(length, count).tolist()))
    return True


def _cmd_sign_demo(args, out) -> bool:
    p = args.prime
    params = smallest_generator(p)
    d = params.d
    rng = np.random.default_rng(args.seed)
    secret_a = int(rng.integers(0, d))
    session_k = int(rng.integers(1, d))
    while gcd(session_k, d) != 1:
        session_k = int(rng.integers(1, d))
    message_m = int(rng.integers(0, d))
    public_A = pow(params.g, secret_a, p)
    K, b = sign(params, secret_a, session_k, message_m)
    checked_m = (message_m + 1) % d if args.tamper else message_m
    verified = verify(params, public_A, checked_m, (K, b))
    out.write(_json({"A": public_A, "K": K, "b": b, "verified": verified}))
    return verified


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """The argparse type of an int flag whose values start at `low`
    (numpy's default_rng rejects negative seeds)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _flag(name: str, **options) -> tuple[str, dict]:
    return name, options


_PRIME = _flag("--prime", type=int, required=True)
_FORMAT = _flag("--format", choices=("csv", "json"), default="csv")
_SEED = _flag("--seed", type=_at_least(0), default=DEFAULT_SEED)
_GENERATOR_OR_ALL = _flag("--generator", default="smallest", help="an integer, 'smallest', or 'all'")
_GENERATOR = _flag("--generator", default="smallest", help="an integer or 'smallest'")


def _family(p: int) -> tuple[int, int, str]:
    """The cost of a run over all phi(p-1) generators, one table of p-1
    cells each.  Its limit admits every prime up to 10007 (50,050,012
    cells) and none above 14821, so the exact baseline that `cycle-dist`
    adds, of degree p-1 (about 0.04 s at 14820), needs no cost of its own."""
    return generator_count(p) * (p - 1), 52_000_000, f"--prime {p} with all generators"


def _family_if_all(args) -> list[tuple[int, int, str]]:
    return [_family(args.prime)] if args.generator == "all" else []


def _rows_if_all(args, limit: int) -> list[tuple[int, int, str]]:
    """The cost of `--generator all` when one check of g0's table serves
    every generator: its phi(p-1) JSON result rows."""
    if args.generator != "all":
        return []
    return [(generator_count(args.prime), limit, f"--prime {args.prime} with all generators")]


# (name, handler, help, cost, flags after --out): the one declaration of each
# subcommand.  cost(args) lists (cells, limit, what) and `main` rejects an
# input whose cells exceed a limit before any work; the limits are measured
# so that each largest admitted input runs within about 4 s and 128 MB
# (README, "Size envelope").
_SUBCOMMANDS = (
    ("cycles", _cmd_cycles, "cycle type of x -> g**x, per generator", _family_if_all,
     (_PRIME, _GENERATOR_OR_ALL, _FORMAT)),
    ("cycle-dist", _cmd_cycle_dist, "cycle-count distribution vs exact theory",
     lambda a: [_family(a.prime)], (_PRIME, _FORMAT)),
    ("random-baseline", _cmd_random_baseline,
     "cycle-count distribution of seeded uniform permutations",
     # a sample seeds its own generator (about 13 us, counted as 256 cells
     # here) and decomposes its degree cells, which cost more above 2^15
     # (42 ns a cell at 65536 and 34 ns at 32768); the exact baseline takes
     # one step per degree over the 20 rows that the table prints and index 0
     lambda a: [((a.degree + 256) * a.samples, 2**25,
                 f"--degree {a.degree} --samples {a.samples}"),
                (a.degree, 2**15, f"--degree {a.degree}")],
     (_flag("--degree", type=_at_least(1), required=True),
      _flag("--samples", type=_at_least(1), required=True), _SEED, _FORMAT)),
    ("kcycles", _cmd_kcycles, "average k-cycle counts vs the 1/k law",
     # rows past k = p-1 read 0, and no admitted prime exceeds 14821
     lambda a: [_family(a.prime), (a.k_max, 2**14, f"--k-max {a.k_max}")],
     (_PRIME, _flag("--k-max", dest="k_max", type=_at_least(1), default=DIST_MAX_CYCLES),
      _FORMAT)),
    ("fixed-points", _cmd_fixed_points, "average fixed points per prime, all generators",
     # the sweep reads p-1 residues for every prime p up to --max-prime
     lambda a: [(a.max_prime**2, 20000**2, f"--max-prime {a.max_prime}")],
     (_flag("--max-prime", dest="max_prime", type=_at_least(2), required=True), _FORMAT)),
    ("sidon", _cmd_sidon, "Sidon certificate of g0's power table and difference-set size",
     # one O(p) certificate serves every generator; `all` prints phi(p-1)
     # rows of about 1.1 KB of JSON each, so 2^16 rows peak at about 110 MB
     lambda a: _rows_if_all(a, 2**16), (_PRIME, _GENERATOR_OR_ALL)),
    ("char-sums", _cmd_char_sums,
     "largest nontrivial character sum, certified as sqrt(p), vs sqrt(3(p-1))",
     # one FFT of length p-1 serves every generator; its work arrays take
     # about 145 bytes per cell; `all` prints phi(p-1) rows of about 1.7 KB
     # each, so 2^15 rows peak at about 84 MB
     lambda a: [(a.prime - 1, 2**19, f"--prime {a.prime}"), *_rows_if_all(a, 2**15)],
     (_PRIME, _GENERATOR_OR_ALL)),
    ("polya", _cmd_polya, "incomplete exponential sum total vs 5n ln n",
     lambda a: [(a.n, MAX_TABLE_MODULUS, f"--n {a.n}")],
     (_flag("--n", type=_at_least(2), required=True, help="modulus"),
      _flag("--window", type=_at_least(1), required=True, help="window length N, 1 <= N < n"),
      _flag("--shift", type=int, default=0, help="window start h"))),
    ("discrepancy", _cmd_discrepancy, "box deviations vs 50 sqrt(p) ln(p)^2",
     # prefix tables of about p*(p-1)/64 cells, then 27 table reads per box
     lambda a: [(a.prime * (a.prime - 1), 2**29, f"--prime {a.prime}"),
                (a.boxes, 10**6, f"--boxes {a.boxes}")],
     (_PRIME, _GENERATOR,
      _flag("--boxes", type=_at_least(0), default=0, help="number of random boxes"), _SEED)),
    ("render-cycles", _cmd_render_cycles, "SVG cycle diagram, one circle per cycle",
     lambda a: [], (_PRIME, _GENERATOR)),
    ("sign-demo", _cmd_sign_demo, "seeded sign/verify round trip", lambda a: [],
     (_PRIME, _SEED, _flag("--tamper", action="store_true", help="verify against m+1 instead of m"))),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="elgamalmap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, handler, help_text, cost, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, cost=cost, single_generator=_GENERATOR in flags)
        p.add_argument("--out", metavar="PATH", default=None, help="write output here instead of stdout")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "render-cycles" and args.out is None:
            raise InputError("render-cycles requires --out PATH for the SVG file")
        if hasattr(args, "prime"):  # before any cost, which may factor p-1
            _require_odd_prime(args.prime)
        for cells, limit, what in args.cost(args):
            if cells > limit:
                raise InputError(f"{what} needs {cells} cells, above the supported maximum {limit}")
        if hasattr(args, "generator"):
            args.generators = _resolve_generators(args.prime, args.generator, args.single_generator)
        if args.subcommand == "polya" and args.window >= args.n:
            raise InputError(
                f"window length must satisfy 1 <= N < n, got N={args.window}, n={args.n}"
            )
        # every input is checked: only now is --out created or truncated
        with (open(args.out, "w", encoding="utf-8", newline="") if args.out is not None
              else nullcontext(sys.stdout)) as out:
            ok = args.handler(args, out)
    except (InputError, OSError) as exc:
        print(f"elgamalmap: error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
