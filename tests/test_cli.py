import builtins
import contextlib
import importlib
import io
import json
import math
import pkgutil
import re
import runpy
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import elgamalmap
from elgamalmap import cli, numth
from elgamalmap.cli import main
from elgamalmap.discrepancy import sweep
from elgamalmap.numth import is_prime, smallest_generator
from elgamalmap.sidon import SidonGraph, build_graph

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cycles_p3(capsys):
    code, out = run(capsys, "cycles", "--prime", "3", "--generator", "2")
    assert code == 0
    assert out == "generator,cycle_length,multiplicity\n2,2,1\n"


def test_cycles_lengths_sum_to_degree(capsys):
    code, out = run(capsys, "cycles", "--prime", "1009", "--generator", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "generator,cycle_length,multiplicity"
    total = sum(
        int(row[1]) * int(row[2]) for row in (line.split(",") for line in lines[1:])
    )
    assert total == 1008


def test_cycles_all_generators_p5(capsys):
    code, out = run(capsys, "cycles", "--prime", "5", "--generator", "all")
    assert code == 0
    gens = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
    assert gens == {"2", "3"}


def test_cycle_dist_p3(capsys):
    code, out = run(capsys, "cycle-dist", "--prime", "3")
    assert code == 0
    assert out.splitlines() == [
        "c,theory_percent,elgamal_percent",
        "1,50.000000,100.000000",
        "2,50.000000,0.000000",
    ]


def test_cycle_dist_p1009_is_bounded(capsys):
    code, out = run(capsys, "cycle-dist", "--prime", "1009")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 21  # header + c = 1..20
    empirical = [float(line.split(",")[2]) for line in lines[1:]]
    theory = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(empirical) <= 100.0 + 1e-9
    assert sum(theory) <= 100.0 + 1e-9


def test_random_baseline_deterministic(capsys):
    code1, out1 = run(capsys, "random-baseline", "--degree", "200", "--samples", "50")
    code2, out2 = run(capsys, "random-baseline", "--degree", "200", "--samples", "50")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "c,theory_percent,random_percent"


def test_random_baseline_degree_one(capsys):
    code, out = run(capsys, "random-baseline", "--degree", "1", "--samples", "10")
    assert code == 0
    assert out.splitlines()[1] == "1,100.000000,100.000000"


def test_kcycles_p5(capsys):
    code, out = run(capsys, "kcycles", "--prime", "5", "--k-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,theory,empirical_average"
    assert lines[1] == "1,1.000000,0.500000"
    assert lines[4].startswith("4,0.250000,")


def test_fixed_points_small(capsys):
    code, out = run(capsys, "fixed-points", "--max-prime", "7")
    assert code == 0
    assert out.splitlines() == [
        "p,avg_fixed_points",
        "2,1.000000",
        "3,0.000000",
        "5,0.500000",
        "7,1.500000",
    ]


def test_sidon_json(capsys):
    code, out = run(capsys, "sidon", "--prime", "5", "--generator", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [r["generator"] for r in doc["results"]] == [2, 3]
    for r in doc["results"]:
        assert r["ok"] is True
        assert r["diff_set_size"] == r["expected_diff_set_size"] == 13


def test_sidon_p3(capsys):
    code, out = run(capsys, "sidon", "--prime", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["diff_set_size"] == 3


def _swapped_build_graph(p, g):
    """`build_graph` with entries 3 and 5 of the table exchanged."""
    graph = build_graph(p, g)
    first = graph.first.copy()
    first[[3, 5]] = first[[5, 3]]
    return SidonGraph(p=p, g=g, first=first)


@pytest.mark.parametrize("generator", ["smallest", "all"])
def test_sidon_failure_exits_2_with_the_broken_exponent(capsys, monkeypatch, generator):
    """A table that fails the certificate exits 2 with a null size in
    every row and the first broken exponent of g0's table, a key that only
    a failing run carries."""
    argv = ["sidon", "--prime", "13", "--generator", generator]
    _, out = run(capsys, *argv)
    passing = json.loads(out)
    monkeypatch.setattr(cli, "build_graph", _swapped_build_graph)  # now t[3] != g0*t[2]
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 2
    assert doc["pass"] is False
    assert doc["broken_at"] == 2
    assert set(passing) == {"p", "results", "pass"}
    assert set(doc) == set(passing) | {"broken_at"}
    assert len(doc["results"]) == len(passing["results"]) == (1 if generator == "smallest" else 4)
    for row, passing_row in zip(doc["results"], passing["results"]):
        assert set(row) == set(passing_row)
        assert (row["ok"], row["diff_set_size"]) == (False, None)
        assert row["expected_diff_set_size"] == passing_row["diff_set_size"] == 133


def test_char_sums_json(capsys):
    code, out = run(capsys, "char-sums", "--prime", "5", "--generator", "2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"p", "results", "pass"}
    result = doc["results"][0]
    assert result["pass"] is True
    assert result["bound"] == pytest.approx(3.4641016151377544)
    assert result["max_sum"] == math.sqrt(5) < result["bound"]
    assert (result["argmax_s"], result["argmax_t"]) == (1, 1)


@pytest.mark.parametrize("generator", ["smallest", "all"])
def test_char_sums_failure_exits_2_with_the_off_index(capsys, monkeypatch, generator):
    """A table whose row of sums is off the exact profile exits 2 with
    `pass` false in every row and the first t that is off, a key that
    only a failing run carries; `max_sum` is then the measured maximum."""
    argv = ["char-sums", "--prime", "13", "--generator", generator]
    _, out = run(capsys, *argv)
    passing = json.loads(out)
    monkeypatch.setattr(cli, "build_graph", _swapped_build_graph)
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 2
    assert doc["pass"] is False
    assert set(passing) == {"p", "results", "pass"}
    assert set(doc) == set(passing) | {"off_at"}
    first = _swapped_build_graph(13, smallest_generator(13).g).first
    sums = np.abs(np.fft.fft(np.exp(2j * np.pi * first / 13)))
    exact = np.where(np.arange(12) == 0, 1.0, math.sqrt(13))
    assert doc["off_at"] == int(np.argmax(np.abs(sums - exact) > 1e-9 * math.sqrt(13)))
    assert len(doc["results"]) == len(passing["results"]) == (1 if generator == "smallest" else 4)
    for row, passing_row in zip(doc["results"], passing["results"]):
        assert set(row) == set(passing_row)
        assert (row["pass"], passing_row["pass"]) == (False, True)
        assert row["max_sum"] == pytest.approx(float(sums.max()), rel=1e-12)


def test_polya_json(capsys):
    code, out = run(capsys, "polya", "--n", "4", "--window", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == pytest.approx(4.82842712474619)
    assert doc["bound"] == pytest.approx(27.725887222397812)
    assert doc["pass"] is True


def test_polya_shift_matches(capsys):
    """`total` is the same float at every --shift, which is only echoed;
    10**20 is far outside int64, once numpy's OverflowError traceback."""
    totals = set()
    for h in [0, 9, 10**20]:
        code, out = run(capsys, "polya", "--n", "4", "--window", "2", "--shift", str(h))
        assert code == 0, h
        doc = json.loads(out)
        assert doc["shift"] == h
        totals.add(doc["total"])
    assert len(totals) == 1, totals


def test_polya_bad_window_is_usage_error(capsys):
    code = main(["polya", "--n", "4", "--window", "4"])
    capsys.readouterr()
    assert code == 1


def test_discrepancy_json_and_records(capsys, tmp_path):
    records = tmp_path / "records.csv"
    code, out = run(
        capsys,
        "discrepancy", "--prime", "5", "--generator", "2",
        "--boxes", "0", "--seed", "0", "--out", str(records),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_deviation"] <= doc["bound"]
    lines = records.read_text().splitlines()
    assert lines[0] == "h,N,k,M,hits,expected,deviation,ratio,large_box"
    assert len(lines) == 1 + doc["num_boxes"]
    full_box = lines[1].split(",")
    assert float(full_box[6]) == 0.0  # the full box deviates by exactly 0


def test_discrepancy_csv_is_byte_identical_across_blocks(capsys, tmp_path):
    """The block-formatted CSV equals a per-row, per-cell format of the
    sweep's columns when the rows span three blocks, the last of one row."""
    p, seed = 1009, 3
    rows_per_block = cli.CSV_BLOCK_VALUES // 9  # nine CSV columns
    fixed_rows = 1 + 2 * (p - 1)  # full box, single rows and single columns
    boxes = 2 * rows_per_block + 1 - fixed_rows
    assert boxes >= 0
    records = tmp_path / "records.csv"
    code, _ = run(
        capsys, "discrepancy", "--prime", str(p), "--boxes", str(boxes),
        "--seed", str(seed), "--out", str(records),
    )
    assert code == 0

    def fmt(value):
        return f"{value:.6f}" if isinstance(value, float) else str(value)

    graph = build_graph(p, smallest_generator(p).g)
    rows, hits, expected, deviation, ratio, large_box = sweep(graph, boxes, seed)
    columns = (*rows.T, hits, expected, deviation, ratio, large_box.astype(int))
    lines = ["h,N,k,M,hits,expected,deviation,ratio,large_box"]
    lines.extend(",".join(fmt(v) for v in row) for row in zip(*(c.tolist() for c in columns)))
    assert len(lines) == 1 + 2 * rows_per_block + 1
    assert records.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_discrepancy_rejects_all_selector(capsys):
    code = main(["discrepancy", "--prime", "5", "--generator", "all"])
    capsys.readouterr()
    assert code == 1


def test_render_cycles_writes_svg(capsys, tmp_path):
    out_file = tmp_path / "cycles.svg"
    code, _ = run(
        capsys, "render-cycles", "--prime", "5", "--generator", "2", "--out", str(out_file)
    )
    assert code == 0
    root = ET.fromstring(out_file.read_text())
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 2
    radii = sorted(float(c.get("r")) for c in circles)
    assert radii[1] / radii[0] == 3.0


def test_render_cycles_requires_out(capsys):
    """`main` checks for render-cycles' --out before --prime, so --prime 4
    without --out gets the --out line, not "4 is not an odd prime"."""
    error = "elgamalmap: error: render-cycles requires --out PATH for the SVG file\n"
    for argv in (["--prime", "5", "--generator", "2"], ["--prime", "4"]):
        code = main(["render-cycles", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", error)


def test_sign_demo(capsys):
    code, out = run(capsys, "sign-demo", "--prime", "1009", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"A", "K", "b", "verified"}
    assert doc["verified"] is True


def test_sign_demo_p5(capsys):
    code, out = run(capsys, "sign-demo", "--prime", "5", "--seed", "1")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_sign_demo_tamper(capsys):
    code, out = run(capsys, "sign-demo", "--prime", "1009", "--seed", "0", "--tamper")
    assert code == 2
    assert json.loads(out)["verified"] is False


_TABLE_READERS = [
    *(f"{name} --prime 61 --generator {g}" for name in ("cycles", "sidon", "char-sums")
      for g in ("smallest", "6", "all")),
    "cycle-dist --prime 61",
    "kcycles --prime 61",
    *(f"discrepancy --prime 61 --generator {g} --boxes 5" for g in ("smallest", "6")),
    *(f"render-cycles --prime 61 --generator {g} --out {{out}}" for g in ("smallest", "6")),
    "fixed-points --max-prime 61",
]


@pytest.mark.parametrize("argv", _TABLE_READERS)
def test_one_power_table_per_prime(argv, monkeypatch, capsys, tmp_path):
    """Every table-reading run derives the smallest generator g0 and its
    power table once per prime, whatever its generators: a single
    generator, g0 or all of them read g0's one table.  The fixed-point
    sweep reads one table per prime of its sieve and does not test those
    primes again."""
    primes = [61] if "--prime" in argv else [p for p in range(3, 62) if is_prime(p)]
    expected = [(p, smallest_generator(p).g) for p in primes]
    numth._smallest_generator.cache_clear()  # start from a fresh process's state
    tables, primality_tests = [], []
    power_table, primality = numth.power_table, numth.is_prime

    def counted_power_table(p, g):
        tables.append((p, g))
        return power_table(p, g)

    def counted_is_prime(n):
        primality_tests.append(n)
        return primality(n)

    monkeypatch.setattr(numth, "power_table", counted_power_table)
    monkeypatch.setattr(numth, "is_prime", counted_is_prime)
    code = main(argv.format(out=tmp_path / "out.svg").split())
    capsys.readouterr()
    assert code == 0
    assert tables == expected
    if argv.startswith("fixed-points"):
        assert primality_tests == []


@pytest.mark.parametrize("subcommand", ["sidon", "char-sums"])
def test_one_generator_check_maps_no_exponent(subcommand, monkeypatch, capsys):
    """`sidon` and `char-sums` check g0's table whatever the generator, so
    --generator 6 needs only Lucas's test: no generator but g0 is mapped
    to its exponent, which would invert g0's table."""
    exponents = numth.GroupParams.exponents

    def g0_only(self, generators):
        if generators != [self.g]:
            raise ValueError(f"exponents of {generators} asked for")
        return exponents(self, generators)

    monkeypatch.setattr(numth.GroupParams, "exponents", g0_only)
    code = main([subcommand, "--prime", "61", "--generator", "6"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")


def test_composite_prime_is_input_error(capsys):
    code = main(["cycles", "--prime", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not an odd prime" in captured.err


@pytest.mark.parametrize(
    "prime", ["18446744073709551557", str(10**30 + 1)], ids=["largest-64-bit-prime", "composite"]
)
def test_prime_above_table_limit_is_never_tested_for_primality(prime, monkeypatch, capsys):
    """`--prime` is held to the table limit before primality, so a
    composite above 10^6 gets the limit message that a prime above it
    gets, and no input asks is_prime about an n above 10^6."""
    asked = []

    def counted_is_prime(n):
        asked.append(n)
        return is_prime(n)

    monkeypatch.setattr(cli, "is_prime", counted_is_prime)
    monkeypatch.setattr(numth, "is_prime", counted_is_prime)
    code = main(["cycles", "--prime", prime])
    captured = capsys.readouterr()
    assert (code, captured.out, asked) == (1, "", [])
    assert captured.err == (
        f"elgamalmap: error: --prime {prime} needs {prime} cells, above the supported maximum "
        f"{cli.MAX_TABLE_MODULUS}\n"
    )


_PARSER = cli._build_parser()


def _admitted(argv: list[str]) -> bool:
    """Whether `main` admits argv's size: --prime is a valid prime, and
    every cost its subcommand declares is within its limit.  Neither
    --generator nor polya's window is checked, and nothing is opened or run."""
    args = _PARSER.parse_args(argv)
    if hasattr(args, "prime"):
        cli._require_odd_prime(args.prime)
    return all(cells <= limit for cells, limit, _ in args.cost(args))


# The largest admitted input of each subcommand, whose time and peak RSS
# the README's size-envelope table gives.  A run over all generators costs
# phi(p-1)*(p-1), which is not monotone in p: 12487 has the most cells and
# 14821 is the largest prime admitted.  `sidon --generator all` costs its
# phi(p-1) rows: 163841 has the most (2^16) and 330331 is the largest
# prime admitted.  `char-sums --generator all` costs its rows too, against
# 2^15: 65537 has the most (2^15) and 158341 is the largest prime admitted.
_LARGEST_ADMITTED = {
    "cycles": "cycles --prime 999983",
    "cycles-all": "cycles --prime 12487 --generator all",
    "cycles-all-largest-prime": "cycles --prime 14821 --generator all",
    "cycle-dist": "cycle-dist --prime 12487",
    "cycle-dist-largest-prime": "cycle-dist --prime 14821",
    "random-baseline-samples": "random-baseline --degree 1 --samples 130561",
    "random-baseline-degree": "random-baseline --degree 32768 --samples 1016",
    "kcycles": "kcycles --prime 12487 --k-max 16384",
    "kcycles-default-k-max": "kcycles --prime 3",
    "fixed-points": "fixed-points --max-prime 20000",
    "sidon": "sidon --prime 999983",
    "sidon-all": "sidon --prime 163841 --generator all",
    "sidon-all-largest-prime": "sidon --prime 330331 --generator all",
    "char-sums": "char-sums --prime 524287",
    "char-sums-all": "char-sums --prime 65537 --generator all",
    "char-sums-all-largest-prime": "char-sums --prime 158341 --generator all",
    "polya": "polya --n 1000000 --window 500000",
    "discrepancy": "discrepancy --prime 23167 --boxes 1000000",
    "render-cycles": "render-cycles --prime 999983",
    "sign-demo": "sign-demo --prime 999983",
}

# The first input outside the envelope of each size-limited flag; each
# exits 1 with one line.  "{out}" stands for a writable --out path.
_FIRST_REJECTED = {
    "cycles-first-prime-outside": "cycles --prime 1000003",
    "cycles-all-first-outside": "cycles --prime 10289 --generator all",
    "cycle-dist-first-outside": "cycle-dist --prime 10289",
    "random-baseline-first-samples-outside": "random-baseline --degree 1 --samples 130562",
    "random-baseline-first-cells-outside": "random-baseline --degree 32768 --samples 1017",
    "random-baseline-first-degree-outside": "random-baseline --degree 32769 --samples 1",
    "kcycles-first-outside": "kcycles --prime 10289",
    "kcycles-first-k-max-outside": "kcycles --prime 3 --k-max 16385",
    "fixed-points-first-outside": "fixed-points --max-prime 20001",
    "sidon-first-prime-outside": "sidon --prime 1000003",
    "sidon-all-first-outside": "sidon --prime 131213 --generator all",
    "char-sums-first-prime-outside": "char-sums --prime 524309",
    "char-sums-all-first-outside": "char-sums --prime 65543 --generator all",
    "polya-first-n-outside": "polya --n 1000001 --window 1",
    "discrepancy-first-prime-outside": "discrepancy --prime 23173",
    "discrepancy-first-boxes-outside": "discrepancy --prime 101 --boxes 1000001",
    "render-cycles-first-prime-outside": "render-cycles --prime 1000003 --out {out}",
    "sign-demo-first-prime-outside": "sign-demo --prime 1000003",
}


@pytest.mark.parametrize(
    "argv",
    [
        # the largest 64-bit prime: once a hang or a numpy traceback
        pytest.param([sub, "--prime", "18446744073709551557"], id=sub)
        for sub in ["cycles", "sidon", "discrepancy", "sign-demo"]
    ]
    + [
        pytest.param(["polya", "--n", "1000000000", "--window", "1"], id="polya-huge-n"),
        pytest.param(
            ["random-baseline", "--degree", "1000", "--samples", "100000"],
            id="random-baseline-cells",
        ),
        # once a traceback or a hang
        pytest.param(
            ["random-baseline", "--degree", "1000000000", "--samples", "1"],
            id="random-baseline-degree",
        ),
        # the exact baseline's full n(n+1)/2-cell recurrence: once minutes of work
        pytest.param(
            ["random-baseline", "--degree", "1000000", "--samples", "1"],
            id="random-baseline-stirling",
        ),
        # one seeded generator per sample: once 21 s of work
        pytest.param(
            ["random-baseline", "--degree", "1", "--samples", "1000000"],
            id="random-baseline-samples",
        ),
        pytest.param(["kcycles", "--prime", "5", "--k-max", "100000000"], id="kcycles-k-max"),
        # one output row per k: once 6 s and 337 MB
        pytest.param(
            ["kcycles", "--prime", "10007", "--k-max", "1000000"], id="kcycles-k-max-rows"
        ),
        pytest.param(
            ["discrepancy", "--prime", "101", "--boxes", "100000000"], id="discrepancy-boxes"
        ),
        pytest.param(["discrepancy", "--prime", "999983"], id="discrepancy-sweep"),
        # the sweep's largest prime reads phi(p-1) tables of p-1 entries: once a hang
        pytest.param(["fixed-points", "--max-prime", "100000000"], id="fixed-points-max-prime"),
        # whole-family runs far outside: once hours of work
        pytest.param(["cycle-dist", "--prime", "999983"], id="cycle-dist-family"),
        pytest.param(["cycles", "--prime", "999983", "--generator", "all"], id="cycles-all-family"),
        pytest.param(["kcycles", "--prime", "999983"], id="kcycles-family"),
        pytest.param(["sidon", "--prime", "999983", "--generator", "all"], id="sidon-all-family"),
        pytest.param(
            ["char-sums", "--prime", "524243", "--generator", "all"], id="char-sums-all-family"
        ),
    ]
    + [pytest.param(argv.split(), id=name) for name, argv in _FIRST_REJECTED.items()],
)
def test_prime_above_table_limit_is_input_error(capsys, tmp_path, argv):
    out = tmp_path / "out"
    code = main([token.replace("{out}", str(out)) for token in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("elgamalmap: error: ")
    assert " above the supported maximum " in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_envelope_admits_every_prime_to_10007():
    """Every subcommand that takes --prime admits every odd prime up to
    10007, with --generator all too, and fixed-points admits --max-prime
    10007: the README's promise of primes up to 10^4.  The primes run on
    to 10288, since 10289 is the first any subcommand rejects."""
    rows = []
    for name, _, _, _, flags in cli._SUBCOMMANDS:
        if cli._PRIME in flags:
            rows.append([name])
            if cli._GENERATOR_OR_ALL in flags:
                rows.append([name, "--generator", "all"])
    assert len(rows) == 11
    for p in range(3, 10289, 2):
        if is_prime(p):
            for row in rows:
                assert _admitted([*row, "--prime", str(p)]), (row, p)
    assert _admitted(["fixed-points", "--max-prime", "10007"])


@pytest.mark.parametrize(
    "argv", [pytest.param(argv.split(), id=name) for name, argv in _LARGEST_ADMITTED.items()]
)
def test_envelope_admits_largest_input(argv):
    assert _admitted(argv)


def test_readme_limits_are_the_declared_limits():
    """The "limit" column of the README's size-envelope table lists exactly
    the limits that the largest admitted inputs are checked against, plus
    MAX_TABLE_MODULUS, the limit of --prime."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(
        "| subcommand | cost in cells | limit | largest admitted input | time | peak RSS |"
    )
    documented = set()
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        for limit in line.split("|")[3].strip().split(", "):
            if limit:
                base, _, exponent = limit.replace(",", "").partition("^")
                documented.add(int(base) ** int(exponent or 1))
    declared = {cli.MAX_TABLE_MODULUS}
    for argv in _LARGEST_ADMITTED.values():
        args = _PARSER.parse_args(argv.split())
        declared.update(limit for _, limit, _ in args.cost(args))
    assert documented == declared



def test_readme_library_layout_is_each_module_api():
    """The README's "Library layout" table has one row per library module
    (the command line has its own section).  Each row names every entry of
    the module's __all__ as a code span that starts with the name, and
    every capitalized name inside its code spans, other than a builtin
    such as None, is in that __all__, so a deleted class cannot linger."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| module | contents |")
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        module, contents = line.strip("|").split("|", 1)
        rows[module.strip().strip("`")] = re.findall(r"`([^`]*)`", contents)
    modules = {f"elgamalmap.{info.name}" for info in pkgutil.iter_modules(elgamalmap.__path__)}
    assert set(rows) == modules - {"elgamalmap.cli"}
    for module, spans in rows.items():
        exported = set(importlib.import_module(module).__all__)
        named = {re.match(r"\w*", span).group() for span in spans}
        assert exported <= named, (module, exported - named)
        classes = {word for span in spans for word in re.findall(r"\b[A-Z][a-z]\w*", span)}
        classes -= set(vars(builtins))
        assert classes <= exported, (module, classes - exported)

def test_benchmark_invocations_are_inside_the_envelope():
    """An invocation the envelope rejects exits 1 and would lower the
    benchmark's ok_frac; its workloads are read, not imported, so nothing
    is written under perfbench/."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    for workload in workloads["WORKLOADS"]:
        for size in ("full", "tiny"):
            for seed in range(3):
                for argv in workloads["invocations"](workload, seed, size):
                    assert _admitted(argv), (workload, size, seed, argv)


def test_discrepancy_runs_at_the_largest_admitted_prime(capsys):
    """The batched box count makes the sweep's edge input, p = 23167
    with its 46,333 structured boxes, cheap enough to run in full."""
    code, out = run(capsys, "discrepancy", "--prime", "23167")
    assert code == 0
    report = json.loads(out)
    assert (report["p"], report["num_boxes"], report["pass"]) == (23167, 46333, True)


def test_stirling_envelope_edge(capsys):
    """The exact baseline takes one step per degree over its nonzero
    prefix, 0.15 s at 32768, so the degree limit is set by the samples:
    every degree up to 32768 is admitted and runs, and 32769 is the first
    degree outside."""
    code, out = run(capsys, "random-baseline", "--degree", "32768", "--samples", "1")
    assert code == 0
    assert out.splitlines()[0] == "c,theory_percent,random_percent"
    assert not _admitted(["random-baseline", "--degree", "32769", "--samples", "1"])


def test_sidon_certifies_at_the_table_limit(capsys):
    """The certificate reads p-1 cells, so the largest admitted prime
    runs and reports the formula size."""
    code, out = run(capsys, "sidon", "--prime", "999983")
    assert code == 0
    result = json.loads(out)
    assert result["pass"] is True
    assert result["results"][0]["diff_set_size"] == 999982**2 - 999982 + 1


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["char-sums", "--prime", "10007"], id="char-sums"),
        pytest.param(["char-sums", "--prime", "10007", "--generator", "all"], id="char-sums-all"),
        pytest.param(["polya", "--n", "1000000", "--window", "500000"], id="polya"),
    ],
)
def test_closed_form_kernels_run_at_the_table_limit(capsys, argv):
    """Neither kernel builds a dense array, so no dense cap applies.  The
    5002 generators of 10007 share one certified check, so they all report
    sqrt(10007)."""
    code, out = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    if argv[-1] == "all":
        _, smallest = run(capsys, "char-sums", "--prime", "10007")
        [expected] = json.loads(smallest)["results"]
        assert {r["max_sum"] for r in doc["results"]} == {expected["max_sum"]} == {
            math.sqrt(10007)
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["sign-demo", "--prime", "5"],
        ["discrepancy", "--prime", "5"],
        ["random-baseline", "--degree", "3", "--samples", "2"],
    ],
)
def test_negative_seed_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: ")
    assert lines[-1].endswith(": error: argument --seed: must be >= 0, got -1")
    assert sum("error" in line for line in lines) == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (["random-baseline", "--degree", "0", "--samples", "1"], "--degree: must be >= 1, got 0"),
        (["random-baseline", "--degree", "1", "--samples", "0"], "--samples: must be >= 1, got 0"),
        (["kcycles", "--prime", "5", "--k-max", "0"], "--k-max: must be >= 1, got 0"),
        (["fixed-points", "--max-prime", "1"], "--max-prime: must be >= 2, got 1"),
        (["discrepancy", "--prime", "5", "--boxes", "-1"], "--boxes: must be >= 0, got -1"),
        (["polya", "--n", "1", "--window", "1"], "--n: must be >= 2, got 1"),
        (["polya", "--n", "4", "--window", "0"], "--window: must be >= 1, got 0"),
    ],
)
def test_count_below_its_minimum_is_usage_error(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f": error: argument {error}")


def test_non_generator_is_input_error(capsys, tmp_path):
    """Every subcommand that takes --generator rejects a bad one with the
    same line."""
    errors = {
        "2": "2 does not generate the group mod 7",  # 2 has order 3 mod 7
        "x": "--generator must be an integer, 'smallest', or 'all', got 'x'",
        "0": "g must lie in [2, p-1], got 0",
        "7": "g must lie in [2, p-1], got 7",
    }
    out = tmp_path / "out.svg"
    for subcommand in ["cycles", "sidon", "char-sums", "discrepancy", "render-cycles"]:
        argv = [subcommand, "--prime", "7"]
        if subcommand == "render-cycles":
            argv += ["--out", str(out)]
        for generator, error in errors.items():
            code = main([*argv, "--generator", generator])
            captured = capsys.readouterr()
            assert code == 1, (subcommand, generator)
            assert captured.out == ""
            assert captured.err == f"elgamalmap: error: {error}\n", (subcommand, generator)
    assert not out.exists()


def test_runs_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out = run(
            capsys, "discrepancy", "--prime", "101", "--boxes", "25", "--seed", "3"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out = run(capsys, "cycles", "--prime", "5", "--generator", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "generator,cycle_length,multiplicity"


def test_failed_check_still_writes_out(capsys, tmp_path):
    """A run that exits 2 writes its document to --out, as it would to stdout."""
    target = tmp_path / "sign.json"
    code, out = run(
        capsys, "sign-demo", "--prime", "1009", "--seed", "0", "--tamper", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert json.loads(target.read_text())["verified"] is False


def test_json_format_for_tables(capsys):
    code, out = run(capsys, "kcycles", "--prime", "5", "--k-max", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["k", "theory", "empirical_average"]
    assert len(doc["rows"]) == 2


_JUNK = st.sampled_from(["x", "", "1.5", "0x10", "-", "smallest", "all"])
# wide integers, with the int64 edges and beyond drawn often
_WIDE = st.one_of(
    st.integers(-(10**20), 10**20), st.sampled_from([-(10**20), -(2**63) - 1, 2**63, 10**20])
)
# flags that size an allocation or a loop stay small; all others range widely
_SIZE_RANGES = {
    "--prime": (-3, 101), "--n": (-3, 101), "--degree": (-3, 101), "--max-prime": (-3, 101),
    "--window": (-3, 50), "--samples": (-3, 50), "--k-max": (-3, 50), "--boxes": (-3, 50),
}
_TMP = "{tmp}"  # stands for the test's temp dir in drawn --out paths


def _flag_value(name):
    if name in _SIZE_RANGES:
        return st.integers(*_SIZE_RANGES[name]).map(str)
    if name == "--format":
        return st.sampled_from(["csv", "json", "xml"])
    if name == "--generator":
        return st.one_of(st.integers(-3, 110), _WIDE).map(str) | st.sampled_from(["smallest", "all"])
    return _WIDE.map(str)  # --shift, --seed


@st.composite
def _argv(draw):
    """A subcommand from the CLI's own table, with a draw of its flags."""
    name, *_, flags = draw(st.sampled_from(cli._SUBCOMMANDS))
    argv = [name]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from([f"{_TMP}/out.txt", f"{_TMP}/missing/out.txt"]))]
    values = []
    for flag, options in flags:
        if not (options.get("required") or draw(st.booleans())):
            continue
        argv.append(flag)
        if options.get("action") != "store_true":
            values.append(len(argv))
            argv.append(draw(_flag_value(flag)))
    if values and draw(st.integers(0, 3)) == 0:  # one non-numeric token
        argv[draw(st.sampled_from(values))] = draw(_JUNK)
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=_argv())
@example(argv=["polya", "--n", "4", "--window", "2", "--shift", str(10**20)])
def test_main_fuzz(tmp_path_factory, argv):
    """Every argv exits 0, 1 or 2 without a traceback; an input error is one line."""
    out_dir = tmp_path_factory.getbasetemp() / "fuzz"
    out_dir.mkdir(exist_ok=True)
    argv = [token.replace(_TMP, str(out_dir)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, exited = main(argv), False
        except SystemExit as exc:
            code, exited = exc.code, True
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1 and not exited:
        assert err.getvalue().startswith("elgamalmap: error: ")
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "target", ["missing/x.csv", ".", pytest.param("a" * 300, id="name-too-long")]
)
def test_unwritable_out_fails_before_computing(target, tmp_path, monkeypatch, capsys):
    """An --out path that cannot be opened is reported before the kernel runs."""

    def kernel_must_not_run(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(cli, "sweep", kernel_must_not_run)
    out = str(tmp_path / target)
    before = sorted(tmp_path.rglob("*"))
    code = cli.main(["discrepancy", "--prime", "101", "--boxes", "20", "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    with pytest.raises(OSError) as opened:
        open(out, "w")
    assert captured.err == f"elgamalmap: error: {opened.value}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "subcommand", ["cycles --prime 5", "discrepancy --prime 101 --boxes 20", "render-cycles --prime 5"]
)
def test_empty_out_fails_before_computing(subcommand, monkeypatch, capsys):
    """--out '' is a path that open() rejects, not an absent --out: the run
    exits 1 with one line and neither prints to stdout nor computes."""

    def kernel_must_not_run(*args, **kwargs):
        raise AssertionError("a kernel ran before --out was checked")

    monkeypatch.setattr(cli, "sweep", kernel_must_not_run)
    monkeypatch.setattr(cli, "family_cycle_types", kernel_must_not_run)
    code = cli.main([*subcommand.split(), "--out", ""])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    with pytest.raises(FileNotFoundError) as opened:
        open("", "w")
    assert captured.err == f"elgamalmap: error: {opened.value}\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        ("cycles --prime 10", "10 is not an odd prime"),
        ("kcycles --prime 10289", " above the supported maximum 52000000"),
        ("cycles --prime 7 --generator 2", "2 does not generate the group mod 7"),
        ("discrepancy --prime 7 --generator all",
         "this subcommand needs a single generator, not 'all'"),
        ("polya --n 4 --window 4", "window length must satisfy 1 <= N < n, got N=4, n=4"),
    ],
    ids=["prime", "cost", "generator", "single-generator", "window"],
)
def test_input_error_leaves_out_alone(argv, error, tmp_path, capsys):
    """`main` checks every input before it opens --out: an input error
    leaves an existing file's bytes as they were, and comes before the
    error of an --out path that cannot be opened."""
    kept, missing = tmp_path / "kept.csv", tmp_path / "missing" / "x.csv"
    kept.write_bytes(b"kept\r\n")
    for out in (kept, missing):
        code = main([*argv.split(), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("elgamalmap: error: ")
        assert captured.err.count("\n") == 1
        assert error in captured.err
    assert kept.read_bytes() == b"kept\r\n"
    assert sorted(tmp_path.iterdir()) == [kept]
