import contextlib
import io
import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elgamalmap import cli
from elgamalmap.cli import main
from elgamalmap.discrepancy import sweep
from elgamalmap.numth import is_prime, smallest_generator
from elgamalmap.permstat import _BLOCK_CELLS
from elgamalmap.sidon import build_graphs


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


def test_char_sums_json(capsys):
    code, out = run(capsys, "char-sums", "--prime", "5", "--generator", "2")
    assert code == 0
    doc = json.loads(out)
    result = doc["results"][0]
    assert result["pass"] is True
    assert result["bound"] == pytest.approx(3.4641016151377544)
    assert result["max_sum"] < result["bound"]
    assert (result["argmax_s"], result["argmax_t"]) != (0, 0)


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
    rows_per_block = _BLOCK_CELLS // 9  # nine CSV columns
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

    [graph] = build_graphs(p, [smallest_generator(p).g])
    report = sweep(graph, boxes, seed)
    columns = (*report.boxes.T, report.hits, report.expected, report.deviation,
               report.ratio, report.large_box.astype(int))
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
    code = main(["render-cycles", "--prime", "5", "--generator", "2"])
    capsys.readouterr()
    assert code == 1


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


def test_composite_prime_is_input_error(capsys):
    code = main(["cycles", "--prime", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not an odd prime" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # the largest 64-bit prime: once a hang or a numpy traceback
        pytest.param([sub, "--prime", "18446744073709551557"], id=sub)
        for sub in ["cycles", "sidon", "discrepancy", "sign-demo"]
    ]
    + [
        # p*(p-1) ordered pairs above MAX_FAMILY_CELLS: once numpy _ArrayMemoryError
        pytest.param(["sidon", "--prime", "100003"], id="sidon-dense"),
        pytest.param(["sidon", "--prime", "8209"], id="sidon-first-prime-outside"),
        # --n above MAX_TABLE_MODULUS
        pytest.param(["polya", "--n", "1000000000", "--window", "1"], id="polya-huge-n"),
        pytest.param(["polya", "--n", "1000001", "--window", "1"], id="polya-first-n-outside"),
        pytest.param(
            ["random-baseline", "--degree", "1000", "--samples", "100000"],
            id="random-baseline-cells",
        ),
        # counts above MAX_TABLE_MODULUS: once a traceback or a hang
        pytest.param(
            ["random-baseline", "--degree", "1000000000", "--samples", "1"],
            id="random-baseline-degree",
        ),
        # the exact baseline's n(n+1)/2 cells above MAX_FAMILY_CELLS: once minutes of work
        pytest.param(
            ["random-baseline", "--degree", "1000000", "--samples", "1"],
            id="random-baseline-stirling",
        ),
        pytest.param(
            ["random-baseline", "--degree", "11585", "--samples", "1"],
            id="random-baseline-first-degree-outside",
        ),
        pytest.param(["kcycles", "--prime", "5", "--k-max", "100000000"], id="kcycles-k-max"),
        pytest.param(
            ["discrepancy", "--prime", "101", "--boxes", "100000000"], id="discrepancy-boxes"
        ),
        # box sweeps reading more than MAX_SWEEP_CELLS table cells: once hours of work
        pytest.param(["discrepancy", "--prime", "999983"], id="discrepancy-sweep"),
        pytest.param(["discrepancy", "--prime", "23173"], id="discrepancy-first-prime-outside"),
        # the sweep's largest prime reads phi(p-1) tables of p-1 entries: once a hang
        pytest.param(["fixed-points", "--max-prime", "100000000"], id="fixed-points-max-prime"),
        pytest.param(["fixed-points", "--max-prime", "5793"], id="fixed-points-first-outside"),
        # whole-family cycle runs above MAX_FAMILY_CELLS: once hours of work
        pytest.param(["cycle-dist", "--prime", "999983"], id="cycle-dist-family"),
        pytest.param(["cycles", "--prime", "999983", "--generator", "all"], id="cycles-all-family"),
        pytest.param(["kcycles", "--prime", "999983"], id="kcycles-family"),
        pytest.param(["cycle-dist", "--prime", "11633"], id="cycle-dist-first-outside"),
        # --generator all above MAX_FAMILY_CELLS over all its kernel calls: once hours of work
        pytest.param(["sidon", "--prime", "5791", "--generator", "all"], id="sidon-all-family"),
        pytest.param(
            ["sidon", "--prime", "557", "--generator", "all"], id="sidon-all-first-outside"
        ),
        pytest.param(
            ["char-sums", "--prime", "11633", "--generator", "all"], id="char-sums-all-family"
        ),
    ],
)
def test_prime_above_table_limit_is_input_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("elgamalmap: error: ")
    assert captured.err.count("\n") == 1


def test_family_envelope_admits_every_prime_to_10007(capsys):
    for p in range(3, 10008, 2):
        if is_prime(p):
            cli._require_family(p, p - 1)
    with pytest.raises(cli.InputError, match="11633 with all generators needs 67558656 cells"):
        cli._require_family(11633, 11632)
    # sidon checks generators * p*(p-1) pairs against the same cap
    cli._require_family(631, 631 * 630)
    with pytest.raises(cli.InputError, match="557 with all generators needs 85474992 cells"):
        cli._require_family(557, 557 * 556)
    assert main(["sidon", "--prime", "557", "--generator", "all"]) == 1
    assert capsys.readouterr().err == (
        "elgamalmap: error: --prime 557 with all generators needs 85474992 cells,"
        " above the supported maximum 67108864\n"
    )


def test_sweep_envelope_edges():
    """The discrepancy cap admits p = 23167 without random boxes, and the
    benchmark's 20000 boxes at 10007; 23173 is the first prime outside."""
    assert 23166 * (23167 + 2) <= cli.MAX_SWEEP_CELLS < 23172 * (23173 + 2)
    assert 10006 * (10007 + 2 + 20000) <= cli.MAX_SWEEP_CELLS


def test_discrepancy_runs_at_the_largest_admitted_prime(capsys):
    """The batched box count makes the sweep's edge input, p = 23167
    with its 46,333 structured boxes, cheap enough to run in full."""
    code, out = run(capsys, "discrepancy", "--prime", "23167")
    assert code == 0
    report = json.loads(out)
    assert (report["p"], report["num_boxes"], report["pass"]) == (23167, 46333, True)


def test_stirling_envelope_edge(capsys):
    """The exact baseline's recurrence reads n(n+1)/2 cells: every degree
    up to 11584 is admitted, which covers the degree 10006 of
    `cycle-dist --prime 10007`, and 11585 is the first degree outside."""
    assert 10006 * 10007 // 2 <= 11584 * 11585 // 2 <= cli.MAX_FAMILY_CELLS < 11585 * 11586 // 2
    code, out = run(capsys, "random-baseline", "--degree", "11584", "--samples", "1")
    assert code == 0
    assert out.splitlines()[0] == "c,theory_percent,random_percent"


def test_sidon_counts_past_the_old_dense_cap(capsys):
    """The lag kernel holds O(p) cells, so p = 5801, once above the dense
    cap, is checked in full."""
    code, out = run(capsys, "sidon", "--prime", "5801")
    assert code == 0
    result = json.loads(out)
    assert result["pass"] is True
    assert result["results"][0]["diff_set_size"] == 5800**2 - 5800 + 1


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
    5002 generators of 10007 share one transform, so they report the
    smallest generator's float."""
    code, out = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    if argv[-1] == "all":
        _, smallest = run(capsys, "char-sums", "--prime", "10007")
        [expected] = json.loads(smallest)["results"]
        assert {r["max_sum"] for r in doc["results"]} == {expected["max_sum"]}


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
    name, _, _, flags = draw(st.sampled_from(cli._SUBCOMMANDS))
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


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
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
    monkeypatch.setattr(cli, "family_cycle_lengths", kernel_must_not_run)
    code = cli.main([*subcommand.split(), "--out", ""])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    with pytest.raises(FileNotFoundError) as opened:
        open("", "w")
    assert captured.err == f"elgamalmap: error: {opened.value}\n"
