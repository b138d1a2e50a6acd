import ast
import importlib
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from elgamalmap import cli

ROOT = Path(__file__).resolve().parent.parent


def _run_script(path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / path), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_experiments_quick(tmp_path):
    result = _run_script("scripts/run_experiments.py", "--quick", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("exit 0 ") for line in lines)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([
        "cycles_101.csv", "cycle_dist_101.csv", "random_baseline_101.csv", "kcycles_101.csv",
        "fixed_points_101.csv", "sidon_101.json", "char_sums_61.json", "polya_300.json",
        "discrepancy_101.json", "discrepancy_101_records.csv", "cycles_101_smallest.svg",
        "sign_demo_101.json",
    ])


def test_render_gallery_smoke(tmp_path):
    """Each gallery file holds the bytes that `render-cycles` writes for
    its generator."""
    gallery, single = tmp_path / "gallery", tmp_path / "single.svg"
    result = _run_script(
        "scripts/render_gallery.py", "--prime", "61", "--count", "3", "--outdir", str(gallery)
    )
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in gallery.iterdir()) == [
        "cycles_p61_g2.svg", "cycles_p61_g6.svg", "cycles_p61_g7.svg",
    ]
    wrote = [f"wrote {gallery / f'cycles_p61_g{g}.svg'}" for g in (2, 6, 7)]
    assert result.stdout.splitlines() == wrote
    for g in (2, 6, 7):
        code = cli.main(["render-cycles", "--prime", "61", "--generator", str(g),
                         "--out", str(single)])
        assert code == 0
        assert (gallery / f"cycles_p61_g{g}.svg").read_bytes() == single.read_bytes()


@pytest.mark.parametrize(
    "args, error",
    [
        (["--count", "0"], "argument --count: must be >= 1, got 0"),
        (["--count", "-1"], "argument --count: must be >= 1, got -1"),
        (["--prime", "10"], "argument --prime: must be an odd prime up to 1000000, got 10"),
        (["--prime", "1000003"],
         "argument --prime: must be an odd prime up to 1000000, got 1000003"),
    ],
    ids=["count-0", "count-negative", "prime-composite", "prime-above-table"],
)
def test_render_gallery_rejects_bad_input(tmp_path, args, error):
    """A count below 1 or a prime the library cannot tabulate is one
    argparse error line, before the gallery directory is made."""
    gallery = tmp_path / "gallery"
    result = _run_script("scripts/render_gallery.py", *args, "--outdir", str(gallery))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith(f": error: {error}")
    assert "Traceback" not in result.stderr
    assert not gallery.exists()


@pytest.mark.parametrize(
    "script, args",
    [
        ("scripts/run_experiments.py", ["--quick"]),
        ("scripts/render_gallery.py", ["--prime", "61", "--count", "1"]),
    ],
    ids=["run-experiments", "render-gallery"],
)
def test_outdir_naming_a_file_is_usage_error(tmp_path, script, args):
    """An --outdir that names a file is one argparse error line before any
    run, and the file keeps its bytes."""
    outdir = tmp_path / "taken"
    outdir.write_bytes(b"keep me\n")
    result = _run_script(script, *args, "--outdir", str(outdir))
    assert result.returncode == 2
    assert result.stdout == ""
    error = f": error: argument --outdir: [Errno 17] File exists: '{outdir}'"
    assert result.stderr.splitlines()[-1].endswith(error)
    assert "Traceback" not in result.stderr
    assert outdir.read_bytes() == b"keep me\n"
    assert list(tmp_path.iterdir()) == [outdir]


def test_scripts_import_only_the_cli_and_numth():
    """The scripts drive the package through its command line; numth
    serves only their input checks and the generator list."""
    modules = set()
    for path in (ROOT / "scripts").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules.add(node.module)
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
    package = {name for name in modules if name and name.split(".")[0] == "elgamalmap"}
    assert "elgamalmap.cli" in package
    assert package <= {"elgamalmap.cli", "elgamalmap.numth"}


_TRACED_CASES = [
    (
        "sign-demo",
        ["sign-demo", "--prime", "5"],
        {"numth.GroupParams", "elgamal.sign", "elgamal.verify"},
    ),
    ("sidon", ["sidon", "--prime", "5", "--generator", "all"], {"sidon.verify_sidon"}),
    (
        "char-sums",
        ["char-sums", "--prime", "5", "--generator", "all"],
        {"sidon.max_nontrivial_character_sum", "sidon.build_graph"},
    ),
    ("cycle-dist", ["cycle-dist", "--prime", "13"], {"permstat.family_statistics"}),
    ("cycles", ["cycles", "--prime", "13", "--generator", "all"], {"permstat.family_cycle_types"}),
    (
        "discrepancy",
        ["discrepancy", "--prime", "13", "--boxes", "5"],
        {"discrepancy.sweep", "discrepancy.count_boxes"},
    ),
    (
        "discrepancy-out",
        ["discrepancy", "--prime", "13", "--boxes", "5", "--out", "{out}"],
        {"discrepancy.sweep", "discrepancy.count_boxes"},
    ),
    ("polya", ["polya", "--n", "13", "--window", "6"], {"sidon.incomplete_exponential_sum_total"}),
    ("kcycles", ["kcycles", "--prime", "13"], {"permstat.family_statistics"}),
    ("fixed-points", ["fixed-points", "--max-prime", "13"], {"permstat.fixed_point_sweep"}),
    (
        "random-baseline",
        ["random-baseline", "--degree", "12", "--samples", "5"],
        {"permstat.stirling_cycle_distribution", "permstat.random_cycle_counts"},
    ),
    (
        "render-cycles",
        ["render-cycles", "--prime", "13", "--out", "{out}"],
        {"render.cycle_diagram_svg", "permstat.family_cycle_types"},
    ),
]


@pytest.mark.parametrize(
    "mode, argv, layers",
    [
        pytest.param(mode, argv, layers, id=name if mode == "spans" else f"{name}-{mode}")
        for mode in ("spans", "alloc")
        for name, argv, layers in _TRACED_CASES
    ],
)
def test_benchmark_traced_child_runs(tmp_path, mode, argv, layers):
    """The benchmark's traced modes hook package names (the dataclasses
    GroupParams and Permutation among them) and read the `SidonGraph`
    first argument of `sidon.verify_sidon` and
    `sidon.max_nontrivial_character_sum` for their counters; a deleted
    one makes every traced child fail, and a renamed function leaves its
    layer empty, which neither the plain benchmark run nor the other tests
    see.  `spans` times every call and `alloc` runs the heavy kernels
    under tracemalloc, so each case runs in both.  "{out}" stands for an
    --out path, which must then hold the output."""
    result_path, out = tmp_path / "result.json", tmp_path / "out"
    argv = [token.replace("{out}", str(out)) for token in argv]
    result = _run_script(
        "perfbench/child.py", mode, str(result_path), str(2 * 2**30), "--", *argv
    )
    assert result.returncode == 0, result.stderr
    if "--out" in argv:
        assert out.stat().st_size > 0
    assert layers <= set(json.loads(result_path.read_text())["layers"])


# glibc's default trim and mmap thresholds, frozen: without these variables
# a free of a large block while the package is imported raises both
_FROZEN_MALLOC = {"MALLOC_TRIM_THRESHOLD_": "131072", "MALLOC_MMAP_THRESHOLD_": "131072"}


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults of glibc's heap trimming",
)
@pytest.mark.parametrize("malloc_env", [{}, _FROZEN_MALLOC], ids=["default", "frozen"])
@pytest.mark.parametrize(
    "argv",
    [
        ["kcycles", "--prime", "4001", "--k-max", "20"],
        ["cycle-dist", "--prime", "4001"],
        ["cycles", "--prime", "1009", "--generator", "all"],
        ["random-baseline", "--degree", "1008", "--samples", "288"],
        ["render-cycles", "--prime", "10007", "--out", "{out}"],
    ],
    ids=["kcycles", "cycle-dist", "cycles-all", "random-baseline", "render-cycles"],
)
def test_cycle_kernel_reuses_its_heap(tmp_path, argv, malloc_env):
    """A run of the cycle kernel through the benchmark's untraced child
    (a family at 4001, or at 1009 with 16 rows per block; 288 samples of
    degree 1008; one row of 10006 cells) takes about 5,000 minor page
    faults.  The kernel allocates its work arrays once per call, each
    below glibc's 128 KiB mmap threshold, so no block maps, unmaps or
    trims memory that the next block faults back in (about 42,000 faults
    and 0.1 s more when each 2**14-cell block did), and its walk's
    per-block arrays are small.  With the thresholds frozen at their
    defaults the count must hold too, so it does not rest on what
    importing the package happened to allocate and free.  "{out}" stands
    for an --out path."""
    argv = [token.replace("{out}", str(tmp_path / "out")) for token in argv]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               **malloc_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "plain",
         str(tmp_path / "result.json"), str(2 * 2**30), "--", *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    stderr = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stderr.close()
    assert child.returncode == 0, stderr
    assert usage.ru_minflt < 10_000


# Layers of BENCHMARK.json whose functions are gone from the package; their
# metrics read 0 until the benchmark's hooks are retargeted (ROADMAP item 1).
DEAD_LAYERS = {
    "discrepancy.count_in_box",
    "elgamal.elgamal_permutation",
    "numth.factorize",
    "permstat.cycle_decompose",
    "permstat.random_permutation",
    "sidon.difference_set_size",
}


def test_benchmark_layers_resolve_to_hooked_names():
    """Each per-layer metric of BENCHMARK.json names module.function (the
    tracer's own `trace.*` aside), and the traced child hooks only the
    functions a module defines and lists in its __all__, plus the
    dataclasses GroupParams and Permutation through __post_init__; a
    renamed layer would read 0 without failing any run."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    layers = {m["name"].rpartition(".")[0] for m in metrics} - {"trace"}
    dead = set()
    for layer in sorted(layers):
        module_name, _, name = layer.partition(".")
        module = importlib.import_module(f"elgamalmap.{module_name}")
        if name not in module.__all__:
            dead.add(layer)
            continue
        obj = getattr(module, name)
        assert obj.__module__ == module.__name__, layer
        if isinstance(obj, type):
            assert layer in {"numth.GroupParams", "elgamal.Permutation"}, layer
            assert "__post_init__" in vars(obj), layer
    assert dead == DEAD_LAYERS


def _called_names(node):
    """Names of every function called inside `node`: `f` for f(...) and
    for x.f(...)."""
    return [
        call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    ]


def _read_attributes(node, modules):
    """Names of every attribute read inside `node`: `f` for x.f, unless x
    is one of the names in `modules` (so math.log is not a read of a
    member named log)."""
    return [
        attr.attr
        for attr in ast.walk(node)
        if isinstance(attr, ast.Attribute) and isinstance(attr.ctx, ast.Load)
        and getattr(attr.value, "id", None) not in modules
    ]


def _imported_modules(tree):
    """The names that `import m` and `import m as x` bind in `tree`."""
    return {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _public_members(cls):
    """The methods, properties and annotated fields of a class body whose
    names do not start with an underscore."""
    names = [
        node.name if isinstance(node, ast.FunctionDef) else getattr(node.target, "id", "_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AnnAssign))
    ]
    return [name for name in names if not name.startswith("_")]


def test_every_public_function_is_called_by_the_program():
    """Each function a package module lists in its __all__ is called, and
    each class constructed, somewhere in the package or its scripts,
    outside its own body: one that only the tests call belongs with the
    tests' oracles.  Each member of such a class is read there as an
    attribute, outside the class body, so no cached field or method that
    nothing reads stays.  Constants are exempt.  No public function of the
    column modules is annotated to return a list: their results are numpy
    columns.  numth is out of scope, since `numth.all_generators` returns
    the list[int] of generators that the CLI prints as ints."""
    paths = [*(ROOT / "src" / "elgamalmap").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    calls = Counter(name for tree in trees.values() for name in _called_names(tree))
    modules = {stem: _imported_modules(tree) for stem, tree in trees.items()}
    reads = Counter(
        name for stem, tree in trees.items() for name in _read_attributes(tree, modules[stem])
    )
    uncalled, unconstructed, unread, listed = [], set(), set(), []
    for stem, tree in sorted(trees.items()):
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for name in ast.literal_eval(node.value)
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported:
                if calls[node.name] == _called_names(node).count(node.name):
                    if isinstance(node, ast.ClassDef):
                        unconstructed.add(f"{stem}.{node.name}")
                    else:
                        uncalled.append(f"{stem}.{node.name}")
                returns = node.returns if isinstance(node, ast.FunctionDef) else None
                if stem in ("permstat", "sidon", "discrepancy") and returns is not None:
                    if any(getattr(n, "id", None) == "list" for n in ast.walk(returns)):
                        listed.append(f"{stem}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    for member in _public_members(node):
                        if reads[member] == _read_attributes(node, modules[stem]).count(member):
                            unread.add(f"{stem}.{node.name}.{member}")
    assert uncalled == []
    assert listed == []
    # perfbench/child.py's DATACLASS_HOOKS keeps Permutation (and so its
    # image) alive, and its COUNTERS read SidonGraph.size, until Permutation
    # moves into the tests' oracles and size goes with the benchmark's
    # retargeting (ROADMAP item 1a)
    assert unconstructed == {"elgamal.Permutation"}
    assert unread == {"elgamal.Permutation.image", "sidon.SidonGraph.size"}
