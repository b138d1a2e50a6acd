import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    result = _run_script(
        "scripts/render_gallery.py", "--prime", "61", "--count", "3", "--outdir", str(tmp_path)
    )
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "cycles_p61_g2.svg", "cycles_p61_g6.svg", "cycles_p61_g7.svg",
    ]


@pytest.mark.parametrize(
    "argv, layers",
    [
        pytest.param(["sign-demo", "--prime", "5"], {"numth.GroupParams"}, id="sign-demo"),
        pytest.param(
            ["sidon", "--prime", "5", "--generator", "all"], {"sidon.verify_sidon"}, id="sidon"
        ),
        pytest.param(
            ["char-sums", "--prime", "5", "--generator", "all"],
            {"sidon.max_nontrivial_character_sum", "sidon.build_graph"},
            id="char-sums",
        ),
    ],
)
def test_benchmark_traced_child_runs(tmp_path, argv, layers):
    """The benchmark's traced mode hooks package names (the dataclasses
    GroupParams and Permutation among them) and reads the `SidonGraph`
    first argument of `sidon.verify_sidon` and
    `sidon.max_nontrivial_character_sum` for their counters; a deleted
    one makes every traced child fail, and a renamed function leaves its
    layer empty, which neither the plain benchmark run nor the other tests
    see."""
    result_path = tmp_path / "result.json"
    result = _run_script(
        "perfbench/child.py", "spans", str(result_path), str(2 * 2**30), "--", *argv
    )
    assert result.returncode == 0, result.stderr
    assert layers <= set(json.loads(result_path.read_text())["layers"])


# Layers of BENCHMARK.json whose functions are gone from the package; their
# metrics read 0 until the benchmark's hooks are retargeted (ROADMAP item 1).
DEAD_LAYERS = {
    "discrepancy.count_in_box",
    "numth.factorize",
    "permstat.cycle_decompose",
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
