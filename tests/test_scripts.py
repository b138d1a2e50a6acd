import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_benchmark_traced_child_runs(tmp_path):
    """The benchmark's traced mode hooks package names (the dataclasses
    GroupParams and Permutation among them); a deleted one makes every
    traced child fail, which neither the plain benchmark run nor the
    other tests see."""
    result_path = tmp_path / "result.json"
    result = _run_script(
        "perfbench/child.py", "spans", str(result_path), str(2 * 2**30), "--",
        "sign-demo", "--prime", "5",
    )
    assert result.returncode == 0, result.stderr
    assert "layers" in json.loads(result_path.read_text())
