import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_experiments_quick(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py"), "--quick",
         "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
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
