"""``scripts/vage_ratio_scan.py`` runs end to end from any working
directory: it finds the package next to itself, not through the caller's
path."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "vage_ratio_scan.py"


def test_tiny_scan_runs_from_another_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--pairs", "3", "--gaps", "1", "2",
         "--max-len", "4", "--basis"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "gap 1: constant 1.648721270700" in out.stdout
    assert "gap 2:" in out.stdout
    assert out.stdout.count("basis pairs: max ratio") == 2
