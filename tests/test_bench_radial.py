"""``scripts/bench_layers.py --quick radial``: the radial layer benchmark
runs end to end, and its counts show the engine reading the parent tables'
stored lattice values."""

import importlib.util
import json
from pathlib import Path

import genfock

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def test_quick_run_writes_its_rows(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--quick", "radial", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "BENCH_radial.json").read_text())
    assert result["bit_identical"] is True
    assert result["provenance"]["numpy"]
    assert result["provenance"]["genfock"] == genfock.__version__
    rows = {(r["call"], r["m"]): r for r in result["rows"]}
    assert set(rows) == (
        {("log_radial_weight_conv", m) for m in (2, 3, 4, 5)}
        | {("build_table", 2), ("build_table", 3)})
    assert all(r["bit_identical"] is None for r in rows.values())
    assert all(r["us"] > 0 and r["peak_mb"] > 0 for r in rows.values())
    assert rows["log_radial_weight_conv", 2]["max_rel_err_bessel"] < 1e-14
    # the quick points run at depth 0 and accept on their first halving, so
    # every parent point of a query comes from the stored values
    for m in (2, 3, 4, 5):
        row = rows["log_radial_weight_conv", m]
        assert row["parent_points"] == 0 and row["stored_points"] > 0
    assert rows["build_table", 3]["stored_points"] > 0
