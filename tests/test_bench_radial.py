"""``scripts/bench_radial.py --quick``: the radial layer benchmark runs end
to end, and its counts show the engine reading the parent tables' stored
lattice values."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_radial.py"


def test_quick_run_writes_its_rows(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_radial", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "bench.json"
    assert bench.main(["--quick", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["provenance"]["numpy"]
    rows = {(r["call"], r["m"]): r for r in result["rows"]}
    assert set(rows) == (
        {("log_radial_weight_conv", m) for m in (2, 3, 4, 5)}
        | {("build_table", 2), ("build_table", 3)})
    assert all(r["us"] > 0 for r in rows.values())
    assert rows["log_radial_weight_conv", 2]["max_rel_err_bessel"] < 1e-14
    # the quick points run at depth 0 and accept on their first halving, so
    # every parent point of a query comes from the stored values
    for m in (2, 3, 4, 5):
        row = rows["log_radial_weight_conv", m]
        assert row["parent_points"] == 0 and row["stored_points"] > 0
    assert rows["build_table", 3]["stored_points"] > 0
