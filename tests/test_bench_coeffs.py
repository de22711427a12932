"""``scripts/bench_layers.py --quick coeffs``: the coefficient layer
benchmark runs end to end, every output it times is the earlier
full-conversion routes' and dispatch's repr for repr, and each row states
its relative error against exact Fractions."""

import importlib.util
import json
from pathlib import Path

import genfock

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def test_quick_run_writes_bit_identical_rows(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--quick", "coeffs", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "BENCH_coeffs.json").read_text())
    assert result["bit_identical"] is True
    assert result["provenance"]["genfock"] == genfock.__version__
    rows = {(r["call"], r["args"]): r for r in result["rows"]}
    assert set(rows) == {
        ("inner_product", "m=1, degree=40"),
        ("squared_norm", "m=1, degree=40"),
        ("inner_product", "m=2, degree=200"),
        ("squared_norm", "m=2, degree=200"),
        ("inner_product", "m=5, degree=1000"),
        ("squared_norm", "m=5, degree=1000"),
        ("adjoint", "m=1, degree=1000"),
        ("norm_identity_report", "m=1, degree=32"),
        ("norm_identity_report", "m=5, degree=32"),
        ("inner_product", "m=1, degree=40, Fractions")}
    assert all(r["bit_identical"] for r in rows.values())
    assert all(r["us"] > 0 and r["peak_mb"] >= 0 for r in rows.values())
    # well-conditioned draws: every value is within a few ulps of exact
    assert all(0 <= r["rel_err_exact"] < 1e-14 for r in rows.values())
