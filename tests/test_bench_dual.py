"""``scripts/bench_dual.py --quick``: the dual-algebra layer benchmark runs
end to end, and every output it times is the reference's repr for repr."""

import importlib.util
import json
from pathlib import Path

import genfock

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_dual.py"


def test_quick_run_writes_bit_identical_rows(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_dual", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "bench.json"
    assert bench.main(["--quick", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["bit_identical"] is True
    assert result["provenance"]["numpy"]
    # run from src, genfock has no installed distribution: its version
    # comes from the package itself
    assert result["provenance"]["genfock"] == genfock.__version__
    assert bench._version("no_such_distribution") is None
    rows = {(r["call"], r["args"]): r for r in result["rows"]}
    assert ("cauchy_product", "(200, 200)") in rows
    assert ("cauchy_product", "(1000, 1000)") not in rows
    # the capped vage_check and one product of norm-scaled factors, whose
    # zero tails are trimmed
    assert rows[("vage_check", "n=200, p=2, q=3")]["bit_identical"]
    assert ("cauchy_product", "(100, 100), norm-scaled m=5") in rows
    assert {call for call, _ in rows} == {
        "cauchy_product", "vage_check", "riemann_integral_product"}
    assert all(r["us"] > 0 and r["peak_mb"] > 0 for r in rows.values())
