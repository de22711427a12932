"""``scripts/bench_layers.py --quick bargmann``: the Hermite-series
benchmark runs end to end, and every series it times is its term-by-term
reference's bit for bit."""

import importlib.util
import json
from pathlib import Path

import genfock
from genfock import bargmann

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def test_quick_run_writes_bit_identical_rows(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--quick", "bargmann", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "BENCH_bargmann.json").read_text())
    assert result["bit_identical"] is True
    assert result["provenance"]["numpy"]
    assert result["provenance"]["genfock"] == genfock.__version__
    rows = {(r["call"], r["args"]): r for r in result["rows"]}
    assert {call for call, _ in rows} == {
        "transform_kernel", "transform_via_quadrature", "kernel_section",
        "unitarity_gap", "eta_sup_on_grid", "hermite_eta"}
    kernel = [args for call, args in rows if call == "transform_kernel"]
    assert [a.rsplit(", ", 1)[1] for a in kernel] == ["cold basis",
                                                      "warm basis"]
    for (call, _), row in rows.items():
        assert row["bit_identical"] is (None if call == "unitarity_gap"
                                        else True)
        assert row["us"] > 0 and row["peak_mb"] > 0
    # the grid rows stream: well under the 9.8 MB of one stacked table
    assert rows["eta_sup_on_grid", "nmax=200, 6001 points on [-30, 30]"][
        "peak_mb"] < 1.0
    assert result["basis_cache"] == {"budget_bytes": bargmann._BASIS_BUDGET,
                                     "max_rows": bargmann._BASIS_ROWS}
