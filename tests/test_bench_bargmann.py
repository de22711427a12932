"""``scripts/bench_bargmann.py --quick``: the Hermite-series benchmark runs
end to end, and every series it times is its term-by-term reference's bit
for bit."""

import importlib.util
import json
from pathlib import Path

import genfock

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_bargmann.py"


def test_quick_run_writes_bit_identical_rows(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_bargmann", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "bench.json"
    assert bench.main(["--quick", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["bit_identical"] is True
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
