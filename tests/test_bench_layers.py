"""``scripts/bench_layers.py --quick --against``: one call times every
layer, and a checkout of the same code agrees with this one on every row.
Each layer's own quick run is tested in ``test_bench_<layer>.py``."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("dual", "radial", "operators", "bargmann", "coeffs")


def test_against_the_same_checkout_agrees_on_every_row(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "scripts" / "bench_layers.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--quick", *LAYERS, "--out", str(tmp_path),
                       "--against", str(ROOT)]) == 0
    results = {layer: json.loads((tmp_path / f"BENCH_{layer}.json")
                                 .read_text()) for layer in LAYERS}
    for result in results.values():
        assert result["against_identical"] is True
        assert result["provenance"]["against"]["source_sha256"] == (
            result["provenance"]["this"]["source_sha256"])
        for row in result["rows"]:
            assert row["against_identical"] is True
            assert row["against_us"] > 0 and row["ratio"] > 0
            assert row["ratio_iqr"] >= 0
    # the engine counts of both checkouts, side by side
    for row in results["radial"]["rows"]:
        assert row["against"] == {"parent_points": row["parent_points"],
                                  "stored_points": row["stored_points"]}
