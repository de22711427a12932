"""``scripts/bench_layers.py --quick operators``: the operator layer
benchmark runs end to end, and every output it times is its reference's
repr for repr."""

import importlib.util
import json
from pathlib import Path

import genfock

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def test_quick_run_writes_bit_identical_rows(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--quick", "operators", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "BENCH_operators.json").read_text())
    assert result["bit_identical"] is True
    assert result["provenance"]["genfock"] == genfock.__version__
    rows = {(r["call"], r["args"]): r for r in result["rows"]}
    assert set(rows) == {
        ("commutator_apply", "m=1"), ("commutator_apply", "m=6"),
        ("number_power_normal_ordered", "k=1"),
        ("number_power_normal_ordered", "k=8"),
        ("verify_normal_ordering", "k=4, degree=12"),
        ("adjoint_word_check", "m=2, degree=12"),
        ("adjoint_word_check", "m=6, degree=12"),
        ("reordering_identity_check", "n=1, degree=12"),
        ("reordering_identity_check", "n=8, degree=12"),
        ("cauchy_product", "(40, 40)"),
        ("raising_adjoint", "m=1, degree=1000")}
    assert all(r["bit_identical"] for r in rows.values())
    assert all(r["us"] > 0 and r["peak_mb"] >= 0 for r in rows.values())
