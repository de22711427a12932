"""``scripts/bench_layers.py --quick --against``: one call times every
layer, and a checkout of the same code agrees with this one on every row.
Each layer's own quick run is tested in ``test_bench_<layer>.py``."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

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


def test_float_vectors_compare_by_bytes_whichever_holder():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "scripts" / "bench_layers.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    held = np.array([0j, 1 + 2j, complex(-0.0, 3.0)])
    # a float route's array against the tuple it was: the exact 0 is +0j
    assert bench._same(held, (0, 1 + 2j, complex(-0.0, 3.0)))
    assert bench._same((0j, 1 + 2j, complex(-0.0, 3.0)), held)
    # a signed zero or a NaN's bits tell them apart
    assert not bench._same(held, (0, 1 + 2j, 3j))
    assert not bench._same(np.array([complex("nan")]),
                           (-np.array([complex("nan")]))[0:1].tolist())
    # an all-zero float product against its exact-0 reference
    assert bench._same(np.zeros(3, complex), [0, 0, 0])
    # exact vectors keep their repr, so 1 is not 1.0
    assert bench._same((1, Fraction(1, 3)), (1, Fraction(1, 3)))
    assert not bench._same((1, 2), (1.0, 2.0))
    assert not bench._same(np.array([1.0]), np.array([1 + 0j]))
    # two tuples keep their repr: a mixed tuple's exact int is not its float
    assert not bench._same((2, 2.5), (2.0, 2.5))
    assert not bench._same(held, (0, 1 + 2j, 3))
    mixed = (10 ** 400, 2.0)  # raising_adjoint of [0, 10**400, 1.0]
    assert bench._same(mixed, (10 ** 400, 2.0))
    assert not bench._same(np.array([1e300 + 0j, 2.0]), mixed)
