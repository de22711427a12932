#!/usr/bin/env python3
"""Time the Hermite-side series and write ``BENCH_bargmann.json``.

Rows, on fixed seeded inputs (seed 0; z uniform in the disk |z| <= 2 and
complex normal coefficients, as the ``algebra`` benchmark workload draws
them):

- ``transform_kernel`` at m = 1, 2, 3 on the 96 Gauss-Hermite nodes, with
  a cold basis (the node set's cached rows dropped before every call) and
  with a warm one;
- ``transform_via_quadrature`` at m = 1, 3, 5, 16 coefficients (N = 15);
- ``kernel_section`` at m = 2 and degrees 30, 200 and 1000;
- ``unitarity_gap`` at m = 3 and N = 60;
- ``eta_sup_on_grid(200)`` and ``hermite_eta(200, t)`` on the 6001-point
  grid of [-30, 30], whose rows stream.

Each row holds the best-of timing of one call in microseconds, the
tracemalloc peak of one call, and whether the output is bit for bit the
reference's: the term-by-term loops of ``tests/series_reference.py`` for
the three series and the stacked table (``hermite_eta_all``) for the two
grid rows.  ``unitarity_gap``, whose code the block sums leave as it was,
has no reference (null); under ``--against`` it is compared with the other
checkout like every row.  The loader, the timing helpers and the
provenance are ``bench_dual.py``'s.

    python3 scripts/bench_bargmann.py                   # writes the JSON
    python3 scripts/bench_bargmann.py --against ../base # alternates checkouts
    python3 scripts/bench_bargmann.py --quick           # a smoke run, prints

``--against DIR`` imports the ``genfock`` package of the checkout in DIR
under another name and alternates the two on every repeat; each row then
also holds the other checkout's time and peak, the ratio, and whether the
two outputs are the same bit for bit.  A checkout without a basis cache
runs its cold rows as its warm ones.  ``--quick`` keeps the m = 1 kernel
rows, one quadrature row, degrees 30 and 1000, and few repeats.  The
package is imported from the ``src`` directory next to this script.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

# bench_dual puts this checkout's src and tests first on sys.path
from bench_dual import (ROOT, _best_us, _load, _peak_mb,  # noqa: E402
                        _run_provenance, _time_once)
from series_reference import (kernel_section_by_loop,  # noqa: E402
                              kernel_term_by_term, quadrature_term_by_term)

import genfock  # noqa: E402
from genfock import bargmann  # noqa: E402

SEED = 0
GRID = np.linspace(-30.0, 30.0, 6001)


def _disk(rng, radius: float) -> complex:
    r, a = radius * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(a), r * math.sin(a))


def _cn(rng, n: int) -> list:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()


def _same(a, b) -> bool:
    """Same dtype, shape and bytes for arrays, the same repr otherwise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return repr(a) == repr(b)


def _cold(run):
    """run(package) after dropping the package's cached Hermite bases."""
    def call(pkg):
        cache = getattr(pkg.bargmann, "_bases", None)
        if cache is not None:
            cache.clear()
        return run(pkg)
    return call


def _rows(rng, quick: bool) -> list:
    """(call, args, runner, reference): the runner takes a package (with
    its ``bargmann`` and ``coeffspace`` modules) and returns the output."""
    nodes = bargmann._gauss_hermite(96)[0]
    rows = []
    for m in (1,) if quick else (1, 2, 3):
        z = _disk(rng, 2.0)

        def kernel(pkg, m=m, z=z):
            return pkg.bargmann.transform_kernel(m, z, nodes)
        reference = (lambda m=m, z=z: kernel_term_by_term(m, z, nodes))
        args = f"m={m}, z={z:.3f}, 96 Gauss-Hermite nodes"
        rows.append(("transform_kernel", args + ", cold basis",
                     _cold(kernel), reference))
        rows.append(("transform_kernel", args + ", warm basis", kernel,
                     reference))
    for m in (1,) if quick else (1, 3, 5):
        c, z = _cn(rng, 16), _disk(rng, 2.0)
        rows.append((
            "transform_via_quadrature", f"m={m}, N=15, z={z:.3f}, order 96",
            lambda pkg, c=c, m=m, z=z: pkg.bargmann.transform_via_quadrature(
                c, m, z),
            lambda c=c, m=m, z=z: quadrature_term_by_term(c, m, z)))
    w = _disk(rng, 2.0)
    for degree in (30, 1000) if quick else (30, 200, 1000):
        rows.append((
            "kernel_section", f"m=2, degree={degree}, w={w:.3f}",
            lambda pkg, d=degree: pkg.coeffspace.kernel_section(2, w, d),
            lambda d=degree: kernel_section_by_loop(2, w, d)))
    c = _cn(rng, 61)
    rows.append(("unitarity_gap", "m=3, N=60",
                 lambda pkg: pkg.bargmann.unitarity_gap(c, 3), None))
    rows.append(("eta_sup_on_grid", "nmax=200, 6001 points on [-30, 30]",
                 lambda pkg: pkg.bargmann.eta_sup_on_grid(200),
                 lambda: np.abs(bargmann.hermite_eta_all(200, GRID)).max(
                     axis=1)))
    rows.append(("hermite_eta", "n=200, 6001 points on [-30, 30]",
                 lambda pkg: pkg.bargmann.hermite_eta(200, GRID),
                 lambda: bargmann.hermite_eta_all(200, GRID)[200]))
    return rows


def run(quick: bool = False, against=None) -> dict:
    rng = np.random.default_rng(SEED)
    other = None
    if against:
        _load(against, "bargmann")
        other = sys.modules["genfock_against"]
    repeats, rounds = (2, 1) if quick else (3, 7)
    results = []
    for call, args, runner, reference in _rows(rng, quick):
        one = runner(genfock)  # a warm basis from here on
        row = {"call": call, "args": args,
               "bit_identical": (None if reference is None
                                 else _same(one, reference()))}
        number = max(1, min(200, int(2e-3 / max(
            _time_once(lambda: runner(genfock)), 1e-7))))
        timed = [(genfock, [])]
        if other is not None:
            row["against_identical"] = _same(runner(other), one)
            timed.insert(0, (other, []))
        for _ in range(rounds):  # the other checkout first in each round
            for pkg, best in timed:
                best.append(_best_us(lambda: runner(pkg), repeats, number))
        row["us"] = round(min(timed[-1][1]), 2)
        row["peak_mb"] = round(_peak_mb(lambda: runner(genfock)), 3)
        if other is not None:
            row["against_us"] = round(min(timed[0][1]), 2)
            row["ratio"] = round(row["us"] / row["against_us"], 3)
            row["against_peak_mb"] = round(_peak_mb(lambda: runner(other)),
                                           3)
        results.append(row)
    out = {
        "what": "the Hermite kernel, the quadrature cross-check, the "
                "kernel section and the streamed Hermite rows, each next to "
                "a term-by-term or stacked-table reference",
        "method": (f"in process; per row the best of {repeats * rounds} "
                   "repeats of a batch of calls sized to about 2 ms"
                   + (f", in {rounds} rounds of {repeats} repeats per "
                      "checkout, the other checkout first in each round"
                      if other is not None else "")
                   + "; peak_mb is the tracemalloc peak of one call after "
                     "a warm one"),
        "seed": SEED,
        "quick": quick,
        "basis_cache": {"budget_bytes": bargmann._BASIS_BUDGET,
                        "max_rows": bargmann._BASIS_ROWS,
                        "max_sets": bargmann._BASIS_SETS},
        "provenance": _run_provenance(against),
        "bit_identical": all(r["bit_identical"] is not False
                             for r in results),
        "rows": results,
    }
    if other is not None:
        out["against_identical"] = all(r["against_identical"]
                                       for r in results)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, default=None,
                    help="another checkout to alternate with")
    ap.add_argument("--quick", action="store_true",
                    help="fewer rows and repeats; prints, writes nothing "
                         "unless --out is given")
    ap.add_argument("--out", type=Path, default=None,
                    help="where to write the JSON (default "
                         "BENCH_bargmann.json at the repository root, "
                         "except with --quick)")
    args = ap.parse_args(argv)
    result = run(args.quick, args.against)
    text = json.dumps(result, indent=1) + "\n"
    out = args.out or (None if args.quick else ROOT / "BENCH_bargmann.json")
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
    agree = result["bit_identical"] and result.get("against_identical", True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
