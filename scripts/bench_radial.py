#!/usr/bin/env python3
"""Time the radial convolution layer and write ``BENCH_radial.json``.

Rows, on fixed seeded inputs:

- ``log_radial_weight_conv(m, x)`` for m = 2..5 at 30 log-uniform x in
  [1e-20, 1e4] (seed 0), the tables of the levels below already built;
  ``us`` is the time of one point, the best-of time of the 30 divided by
  30;
- ``build_table(m)`` for m = 2..5 from an empty table cache, so every
  level up to m is built; the cache is put back after each call.

Each row holds the best-of timing in microseconds and the parent points
the convolution engine asked its parent table for (``parent_points``
evaluated, ``stored_points`` read from the values a table stores on the
engine's first lattices; per point for the conv rows, summed over the
levels for the build rows), counted by ``kernel_profiles.engine_counts``.
The m = 2 conv row also holds the worst relative error of the value
against ``bessel_reference_log``.  The loader, the timing helpers and the
provenance are ``bench_dual.py``'s.

    python3 scripts/bench_radial.py                   # writes BENCH_radial.json
    python3 scripts/bench_radial.py --against ../base # alternates checkouts
    python3 scripts/bench_radial.py --quick           # a smoke run, prints

``--against DIR`` imports the ``genfock`` package of the checkout in DIR
under another name and alternates the two on every repeat; each row then
also holds the other checkout's time and counts, the ratio, and whether
the two outputs are the same bit for bit.  ``--quick`` takes 3 points per
conv row, the m = 2 and 3 build rows and few repeats.  The package is
imported from the ``src`` directory next to this script.
"""

import argparse
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

# bench_dual puts this checkout's src first on sys.path
from bench_dual import (ROOT, _best_us, _load, _provenance,  # noqa: E402
                        _version)
from kernel_profiles import engine_counts  # noqa: E402

from genfock import radialkernel  # noqa: E402

LEVELS = (2, 3, 4, 5)
POINTS = 30
SEED = 0


def _conv(xs):
    def run(rk, m):
        return [rk.log_radial_weight_conv(m, x) for x in xs]
    return run


def _build(rk, m):
    """build_table(m) from an empty cache; the cache is restored after."""
    saved = dict(rk._TABLE_CACHE)
    rk._TABLE_CACHE.clear()
    try:
        return rk.build_table(m).logk.tolist()
    finally:
        rk._TABLE_CACHE.clear()
        rk._TABLE_CACHE.update(saved)


def _counted(rk, runner, m, per: int) -> dict:
    with engine_counts(rk) as counts:
        runner(rk, m)
    return {"parent_points": counts["parent"] / per,
            "stored_points": counts["stored"] / per}


def run(quick: bool = False, against=None) -> dict:
    rng = np.random.default_rng(SEED)
    xs = (10.0 ** rng.uniform(-20.0, 4.0, POINTS)).tolist()
    if quick:
        xs = xs[:3]
    other = _load(against, "radialkernel") if against else None
    repeats, rounds = (2, 1) if quick else (3, 7)
    rows = [("log_radial_weight_conv", m, _conv(xs), len(xs))
            for m in LEVELS]
    rows += [("build_table", m, _build, 1)
             for m in (LEVELS[:2] if quick else LEVELS)]
    results = []
    for call, m, runner, per in rows:
        one = runner(radialkernel, m)  # also builds the parents once
        row = {"call": call, "m": m,
               "args": (f"{len(xs)} log-uniform x in [1e-20, 1e4], "
                        f"seed {SEED}") if per > 1 else "from an empty cache",
               **_counted(radialkernel, runner, m, per)}
        if call == "log_radial_weight_conv" and m == 2:
            row["max_rel_err_bessel"] = max(
                abs(math.expm1(v - radialkernel.bessel_reference_log(x)))
                for v, x in zip(one, xs))
        timed = [(radialkernel, [])]
        if other is not None:
            row["against_identical"] = repr(runner(other, m)) == repr(one)
            row["against"] = _counted(other, runner, m, per)
            timed.insert(0, (other, []))
        for _ in range(rounds):  # the other checkout first in each round
            for rk, best in timed:
                best.append(_best_us(lambda: runner(rk, m), repeats, 1) / per)
        row["us"] = round(min(timed[-1][1]), 2)
        if other is not None:
            row["against_us"] = round(min(timed[0][1]), 2)
            row["ratio"] = round(row["us"] / row["against_us"], 3)
        results.append(row)
    out = {
        "what": "single-point convolution queries and level builds of the "
                "radial tables, with the parent points the engine read",
        "method": (f"in process; per row the best of {repeats * rounds} "
                   "calls" + (f", in {rounds} rounds of {repeats} per "
                              "checkout, the other checkout first in each "
                              "round" if other is not None else "")),
        "seed": SEED,
        "quick": quick,
        "provenance": {
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "genfock": _version("genfock"),
            "machine": platform.machine(),
            "this": _provenance(ROOT),
            **({"against": _provenance(Path(against))} if against else {}),
        },
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
                    help="fewer points and levels, few repeats; prints, "
                         "writes nothing unless --out is given")
    ap.add_argument("--out", type=Path, default=None,
                    help="where to write the JSON (default BENCH_radial.json "
                         "at the repository root, except with --quick)")
    args = ap.parse_args(argv)
    result = run(args.quick, args.against)
    text = json.dumps(result, indent=1) + "\n"
    out = args.out or (None if args.quick else ROOT / "BENCH_radial.json")
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
    return 0 if result.get("against_identical", True) else 1


if __name__ == "__main__":
    sys.exit(main())
