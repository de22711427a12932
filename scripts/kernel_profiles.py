#!/usr/bin/env python3
"""Tabulate radial weight profiles across levels.

Prints log10 of the weight on a log-spaced grid, one column per level,
plus the relative drop per decade.  Useful for eyeballing how fast the
higher-level weights decay and where the interpolation table spends its
nodes.

    python3 scripts/kernel_profiles.py --levels 1 2 3 4 --x-min 1e-6 --x-max 1e4

With --build-stats it first builds levels 1 .. max(levels) in order and
prints, per level, the build time, how many leading nodes the residue
model filled, how many K_1 samples and parent-table points the
convolution engine asked for on the others (counted here by wrapping the
engine's factors: parent points evaluated, and parent points read from
the values the parent table stores on the engine's first lattices), and
the worst relative change with which an engine node was accepted, with
that node's index (the last three kept on the table).
The package is imported from the ``src`` directory next to this script.

    python3 scripts/kernel_profiles.py --build-stats --levels 5 --points 3
"""

import argparse
import contextlib
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from genfock import radialkernel
from genfock.radialkernel import build_table, log_radial_weight, moment


@contextlib.contextmanager
def engine_counts(rk=radialkernel):
    """Count what the convolution engine of the radialkernel module ``rk``
    asks for while the block runs: K_1 samples, parent points evaluated,
    and, where the parent is a table that stores its lattice values,
    parent points served from them.  Works on packages whose engine takes
    the parent as a plain callable, too."""
    counts = {"k1": 0, "parent": 0, "stored": 0}
    engine, table = rk._log_conv, rk.KernelTable
    evaluate, lookup = table.log_eval_log_arg, getattr(table, "lattice_log",
                                                       None)

    def counted_engine(log_f, log_g, *rest):
        def f(w):
            counts["k1"] += np.size(w)
            return log_f(w)

        def g(w):
            counts["parent"] += np.size(w)
            return log_g(w)

        if not isinstance(log_g, table):
            return engine(f, g, *rest)

        def evaluated(self, w):  # a lookup the stored values did not hold
            counts["stored"] -= np.size(w)
            counts["parent"] += np.size(w)
            return evaluate(self, w)

        def looked_up(self, h, j):
            counts["stored"] += len(j)
            return lookup(self, h, j)

        table.log_eval_log_arg, table.lattice_log = evaluated, looked_up
        try:
            return engine(f, log_g, *rest)
        finally:
            table.log_eval_log_arg, table.lattice_log = evaluate, lookup

    rk._log_conv = counted_engine
    try:
        yield counts
    finally:
        rk._log_conv = engine


def build_stats(top):
    """Build levels 1..top one at a time; one stats row per level."""
    rows = []
    for m in range(1, top + 1):
        with engine_counts() as counts:
            t0 = time.perf_counter()
            table = build_table(m)
            secs = time.perf_counter() - t0
        rows.append((m, secs, table.model_nodes, counts["k1"],
                     counts["parent"], counts["stored"], table.worst_change,
                     table.worst_node))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--x-min", type=float, default=1e-6)
    ap.add_argument("--x-max", type=float, default=1e4)
    ap.add_argument("--points", type=int, default=21)
    ap.add_argument("--moments", type=int, default=0,
                    help="also print the first N moments per level")
    ap.add_argument("--build-stats", action="store_true",
                    help="print build time, model nodes, engine sample "
                    "counts and the worst accepted change per level")
    args = ap.parse_args(argv)

    if args.build_stats:
        print("level".rjust(5) + "build_s".rjust(10) + "model_nodes".rjust(13)
              + "k1_samples".rjust(12) + "parent_points".rjust(15)
              + "stored_points".rjust(15) + "worst_change".rjust(14)
              + "node".rjust(6))
        for m, secs, model, k1, parent, stored, worst, node in build_stats(
                max(args.levels)):
            node = "-" if node is None else str(node)
            print(f"{m:5d}{secs:10.3f}{model:13d}{k1:12d}{parent:15d}"
                  f"{stored:15d}{worst:14.2e}{node:>6}")
        print()
    for m in args.levels:
        build_table(m)

    xs = np.geomspace(args.x_min, args.x_max, args.points)
    header = "x".rjust(12) + "".join(f"  log10 K_{m}".rjust(14)
                                     for m in args.levels)
    print(header)
    for x in xs:
        row = f"{x:12.4e}"
        for m in args.levels:
            row += f"{log_radial_weight(m, float(x)) / math.log(10):14.6f}"
        print(row)

    if args.moments:
        print()
        print("moments (should be the factorial powers)")
        for m in args.levels:
            vals = [moment(m, n) for n in range(args.moments)]
            rels = [abs(v - math.factorial(n) ** m) / math.factorial(n) ** m
                    for n, v in enumerate(vals)]
            print(f"  level {m}: worst rel {max(rels):.2e} over n<{args.moments}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
