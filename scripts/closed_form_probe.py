#!/usr/bin/env python3
"""Cross-check table-backed weights against their closed forms.

Level 1 is a plain exponential and level 2 is a modified Bessel function,
so those two levels give the table machinery an end-to-end error meter
across many decades of x.  Level 3 has no elementary form; there we
compare the interpolation table against a fresh convolution at a few
spot points instead.

Every x sampled is the midpoint, in log x, of an interval of the tables'
shared grid: a node would return the node value and hide the interpolation
error, and each 10**(k/2) is a node.

    python3 scripts/closed_form_probe.py --decades -8 6
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from genfock.radialkernel import (  # noqa: E402
    bessel_reference_log,
    build_table,
    log_radial_weight,
    log_radial_weight_conv,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--decades", type=int, nargs=2, default=[-8, 6],
                    metavar=("LO", "HI"))
    ap.add_argument("--per-decade", type=int, default=2)
    args = ap.parse_args(argv)

    lo, hi = args.decades
    s = build_table(2).s
    mids = 0.5 * (s[:-1] + s[1:])
    ln10 = math.log(10.0)
    nodes_per_decade = round(ln10 / float(s[1] - s[0]))
    inside = mids[(mids >= lo * ln10) & (mids <= hi * ln10)]
    xs = np.exp(inside[::max(1, nodes_per_decade // args.per_decade)])

    print("level 1 vs exp(-x), level 2 vs scaled Bessel K0 (log-abs error)")
    worst1 = worst2 = 0.0
    for x in xs:
        x = float(x)
        e1 = abs(log_radial_weight(1, x) - (-x))
        e2 = abs(log_radial_weight(2, x) - bessel_reference_log(x))
        worst1, worst2 = max(worst1, e1), max(worst2, e2)
        print(f"  x {x:10.3e}   lvl1 {e1:.2e}   lvl2 {e2:.2e}")
    print(f"worst: level 1 {worst1:.2e}, level 2 {worst2:.2e}")

    print()
    print("level 3 table vs fresh convolution at spot points")
    for spot in (1e-3, 0.1, 1.0, 10.0, 100.0):
        x = float(np.exp(mids[np.searchsorted(s, math.log(spot))]))
        tab = log_radial_weight(3, x)
        conv = log_radial_weight_conv(3, x)
        print(f"  x {x:10.3e}   table {tab: .10f}   conv {conv: .10f}"
              f"   diff {abs(tab - conv):.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
