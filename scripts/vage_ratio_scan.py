#!/usr/bin/env python3
"""Scan how tight the convolution product inequality is in practice.

Draws random pairs at levels (p, p+d) and histograms the ratio of the
actual product norm to the proved bound.  The bound is never attained by
generic draws; basis vectors at high index get closest.

    python3 scripts/vage_ratio_scan.py --pairs 5000 --gaps 1 2 3

The package is imported from the ``src`` directory next to this script,
whatever the working directory.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from genfock.dualalgebra import (  # noqa: E402
    DualSequence, vage_check, vage_constant)


def draw(rng, level, max_len):
    n = int(rng.integers(1, max_len + 1))
    cs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return DualSequence(list(cs), level)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--gaps", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--max-level", type=int, default=5)
    ap.add_argument("--max-len", type=int, default=24)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--basis", action="store_true",
                    help="also scan pure basis-vector pairs, which are "
                         "the near-extremal cases")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    for d in args.gaps:
        print(f"gap {d}: constant {vage_constant(d):.12f}")
        ratios = []
        for _ in range(args.pairs):
            p = int(rng.integers(1, args.max_level + 1))
            a = draw(rng, p, args.max_len)
            b = draw(rng, p + d, args.max_len)
            lhs, bound, holds = vage_check(a, b, p, p + d)
            if not holds:
                print(f"  VIOLATION lhs={lhs} bound={bound}")
                return 1
            if bound > 0:
                ratios.append(lhs / bound)
        r = np.asarray(ratios)
        qs = np.percentile(r, [50, 90, 99, 100])
        print(f"  ratio median {qs[0]:.3f}  p90 {qs[1]:.3f}"
              f"  p99 {qs[2]:.3f}  max {qs[3]:.3f}")

        if args.basis:
            best = (0.0, None)
            for i in range(args.max_len):
                for j in range(args.max_len):
                    a = DualSequence([0.0] * i + [1.0], 1)
                    b = DualSequence([0.0] * j + [1.0], 1 + d)
                    lhs, bound, _ = vage_check(a, b, 1, 1 + d)
                    if bound > 0 and lhs / bound > best[0]:
                        best = (lhs / bound, (i, j))
            print(f"  basis pairs: max ratio {best[0]:.6f} at indices {best[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
