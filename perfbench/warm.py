"""Set-up phases, timed from before ``import genfock``.

A workload's set-up is timed once in the measuring process and again in
fresh child interpreters (``python3 perfbench/warm.py <workload>``), and
``setup_s`` is the median.  This module imports only the stdlib and the
benchmark's stdlib helpers before its clock starts, so the parent and the
children time the same thing.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import PYTHON, ROOT, BenchmarkError, child_env, use_source_tree

SETUP_SAMPLES = 3          # the measuring process plus two children
CHILD_TIMEOUT_S = 120.0


def setup_radial(tracer=None) -> float:
    """Import, then build every radial level the workload queries."""
    t0 = time.perf_counter()
    use_source_tree()
    import genfock.cli  # noqa: F401  (every module, before any rebinding)
    if tracer is not None:
        tracer.install()
    from genfock import radialkernel
    for m in range(1, 6):
        radialkernel.radial_weight(m, 1.0)
    return time.perf_counter() - t0


def setup_algebra(tracer=None) -> float:
    """Import, then run one batch on a fixed warm-up pool (fills the
    weight cache and numpy's lazy imports)."""
    t0 = time.perf_counter()
    use_source_tree()
    import genfock.cli  # noqa: F401  (every module, before any rebinding)
    if tracer is not None:
        tracer.install()
    import algebra
    algebra.warm_up()
    return time.perf_counter() - t0


SETUPS = {"radial_eval": setup_radial, "algebra": setup_algebra}


def child_setups(workload: str, count: int) -> list[float]:
    """Time ``count`` set-ups, each in a fresh interpreter, one at a time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [PYTHON, str(Path(__file__).resolve()), workload],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchmarkError(
                f"set-up child for {workload} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}")
        out.append(float(json.loads(proc.stdout.strip().splitlines()[-1])
                         ["setup_s"]))
    return out


def median_setup(first: float, workload: str) -> tuple[float, list[float]]:
    samples = [first] + child_setups(workload, SETUP_SAMPLES - 1)
    return statistics.median(samples), samples


if __name__ == "__main__":
    name = sys.argv[1]
    print(json.dumps({"setup_s": SETUPS[name]()}))
