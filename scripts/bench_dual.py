#!/usr/bin/env python3
"""Time the float layer of the dual algebra and write ``BENCH_dual.json``.

Rows, on fixed seeded inputs (complex coefficients with standard normal
real and imaginary parts):

- ``cauchy_product`` at lengths (6, 6), (20, 20), (25, 40), (40, 40),
  (200, 200) and (1000, 1000);
- ``vage_check`` at n = 200, levels p, q = 2, 3, where the product is
  formed only up to the degree its level-3 norm can register;
- ``riemann_integral_product`` on two linear paths of length-6 elements
  (``sample_path`` on [0, 1]) of 17 and 129 nodes; the paths are built
  once per checkout, outside the timed calls;
- ``cauchy_product`` of norm-scaled factors c_n (n!)^(-m/2), drawn as the
  ``algebra`` benchmark workload draws them, at (1000, 1000) for m = 1, 2
  and 5: from n = 314, 178 and 86 on their coefficients are exactly 0.

Each row holds the best-of timing of one call in microseconds, the
tracemalloc peak of one call, and whether the output is the reference's
``repr`` for ``repr``.  The reference product is the tests' own
(``tests/dual_reference.py``: each diagonal's live products summed with
``fsum``); the other rows are built from it in the package's arithmetic
(the path integral as ``reference_riemann`` there has it).
Provenance reads package versions through ``importlib.metadata``, and
genfock's from ``genfock.__version__`` where it is not installed.

    python3 scripts/bench_dual.py                    # writes BENCH_dual.json
    python3 scripts/bench_dual.py --against ../base  # alternates two checkouts
    python3 scripts/bench_dual.py --quick            # a smoke run, prints

``--against DIR`` imports the ``genfock`` package of the checkout in DIR
under another name and alternates the two on every repeat; each row then
also holds the other checkout's time, the ratio, and whether the two
outputs agree ``repr`` for ``repr``.  ``--quick`` drops the (1000, 1000)
and the 129-node rows, keeps one norm-scaled row at (100, 100) and m = 5,
and takes few repeats.  The package is imported from
the ``src`` directory next to this script.
"""

import argparse
import hashlib
import importlib
import importlib.metadata
import importlib.util
import json
import math
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from dual_reference import reference_product, reference_riemann  # noqa: E402
from genfock import dualalgebra  # noqa: E402

PRODUCT_SIZES = ((6, 6), (20, 20), (25, 40), (40, 40), (200, 200),
                 (1000, 1000))
RIEMANN_STEPS = (16, 128)
SCALED = ((1000, 1), (1000, 2), (1000, 5))  # (length, m)
SCALED_QUICK = ((100, 5),)
SEED = 0


def _load(checkout: Path, module: str = "dualalgebra"):
    """A module of another checkout's package, imported as its own package
    so that both can be timed in one process."""
    name = "genfock_against"
    spec = importlib.util.spec_from_file_location(
        name, checkout / "src" / "genfock" / "__init__.py",
        submodule_search_locations=[str(checkout / "src" / "genfock")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.{module}")


def _cn(rng, n: int) -> list:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()


def _scaled(rng, n: int, m: int) -> list:
    """n complex normal coefficients c_k scaled by (k!)^(-m/2), as the
    ``algebra`` workload draws them."""
    s = np.exp([-0.5 * m * math.lgamma(k + 1) for k in range(n)])
    return (np.array(_cn(rng, n)) * s).tolist()


def _reference_vage(a, b, p, q):
    da = dualalgebra
    lhs = da.dual_norm(da.DualSequence(reference_product(a, b), q), q)
    bound = (da.vage_constant(q - p) * da.dual_norm(da.DualSequence(a), p)
             * da.dual_norm(da.DualSequence(b), q))
    return lhs, bound, lhs <= bound * (1.0 + 1e-12)


def _line(ends, t):
    return [x + t * y for x, y in zip(*ends)]


def _paths_once(f_ends, g_ends, steps):
    """The two sampled paths for a dualalgebra module, built on its first
    call and kept, so that a timed call runs the integral alone."""
    built = {}

    def paths(m):
        if m not in built:
            built[m] = [m.sample_path(
                lambda t, ends=ends: m.DualSequence(_line(ends, t), 2),
                steps=steps) for ends in (f_ends, g_ends)]
        return built[m]
    return paths


def _rows(rng, quick: bool) -> list:
    """(call, args, input, runner, reference): the runner takes a
    dualalgebra module and returns something whose repr is compared."""
    rows = []
    for la, lb in PRODUCT_SIZES[:-1] if quick else PRODUCT_SIZES:
        a, b = _cn(rng, la), _cn(rng, lb)
        rows.append((
            "cauchy_product", f"({la}, {lb})",
            "complex normal coefficients",
            lambda m, a=a, b=b: m.cauchy_product(
                m.DualSequence(a), m.DualSequence(b)).coeffs,
            lambda a=a, b=b: tuple(reference_product(a, b))))
    a, b = _cn(rng, 200), _cn(rng, 200)
    rows.append((
        "vage_check", "n=200, p=2, q=3", "complex normal coefficients",
        lambda m, a=a, b=b: m.vage_check(
            m.DualSequence(a, 2), m.DualSequence(b, 3), 2, 3),
        lambda a=a, b=b: _reference_vage(a, b, 2, 3)))
    f_ends, g_ends = (_cn(rng, 6), _cn(rng, 6)), (_cn(rng, 6), _cn(rng, 6))
    for steps in RIEMANN_STEPS[:1] if quick else RIEMANN_STEPS:
        ts = [i / steps for i in range(steps + 1)]
        rows.append((
            "riemann_integral_product", f"{steps + 1} nodes on [0, 1]",
            "linear paths x0 + t x1 of complex normal length-6 elements",
            lambda m, paths=_paths_once(f_ends, g_ends, steps):
                m.riemann_integral_product(*paths(m)).coeffs,
            lambda ts=ts: tuple(reference_riemann(
                [_line(f_ends, t) for t in ts], [_line(g_ends, t) for t in ts],
                ts))))
    for n, level in SCALED_QUICK if quick else SCALED:
        a, b = _scaled(rng, n, level), _scaled(rng, n, level)
        rows.append((
            "cauchy_product", f"({n}, {n}), norm-scaled m={level}",
            "complex normal coefficients times (n!)^(-m/2)",
            lambda m, a=a, b=b: m.cauchy_product(
                m.DualSequence(a), m.DualSequence(b)).coeffs,
            lambda a=a, b=b: tuple(reference_product(a, b))))
    return rows


def _best_us(call, repeats: int, number: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e6


def _time_once(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _version(name: str):
    """The installed distribution's version, else the imported module's
    ``__version__``: run from ``src``, genfock has no distribution."""
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return getattr(sys.modules.get(name), "__version__", None)


def _commit(checkout: Path):
    """The checkout's commit, suffixed -dirty when its files differ."""
    try:
        out = subprocess.run(["git", "-C", str(checkout), "describe",
                              "--always", "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def _digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "genfock").glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def _provenance(checkout: Path) -> dict:
    return {"commit": _commit(checkout), "source_sha256": _digest(checkout)}


def _run_provenance(against) -> dict:
    """Versions, machine and the checkouts a run timed."""
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "genfock": _version("genfock"),
        "machine": platform.machine(),
        "this": _provenance(ROOT),
        **({"against": _provenance(Path(against))} if against else {}),
    }


def run(quick: bool = False, against=None) -> dict:
    rng = np.random.default_rng(SEED)
    other = _load(against) if against else None
    repeats, rounds = (3, 1) if quick else (3, 15)
    results = []
    for call, args, inputs, runner, reference in _rows(rng, quick):
        want = repr(reference())
        one = runner(dualalgebra)  # also warms up lazy set-up
        row = {"call": call, "args": args, "input": inputs,
               "bit_identical": repr(one) == want}
        number = max(1, min(200, int(2e-3 / max(
            _time_once(lambda: runner(dualalgebra)), 1e-7))))
        if other is not None:
            row["against_identical"] = repr(runner(other)) == repr(one)
            mine, theirs = [], []
            for _ in range(rounds):  # alternate which side runs first
                theirs.append(_best_us(lambda: runner(other), repeats,
                                       number))
                mine.append(_best_us(lambda: runner(dualalgebra), repeats,
                                     number))
            row["against_us"] = round(min(theirs), 2)
            row["us"] = round(min(mine), 2)
            row["ratio"] = round(min(mine) / min(theirs), 3)
            row["against_peak_mb"] = round(_peak_mb(lambda: runner(other)), 3)
        else:
            row["us"] = round(_best_us(lambda: runner(dualalgebra),
                                       repeats * rounds, number), 2)
        row["peak_mb"] = round(_peak_mb(lambda: runner(dualalgebra)), 3)
        results.append(row)
    out = {
        "what": "float Cauchy products of the dual algebra and the two "
                "calls built on them, next to a per-diagonal fsum reference",
        "method": (f"in process; per row the best of {repeats * rounds} "
                   "repeats of a batch of calls sized to about 2 ms"
                   + (f", in {rounds} rounds of {repeats} repeats per "
                      "checkout, the other checkout first in each round"
                      if other is not None else "")
                   + "; peak_mb is the tracemalloc peak of one call"),
        "seed": SEED,
        "quick": quick,
        "provenance": _run_provenance(against),
        "bit_identical": all(r["bit_identical"] for r in results),
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
                    help="smaller sizes and few repeats; prints, writes "
                         "nothing unless --out is given")
    ap.add_argument("--out", type=Path, default=None,
                    help="where to write the JSON (default BENCH_dual.json "
                         "at the repository root, except with --quick)")
    args = ap.parse_args(argv)
    result = run(args.quick, args.against)
    text = json.dumps(result, indent=1) + "\n"
    out = args.out or (None if args.quick else ROOT / "BENCH_dual.json")
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
    agree = result["bit_identical"] and result.get("against_identical", True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
