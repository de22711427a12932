"""Shared helpers: locating the package, statistics, accuracy, provenance.

Stdlib only, so that importing this module does not shift any set-up
timing that starts after it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYTHON = sys.executable or "python3"

# relative errors below this read as "exact"; keeps digits finite
ERR_FLOOR = 1e-17

# One single-threaded client: BLAS worker threads (LAPACK inside
# ``hermgauss`` and ``eigvalsh``) would otherwise spin on the second core
# after each call and slow the measured thread that shares it.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing package, broken child)."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on the import path, or refuse."""
    if not (SRC / "genfock" / "__init__.py").is_file():
        raise BenchmarkError(f"package source not found under {SRC}")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def rel(a, b) -> float:
    """|a - b| / max(|a|, |b|), the acceptance criteria's measure."""
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def digits(err: float) -> float:
    """Correct decimal digits implied by a relative error (0 if none)."""
    if not math.isfinite(err):
        return 0.0
    return -math.log10(max(err, ERR_FLOOR))


def tail_rank(n: int) -> tuple[str, float | None]:
    """The highest of p99/p90/p75 with at least ten samples beyond it.

    Returns (label, fraction); (``"max"``, None) when even p75 has fewer
    than ten samples beyond it.
    """
    for label, q in (("p99", 0.99), ("p90", 0.90), ("p75", 0.75)):
        if n * (1.0 - q) >= 10.0:
            return label, q
    return "max", None


def summarize_latencies(seconds: list[float]) -> dict:
    """Plain median and tail (see :func:`tail_rank`) in milliseconds.

    Kept in the details line only: where contention is bimodal (see
    :func:`uncontended`) these move with the contended share of the run,
    not with the code.
    """
    if not seconds:
        raise BenchmarkError("no completed requests to summarize")
    ms = sorted(s * 1e3 for s in seconds)
    label, q = tail_rank(len(ms))
    if q is None:
        tail = ms[-1]
    else:
        tail = statistics.quantiles(ms, n=100, method="inclusive")[
            round(q * 100) - 1]
    return {"n": len(ms), "p50_ms": statistics.median(ms),
            "tail_ms": tail, "tail": label}


def uncontended(seconds: list[float]) -> float:
    """A request's uncontended latency: the fastest of its repeats.

    On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11) a request
    was seen to run in one of two speed modes about 1.7x apart (the other
    vCPU or another tenant busy, or not), with the share of slow repeats
    drifting from none to all of them over tens of seconds.  Medians jump between the modes; the minimum
    stays in the fast mode as long as any repeat ran there.  Repeats see
    identical inputs, so no repeat is cheaper than the others by design.
    """
    return min(seconds)


def class_latency(per_request: list[list[float]]) -> dict:
    """Median and maximum, over a class's requests, of their uncontended
    latency in milliseconds."""
    fast = sorted(uncontended(s) * 1e3 for s in per_request)
    return {"ms": statistics.median(fast), "worst_ms": fast[-1],
            "requests": len(fast),
            "repeats": min(len(s) for s in per_request)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """sha256 over the package sources, standing in for a commit id in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "genfock").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    import mpmath
    import numpy
    import scipy

    import genfock

    return {
        "genfock": genfock.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def package(values: dict, units: dict) -> dict:
    """Attach units, insisting on exactly the declared metric names."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchmarkError(f"metric set mismatch: missing {missing}, "
                             f"undeclared {extra}")
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         details: dict) -> None:
    """Print the details line, then the result line the contract asks for."""
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)
