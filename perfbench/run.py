"""genfock benchmark: one command, three workloads, e2e or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
The last line of stdout is the result object; the line before it holds
details (provenance, sample counts, percentiles used, per-check errors).
The exit code is 0 when every output checked out, 1 when a correctness
check failed (the result line is still printed), 2 when the benchmark
cannot run here at all (no result line).

Workloads (see each module's docstring for the exact composition):

radial_eval   warm radial queries after building levels 1..5 (radial.py);
              the import and the level builds are its set-up
algebra       float and exact coefficient/dual algebra requests, plus warm
              ``verify <suite>`` CLI calls for the trace (algebra.py)

Every workload reports every end-to-end metric, with tracing off.  The
details line also carries the plain p50 and p99 (or the highest
percentile with ten samples beyond it) per class, with sample counts.

setup_s            import plus warm-up, median of three set-ups in fresh
                   processes
primary_ms         median, over the workload's primary requests, of each
                   request's uncontended latency (the fastest of its
                   repeats; see common.uncontended for why not the plain
                   median): radial_eval table and moment queries; algebra
                   float requests
primary_worst_ms   the largest uncontended latency among those requests
secondary_ms       the same for the secondary requests: radial_eval point
secondary_worst_ms and conv queries; algebra exact (int/Fraction) requests
throughput_per_s   primary and secondary requests per second at each
                   request's uncontended latency
peak_rss_mb        peak resident set of the measuring process
accuracy_digits    -log10 of the worst relative error over the workload's
                   oracle-checked outputs (see oracles.py)

The per-layer metrics come from a separate ``--trace 1`` run (spans.py,
layers.py); ``trace.overhead_frac`` compares traced with untraced work
inside that run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import warm
from common import (ROOT, SINGLE_THREAD_ENV, BenchmarkError, class_latency,
                    emit, package, peak_rss_mb, summarize_latencies,
                    uncontended)

WORKLOADS = ("radial_eval", "algebra")


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def loop_e2e(result, setup_s: float, accuracy_digits: float
             ) -> tuple[dict, dict]:
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
              "accuracy_digits": accuracy_digits}
    samples = {"rounds": result.rounds}
    for klass in ("primary", "secondary"):
        lat = class_latency(result.per_request(klass))
        values[f"{klass}_ms"] = lat["ms"]
        values[f"{klass}_worst_ms"] = lat["worst_ms"]
        samples[klass] = {k: lat[k] for k in ("requests", "repeats")}
        samples[klass]["plain"] = summarize_latencies(
            result.latencies[klass])
    if result.latencies["cli"]:
        samples["cli"] = {"plain": summarize_latencies(result.latencies["cli"])}
    timed = [s for v in result.slots for s in v if s.request.klass != "cli"]
    values["throughput_per_s"] = (
        sum(s.executions for s in timed)
        / sum(uncontended(s.seconds) * s.executions for s in timed))
    return values, samples


def run_in_process(workload: str, args, e2e_units: dict,
                   layer_units: dict) -> int:
    from spans import Tracer

    setup_tracer = Tracer() if args.trace else None
    setup_s = warm.SETUPS[workload](setup_tracer)
    if setup_tracer is not None:
        setup_tracer.remove()

    import algebra
    import layers
    import loop
    import radial
    from common import provenance
    module = {"radial_eval": radial, "algebra": algebra}[workload]

    pool = module.build_pool(args.seed)
    t0 = time.perf_counter()
    ref = module.oracle_values(pool)
    oracle_s = time.perf_counter() - t0
    tracer = Tracer() if args.trace else None
    result = loop.run(pool, args.seconds, tracer)
    acc = module.check(result, ref)
    correct = result.failed == 0

    details = {"workload": workload, "seed": args.seed, "trace": args.trace,
               "provenance": provenance(), "oracle_s": oracle_s,
               "failed_frac": result.failed / result.attempted,
               "replay_mismatches": result.mismatched,
               "accuracy": acc,
               "failed_requests": sorted({
                   f"{s.request.name}:{s.request.info.get('m', '')}"
                   f":{s.error or 'tolerance'}"
                   for v in result.slots for s in v
                   if s.bad or s.raised or s.mismatched})}
    if args.trace:
        traced_units = sum(len(result.slots) for r in range(result.rounds)
                           if r % 2 == 1)
        values, absent = layers.fold(
            tracer.summary(), traced_units, acc, loop.overhead_frac(result),
            once=setup_tracer.summary())
        details["absent_layer_metrics"] = absent
        details["traced_batches"] = traced_units
        metrics = package(values, layer_units)
    else:
        setup_med, setup_samples = warm.median_setup(setup_s, workload)
        values, samples = loop_e2e(result, setup_med, acc["digits"])
        details["setup_samples_s"] = setup_samples
        details["samples"] = samples
        metrics = package(values, e2e_units)
    emit(correct, result.attempted, result.failed, metrics, details)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.update(SINGLE_THREAD_ENV)   # before numpy loads; children inherit
    try:
        e2e_units, layer_units = declared_metrics()
        return run_in_process(args.workload, args, e2e_units, layer_units)
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
