"""Closed-loop runner shared by the in-process workloads.

One client, one request at a time.  A pool holds a fixed number of
variants; every variant has the same fixed count of requests per class
(the seed changes only the drawn values).  A round runs every variant
once, in order, and rounds repeat until the measuring time is used up.
Only the package call inside a request is timed.

The first round's outputs are the ones checked against oracles; every
later execution of the same request must produce byte-identical output.
In a traced run, odd rounds run with the tracer installed and even rounds
without, so the overhead compares equal work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# "cli" requests keep the cli and suites layers in the trace; they are
# checked and counted but stay out of the class latency metrics
CLASSES = ("primary", "secondary", "cli")


@dataclass
class Request:
    klass: str
    name: str
    call: Callable[[], object]
    info: dict = field(default_factory=dict)


@dataclass
class Slot:
    request: Request
    first: object = None
    error: str | None = None        # exception type of the first execution
    print: object = None            # fingerprint of the first execution
    seconds: list = field(default_factory=list)   # latency of each execution
    executions: int = 0
    raised: int = 0
    mismatched: int = 0
    bad: bool = False               # set by the workload's accuracy check


def fingerprint(x):
    """A byte-exact, comparable stand-in for an output."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        return (type(x).__name__, repr(tuple(coeffs)),
                getattr(x, "level", None))
    if isinstance(x, (tuple, list)):
        return tuple(fingerprint(e) for e in x)
    if isinstance(x, dict):
        return tuple(sorted((k, fingerprint(v)) for k, v in x.items()))
    return repr(x)


@dataclass
class LoopResult:
    slots: list[list[Slot]]
    latencies: dict
    rounds: int
    round_seconds: dict             # traced? -> [seconds per round]

    @property
    def attempted(self) -> int:
        return sum(s.executions for v in self.slots for s in v)

    @property
    def failed(self) -> int:
        total = 0
        for variant in self.slots:
            for s in variant:
                total += s.executions if s.bad else s.raised + s.mismatched
        return total

    @property
    def mismatched(self) -> int:
        return sum(s.mismatched for v in self.slots for s in v)

    def per_request(self, klass: str) -> list[list[float]]:
        return [s.seconds for v in self.slots for s in v
                if s.request.klass == klass]


def run(variants: list[list[Request]], seconds: float,
        tracer=None) -> LoopResult:
    slots = [[Slot(r) for r in reqs] for reqs in variants]
    latencies = {k: [] for k in CLASSES}
    round_seconds = {False: [], True: []}
    clock = time.perf_counter
    rnd = 0
    min_rounds = 1 if tracer is None else 2
    t_end = clock() + seconds
    while rnd < min_rounds or clock() < t_end:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        spent = 0.0
        try:
            for variant in slots:
                for slot in variant:
                    if tracer is not None:
                        tracer.request += 1
                    err = None
                    t0 = clock()
                    try:
                        out = slot.request.call()
                    except Exception as exc:  # counted, kept in the mix
                        out = None
                        err = type(exc).__name__
                    dt = clock() - t0
                    spent += dt
                    latencies[slot.request.klass].append(dt)
                    slot.seconds.append(dt)
                    slot.executions += 1
                    fp = ("raised", err) if err else fingerprint(out)
                    if err:
                        slot.raised += 1
                    if rnd == 0:
                        slot.first, slot.error, slot.print = out, err, fp
                    elif fp != slot.print:
                        slot.mismatched += 1
        finally:
            if traced:
                tracer.remove()
        round_seconds[traced].append(spent)
        rnd += 1
    return LoopResult(slots, latencies, rnd, round_seconds)


def overhead_frac(result: LoopResult) -> float:
    """Traced vs untraced mean round time, minus one."""
    on, off = result.round_seconds[True], result.round_seconds[False]
    if not on or not off:
        return 0.0
    return (sum(on) / len(on)) / (sum(off) / len(off)) - 1.0
