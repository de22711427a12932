"""radial_eval: warm evaluation of the radial weights, built once in set-up.

Per batch (one pool variant), a fixed composition:

primary, evaluation from the level tables
    table   radial_weight(m, 256 log-uniform x in [1e-20, 1e6]), m = 2..5,
            two draws each
    moment  one moment(m, n), batches cycling through (m, n) = (1,8) (2,6)
            (3,4) (4,2) (5,0)
secondary, a fresh quadrature per query
    point   radial_weight_point(m, x), m = 2..5, x log-uniform in [0.3, 1e3]
    conv    log_radial_weight_conv(m, x), m = 2, 3, 4, two x each,
            log-uniform in [1e-20, 1e4]

The point range keeps m = 3 (2-D tensor quadrature) in its cheap,
well-conditioned zone; below x ~ 1e-14 that route refuses by design.  The
conv range stops at 1e4 because mpmath's Meijer-G, the oracle for m >= 3,
does not converge by default further out.  Twice as many conv queries as
levels keep the secondary class's median request inside the conv m = 2
group rather than on a boundary between groups of very different cost.
For the same reason the primary class is mostly tables, with one moment
per batch: moments cost about half a table lookup, and an even mix puts
the median where the two groups meet.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from common import digits
from loop import Request

VARIANTS = 10          # two full cycles of MOMENT_SLOTS
TABLE_POINTS = 256
MOMENT_SLOTS = ((1, 8), (2, 6), (3, 4), (4, 2), (5, 0))
# fixed probe points for the m >= 3 tables, where Meijer-G converges
PROBE_X = tuple(10.0 ** k for k in range(-20, 5, 2))
# The kernels suite's route-agreement tolerance and acceptance criterion 01.
TOL_VALUE = 1e-6
TOL_MOMENT = 1e-6


def _loguniform(rng, lo: float, hi: float, size=None):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size)


def build_pool(seed: int) -> list[list[Request]]:
    from genfock import radialkernel as rk

    rng = np.random.default_rng([seed, 0x7261])
    variants = []
    for v in range(VARIANTS):
        table_x = [(m, _loguniform(rng, 1e-20, 1e6, TABLE_POINTS))
                   for _ in range(2) for m in range(2, 6)]
        point_x = {m: float(_loguniform(rng, 0.3, 1e3)) for m in range(2, 6)}
        conv_x = [(m, float(_loguniform(rng, 1e-20, 1e4)))
                  for _ in range(2) for m in (2, 3, 4)]
        reqs = [Request("primary", "table",
                        lambda m=m, x=x: rk.radial_weight(m, x),
                        {"m": m, "x": x}) for m, x in table_x]
        for m, x in point_x.items():
            reqs.append(Request("secondary", "point",
                                lambda m=m, x=x: rk.radial_weight_point(m, x),
                                {"m": m, "x": x}))
        m, n = MOMENT_SLOTS[v % len(MOMENT_SLOTS)]
        reqs.append(Request("primary", "moment",
                            lambda m=m, n=n: rk.moment(m, n),
                            {"m": m, "n": n}))
        for m, x in conv_x:
            reqs.append(Request("secondary", "conv",
                                lambda m=m, x=x: rk.log_radial_weight_conv(m, x),
                                {"m": m, "x": x}))
        variants.append(reqs)
    return variants


def oracle_values(pool: list[list[Request]]) -> dict:
    """Reference logs for every point any check needs (untimed)."""
    ref = {}
    for variant in pool:
        for req in variant:
            m = req.info["m"]
            if req.name in ("point", "conv"):
                ref[(m, req.info["x"])] = oracles.radial_log(m, req.info["x"])
    for m in range(3, 6):
        for x in PROBE_X:
            ref[(m, x)] = oracles.meijer_log(m, x)
    return ref


def check(result, ref: dict) -> dict:
    """Mark out-of-tolerance slots bad; return the accuracy reached."""
    from genfock import radialkernel as rk

    worst = {m: 0.0 for m in range(2, 6)}
    worst_moment = 0.0
    probe = {}
    for m in range(3, 6):
        xs = np.array(PROBE_X)
        probe[m] = float(np.max(oracles.value_err(
            rk.radial_weight(m, xs), [ref[(m, x)] for x in PROBE_X],
            rk.log_radial_weight(m, xs))))
    for variant in result.slots:
        for slot in variant:
            req = slot.request
            if slot.error is not None:
                slot.bad = True
                continue
            m = req.info["m"]
            if req.name == "table":
                if m == 2:
                    x = req.info["x"]
                    err = float(np.max(oracles.value_err(
                        slot.first, oracles.bessel_log(x),
                        rk.log_radial_weight(2, x))))
                else:
                    err = probe[m]
            elif req.name == "point":
                err = float(oracles.value_err(
                    slot.first, ref[(m, req.info["x"])])[0])
            elif req.name == "conv":
                err = abs(math.expm1(slot.first - ref[(m, req.info["x"])]))
            else:
                want = float(math.factorial(req.info["n"]) ** m)
                err = abs(slot.first - want) / want
                worst_moment = max(worst_moment, err)
                slot.bad = not err <= TOL_MOMENT
                continue
            worst[m] = max(worst[m], err)
            slot.bad = not err <= TOL_VALUE
    acc = {f"radialkernel.max_rel_err.m{m}": worst[m] for m in worst}
    acc["radialkernel.moment_max_rel_err"] = worst_moment
    acc["digits"] = digits(max(list(worst.values()) + [worst_moment]))
    return acc
