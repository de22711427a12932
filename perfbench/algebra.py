"""algebra: float and exact coefficient/dual algebra; the radial layer idles.

Per batch (one pool variant), a fixed composition.  "Scaled" elements are
norm-scaled draws c_n (n!)**(-m/2), c_n complex normal: their high
coefficients are subnormal or zero, which drives the exact-rational
fallback inside ``inner_product``.  Unscaled elements stay at degree <= 30:
at degree 200 with O(1) coefficients and |w| <= 2 the reproducing identity
is ill-conditioned past double range, which is no fault of the code.

primary (float), 54 requests
    reproduce  kernel_section + inner_product vs fsum point evaluation:
               m = 1..6 unscaled deg 30; m in {1,2,5} x scaled deg {200,1000}
    adjoint    inner_product(raising f, g) and (f, raising_adjoint g), scaled,
               m in {1,2,5} x deg {40,200,1000}
    sqnorm     squared_norm, same grid (report-only accuracy, see below)
    vage       vage_check at n = 20 (p,q = 1,2) and n = 200 (p,q = 2,3)
    gram       kernel_eval Gram rows, m in {1,2,4}, two rows of six points
    hkernel    transform_kernel on 96 Gauss-Hermite nodes, m in {1,2,3}
    unitarity  unitarity_gap, N = 60, m in {1,3,5}
    quadrature transform_via_quadrature, N = 15, m in {1,3,5}
    normid     norm_identity_report, unscaled deg 32, m = 1..5
    riemann    riemann_integral_product on two 17-node linear paths
secondary (exact), 24 requests
    commutator commutator_apply on int input, m = 1..6, deg 20
    numpow     number_power_normal_ordered(k), int deg 12, k = 1..8
    cauchy     cauchy_product of int vectors, lengths (40,40) and (25,40)
    fraction   inner_product of Fraction vectors, deg 40, m in {1,2,5}
    adjword    adjoint_word_check(m, 12), m in {2,4,6}
    normal     verify_normal_ordering(k, 12), k in {4,8}
cli, 4 requests, outside the class metrics
    verify     ``genfock.cli.main(["verify", suite, "--seed", seed])`` for the
               stirling, operators, bargmann and dual suites, stdout captured;
               they keep the cli and suites layers in the traced run (the
               kernels suite would build radial tables, which this workload
               leaves idle)

Gated identities (acceptance tolerances): reproducing 1e-12 (criterion
09), adjoint 1e-12 (04), unitarity 1e-12 and quadrature 1e-8 (07), norm
identity 1e-12 (06), the product inequality's own check, exact equality
for the exact class, 1e-12 for Fraction inner products, exit code 0 and
every check passed for the suites.  ``squared_norm``
on scaled draws is off the exact-rational value by up to ~1e-3 (subnormal
terms lose bits); the package states no tolerance for it, so it is
reported as ``coeffspace.squared_norm_max_rel_err`` and does not fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite import hermgauss

from common import digits, rel
from loop import Request

VARIANTS = 2
GRID_M = (1, 2, 5)
GRID_D = (40, 200, 1000)
TOL_IDENTITY = 1e-12
TOL_QUADRATURE = 1e-8


def _cn(rng, n: int) -> list:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()


def _scaled(rng, deg: int, m: int) -> list:
    s = np.exp([-0.5 * m * math.lgamma(n + 1) for n in range(deg + 1)])
    return (np.array(_cn(rng, deg + 1)) * s).tolist()


def _disk(rng, radius: float) -> complex:
    r, phi = radius * math.sqrt(rng.uniform()), rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def _ints(rng, n: int) -> list:
    return [int(v) for v in rng.integers(-9, 10, n)]


def _line(x0, x1, t: float):
    """The dual-valued path x0 + t x1 at t (same length, level 2)."""
    from genfock.dualalgebra import DualSequence

    return DualSequence([a + t * b for a, b in zip(x0.coeffs, x1.coeffs)], 2)


def _float_requests(rng) -> list[Request]:
    from genfock import bargmann as bg
    from genfock import coeffspace as cs
    from genfock import dualalgebra as da
    from genfock import operators as op
    from genfock.coeffspace import TaylorCoeffs
    from genfock.dualalgebra import DualSequence

    out = []

    def reproduce(m, deg, coeffs):
        f, w = TaylorCoeffs(coeffs), _disk(rng, 2.0)
        out.append(Request(
            "primary", "reproduce",
            lambda: cs.inner_product(f, cs.kernel_section(m, w, deg), m),
            {"m": m, "deg": deg, "f": f, "w": w}))

    for m in range(1, 7):
        reproduce(m, 30, _cn(rng, 31))
    for m in GRID_M:
        for deg in (200, 1000):
            reproduce(m, deg, _scaled(rng, deg, m))
    for m in GRID_M:
        for deg in GRID_D:
            f = TaylorCoeffs(_scaled(rng, deg, m))
            g = TaylorCoeffs(_scaled(rng, deg, m))
            out.append(Request(
                "primary", "adjoint",
                lambda f=f, g=g, m=m: (
                    cs.inner_product(op.raising(f), g, m),
                    cs.inner_product(f, op.raising_adjoint(g, m), m)),
                {"m": m, "deg": deg, "f": f, "g": g}))
    for m in GRID_M:
        for deg in GRID_D:
            f = TaylorCoeffs(_scaled(rng, deg, m))
            out.append(Request("primary", "sqnorm",
                               lambda f=f, m=m: cs.squared_norm(f, m),
                               {"m": m, "deg": deg, "f": f}))
    for n, p, q in ((20, 1, 2), (200, 2, 3)):
        a = DualSequence(_cn(rng, n), p)
        b = DualSequence(_cn(rng, n), q)
        out.append(Request("primary", "vage",
                           lambda a=a, b=b, p=p, q=q: da.vage_check(a, b, p, q),
                           {"n": n}))
    for m in (1, 2, 4):
        pts = [_disk(rng, 1.2) for _ in range(6)]
        for i in range(2):
            out.append(Request(
                "primary", "gram",
                lambda m=m, z=pts[i], pts=pts: [cs.kernel_eval(m, z, w)
                                                for w in pts],
                {"m": m}))
    nodes = hermgauss(96)[0]
    for m in (1, 2, 3):
        z = _disk(rng, 2.0)
        out.append(Request("primary", "hkernel",
                           lambda m=m, z=z: bg.transform_kernel(m, z, nodes),
                           {"m": m}))
    for m in (1, 3, 5):
        c = _cn(rng, 61)
        out.append(Request("primary", "unitarity",
                           lambda c=c, m=m: bg.unitarity_gap(c, m),
                           {"m": m}))
    for m in (1, 3, 5):
        c, z = _cn(rng, 16), _disk(rng, 2.0)
        out.append(Request(
            "primary", "quadrature",
            lambda c=c, m=m, z=z: bg.transform_via_quadrature(c, m, z),
            {"m": m, "c": c, "z": z}))
    for m in range(1, 6):
        f = TaylorCoeffs(_cn(rng, 33))
        out.append(Request("primary", "normid",
                           lambda f=f, m=m: op.norm_identity_report(f, m),
                           {"m": m}))
    for _ in range(2):
        ends = [DualSequence(_cn(rng, 6), 2) for _ in range(4)]
        fp = da.sample_path(lambda t, e=ends: _line(e[0], e[1], t))
        gp = da.sample_path(lambda t, e=ends: _line(e[2], e[3], t))
        out.append(Request(
            "primary", "riemann",
            lambda fp=fp, gp=gp: da.riemann_integral_product(fp, gp), {}))
    return out


def _exact_requests(rng) -> list[Request]:
    from genfock import coeffspace as cs
    from genfock import dualalgebra as da
    from genfock import operators as op
    from genfock import stirling as st
    from genfock.coeffspace import TaylorCoeffs
    from genfock.dualalgebra import DualSequence

    out = []
    for m in range(1, 7):
        f = _ints(rng, 21)
        want = TaylorCoeffs([((n + 1) ** m - n ** m) * c
                             for n, c in enumerate(f)])
        out.append(Request(
            "secondary", "commutator",
            lambda f=TaylorCoeffs(f), m=m: op.commutator_apply(f, m),
            {"want": want}))
    for k in range(1, 9):
        f = _ints(rng, 13)
        want = TaylorCoeffs([n ** k * c for n, c in enumerate(f)])
        out.append(Request(
            "secondary", "numpow",
            lambda f=TaylorCoeffs(f), k=k: op.number_power_normal_ordered(k, f),
            {"want": want}))
    for la, lb in ((40, 40), (25, 40)):
        a, b = _ints(rng, la), _ints(rng, lb)
        conv = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        out.append(Request(
            "secondary", "cauchy",
            lambda a=DualSequence(a), b=DualSequence(b): da.cauchy_product(a, b),
            {"want": DualSequence(conv)}))
    for m in GRID_M:
        f = [Fraction(int(p), int(q)) for p, q in
             zip(rng.integers(-9, 10, 41), rng.integers(1, 10, 41))]
        g = [Fraction(int(p), int(q)) for p, q in
             zip(rng.integers(-9, 10, 41), rng.integers(1, 10, 41))]
        out.append(Request(
            "secondary", "fraction",
            lambda f=TaylorCoeffs(f), g=TaylorCoeffs(g), m=m:
                cs.inner_product(f, g, m),
            {"m": m, "f": f, "g": g}))
    for m in (2, 4, 6):
        out.append(Request("secondary", "adjword",
                           lambda m=m: op.adjoint_word_check(m, 12),
                           {"want": True}))
    for k in (4, 8):
        out.append(Request("secondary", "normal",
                           lambda k=k: st.verify_normal_ordering(k, 12),
                           {"want": True}))
    return out


def _run_cli(argv: list[str]) -> tuple:
    from genfock import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cli_requests(seed: int) -> list[Request]:
    return [Request("cli", "verify",
                    lambda argv=["verify", suite, "--seed", str(seed)]:
                        _run_cli(argv),
                    {"suite": suite})
            for suite in ("stirling", "operators", "bargmann", "dual")]


def build_pool(seed: int) -> list[list[Request]]:
    rng = np.random.default_rng([seed, 0x616c67])
    variants = []
    for _ in range(VARIANTS):
        floats, exacts = _float_requests(rng), _exact_requests(rng)
        batch = []
        for i in range(max(len(floats), len(exacts))):
            batch.extend(floats[i:i + 1] + exacts[i:i + 1])
        variants.append(batch + _cli_requests(seed))
    return variants


def warm_up() -> None:
    """One pass over the first variant of a fixed pool."""
    for req in build_pool(0)[0]:
        req.call()


def oracle_values(pool: list[list[Request]]) -> dict:
    """Exact and compensated references, keyed by request identity."""
    import oracles

    ref = {}
    for variant in pool:
        for req in variant:
            info = req.info
            if req.name == "reproduce":
                ref[id(req)] = oracles.fsum_eval(info["f"].coeffs, info["w"])
            elif req.name == "adjoint":
                shifted = (0,) + info["f"].coeffs
                ref[id(req)] = oracles.exact_pairing(
                    shifted, info["g"].coeffs, info["m"])
            elif req.name == "sqnorm":
                ref[id(req)] = oracles.exact_sq_norm(info["f"].coeffs,
                                                     info["m"])
            elif req.name == "fraction":
                ref[id(req)] = oracles.exact_pairing(info["f"], info["g"],
                                                     info["m"])
    return ref


def _finite(x) -> bool:
    arr = np.asarray(x, dtype=complex)
    return bool(np.all(np.isfinite(arr)))


def check(result, ref: dict) -> dict:
    """Mark out-of-tolerance slots bad; return the accuracy reached."""
    from genfock import bargmann as bg
    from genfock import coeffspace as cs

    gated = {k: 0.0 for k in ("reproduce", "adjoint", "unitarity",
                              "quadrature", "normid")}
    ip_err = sq_err = 0.0
    for variant in result.slots:
        for slot in variant:
            req, out = slot.request, slot.first
            if slot.error is not None:
                slot.bad = True
                continue
            name, info = req.name, req.info
            ok = True
            if name == "reproduce":
                err = rel(out, ref[id(req)])
                gated[name] = max(gated[name], err)
                ok = err <= TOL_IDENTITY
            elif name == "adjoint":
                lhs, rhs = out
                err = rel(lhs, rhs)
                gated[name] = max(gated[name], err)
                ip_err = max(ip_err, rel(lhs, ref[id(req)]),
                             rel(rhs, ref[id(req)]))
                ok = err <= TOL_IDENTITY
            elif name == "sqnorm":
                sq_err = max(sq_err, rel(out, ref[id(req)]))
                ok = math.isfinite(out)
            elif name == "vage":
                ok = bool(out[2])
            elif name in ("gram", "hkernel", "riemann"):
                ok = _finite(out.coeffs if name == "riemann" else out)
            elif name == "unitarity":
                gated[name] = max(gated[name], out["gap"])
                ok = out["gap"] <= TOL_IDENTITY
            elif name == "quadrature":
                direct = cs.eval_point(bg.forward(info["c"], info["m"]),
                                       info["z"])
                err = abs(out - direct) / max(abs(direct), 1e-300)
                gated[name] = max(gated[name], err)
                ok = err <= TOL_QUADRATURE
            elif name == "normid":
                lhs, terms = out
                err = rel(lhs, math.fsum(terms))
                gated[name] = max(gated[name], err)
                ok = err <= TOL_IDENTITY
            elif name == "fraction":
                ok = rel(out, ref[id(req)]) <= TOL_IDENTITY
            elif name == "verify":
                rc, text = out
                report = json.loads(text) if rc == 0 else {}
                ok = rc == 0 and report["n_passed"] == report["n_checks"]
            else:
                ok = out == info["want"]
            slot.bad = not ok
    acc = {f"{k}_max_rel_err": v for k, v in gated.items()}
    acc["coeffspace.inner_product_max_rel_err"] = ip_err
    acc["coeffspace.squared_norm_max_rel_err"] = sq_err
    acc["digits"] = digits(max(gated.values()))
    return acc
