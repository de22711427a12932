#!/usr/bin/env python3
"""Time the package layer by layer and write one ``BENCH_<layer>.json`` each.

Layers, on fixed seeded inputs (seed 0):

``dual``
    ``cauchy_product`` of complex normal coefficients at lengths (6, 6),
    (20, 20), (25, 40), (40, 40), (200, 200) and (1000, 1000);
    ``vage_check`` at n = 200, levels p, q = 2, 3 and 2, 6, and at n = 20,
    p, q = 1, 2 (the ``algebra`` workload's two requests are the first
    two);
    ``riemann_integral_product`` on two linear paths of length-6 elements
    of 17 and 129 nodes on [0, 1], the paths built once per checkout,
    outside the timed calls; and ``cauchy_product`` of norm-scaled factors
    c_n (n!)^(-m/2), drawn as the ``algebra`` benchmark workload draws
    them, at (1000, 1000) for m = 1, 2 and 5.  The reference is the tests'
    product, each diagonal's live products summed with ``fsum``
    (``tests/dual_reference.py``), and the other rows built from it.
``radial``
    ``log_radial_weight_conv(m, x)`` for m = 2..5 at 30 log-uniform x in
    [1e-20, 1e4], the lower tables already built, timed per point; and
    ``build_table(m)`` for m = 2..5 from an empty table cache, put back
    after each call.  Each row holds the parent points the convolution
    engine evaluated (``parent_points``) and read from the values a table
    stores on its lattices (``stored_points``), per point or summed over
    the levels built, counted by ``kernel_profiles.engine_counts``; the
    m = 2 conv row holds the worst relative error against
    ``bessel_reference_log``.  These rows have no bit reference.
``operators``
    the exact requests of the ``algebra`` workload at its sizes, on ints
    in [-9, 9] drawn as it draws them: ``commutator_apply`` at m = 1..6 on
    21 ints, ``number_power_normal_ordered`` at k = 1..8 on 13 ints,
    ``verify_normal_ordering`` at k = 4, 8, ``adjoint_word_check`` at
    m = 2, 4, 6 and ``reordering_identity_check`` at n = 1, 4, 8, each at
    degree 12, and ``cauchy_product`` at (40, 40) and (25, 40); and the
    float ``raising_adjoint`` of the workload's ``adjoint`` requests, on
    norm-scaled degree-1000 draws at m = 1, 2 and 5.  The references are
    the closed forms the workload checks, ((n+1)^m - n^m) c_n and
    n^k c_n, True for the checks, the double loop of
    ``tests/dual_reference.py`` for the products and the per-coefficient
    n**m * c_n for the adjoint.
``coeffs``
    ``inner_product`` and ``squared_norm`` on norm-scaled draws c_n
    (n!)^(-m/2) at m = 1, 2, 5 and degrees 40, 200 and 1000; the
    ``algebra`` workload's ``adjoint`` pair, ``inner_product(raising f,
    g)`` and ``inner_product(f, raising_adjoint g)``, at degree 1000 and
    m = 1, 2, 5; ``norm_identity_report`` at m = 1..5 on 33 complex
    normal coefficients; and the exact route of ``inner_product`` on 41
    Fractions p/q (p in [-9, 9], q in [1, 9]) per factor at m = 1, 2, 5,
    each as the workload draws them.  The bit reference is the earlier
    full-conversion routes and the ``isinstance`` dispatch kept in
    ``tests/coeffs_reference.py``; each row also holds ``rel_err_exact``,
    its relative error against the value summed in exact Fractions from
    the same doubles or Fractions (the largest over the outputs of a pair
    or report).
``bargmann``
    ``transform_kernel`` at m = 1, 2, 3 on the 96 Gauss-Hermite nodes, with
    a cold basis (the cached table emptied before every call) and a warm
    one; ``transform_via_quadrature`` at m = 1, 3, 5 (N = 15);
    ``kernel_section`` at m = 2 and degrees 30, 200 and 1000;
    ``unitarity_gap`` at m = 3, N = 60, which has no reference; and the
    streamed ``eta_sup_on_grid(200)`` and ``hermite_eta(200, t)`` on 6001
    points of [-30, 30].  The references are the term-by-term loops of
    ``tests/series_reference.py`` and ``hermite_eta_all``'s table.

Each row holds the best-of time of one call in microseconds (``us``), the
tracemalloc peak of one call after a warm one (``peak_mb``), and whether
the output is its reference's bit for bit (``bit_identical``: the same
complex128 bytes for a held float vector beside a tuple of floats or
another held vector; the same dtype, shape and bytes for other arrays;
the same ``repr`` otherwise, two tuples included; null without a
reference).  Provenance reads package
versions through ``importlib.metadata``, and genfock's from
``genfock.__version__`` where it is not installed.

    python3 scripts/bench_layers.py dual radial operators bargmann coeffs
    python3 scripts/bench_layers.py radial --against ../base
    python3 scripts/bench_layers.py dual --quick           # a smoke run

``--against DIR`` imports the ``genfock`` package of the checkout in DIR
under another name and alternates the two, the other first, in every
round; each row then also holds whether the two outputs are the same bit
for bit, the other checkout's time, peak and engine counts, the ratio of
the best times and ``ratio_iqr``, the interquartile range of the ratios of
the rounds' best times.  A checkout without a Hermite basis cache runs its
cold rows as its warm ones.  ``--quick`` drops the (1000, 1000) and
129-node dual rows and keeps one norm-scaled product at (100, 100) and
m = 5, takes 3 points per conv row and the m = 2 and 3 builds, keeps the
m = 1 kernel rows, one quadrature row and degrees 30 and 1000, keeps
m = 1, 6 and k = 1, 8, every other check, the (40, 40) product and the
m = 1 adjoint of the operator rows, the (m, degree) pairs (1, 40), (2, 200)
and (5, 1000), the m = 1 adjoint pair, the m = 1, 5 reports and the m = 1
Fraction inner product of the coefficient rows, and times one batch per
row; it
prints the results unless ``--out`` is given.
``--out DIR`` writes the files into DIR instead of the repository root.
The exit code is 1 when any output differs from its reference or from the
other checkout's.  The package is imported from the ``src`` directory next to
this script.
"""

import argparse
import functools
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
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

import genfock  # noqa: E402
from dual_reference import (reference_exact_product,  # noqa: E402
                            reference_product, reference_riemann)
import coeffs_reference  # noqa: E402
from genfock import bargmann, dualalgebra, radialkernel  # noqa: E402
from kernel_profiles import engine_counts  # noqa: E402
from series_reference import (kernel_section_by_loop,  # noqa: E402
                              kernel_term_by_term, quadrature_term_by_term)

SEED = 0


@functools.cache
def _load(checkout: Path):
    """Another checkout's package, imported once under its own name so that
    both can be timed in one process."""
    name = "genfock_against"
    spec = importlib.util.spec_from_file_location(
        name, checkout / "src" / "genfock" / "__init__.py",
        submodule_search_locations=[str(checkout / "src" / "genfock")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("bargmann", "coeffspace", "dualalgebra", "operators",
                   "radialkernel", "stirling"):
        importlib.import_module(f"{name}.{module}")
    return package


# ------------------------------------------------------------------ inputs


def _cn(rng, n: int) -> list:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()


def _scaled(rng, n: int, m: int) -> list:
    """n complex normal coefficients c_k scaled by (k!)^(-m/2), as the
    ``algebra`` workload draws them."""
    s = np.exp([-0.5 * m * math.lgamma(k + 1) for k in range(n)])
    return (np.array(_cn(rng, n)) * s).tolist()


def _disk(rng, radius: float) -> complex:
    r, a = radius * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(a), r * math.sin(a))


def _row(call, args, run, reference=None, per=1, **fields) -> dict:
    """A row spec: ``run(package)`` returns the output that is timed, per
    ``per`` items, and compared; ``reference()`` returns what it should be,
    bit for bit; ``fields`` go into the row as they are; ``probe(package)``
    runs the call once more and returns the fields that run observed."""
    def probe(pkg):
        run(pkg)
        return {}
    return {"call": call, "args": args, "run": run, "reference": reference,
            "per": per, "probe": probe, "fields": fields}


# ------------------------------------------------------------------ layers


def _reference_vage(a, b, p, q):
    da = dualalgebra
    lhs = da.dual_norm(da.DualSequence(reference_product(a, b), q), q)
    bound = (da.vage_constant(q - p) * da.dual_norm(da.DualSequence(a), p)
             * da.dual_norm(da.DualSequence(b), q))
    return lhs, bound, lhs <= bound * (1.0 + 1e-12)


def _line(ends, t):
    return [x + t * y for x, y in zip(*ends)]


def _once(build):
    """build(package), made on the package's first call and kept, so that
    a timed call runs the call alone."""
    built = {}

    def get(pkg):
        if pkg not in built:
            built[pkg] = build(pkg)
        return built[pkg]
    return get


def _paths_once(f_ends, g_ends, steps):
    """The two sampled paths for a package, built once."""
    def paths(pkg):
        da = pkg.dualalgebra
        return [da.sample_path(
            lambda t, ends=ends: da.DualSequence(_line(ends, t), 2),
            steps=steps) for ends in (f_ends, g_ends)]
    return _once(paths)


def dual(rng, quick: bool) -> list:
    def product(a, b, args, inputs):
        return _row("cauchy_product", args,
                    lambda pkg: pkg.dualalgebra.cauchy_product(
                        pkg.dualalgebra.DualSequence(a),
                        pkg.dualalgebra.DualSequence(b)).coeffs,
                    lambda: tuple(reference_product(a, b)), input=inputs)

    sizes = ((6, 6), (20, 20), (25, 40), (40, 40), (200, 200), (1000, 1000))
    rows = [product(_cn(rng, la), _cn(rng, lb), f"({la}, {lb})",
                    "complex normal coefficients")
            for la, lb in (sizes[:-1] if quick else sizes)]
    for n, p, q in ((200, 2, 3), (20, 1, 2), (200, 2, 6)):
        a, b = _cn(rng, n), _cn(rng, n)
        rows.append(_row(
            "vage_check", f"n={n}, p={p}, q={q}",
            lambda pkg, a=a, b=b, p=p, q=q: pkg.dualalgebra.vage_check(
                pkg.dualalgebra.DualSequence(a, p),
                pkg.dualalgebra.DualSequence(b, q), p, q),
            lambda a=a, b=b, p=p, q=q: _reference_vage(a, b, p, q),
            input="complex normal coefficients"))
    f_ends, g_ends = (_cn(rng, 6), _cn(rng, 6)), (_cn(rng, 6), _cn(rng, 6))
    for steps in (16,) if quick else (16, 128):
        ts = [i / steps for i in range(steps + 1)]
        paths = _paths_once(f_ends, g_ends, steps)
        rows.append(_row(
            "riemann_integral_product", f"{steps + 1} nodes on [0, 1]",
            lambda pkg, paths=paths: pkg.dualalgebra.riemann_integral_product(
                *paths(pkg)).coeffs,
            lambda ts=ts: tuple(reference_riemann(
                [_line(f_ends, t) for t in ts],
                [_line(g_ends, t) for t in ts], ts)),
            input="linear paths x0 + t x1 of complex normal length-6 "
                  "elements"))
    for n, m in ((100, 5),) if quick else ((1000, 1), (1000, 2), (1000, 5)):
        rows.append(product(_scaled(rng, n, m), _scaled(rng, n, m),
                            f"({n}, {n}), norm-scaled m={m}",
                            "complex normal coefficients times (n!)^(-m/2)"))
    return rows


def _ints(rng, n: int) -> list:
    """n random ints in [-9, 9], as the ``algebra`` workload draws them."""
    return [int(v) for v in rng.integers(-9, 10, n)]


def operators(rng, quick: bool) -> list:
    def coeffs(f):
        return _once(lambda pkg: pkg.coeffspace.TaylorCoeffs(f))

    rows = []
    for m in (1, 6) if quick else range(1, 7):
        f = _ints(rng, 21)
        rows.append(_row(
            "commutator_apply", f"m={m}",
            lambda pkg, f=coeffs(f), m=m: pkg.operators.commutator_apply(
                f(pkg), m).coeffs,
            lambda f=f, m=m: tuple(((n + 1) ** m - n ** m) * c
                                   for n, c in enumerate(f)),
            input="21 random ints in [-9, 9]"))
    for k in (1, 8) if quick else range(1, 9):
        f = _ints(rng, 13)
        rows.append(_row(
            "number_power_normal_ordered", f"k={k}",
            lambda pkg, f=coeffs(f), k=k:
                pkg.operators.number_power_normal_ordered(k, f(pkg)).coeffs,
            lambda f=f, k=k: tuple(n ** k * c for n, c in enumerate(f)),
            input="13 random ints in [-9, 9]"))
    checks = [("stirling", "verify_normal_ordering", "k", (4, 8)),
              ("operators", "adjoint_word_check", "m", (2, 4, 6)),
              ("operators", "reordering_identity_check", "n", (1, 4, 8))]
    for module, call, name, values in checks:
        for v in values[::2] if quick else values:
            rows.append(_row(
                call, f"{name}={v}, degree=12",
                lambda pkg, module=module, call=call, v=v: getattr(
                    getattr(pkg, module), call)(v, 12),
                lambda: True))
    for la, lb in ((40, 40),) if quick else ((40, 40), (25, 40)):
        a, b = _ints(rng, la), _ints(rng, lb)
        pair = _once(lambda pkg, a=a, b=b: (pkg.dualalgebra.DualSequence(a),
                                            pkg.dualalgebra.DualSequence(b)))
        rows.append(_row(
            "cauchy_product", f"({la}, {lb})",
            lambda pkg, pair=pair: pkg.dualalgebra.cauchy_product(
                *pair(pkg)).coeffs,
            lambda a=a, b=b: tuple(reference_exact_product(a, b)),
            input="random ints in [-9, 9]"))
    for m in (1,) if quick else (1, 2, 5):
        g = _scaled(rng, 1001, m)
        rows.append(_row(
            "raising_adjoint", f"m={m}, degree=1000",
            lambda pkg, g=coeffs(g), m=m: pkg.operators.raising_adjoint(
                g(pkg), m).coeffs,
            lambda g=g, m=m: tuple(pow(n, m) * c
                                   for n, c in enumerate(g[1:], 1)),
            input="complex normal coefficients times (n!)^(-m/2)"))
    return rows


def _exact_parts(x) -> tuple:
    z = complex(x)
    return Fraction(z.real), Fraction(z.imag)


def _fraction_inner(f, g, m: int) -> tuple:
    """(re, im) of sum f_n conj(g_n) (n!)**m over the given floats, as
    Fractions."""
    re = im = Fraction(0)
    w = 1
    for n, (x, y) in enumerate(zip(f, g)):
        w *= max(n, 1) ** m
        if x and y:
            (xr, xi), (yr, yi) = _exact_parts(x), _exact_parts(y)
            re += (xr * yr + xi * yi) * w
            im += (xi * yr - xr * yi) * w
    return re, im


def _rel_err(value, exact) -> float:
    """|value - exact| / |exact| (|value| where exact is 0), for a float or
    complex value and an exact (re, im) pair."""
    (vr, vi), (er, ei) = _exact_parts(value), exact
    num = math.hypot(float(vr - er), float(vi - ei))
    den = math.hypot(float(er), float(ei))
    return num / den if den else num


def coeffs(rng, quick: bool) -> list:
    cs, op = genfock.coeffspace, genfock.operators
    ref = coeffs_reference
    T = cs.TaylorCoeffs

    def vector(c):
        return _once(lambda pkg: pkg.coeffspace.TaylorCoeffs(c))

    def adjoint(ops, ip, f, g, m):
        return (ip(ops.raising(f), g, m),
                ip(f, ops.raising_adjoint(g, m), m))

    scaled = "complex normal coefficients times (n!)^(-m/2)"
    rows = []
    grid = [(m, d) for m in (1, 2, 5) for d in (40, 200, 1000)]
    for m, d in grid[::4] if quick else grid:
        f, g = _scaled(rng, d + 1, m), _scaled(rng, d + 1, m)
        F, G = vector(f), vector(g)
        exact = _fraction_inner(f, g, m)
        rows.append(_row(
            "inner_product", f"m={m}, degree={d}",
            lambda pkg, F=F, G=G, m=m: pkg.coeffspace.inner_product(
                F(pkg), G(pkg), m),
            lambda f=f, g=g, m=m: ref.inner_product(T(f), T(g), m),
            input=scaled, rel_err_exact=_rel_err(
                cs.inner_product(T(f), T(g), m), exact)))
        exact = _fraction_inner(f, f, m)
        rows.append(_row(
            "squared_norm", f"m={m}, degree={d}",
            lambda pkg, F=F, m=m: pkg.coeffspace.squared_norm(F(pkg), m),
            lambda f=f, m=m: ref.squared_norm(T(f), m),
            input=scaled, rel_err_exact=_rel_err(
                cs.squared_norm(T(f), m), exact)))
    for m in (1,) if quick else (1, 2, 5):
        f, g = _scaled(rng, 1001, m), _scaled(rng, 1001, m)
        F, G = vector(f), vector(g)
        # both sides equal sum f_n conj(g_(n+1)) ((n+1)!)**m
        exact = _fraction_inner((0,) + tuple(f), g, m)
        rows.append(_row(
            "adjoint", f"m={m}, degree=1000",
            lambda pkg, F=F, G=G, m=m: adjoint(
                pkg.operators, pkg.coeffspace.inner_product, F(pkg), G(pkg),
                m),
            lambda f=f, g=g, m=m: adjoint(op, ref.inner_product, T(f), T(g),
                                          m),
            input=scaled + "; inner_product(raising f, g) and "
                           "inner_product(f, raising_adjoint g), as the "
                           "algebra workload forms them",
            rel_err_exact=max(_rel_err(v, exact) for v in adjoint(
                op, cs.inner_product, T(f), T(g), m))))
    for m in (1, 5) if quick else range(1, 6):
        f = _cn(rng, 33)
        F = vector(f)
        sq = [xr * xr + xi * xi for xr, xi in map(_exact_parts, f)]
        fact = [Fraction(math.factorial(n)) ** m for n in range(35)]
        exact = [sum(s * fact[n + 1] for n, s in enumerate(sq)),
                 sum(s * n ** m * fact[n] for n, s in enumerate(sq)),
                 *(math.comb(m, k) * sum(s * n ** k * fact[n]
                                         for n, s in enumerate(sq))
                   for k in range(m))]
        lhs, terms = op.norm_identity_report(T(f), m)
        rows.append(_row(
            "norm_identity_report", f"m={m}, degree=32",
            lambda pkg, F=F, m=m: pkg.operators.norm_identity_report(
                F(pkg), m),
            lambda f=f, m=m: ref.norm_identity_report(T(f), m),
            input="complex normal coefficients",
            rel_err_exact=max(_rel_err(v, (e, 0)) for v, e in zip(
                [lhs, *terms], exact))))
    for m in (1,) if quick else (1, 2, 5):
        f, g = ([Fraction(int(p), int(q)) for p, q in zip(
            rng.integers(-9, 10, 41), rng.integers(1, 10, 41))]
            for _ in range(2))
        F, G = vector(f), vector(g)
        exact = sum(x * y * math.factorial(n) ** m
                    for n, (x, y) in enumerate(zip(f, g)))
        rows.append(_row(
            "inner_product", f"m={m}, degree=40, Fractions",
            lambda pkg, F=F, G=G, m=m: pkg.coeffspace.inner_product(
                F(pkg), G(pkg), m),
            lambda f=f, g=g, m=m: ref.inner_product(T(f), T(g), m),
            input="Fractions p/q, p in [-9, 9], q in [1, 9], as the algebra "
                  "workload draws them",
            rel_err_exact=_rel_err(cs.inner_product(T(f), T(g), m),
                                   (exact, 0))))
    return rows


def _build(m):
    """build_table(m) from an empty cache; the cache is restored after."""
    def run(pkg):
        cache = pkg.radialkernel._TABLE_CACHE
        saved = dict(cache)
        cache.clear()
        try:
            return pkg.radialkernel.build_table(m).logk.tolist()
        finally:
            cache.clear()
            cache.update(saved)
    return run


def _counts(run, per: int):
    def probe(pkg):
        with engine_counts(pkg.radialkernel) as counts:
            run(pkg)
        return {"parent_points": counts["parent"] / per,
                "stored_points": counts["stored"] / per}
    return probe


def radial(rng, quick: bool) -> list:
    xs = (10.0 ** rng.uniform(-20.0, 4.0, 30)).tolist()[:3 if quick else 30]
    rows = []
    for m in (2, 3, 4, 5):
        rows.append(_row(
            "log_radial_weight_conv",
            f"{len(xs)} log-uniform x in [1e-20, 1e4], seed {SEED}",
            lambda pkg, m=m: [pkg.radialkernel.log_radial_weight_conv(m, x)
                              for x in xs], per=len(xs), m=m))
    rk = radialkernel
    rows[0]["fields"]["max_rel_err_bessel"] = max(
        abs(math.expm1(rk.log_radial_weight_conv(2, x)
                       - rk.bessel_reference_log(x))) for x in xs)
    rows += [_row("build_table", "from an empty cache", _build(m), m=m)
             for m in ((2, 3) if quick else (2, 3, 4, 5))]
    for row in rows:
        row["probe"] = _counts(row["run"], row["per"])
    return rows


def _cold(run):
    """run(package) after emptying the package's cached Hermite table (an
    older checkout's cache of tables per node set)."""
    def call(pkg):
        if hasattr(pkg.bargmann, "_slot"):
            pkg.bargmann._slot = (None, None)
        getattr(pkg.bargmann, "_bases", {}).clear()
        return run(pkg)
    return call


def hermite(rng, quick: bool) -> list:
    nodes = bargmann._gauss_hermite(96)[0]
    grid = np.linspace(-30.0, 30.0, 6001)
    rows = []
    for m in (1,) if quick else (1, 2, 3):
        z = _disk(rng, 2.0)

        def kernel(pkg, m=m, z=z):
            return pkg.bargmann.transform_kernel(m, z, nodes)

        def reference(m=m, z=z):
            return kernel_term_by_term(m, z, nodes)
        args = f"m={m}, z={z:.3f}, 96 Gauss-Hermite nodes"
        rows.append(_row("transform_kernel", args + ", cold basis",
                         _cold(kernel), reference))
        rows.append(_row("transform_kernel", args + ", warm basis", kernel,
                         reference))
    for m in (1,) if quick else (1, 3, 5):
        c, z = _cn(rng, 16), _disk(rng, 2.0)
        rows.append(_row(
            "transform_via_quadrature", f"m={m}, N=15, z={z:.3f}, order 96",
            lambda pkg, c=c, m=m, z=z: pkg.bargmann.transform_via_quadrature(
                c, m, z),
            lambda c=c, m=m, z=z: quadrature_term_by_term(c, m, z)))
    w = _disk(rng, 2.0)
    for degree in (30, 1000) if quick else (30, 200, 1000):
        rows.append(_row(
            "kernel_section", f"m=2, degree={degree}, w={w:.3f}",
            lambda pkg, d=degree: pkg.coeffspace.kernel_section(2, w, d),
            lambda d=degree: kernel_section_by_loop(2, w, d)))
    c = _cn(rng, 61)
    rows.append(_row("unitarity_gap", "m=3, N=60",
                     lambda pkg: pkg.bargmann.unitarity_gap(c, 3)))
    rows.append(_row(
        "eta_sup_on_grid", "nmax=200, 6001 points on [-30, 30]",
        lambda pkg: pkg.bargmann.eta_sup_on_grid(200),
        lambda: np.abs(bargmann.hermite_eta_all(200, grid)).max(axis=1)))
    rows.append(_row(
        "hermite_eta", "n=200, 6001 points on [-30, 30]",
        lambda pkg: pkg.bargmann.hermite_eta(200, grid),
        lambda: bargmann.hermite_eta_all(200, grid)[200]))
    return rows


# name -> (rows, what, (repeats, rounds)); a quick run times one batch
LAYERS = {
    "coeffs": (coeffs, "the float inner product and squared norm on "
               "norm-scaled draws, the algebra workload's adjoint pair, "
               "the norm identity and the Fraction inner product, each next "
               "to the earlier full-conversion routes and dispatch bit for "
               "bit and to exact Fractions", (3, 15)),
    "dual": (dual, "float Cauchy products of the dual algebra and the two "
             "calls built on them, next to a per-diagonal fsum reference",
             (3, 15)),
    "radial": (radial, "single-point convolution queries and level builds "
               "of the radial tables, with the parent points the engine "
               "read", (3, 7)),
    "operators": (operators, "the exact requests of the algebra "
                  "workload at its sizes and its float raising_adjoint on "
                  "norm-scaled degree-1000 draws, next to the closed forms "
                  "it checks them by, True for the checks, a double loop "
                  "for the products and n**m c_n for the adjoint", (3, 15)),
    "bargmann": (hermite, "the Hermite kernel, the quadrature cross-check, "
                 "the kernel section and the streamed Hermite rows, each "
                 "next to a term-by-term or stacked-table reference",
                 (3, 7)),
}


# ---------------------------------------------------------- timing, output


def _float_tuple(x) -> bool:
    """A tuple or list of floats and complex numbers, with the int 0 that
    float routes emit among them: what a held float vector's tuple was."""
    return isinstance(x, (tuple, list)) and all(
        isinstance(c, (float, complex)) or type(c) is int and c == 0
        for c in x)


def _same(a, b) -> bool:
    """A held float vector (a 1-d complex array) and a float tuple or
    another held vector: the same complex128 bytes, an exact 0 as +0j.
    Otherwise the same dtype, shape and bytes for arrays, the same repr for
    the rest, two tuples included."""
    held = [isinstance(x, np.ndarray) and x.dtype == complex and x.ndim == 1
            for x in (a, b)]
    if any(held) and all(h or _float_tuple(x) for h, x in zip(held, (a, b))):
        return (np.asarray(a, complex).tobytes()
                == np.asarray(b, complex).tobytes())
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return repr(a) == repr(b)


def _best_us(call, repeats: int, number: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e6


def _traced(call):
    """call()'s result and the tracemalloc peak of the call in MB."""
    tracemalloc.start()
    try:
        return call(), round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
    finally:
        tracemalloc.stop()


def _version(name: str):
    """The installed distribution's version, else the imported module's
    ``__version__``: run from ``src``, genfock has no distribution."""
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return getattr(sys.modules.get(name), "__version__", None)


def _checkout(path: Path) -> dict:
    """The checkout's commit, suffixed -dirty when its files differ, and a
    digest of its package sources."""
    try:
        out = subprocess.run(["git", "-C", str(path), "describe", "--always",
                              "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, timeout=10)
        commit = out.stdout.strip() or None
    except OSError:
        commit = None
    h = hashlib.sha256()
    for source in sorted((path / "src" / "genfock").glob("*.py")):
        h.update(source.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def _measure(spec: dict, other, repeats: int, rounds: int) -> dict:
    """One row: the output checked, then both checkouts timed in rounds."""
    run, per, probe = spec["run"], spec["per"], spec["probe"]
    start = time.perf_counter()
    one = run(genfock)  # also warms up lazy set-up
    number = max(1, min(200, int(2e-3 / max(time.perf_counter() - start,
                                            1e-7))))
    reference = spec["reference"]
    row = {"call": spec["call"], "args": spec["args"], **spec["fields"],
           "bit_identical": (None if reference is None
                             else _same(one, reference()))}
    observed, row["peak_mb"] = _traced(lambda: probe(genfock))
    row.update(observed)
    if other is not None:
        theirs = run(other)  # warms the other checkout up too
    sides = [genfock] if other is None else [other, genfock]
    best = {pkg: [] for pkg in sides}
    for _ in range(rounds):
        for pkg in sides:
            best[pkg].append(
                _best_us(lambda: run(pkg), repeats, number) / per)
    row["us"] = round(min(best[genfock]), 2)
    if other is not None:
        observed, peak = _traced(lambda: probe(other))
        ratios = np.divide(best[genfock], best[other])
        q1, q3 = np.percentile(ratios, [25, 75])
        row.update({
            "against_identical": _same(theirs, one),
            **({"against": observed} if observed else {}),
            "against_us": round(min(best[other]), 2),
            "ratio": round(min(best[genfock]) / min(best[other]), 3),
            "ratio_iqr": round(float(q3 - q1), 3),
            "against_peak_mb": peak})
    return row


def run(layer: str, quick: bool = False, against=None) -> dict:
    layer_rows, what, (repeats, rounds) = LAYERS[layer]
    if quick:
        repeats, rounds = 1, 1
    other = _load(Path(against).resolve()) if against else None
    results = [_measure(spec, other, repeats, rounds)
               for spec in layer_rows(np.random.default_rng(SEED), quick)]
    out = {
        "what": what,
        "method": (f"in process; per row the best of {rounds} rounds of "
                   f"{repeats} repeats of a batch of calls sized to about "
                   "2 ms" + (", both checkouts in every round, the other "
                             "first" if other is not None else "")
                   + "; peak_mb is the tracemalloc peak of one call after "
                     "a warm one"),
        "seed": SEED,
        "quick": quick,
        **({"basis_cache": {"budget_bytes": bargmann._BASIS_BUDGET,
                            "max_rows": bargmann._BASIS_ROWS}}
           if layer == "bargmann" else {}),
        "provenance": {
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "genfock": _version("genfock"),
            "machine": platform.machine(),
            "this": _checkout(ROOT),
            **({"against": _checkout(Path(against))} if against else {})},
        "bit_identical": all(r["bit_identical"] is not False
                             for r in results),
        "rows": results,
    }
    if other is not None:
        out["against_identical"] = all(r["against_identical"]
                                       for r in results)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("layers", nargs="+", choices=LAYERS,
                    help="the layers to time")
    ap.add_argument("--against", type=Path, default=None,
                    help="another checkout to alternate with")
    ap.add_argument("--quick", action="store_true",
                    help="fewer rows and repeats; prints, writes nothing "
                         "unless --out is given")
    ap.add_argument("--out", type=Path, default=None,
                    help="the directory to write BENCH_<layer>.json into "
                         "(default the repository root, except with "
                         "--quick)")
    args = ap.parse_args(argv)
    out = args.out or (None if args.quick else ROOT)
    agree = True
    for layer in args.layers:
        result = run(layer, args.quick, args.against)
        agree &= (result["bit_identical"]
                  and result.get("against_identical", True))
        text = json.dumps(result, indent=1) + "\n"
        if out is None:
            sys.stdout.write(text)
        else:
            (out / f"BENCH_{layer}.json").write_text(text)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
