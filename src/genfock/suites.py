"""Named verification suites behind the ``verify`` subcommand.

Each suite returns a list of CheckResult rows; a row passes when its measured
deviation is at or under its tolerance.  Exact-arithmetic checks report the
count of failing cases against a tolerance of zero.  All randomness is drawn
from generators seeded by (config seed, fixed per-check salt), so a report is
a pure function of the config.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bargmann, coeffspace, dualalgebra, operators, radialkernel
from . import stirling as stirling_mod
from .coeffspace import TaylorCoeffs, _fsum, _plain
from .dualalgebra import DualSequence


@dataclass(frozen=True)
class RunConfig:
    seed: int = 2026
    kernel_level: int = 4

    def __post_init__(self):
        if self.kernel_level < 1:
            raise ValueError("kernel_level must be >= 1")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _rng(cfg: RunConfig, salt: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed & 0xFFFFFFFFFFFFFFFF, salt])


def _rand_coeffs(rng, degree: int) -> TaylorCoeffs:
    return TaylorCoeffs(rng.standard_normal(degree + 1)
                        + 1j * rng.standard_normal(degree + 1))


def _rand_dual(rng, max_len: int = 20, level: int = 1) -> DualSequence:
    n = int(rng.integers(1, max_len + 1))
    return DualSequence(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                        level)


def _guard(name: str, tolerance: float, body) -> CheckResult:
    """Run a check body returning (measured, detail); exceptions fail it."""
    try:
        measured, detail = body()
    except Exception as exc:  # a failed check must not sink the suite
        return CheckResult(name, False, math.inf, tolerance,
                           f"{type(exc).__name__}: {exc}")
    return CheckResult(name, bool(measured <= tolerance), float(measured),
                       float(tolerance), detail)


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- stirling


def _bell_numbers(count: int) -> list[int]:
    """Bell numbers by the Bell-triangle recurrence (independent of the
    partition-count triangle used in the module under test)."""
    row = [1]
    out = [1]
    for _ in range(count - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out


def _stirling_explicit(k: int, n: int) -> int:
    """Inclusion-exclusion formula, exact integers."""
    if n == 0:
        return 1 if k == 0 else 0
    acc = 0
    for i in range(n + 1):
        acc += (-1) ** i * math.comb(n, i) * (n - i) ** k
    q, r = divmod(acc, math.factorial(n))
    if r:
        raise ArithmeticError("explicit formula did not divide evenly")
    return q


def suite_stirling(cfg: RunConfig) -> list[CheckResult]:
    def triangle_vs_formula():
        bad = sum(1 for k in range(13) for n in range(k + 1)
                  if stirling_mod.stirling_s2(k, n) != _stirling_explicit(k, n))
        return bad, "k <= 12 against the inclusion-exclusion formula"

    def bell_sums():
        bell = _bell_numbers(16)
        bad = sum(1 for k in range(1, 16)
                  if sum(stirling_mod.stirling_s2(k, n)
                         for n in range(k + 1)) != bell[k])
        return bad, "row sums vs the Bell triangle, k <= 15"

    def boundaries():
        bad = sum(1 for k in range(1, 31)
                  if stirling_mod.stirling_s2(k, 1) != 1
                  or stirling_mod.stirling_s2(k, k) != 1)
        return bad, "S(k,1) = S(k,k) = 1 for k <= 30"

    def recurrence():
        bad = 0
        for k in range(1, 26):
            for n in range(1, k + 2):
                lhs = stirling_mod.stirling_s2(k + 1, n)
                rhs = (n * stirling_mod.stirling_s2(k, n)
                       + stirling_mod.stirling_s2(k, n - 1))
                bad += lhs != rhs
        return bad, "S(k+1,n) = n S(k,n) + S(k,n-1), k <= 25"

    def normal_ordering():
        bad = sum(0 if stirling_mod.verify_normal_ordering(k, 12) else 1
                  for k in range(1, 9))
        return bad, "number-power expansion exact on monomials deg <= 12"

    return [
        _guard("stirling triangle matches the explicit formula", 0,
               triangle_vs_formula),
        _guard("stirling row sums reproduce the Bell numbers", 0, bell_sums),
        _guard("stirling boundary columns are all ones", 0, boundaries),
        _guard("stirling recurrence holds across the triangle", 0, recurrence),
        _guard("normal ordering of number powers is exact", 0,
               normal_ordering),
    ]


# ----------------------------------------------------------------- kernels


def suite_kernels(cfg: RunConfig) -> list[CheckResult]:
    bessel_pts = (0.1, 0.5, 1.0, 2.0, 4.0, 10.0)

    def k1_exact():
        xs = np.geomspace(1e-6, 100.0, 25)
        worst = max(_rel(v, math.exp(-x))
                    for v, x in zip(radialkernel.radial_weight(1, xs), xs))
        return worst, "level 1 against exp(-x) on a log grid"

    def bessel_identity():
        worst = 0.0
        for x in bessel_pts:
            lhs = radialkernel.log_radial_weight_conv(2, x)
            worst = max(worst, _rel(math.exp(lhs),
                                    math.exp(radialkernel.bessel_reference_log(x))))
        return worst, "level 2 vs 2*K0(2*sqrt(x)) at six points"

    def moments():
        worst = 0.0
        for m in range(1, min(cfg.kernel_level, 4) + 1):
            for n in range(5):
                worst = max(worst, _rel(radialkernel.moment(m, n),
                                        math.factorial(n) ** m))
        return worst, "moments vs (n!)**m, n <= 4"

    def monotone_table():
        xs = np.linspace(0.01, 50.0, 100)
        bad = 0.0
        for m in range(1, 5):
            vals = radialkernel.radial_weight(m, xs)
            if np.any(vals <= 0):
                bad = max(bad, 1.0)
            bad = max(bad, float(np.max(np.diff(vals) / vals[:-1], initial=0.0)))
        return bad, "positivity and non-increase on (0.01, 50), levels <= 4"

    def representations():
        worst = 0.0
        for m in (2, 3):
            for x in (0.5, 2.0, 7.0):
                routes = [radialkernel.log_radial_weight_centered(m, x),
                          radialkernel.log_radial_weight_product(m, x),
                          radialkernel.log_radial_weight(m, x)]
                worst = max(worst, math.expm1(max(routes) - min(routes)))
        return worst, "centered vs product vs table at levels 2 and 3"

    def convolution_convergence():
        table = radialkernel.build_table(lvl)
        x = math.exp(float(table.s[table.worst_node]))
        return table.worst_change, (
            f"worst accepted halving change at level {lvl} is at node "
            f"{table.worst_node} (x = {x:.6g})")

    def reproducing():
        rng = _rng(cfg, 301)
        worst = 0.0
        for m in range(1, 7):
            f = _rand_coeffs(rng, 30)
            w = complex(*rng.uniform(-1.4, 1.4, 2))
            sec = coeffspace.kernel_section(m, w, 40)
            worst = max(worst, _rel(coeffspace.inner_product(f, sec, m),
                                    coeffspace.eval_point(f, w)))
        return worst, "inner product against a kernel section vs evaluation"

    def hermitian():
        rng = _rng(cfg, 302)
        worst = 0.0
        for m in range(1, 5):
            z = complex(*rng.uniform(-1.5, 1.5, 2))
            w = complex(*rng.uniform(-1.5, 1.5, 2))
            worst = max(worst, _rel(coeffspace.kernel_eval(m, z, w),
                                    coeffspace.kernel_eval(m, w, z).conjugate()))
        return worst, "k(z, w) vs conj(k(w, z))"

    def gram_psd():
        rng = _rng(cfg, 303)
        worst = 0.0
        for m in (1, 2, 4):
            pts = rng.uniform(-1.2, 1.2, (6, 2)) @ np.array([1, 1j])
            g = np.array([[coeffspace.kernel_eval(m, zi, zj) for zj in pts]
                          for zi in pts])
            worst = max(worst, max(0.0, -float(
                np.linalg.eigvalsh((g + g.conj().T) / 2).min())))
        return worst, "smallest Gram eigenvalue above -tol"

    def aggregation():
        worst = 0.0
        for eps in (0.25, 0.5, 0.85):
            for z in (0.3, 0.8 + 0.2j, -1.1):
                for w in (0.4, -0.6 + 0.5j, 1.2):
                    for fn in (coeffspace.aggregate_kernels_geometric,
                               coeffspace.aggregate_kernels_exponential):
                        lhs, rhs = fn(eps, z, w)
                        worst = max(worst, _rel(lhs, rhs))
        return worst, "both weighted-sum identities on the 3x3x3 grid"

    def norm_monotone():
        rng = _rng(cfg, 304)
        bad = 0
        for _ in range(40):
            f = TaylorCoeffs((0, 0) + tuple(
                rng.standard_normal(8) + 1j * rng.standard_normal(8)))
            norms = [coeffspace.norm(f, m) for m in range(1, 6)]
            bad += sum(1 for a, b in zip(norms, norms[1:])
                       if b < a * (1 - 1e-12))
        return bad, "levels order the norms once low modes vanish"

    def geometric_inner():
        rng = _rng(cfg, 305)
        worst = 0.0
        for m in (1, 2, 3):
            f = _rand_coeffs(rng, 6)
            g = _rand_coeffs(rng, 6)
            worst = max(worst,
                        _rel(radialkernel.geometric_inner_product(f, g, m),
                             coeffspace.inner_product(f, g, m)))
        return worst, "radial-moment route vs coefficient route"

    lvl = max(cfg.kernel_level, 2)
    return [
        _guard("radial weight at level 1 is the pure exponential", 1e-10,
               k1_exact),
        _guard("radial weight at level 2 matches the Bessel form", 1e-8,
               bessel_identity),
        _guard("radial moments reproduce factorial powers", 1e-6, moments),
        _guard("radial tables stay positive and non-increasing", 1e-9,
               monotone_table),
        _guard("tensor and table representations agree", 1e-6,
               representations),
        _guard(f"radial convolution converges at level {lvl}",
               radialkernel._REL_TOL, convolution_convergence),
        _guard("kernel sections reproduce point evaluation", 1e-12,
               reproducing),
        _guard("kernel is Hermitian symmetric", 1e-12, hermitian),
        _guard("kernel Gram matrices are positive semidefinite", 1e-10,
               gram_psd),
        _guard("kernel aggregation identities hold on the grid", 1e-10,
               aggregation),
        _guard("norms increase with the level on rough vectors", 0,
               norm_monotone),
        _guard("geometric inner product matches the coefficient form", 1e-6,
               geometric_inner),
    ]


# --------------------------------------------------------------- operators


def _adjoint_relation(rng, m: int | None, degree: int, draws: int) -> float:
    """Worst gap of <raising f, g> against <f, raising_adjoint g>; a level
    of None is drawn from 1..5 per pair."""
    worst = 0.0
    for _ in range(draws):
        lvl = int(rng.integers(1, 6)) if m is None else m
        f, g = _rand_coeffs(rng, degree), _rand_coeffs(rng, degree)
        lhs = coeffspace.inner_product(operators.raising(f), g, lvl)
        rhs = coeffspace.inner_product(f, operators.raising_adjoint(g, lvl),
                                       lvl)
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _norm_identity(rng, m: int | None, degree: int, draws: int) -> float:
    """Worst gap of the squared shift norm against its expansion; a level
    of None is drawn from 1..5 per element."""
    worst = 0.0
    for _ in range(draws):
        lvl = int(rng.integers(1, 6)) if m is None else m
        lhs, terms = operators.norm_identity_report(_rand_coeffs(rng, degree),
                                                    lvl)
        worst = max(worst, _rel(lhs, _fsum(terms)))
    return worst


def _commutator_failures(levels, degree: int) -> int:
    """Coefficients n <= degree at which the commutator of the sum of all
    monomials misses (n+1)**m - n**m; the commutator keeps each degree, so
    each one is a monomial's.  A disagreement of its two routes raises and
    fails the check."""
    f = TaylorCoeffs([1] * (degree + 1))
    bad = 0
    for m in levels:
        got = operators.commutator_apply(f, m)
        bad += sum(got.coeff(n) != (n + 1) ** m - n ** m
                   for n in range(degree + 1))
    return bad


def _reordering_failures(degree: int) -> int:
    return sum(0 if operators.reordering_identity_check(n, degree) else 1
               for n in range(1, 9))


def _operator_checks(m: int, degree: int, seed: int,
                     tol: float) -> list[CheckResult]:
    """The operator checks at one level, drawing from one generator."""
    coeffspace._require_level(m)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    rng = np.random.default_rng(seed)
    return [
        _guard("adjoint construction routes agree", 0, lambda: (
            0 if operators.adjoint_word_check(m, degree) else 1,
            f"m={m}, deg<={degree}")),
        _guard("commutator routes agree on monomials", 0, lambda: (
            _commutator_failures((m,), degree), f"deg<={degree}")),
        _guard("adjoint relation on random pairs", tol, lambda: (
            _adjoint_relation(rng, m, degree, 200), "200 draws")),
        _guard("shift norm identity decomposes", tol, lambda: (
            _norm_identity(rng, m, degree, 100), "100 draws")),
        _guard("reordering identities hold", 0, lambda: (
            _reordering_failures(degree), "powers <= 8")),
    ]


def suite_operators(cfg: RunConfig) -> list[CheckResult]:
    def domain_flags():
        good = TaylorCoeffs([1.0 / math.factorial(n) for n in range(30)])
        _, ok_small = operators.domain_functional(good, 3)
        huge = TaylorCoeffs([1.0] * 200)
        _, ok_huge = operators.domain_functional(huge, 5)
        bad = (0 if ok_small else 1) + (1 if ok_huge else 0)
        return bad, "finite case accepted, overflowing case flagged"

    return [
        _guard("raising operator adjoint relation holds", 1e-12, lambda: (
            _adjoint_relation(_rng(cfg, 401), None, 40, 100),
            "paired inner products, 100 draws, m <= 5, deg <= 40")),
        _guard("adjoint construction routes agree exactly", 0, lambda: (
            sum(0 if operators.adjoint_word_check(m, 25) else 1
                for m in range(1, 7)),
            "word route and expansion route, m <= 6")),
        _guard("commutator routes agree exactly on monomials", 0, lambda: (
            _commutator_failures(range(1, 7), 20),
            "direct route vs expansion route on monomials, deg <= 20")),
        _guard("shift norm identity decomposes exactly", 1e-12, lambda: (
            _norm_identity(_rng(cfg, 402), None, 20, 50),
            "squared shift norm vs its expansion, 50 draws")),
        _guard("reordering identities hold in both orders", 0, lambda: (
            _reordering_failures(20),
            "both reordering identities, powers <= 8")),
        _guard("domain functional flags growth correctly", 0, domain_flags),
    ]


# ---------------------------------------------------------------- bargmann


def suite_bargmann(cfg: RunConfig) -> list[CheckResult]:
    def unitarity():
        rng = _rng(cfg, 501)
        worst = 0.0
        for _ in range(50):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 61))
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            worst = max(worst, bargmann.unitarity_gap(c, m)["gap"])
        return worst, "50 draws, m <= 5, N <= 60"

    def round_trip():
        rng = _rng(cfg, 502)
        worst = 0.0
        for m in range(1, 6):
            c = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            back = bargmann.inverse(bargmann.forward(c, m), m)
            worst = max(worst, max(_rel(x, y) for x, y in zip(c, back)))
        return worst, "inverse(forward(c)) against c"

    def quadrature_agreement():
        rng = _rng(cfg, 503)
        worst = 0.0
        for m in (1, 2, 3):
            c = rng.standard_normal(15) + 1j * rng.standard_normal(15)
            for z in (0.5, -1.2 + 0.8j, 1.9j):
                via_q = bargmann.transform_via_quadrature(c, m, z)
                direct = coeffspace.eval_point(bargmann.forward(c, m), z)
                worst = max(worst, _rel(via_q, direct))
        return worst, "integral route vs coordinate route, |z| <= 2"

    def orthonormality():
        dev = bargmann.HermiteEvaluation.build(40).orthonormality_deviation()
        return dev, "Gauss rule pairing vs identity, indices <= 40"

    def sup_bound():
        worst = float(bargmann.eta_sup_on_grid(200).max())
        return worst, "max |eta_n| over a dense grid, n <= 200"

    def closed_form():
        worst = 0.0
        variant_gap = 0.0
        for z in (0.3, -0.7 + 0.4j, 1.1j):
            for t in (-1.0, 0.2, 2.5):
                vals = bargmann.classic_kernel_values(z, t)
                worst = max(worst, _rel(vals["series"],
                                        vals["generating_form"]))
                variant_gap = max(variant_gap,
                                  _rel(vals["series"],
                                       vals["gaussian_variant"]))
        return worst, (f"generating form matches; plain Gaussian variant "
                       f"differs by up to {variant_gap:.3f}")

    return [
        _guard("coordinate transform is unitary", 1e-12, unitarity),
        _guard("transform round trip is lossless", 1e-15, round_trip),
        _guard("quadrature evaluation matches the coordinate image", 1e-8,
               quadrature_agreement),
        _guard("discrete orthonormality of the Hermite family", 1e-8,
               orthonormality),
        _guard("uniform bound on the Hermite family", bargmann.HERMITE_SUP_BOUND,
               sup_bound),
        _guard("level-1 kernel matches its generating form", 1e-10,
               closed_form),
    ]


# -------------------------------------------------------------------- dual


def _product_inequality(rng, trials: int, gap: int,
                        p: int | None = None) -> tuple[int, float]:
    """(violations, worst lhs/bound) of the product inequality at levels
    (p, p + gap) on random dual pairs; p None draws it from 1..4 per pair."""
    violations, worst_ratio = 0, 0.0
    for _ in range(trials):
        lvl = int(rng.integers(1, 5)) if p is None else p
        a = _rand_dual(rng, level=lvl)
        b = _rand_dual(rng, level=lvl + gap)
        lhs, bound, holds = dualalgebra.vage_check(a, b, lvl, lvl + gap)
        violations += 0 if holds else 1
        if bound > 0:
            worst_ratio = max(worst_ratio, lhs / bound)
    return violations, worst_ratio


def suite_dual(cfg: RunConfig) -> list[CheckResult]:
    def constant_gap_one():
        return (_rel(dualalgebra.vage_constant(1), math.sqrt(math.e)),
                "A(1) vs sqrt(e)")

    def constant_gap_two():
        return (_rel(dualalgebra.vage_constant(2) ** 2, float(np.i0(2.0))),
                "A(2)^2 vs the modified Bessel value")

    def product_inequality():
        rng = _rng(cfg, 601)
        runs = [_product_inequality(rng, 200, gap) for gap in (1, 2, 3)]
        worst_ratio = max(w for _, w in runs)
        return (sum(v for v, _ in runs),
                f"600 draws; worst lhs/bound = {worst_ratio:.6f}")

    def algebra_axioms():
        rng = _rng(cfg, 602)
        bad = 0
        for _ in range(30):
            a, b, c = (DualSequence(rng.integers(-5, 6, rng.integers(1, 8))
                                    .tolist()) for _ in range(3))
            ab = dualalgebra.cauchy_product(a, b)
            bad += dualalgebra.cauchy_product(ab, c) != dualalgebra.cauchy_product(
                a, dualalgebra.cauchy_product(b, c))
            bad += ab != dualalgebra.cauchy_product(b, a)
            bad += dualalgebra.cauchy_product(a, DualSequence.unit()) != a
        return bad, "associativity, commutativity, unit on integer vectors"

    def norm_chain():
        rng = _rng(cfg, 603)
        bad = 0
        for _ in range(40):
            b = _rand_dual(rng)
            norms = [dualalgebra.dual_norm(b, m) for m in range(1, 8)]
            bad += sum(1 for hi, lo in zip(norms, norms[1:])
                       if lo > hi * (1 + 1e-12))
        return bad, "dual norms weaken as the level grows"

    def level_one_match():
        rng = _rng(cfg, 604)
        worst = 0.0
        for _ in range(20):
            b = _rand_dual(rng)
            worst = max(worst, _rel(dualalgebra.dual_norm(b, 1),
                                    coeffspace.norm(TaylorCoeffs(b.coeffs), 1)))
        return worst, "dual level 1 vs the base norm"

    def pairing_bound():
        rng = _rng(cfg, 605)
        bad = 0
        for _ in range(50):
            m = int(rng.integers(1, 6))
            f = _rand_coeffs(rng, 12)
            b = _rand_dual(rng, 13)
            lhs = abs(dualalgebra.pairing(f, b))
            rhs = coeffspace.norm(f, m) * dualalgebra.dual_norm(b, m)
            bad += lhs > rhs * (1 + 1e-12)
        return bad, "pairing vs cross-level Cauchy-Schwarz, 50 draws"

    def riemann_order():
        rng = _rng(cfg, 606)
        a0, a1 = _rand_dual(rng, 6), _rand_dual(rng, 6)
        b0, b1 = _rand_dual(rng, 6), _rand_dual(rng, 6)
        exact = _integral_of_linear_paths(a0, a1, b0, b1)
        order = dualalgebra.refinement_order(
            lambda t: _lin(a0, a1, t), lambda t: _lin(b0, b1, t), exact)
        return abs(order - 2.0), f"measured order {order:.4f}"

    def constant_paths():
        rng = _rng(cfg, 607)
        a, b = _rand_dual(rng, 8), _rand_dual(rng, 8)
        got = dualalgebra.riemann_integral_product(
            dualalgebra.sample_path(lambda t: a),
            dualalgebra.sample_path(lambda t: b))
        want = dualalgebra.cauchy_product(a, b)
        return dualalgebra.dual_distance(got, want, 2), "f, g constant in t"

    return [
        _guard("convolution constant at gap one is sqrt(e)", 1e-12,
               constant_gap_one),
        _guard("convolution constant at gap two squares to Bessel", 1e-13,
               constant_gap_two),
        _guard("product inequality holds on every draw", 0,
               product_inequality),
        _guard("convolution algebra axioms hold exactly", 0, algebra_axioms),
        _guard("dual norm chain is monotone in the level", 0, norm_chain),
        _guard("dual norm at level one matches the base norm", 1e-12,
               level_one_match),
        _guard("duality pairing obeys its Cauchy-Schwarz bound", 0,
               pairing_bound),
        _guard("path integral converges at second order", 0.1, riemann_order),
        _guard("constant paths integrate to the plain product", 1e-13,
               constant_paths),
    ]


def _lin(x0: DualSequence, x1: DualSequence, t: float) -> DualSequence:
    width = max(len(x0.coeffs), len(x1.coeffs))
    return DualSequence((x0.coeff(n) + t * x1.coeff(n) for n in range(width)),
                        max(x0.level, x1.level))


def _integral_of_linear_paths(a0, a1, b0, b1) -> DualSequence:
    """Exact integral over [0, 1] of (a0 + t a1) * (b0 + t b1)."""
    cp = dualalgebra.cauchy_product
    pieces = [(1.0, cp(a0, b0)), (0.5, cp(a0, b1)), (0.5, cp(a1, b0)),
              (1.0 / 3.0, cp(a1, b1))]
    width = max(len(s.coeffs) for _, s in pieces)
    acc = [0j] * width
    for wgt, s in pieces:
        for n, c in enumerate(_plain(s.coeffs)):
            acc[n] += wgt * c
    return DualSequence(acc, max(s.level for _, s in pieces))


# ------------------------------------------------------------------ runner

_SUITES = {
    "stirling": suite_stirling,
    "kernels": suite_kernels,
    "operators": suite_operators,
    "bargmann": suite_bargmann,
    "dual": suite_dual,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg: RunConfig, suite: str) -> dict:
    """Execute one suite (or 'all') and return the report document."""
    if suite == "all":
        checks = []
        for name in SUITE_NAMES:
            checks.extend(_SUITES[name](cfg))
    elif suite in _SUITES:
        checks = _SUITES[suite](cfg)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(SUITE_NAMES + ('all',))}")
    rows = [asdict(c) for c in checks]
    return {
        "suite": suite,
        "config": asdict(cfg),
        "checks": rows,
        "n_checks": len(rows),
        "n_passed": sum(r["passed"] for r in rows),
        "passed": all(r["passed"] for r in rows),
    }
