"""Radial weights by chained multiplicative convolution.

The level-1 weight is exp(-x); each further level is the multiplicative
self-convolution of the previous one.  Level 2 has the closed form
2*K0(2*sqrt(x)), which anchors the whole chain to an external special
function.  Everything here runs against module-level cached tables, so the
chain is built once per session.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.special as sp

import genfock.radialkernel as rk
from genfock.radialkernel import (
    _local_cubic,
    _log_conv,
    _log_k1,
    _log_residue,
    _residue_coeffs,
    _zeta_int,
    KernelTable,
    QuadratureConvergenceError,
    bessel_reference_log,
    build_table,
    geometric_inner_product,
    log_mellin_convolve,
    log_radial_weight,
    log_radial_weight_centered,
    log_radial_weight_conv,
    log_radial_weight_product,
    mellin_step,
    moment,
    radial_weight,
    radial_weight_point,
    small_x_moment_bound,
)
from genfock.coeffspace import TaylorCoeffs, inner_product

# frozen closed-form anchors: 2*K0(2*sqrt(x)) at x = 1 and x = 4,
# double-precision values of the scipy Bessel routine
TWO_K0_2 = 0.2277877454990668
TWO_K0_4 = 0.022319352171706046


def bessel_k0_quadrature(z: float, step: float = 0.05) -> float:
    """K0(z) from its cosh integral, by trapezoid on the even integrand.

    Single-purpose oracle, independent of every convolution path and of
    library Bessel routines.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    # integrand exp(-z*cosh(u)) on [0, U]; dead once z*cosh(U) ~ z + 50
    u_max = math.acosh((50.0 / z) + 1.0) + step
    n = int(math.ceil(u_max / step)) + 1
    u = np.linspace(0.0, n * step, n + 1)
    vals = np.exp(-z * np.cosh(u) + z)
    total = (float(np.sum(vals)) - 0.5 * (float(vals[0]) + float(vals[-1])))
    return total * step * math.exp(-z)


# ----------------------------------------------------------------- level 1


def test_level1_is_exact_exponential():
    for x in (1e-12, 0.5, 1.0, 37.2, 500.0):
        assert log_radial_weight(1, x) == -x
        assert radial_weight(1, x) == math.exp(-x)


# ----------------------------------------------------------------- level 2


def test_level2_matches_bessel_closed_form():
    # between nodes the table differs from the closed form in log by up to
    # 3e-12 on [1e-20, 1], 1.8e-12 on [1, 1e3] and 5e-13 on [1e3, 1e6]
    assert radial_weight(2, 1.0) == pytest.approx(TWO_K0_2, rel=1e-8)
    assert radial_weight(2, 4.0) == pytest.approx(TWO_K0_4, rel=1e-8)


def test_level2_closed_form_across_decades():
    for x in (1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5):
        got = log_radial_weight(2, x)
        want = bessel_reference_log(x)
        assert got == pytest.approx(want, abs=5e-9)


def test_level2_table_within_gate_between_nodes():
    # the kernels suite and the benchmark gate at 1e-6 in log; the table
    # reaches 3e-12 over 20 000 log-uniform points
    rng = np.random.default_rng(2)
    xs = np.exp(rng.uniform(math.log(1e-20), math.log(1e6), 200))
    want = np.array([bessel_reference_log(x) for x in xs])
    assert np.max(np.abs(log_radial_weight(2, xs) - want)) <= 1e-10


def test_level2_table_tracks_bessel_densely():
    # the table's level-2 error, dominated by the interpolation between
    # nodes: 2.99e-12 in log at most
    xs = np.geomspace(1e-20, 1e6, 20_001)
    want = np.array([bessel_reference_log(x) for x in xs])
    assert np.max(np.abs(log_radial_weight(2, xs) - want)) <= 3.1e-12


@pytest.mark.parametrize("lo, hi", [(1e-30, 1e-26), (1e9, 1e17)])
def test_level2_end_bands_hold_double_precision(lo, hi):
    # the grid's bottom decades interpolate the residue model's nodes, and
    # above the grid the large-argument model continues the top node's
    # value and slope; both stay within a few ulps of 2*K0(2*sqrt x),
    # measured relative to max(1, |log K|) (8.7e-16 and 8.9e-16 measured)
    w = np.linspace(math.log(lo), math.log(hi), 20_001)
    want = np.array([bessel_reference_log(x) for x in np.exp(w)])
    err = np.abs(build_table(2).log_eval_log_arg(w) - want)
    assert np.max(err / np.maximum(1.0, np.abs(want))) <= 1.5e-15


def test_level2_relative_error_at_moderate_points():
    # the linear-scale comparison against an independently quadratured
    # Bessel value, on points where neither side under- or overflows
    for x in (0.1, 0.5, 1.0, 2.0, 4.0, 10.0):
        want = 2.0 * bessel_k0_quadrature(2.0 * math.sqrt(x))
        assert radial_weight(2, x) == pytest.approx(want, rel=1e-8)


def test_direct_convolution_point_matches_bessel():
    # single fresh convolution of K_1 and the exact level-1 table: nothing
    # is interpolated
    for x in (0.25, 1.0, 9.0):
        got = log_radial_weight_conv(2, x)
        assert got == pytest.approx(bessel_reference_log(x), abs=1e-11)


def test_convolution_route_states_its_admissible_x():
    # the rung's window [ln x - 8, s[-1] + 4] closes at x = exp(s[-1] + 12),
    # about 1.6e14; nan, inf and 1e300 failed with "window must satisfy
    # lo < hi", and 1.5e14 still holds the Bessel form
    for x in (math.nan, math.inf, 1e300):
        for m in (2, 3):
            with pytest.raises(ValueError, match=r"needs 0 < x < 1\.628e\+14"):
                log_radial_weight_conv(m, x)
    got, want = log_radial_weight_conv(2, 1.5e14), bessel_reference_log(1.5e14)
    assert abs(got - want) <= 4e-15 * abs(want)


def test_k0_quadrature_against_scipy():
    for z in (0.5, 1.0, 2.0, 4.0, 7.5):
        assert bessel_k0_quadrature(z) == pytest.approx(
            float(sp.k0(z)), rel=1e-10, abs=0
        )


# ------------------------------------------------------------------ moments


@pytest.mark.parametrize("m", [1, 2, 3])
def test_moments_are_factorial_powers(m):
    for n in range(0, 5):
        want = float(math.factorial(n) ** m)
        assert moment(m, n) == pytest.approx(want, rel=1e-7)


def test_moment_rejects_negative_order():
    with pytest.raises(ValueError):
        moment(2, -1)


def test_geometric_inner_product_matches_coefficient_form():
    f = TaylorCoeffs([1.0, 0.5 - 0.25j, 0.125])
    g = TaylorCoeffs([2.0, 1j, -0.5])
    for m in (1, 2):
        got = geometric_inner_product(f, g, m)
        want = inner_product(f, g, m)
        assert got == pytest.approx(want, rel=1e-6)


# -------------------------------------------------------------- the tables


def test_table_is_monotone_decreasing():
    for m in (2, 3, 4):
        t = build_table(m)
        assert np.all(np.diff(t.logk) < 0.0)


def test_table_chain_reuses_cache():
    a = build_table(3)
    b = build_table(3)
    assert a is b


def test_eval_outside_domain_raises():
    t = build_table(2)
    with pytest.raises(ValueError):
        t.eval(0.0)
    with pytest.raises(ValueError):
        t.log_eval(-1.0)
    lo, hi = rk._X_MIN, rk._X_MAX
    xs = np.geomspace(lo, hi, 256)
    for i, bad in ((17, lo * (1 - 1e-12)), (200, hi * (1 + 1e-12))):
        ys = xs.copy()
        ys[i] = bad
        with pytest.raises(ValueError):
            t.log_eval(ys)
    assert t.log_eval(xs).shape == (256,)
    assert t.log_eval(np.array([])).shape == (0,)
    # NaN is not outside the domain: it passes through, and does not hide a
    # point that is
    assert np.isnan(t.log_eval(math.nan))
    with pytest.raises(ValueError):
        t.log_eval(np.array([math.nan, 2 * hi]))


def test_small_argument_model_follows_level2_below_the_grid():
    # below the grid the residue model takes over; at level 2 it is
    # -log x - 2*gamma, which 2*K0(2*sqrt x) follows to O(x log x)
    t = build_table(2)
    s0 = float(t.s[0])
    for dw in (1e-9, 1.0, 10.0, 30.0):
        got = float(t.log_eval_log_arg(np.array([s0 - dw]))[0])
        assert got == pytest.approx(bessel_reference_log(math.exp(s0 - dw)),
                                    abs=1e-12)


def test_large_argument_model_follows_level2_above_the_grid():
    # above the grid the asymptotic form takes over, matched in value and
    # slope to the interpolant at the top node, whose slope there is the
    # 5-point one-sided difference; at level 2 it stays on 2*K0(2*sqrt x)
    # (5e-10 measured 8 log-units up)
    t = build_table(2)
    s1 = float(t.s[-1])
    for dw in (1e-9, 1.0, 4.0, 8.0):
        got = float(t.log_eval_log_arg(np.array([s1 + dw]))[0])
        assert got == pytest.approx(bessel_reference_log(math.exp(s1 + dw)),
                                    abs=1e-8)
    for m in (3, 10):
        t = build_table(m)
        s1 = float(t.s[-1])
        inside, above = t.log_eval_log_arg(np.array([s1 - 1e-9, s1 + 1e-9]))
        assert above == pytest.approx(inside, abs=1e-5)


@pytest.mark.parametrize("m", [2, 3, 10])
def test_parent_evaluation_is_the_masked_reference_bitwise(m):
    # one spline call on the whole array, the end models written over it,
    # against evaluating each region on its own points: the spline minus
    # the stretched exponential inside, the end models outside.  Above the
    # grid the evaluator subtracts m*exp(w/m) once for all points; the
    # model in one expression must come out the same bits
    t = build_table(m)
    s0, s1 = float(t.s[0]), float(t.s[-1])
    rng = np.random.default_rng(m)
    w = np.concatenate([t.s[::97], t.s[[0, -1]],
                        rng.uniform(s0 - 20.0, s1 + 20.0, 400),
                        [s0 - 1e-9, s0 + 1e-9, s1 - 1e-9, s1 + 1e-9]])
    rng.shuffle(w)
    want = np.empty_like(w)
    inside = (w >= s0) & (w <= s1)
    below, above = w < s0, w > s1
    want[inside] = t._spline(w[inside]) - m * np.exp(w[inside] / m)
    want[below] = _log_residue(m, w[below])
    c0, slope, c1 = t._top
    wa = w[above]
    want[above] = c0 + slope * wa + c1 * np.exp(-wa / m) - m * np.exp(wa / m)
    assert below.any() and above.any()
    got = t.log_eval_log_arg(w)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    grid = t.log_eval_log_arg(w[:400].reshape(4, 100))
    assert np.array_equal(grid.ravel().view(np.int64),
                          want[:400].view(np.int64))
    assert t.log_eval_log_arg(np.array([])).shape == (0,)


@pytest.mark.parametrize("m", range(2, 7))
def test_table_interpolant_is_c1_through_its_nodes(m):
    # every node but the last is returned exactly from its own interval;
    # the cubic of the interval below a node ends on its value and slope to
    # rounding, and the model above the grid leaves the last node with the
    # slope that _local_cubic returns for it
    t = build_table(m)
    y = t.logk + m * np.exp(t.s / m)
    assert np.array_equal(t._spline(t.s[:-1]), y[:-1])
    _, c3, c2, c1, c0 = t._coef
    d = np.diff(t.s)
    end_value = ((c3 * d + c2) * d + c1) * d + c0
    end_slope = (3.0 * c3 * d + 2.0 * c2) * d + c1
    scale = float(np.max(np.abs(y)))
    assert np.max(np.abs(end_value - y[1:])) <= 1e-15 * scale
    assert np.max(np.abs(end_slope[:-1] - c1[1:])) <= 1e-15 * scale / d[0]
    _, top_slope = _local_cubic(t.s, y)
    assert abs(end_slope[-1] - top_slope) <= 1e-15 * scale / d[0]
    _, slope, c1_top = t._top
    model_slope = slope - c1_top / m * math.exp(-float(t.s[-1]) / m)
    assert abs(model_slope - top_slope) <= 1e-15 * scale / d[0]


@pytest.mark.parametrize("n", [5, 6, 17, 300, 5000])
def test_local_cubic_is_exact_on_cubics_and_its_slopes_on_quartics(n):
    # the stencils are exact on quartics, so cubic Hermite pieces with
    # those slopes reproduce any cubic; what is left is rounding.  A slope
    # weighs at most seven values by at most 128/12 in sum, over h, so its
    # rounding is a few eps * max|y| / h (3.7e-15 max|y| / h measured), and
    # the cubic's is under 1e-15 of max|y| (6.6e-16 measured).  Each point
    # finds its interval by bisection rather than by the table's uniform
    # index
    s = np.linspace(-3.0, 4.0, n)
    h = 7.0 / (n - 1)
    w = np.random.default_rng(n).uniform(-3.0, 4.0, 10_000)
    i = np.clip(np.searchsorted(s, w, side="right") - 1, 0, n - 2)
    for seed in range(10):
        quartic = np.random.default_rng(seed).normal(size=5)
        for poly in (quartic, quartic[1:]):
            y = np.polyval(poly, s)
            scale = float(np.max(np.abs(y)))
            coef, top_slope = _local_cubic(s, y)
            assert np.array_equal(coef[0], s[:-1])
            assert np.array_equal(coef[4], y[:-1])
            want = np.polyval(np.polyder(poly), s)
            assert np.max(np.abs(coef[3] - want[:-1])) <= 2e-14 * scale / h
            assert abs(top_slope - want[-1]) <= 2e-14 * scale / h
        # the last poly is the cubic
        x, c3, c2, c1, c0 = coef[:, i]
        t = w - x
        got = ((c3 * t + c2) * t + c1) * t + c0
        assert np.max(np.abs(got - np.polyval(poly, w))) <= 2e-15 * scale
    with pytest.raises(ValueError):
        _local_cubic(s[:4], y[:4])


def test_zeta_at_integers_is_scipys_double():
    for k in range(2, 41):
        assert _zeta_int(k) == float(sp.zeta(k))


def test_table_lookup_passes_nan_quietly():
    t = build_table(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(t.log_eval(float("nan")))
        got = t.log_eval(np.array([np.nan, 1.0]))
        assert np.isnan(got[0]) and np.isfinite(got[1])
        assert np.isnan(t.log_eval_log_arg(np.array([np.nan]))[0])


def _gammaincc_terms(m, n, x0):
    """The moment bound's terms e_j Q(k, z) / (n+1)**k through scipy."""
    k = np.arange(m, 0, -1)
    z = (n + 1) * -math.log(x0)
    return np.array(_residue_coeffs(m)) * sp.gammaincc(k, z) / (n + 1.0) ** k


def test_small_x_moment_bound_matches_the_gammaincc_formula():
    # scipy's gammaincc errs by up to 1e-13 relative at these z, and the
    # alternating e_j of high levels cancel, so the bound is held to the
    # size of its terms (9e-14 measured); gammaincc flushes to 0 where its
    # exponent falls below -709.78, and those cases are left out
    for m in range(1, 13):
        for n in range(31):
            for x0 in (1e-30, 1e-16, 1e-8):
                terms = _gammaincc_terms(m, n, x0)
                size = float(np.sum(np.abs(terms)))
                if size < 1e-290:
                    continue
                got = small_x_moment_bound(m, n, x0)
                assert abs(got - float(np.sum(terms))) <= 2e-13 * size


def test_small_x_moment_bound_against_mpmath():
    # the finite sum for Q at integer order, against 30-digit incomplete
    # gamma values: 6e-14 relative measured at m = 12, where the terms
    # cancel; the scipy formula of the test above is off by 1.1e-11 there
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for m in (1, 2, 5, 12):
            e = _residue_coeffs(m)
            for n in range(0, 31, 3):
                for x0 in (1e-30, 1e-16, 1e-8):
                    z = mpmath.mpf((n + 1) * -math.log(x0))
                    want = float(mpmath.fsum(
                        mpmath.mpf(e[m - k]) * mpmath.gammainc(
                            k, z, regularized=True) / mpmath.mpf(n + 1) ** k
                        for k in range(1, m + 1)))
                    if abs(want) < 1e-290:
                        continue
                    assert small_x_moment_bound(m, n, x0) == pytest.approx(
                        want, rel=1e-13, abs=0)


def test_small_x_mass_is_negligible_at_grid_bottom():
    # the weight mass lost below the default grid is irrelevant next to
    # every tolerance used in the moment checks
    assert small_x_moment_bound(2, 0, 1e-30) < 1e-20


def test_small_x_moment_matches_meijer_g_quadrature():
    # the whole residue sum, against quadrature of K_m = G^{m,0}_{0,m} on
    # (0, x0); its leading term alone is off by 19% here
    mpmath = pytest.importorskip("mpmath")
    m, n, x0 = 3, 2, 1e-8
    with mpmath.workdps(20):
        want = float(mpmath.quad(lambda x: x ** n * mpmath.meijerg(
            [[], []], [[0] * m, []], x), [0, x0]))
    assert small_x_moment_bound(m, n, x0) == pytest.approx(want, rel=1e-7,
                                                           abs=0.0)


def test_mellin_step_reproduces_level2():
    t1 = build_table(1)
    for x in (0.5, 2.0):
        got = mellin_step(t1, x)
        assert got == pytest.approx(math.exp(bessel_reference_log(x)), rel=1e-9)


@pytest.mark.parametrize("m", [6, 7, 8, 10, 14, 20])
def test_high_levels_build(m):
    # every node reaches _REL_TOL, or the build raises
    t = build_table(m)
    assert np.all(np.isfinite(t.logk))
    assert np.all(np.diff(t.logk) < 0.0)


@pytest.mark.parametrize("m", range(2, 11))
def test_tables_match_meijer_g(m):
    # K_m(x) = G^{m,0}_{0,m}(x | 0, ..., 0), an oracle outside the chain
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for k in (-20, -14, -8, -3, 0, 2, 4):
        x = 10.0 ** k
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.meijerg(
                [[], []], [[0] * m, []], mpmath.mpf(x), maxterms=10 ** 6)))
        worst = max(worst, abs(math.expm1(float(log_radial_weight(m, x)) - ref)))
    assert worst <= 1e-11


@pytest.mark.parametrize("m", range(2, 9))
def test_residue_nodes_match_meijer_g(m):
    # the nodes below 1e-16 hold the residue model, exact to double
    # precision there (4e-15 measured); by quadrature they were off by up
    # to 4e-13 at m = 8
    mpmath = pytest.importorskip("mpmath")
    t = build_table(m)
    for x in (1e-30, 1e-27, 1e-24, 1e-20, 1e-18, 1e-17):
        i = int(np.argmin(np.abs(t.s - math.log(x))))
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.meijerg(
                [[], []], [[0] * m, []], mpmath.exp(float(t.s[i])))))
        assert abs(float(t.logk[i]) - ref) <= 1e-14


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pointwise_rung_reproduces_table_nodes(m):
    t = build_table(m)
    for i in range(0, len(t.s), 331):
        got = log_radial_weight_conv(m, math.exp(float(t.s[i])))
        assert got == pytest.approx(float(t.logk[i]), abs=1e-11)


def test_radial_weight_point_agrees_with_table():
    # the tensor quadrature that m = 2, 3 once ran refused x = 3e-26 and
    # 1e-14, and took about 9 s at 2e-14
    for m, x in [(2, 0.7), (3, 1.3), (2, 3e-26), (3, 1e-14), (3, 2e-14)]:
        want = float(np.exp(log_radial_weight(m, x)))
        start = time.perf_counter()
        assert radial_weight_point(m, x) == want
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("m", [4, 5, 8])
def test_radial_weight_point_falls_back_to_one_rung_off_the_table(m):
    # outside the tables' domain [1e-30, 1e9] a level m >= 4 point takes one
    # convolution rung over the level below; inside it stays the table's
    for x in (1e-31, 1e-40, 1e10):
        with pytest.raises(ValueError):
            log_radial_weight(m, x)
        want = log_radial_weight_conv(m, x)
        assert radial_weight_point(m, x) == float(np.exp(want))
    if m == 4:
        # below the grid against Meijer-G (8e-16 measured); above it, where
        # mpmath does not converge, against the value first measured
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.meijerg(
                [[], []], [[0] * m, []], mpmath.mpf(1e-31))))
        assert abs(log_radial_weight_conv(m, 1e-31) - ref) <= 1e-14 * ref
        assert log_radial_weight_conv(m, 1e10) == pytest.approx(-1271.48,
                                                                abs=1e-2)
    for x in (1e-30, 0.3, 1e9):
        assert radial_weight_point(m, x) == float(np.exp(log_radial_weight(m,
                                                                           x)))
    # the rung's window closes at about 1.6e14
    with pytest.raises(ValueError, match="convolution route"):
        radial_weight_point(m, 2e14)
    with pytest.raises(ValueError):
        radial_weight_point(m, 0.0)


# --------------------------------------------------- alternate repr routes


@pytest.mark.parametrize("m,x", [(2, 0.5), (3, 1.0), (3, 4.0), (4, 2.0)])
def test_tensor_representations_agree(m, x):
    tab = log_radial_weight(m, x)
    cen = log_radial_weight_centered(m, x)
    pro = log_radial_weight_product(m, x)
    assert cen == pytest.approx(pro, abs=1e-10)
    assert tab == pytest.approx(cen, abs=5e-9)


# ------------------------------------------------------- failure behaviour


def test_refinement_exhaustion_raises_with_diagnostics():
    # exp(-|w| - w*w) has a kink, so the trapezoid rule converges only as
    # h**2 there, and every halving leaves a change above the tolerance
    with pytest.raises(QuadratureConvergenceError) as info:
        log_mellin_convolve(lambda w: -np.abs(w) - w * w, _log_k1, 0.0)
    err = info.value
    assert rk._REL_TOL < err.achieved < 1e-3
    assert err.rel_tol == rk._REL_TOL
    assert "stalled" in str(err)


def test_public_node_that_stalls_still_raises():
    # level 38 is the first whose build stalls: its worst node changes by
    # 1.07e-9 on its last halving; the levels below it are kept
    with pytest.raises(QuadratureConvergenceError) as info:
        build_table(38)
    assert rk._REL_TOL < info.value.achieved < 1e-8
    assert 38 not in rk._TABLE_CACHE
    assert build_table(37).worst_change <= rk._REL_TOL


def test_log_mellin_convolve_exponential_pair():
    # fresh engine run on the analytic level-1 pair at one point
    val = log_mellin_convolve(lambda s: -np.exp(s), lambda s: -np.exp(s), 0.0)
    assert val == pytest.approx(bessel_reference_log(1.0), abs=1e-11)


# ------------------------------------------------------ the batched engine


def test_batched_rows_match_single_point_calls():
    # 150 level-3 rungs span three blocks; no row may feel its neighbours
    parent = build_table(2)
    hi = float(parent.s[-1])
    s = np.linspace(-60.0, 15.0, 150)
    val, achieved = _log_conv(_log_k1, parent.log_eval_log_arg, s, s - 8.0,
                              hi)
    assert np.all(achieved <= rk._REL_TOL)
    single = [log_mellin_convolve(_log_k1, parent.log_eval_log_arg, si,
                                  window=(si - 8.0, hi)) for si in s]
    assert np.max(np.abs(val - single)) <= 1e-13


def test_level_build_samples_the_parent_once_per_lattice_point(monkeypatch):
    # rows of a block share the parent's lattice samples; per-row private
    # grids asked the level-3 table for about 6e6 points here, and per-row
    # peak sharpening for about 2.5e5
    parent, want = build_table(3), build_table(4)
    monkeypatch.setattr(rk, "_TABLE_CACHE", {3: parent})
    evaluate = KernelTable.log_eval_log_arg
    points = []

    def counted(self, w):
        points.append(np.size(w))
        return evaluate(self, w)

    monkeypatch.setattr(KernelTable, "log_eval_log_arg", counted)
    fresh = build_table(4)
    assert fresh is not want
    assert sum(points) <= 1.0e5
    assert np.array_equal(fresh.logk, want.logk)


def test_halvings_sample_only_new_points():
    # nested refinement: every u of the trapezoid passes is sampled once.
    # exp(-|w| - w*w) has a kink, so the trapezoid rule converges only as
    # h**2 there and all four halvings run before the typed error: the
    # fused pass holds the first, each later one is a pass of its own
    cs = rk._COARSE_STEP
    kinked = rk._MAX_REFINEMENTS
    for log_w, passes in ((np.exp, 1),
                          (lambda w: np.abs(w) + w * w, kinked)):
        calls = []

        def log_f(w):
            calls.append(np.array(w, dtype=float))
            return -log_w(w)

        try:
            val = log_mellin_convolve(log_f, _log_k1, 0.0)
        except QuadratureConvergenceError:
            assert passes == kinked
        else:
            assert val == pytest.approx(bessel_reference_log(1.0), abs=1e-11)
        # the scout comes first and samples the coarse lattice
        # u = j*_COARSE_STEP (at ln x = 0, u = -w); the trapezoid passes
        # follow, each off it: one pass over the lattice of half the first
        # step holds the first sum and its halving, and each later halving
        # samples only the new odd points
        scout = [bool(np.all(np.mod(c, cs) == 0.0)) for c in calls]
        first = scout.index(False)
        assert not any(scout[first:])
        refinement = calls[first:]
        assert len(refinement) == passes
        u = np.concatenate(refinement)
        assert np.unique(u).size == u.size


def test_single_point_takes_at_most_three_engine_passes():
    # peak and width come from the scout itself: one scout pass, then one
    # pass over the lattice of half the first step that gives the first
    # trapezoid sum and its halving, and a second halving where that one
    # does not accept.  So a point whose first halving accepts takes two
    # passes, plus one for each time its scout window grows (once, at the
    # top point).  The passes are counted on the second factor, which gets
    # u = j*h itself; the scout's lie on the lattice of _COARSE_STEP
    scouts = []
    for ln_x in np.linspace(math.log(1e-20), math.log(1e9), 59):
        calls = []

        def log_g(u):
            calls.append(bool(np.all(np.mod(u, rk._COARSE_STEP) == 0.0)))
            return -np.exp(u)

        log_mellin_convolve(_log_k1, log_g, float(ln_x))
        assert len(calls) <= 3
        scouts.append(sum(calls))
        # with one halving allowed, a point that still converges is one
        # whose first halving accepts
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rk, "_MAX_REFINEMENTS", 1)
            try:
                log_mellin_convolve(_log_k1, _log_k1, float(ln_x))
            except QuadratureConvergenceError:
                continue
        assert len(calls) == scouts[-1] + 1
    assert scouts == [1] * 58 + [2]


def test_depth0_rung_reads_the_parent_only_from_stored_values(monkeypatch):
    # a depth-0 rung whose first halving accepts samples the scout's
    # lattice and the lattice of step _TARGET_STEP / 2, both stored on the
    # parent table, so the parent evaluates nothing
    evaluated, steps = [], []
    evaluate, stored = KernelTable.log_eval_log_arg, KernelTable.lattice_log

    def counted(self, w):
        evaluated.append(np.size(w))
        return evaluate(self, w)

    def lattice_log(self, h, j):
        steps.append(h)
        return stored(self, h, j)

    for m, x in ((3, 1e-6), (4, 1e-3)):
        build_table(m - 1)
        monkeypatch.setattr(KernelTable, "log_eval_log_arg", counted)
        monkeypatch.setattr(KernelTable, "lattice_log", lattice_log)
        log_radial_weight_conv(m, x)
        monkeypatch.undo()
        assert steps == [rk._COARSE_STEP, rk._TARGET_STEP / 2]
        assert evaluated == []
        steps.clear()


@pytest.mark.parametrize("m", range(1, 7))
def test_stored_lattice_values_are_the_tables_own_bitwise(m):
    # each stored value is what log_eval_log_arg gives on the engine's own
    # u = h*j, here evaluated in runs of 1 to 300 indices as a block asks
    # for them, over the whole stored range, both end models included
    t = build_table(m)
    rng = np.random.default_rng(m)
    assert list(t._stored) == [rk._COARSE_STEP, rk._TARGET_STEP / 2]
    for h, (start, vals) in t._stored.items():
        assert not vals.flags.writeable
        j = np.arange(start, start + len(vals))
        assert h * j[0] < t.s[0] - 40.0 and h * j[-1] > t.s[-1] + 36.0
        cuts = np.cumsum(rng.integers(1, 300, size=len(j)))
        for run in np.split(j, cuts[cuts < len(j)]):
            got = t.lattice_log(h, run)
            assert np.shares_memory(got, vals)
            assert got.tobytes() == t.log_eval_log_arg(h * run).tobytes()


def test_table_and_its_callable_give_the_same_rung_bitwise(monkeypatch):
    # one block over the level-3 table: depth-0 rows read stored values,
    # the row at ln x = 9 runs at depth >= 1 on lattices the table does not
    # store, and the row at ln x = -5 starts inside its integrand's left
    # tail and grows its window; the plain callable evaluates everything
    parent = build_table(3)
    ln_x = np.array([-30.0, -5.0, 0.0, 2.5, 9.0])
    lo, hi = rk._rung_window(ln_x)
    lo[1] = ln_x[1] - 1.0
    steps = []
    stored = KernelTable.lattice_log

    def lattice_log(self, h, j):
        steps.append(h)
        return stored(self, h, j)

    monkeypatch.setattr(KernelTable, "lattice_log", lattice_log)
    val, achieved = _log_conv(_log_k1, parent, ln_x, lo, hi)
    want = _log_conv(_log_k1, parent.log_eval_log_arg, ln_x, lo, hi)
    assert val.tobytes() == want[0].tobytes()
    assert achieved.tobytes() == want[1].tobytes()
    assert steps.count(rk._COARSE_STEP) >= 2          # grown
    assert min(steps) < rk._TARGET_STEP / 2           # a row at depth >= 1


def test_dead_scout_neighbour_leaves_the_verdict_to_the_halvings():
    # only u = 0 of the coarse lattice is alive, so the scout maximum has no
    # curvature; the step stays at _TARGET_STEP and the halvings, which
    # cannot converge on a cut-off integrand, raise the typed error
    def log_f(w):
        return np.where(abs(w) < 0.1, -w ** 2, -np.inf)

    with pytest.raises(QuadratureConvergenceError):
        log_mellin_convolve(log_f, lambda w: -0.5 * w ** 2, 0.0,
                            window=(-10, 40))


@pytest.mark.parametrize("m", range(2, 9))
def test_table_keeps_its_worst_accepted_change(m):
    t = build_table(m)
    assert 0.0 <= t.worst_change <= rk._REL_TOL
    assert 0 <= t.worst_node < len(t.s)
    assert build_table(1).worst_change == 0.0
    assert build_table(1).worst_node is None


def test_nodes_below_1e16_come_from_the_residue_model(monkeypatch):
    # the 896 nodes of [1e-30, 1e-16) hold the model; the engine gets the
    # 1601 nodes at or above 1e-16 and nothing else
    for m in range(2, 25):
        assert build_table(m).model_nodes == 896
    assert build_table(1).model_nodes == 0
    parent, want = build_table(3), build_table(4)
    monkeypatch.setattr(rk, "_TABLE_CACHE", {3: parent})
    rows = []

    def engine(log_f, log_g, ln_x, *rest):
        rows.append(np.array(ln_x))
        return _log_conv(log_f, log_g, ln_x, *rest)

    monkeypatch.setattr(rk, "_log_conv", engine)
    fresh = build_table(4)
    assert fresh is not want
    assert [len(r) for r in rows] == [len(fresh.s) - fresh.model_nodes]
    assert rows[0].min() >= math.log(1e-16)
    assert np.array_equal(fresh.logk, want.logk)
    assert fresh.worst_node >= fresh.model_nodes


def test_every_node_accepts_on_its_first_halving(monkeypatch):
    # the first trapezoid step, _TARGET_STEP * 2**-k, is already fine enough
    # that one halving confirms it at every node (levels 2-24: 8e-11 at most)
    monkeypatch.setattr(rk, "_MAX_REFINEMENTS", 1)
    monkeypatch.setattr(rk, "_TABLE_CACHE", {})
    for m in range(2, 11):
        assert build_table(m).worst_change <= rk._REL_TOL


def test_batch_grows_only_the_rows_that_need_it():
    # the middle row's window cuts into the integrand's left tail, so only
    # that row must grow before its integral comes out right
    ln_x = np.array([0.0, 0.5, 1.0])
    lo = ln_x - np.array([10.0, 1.0, 10.0])
    val, _ = _log_conv(_log_k1, _log_k1, ln_x, lo, 40.0)
    for i, x in enumerate(ln_x):
        assert val[i] == pytest.approx(bessel_reference_log(math.exp(x)),
                                       abs=1e-11)
        single = log_mellin_convolve(_log_k1, _log_k1, x,
                                     window=(lo[i], 40.0))
        assert abs(val[i] - single) <= 1e-13


def _tensor_logsum_two_pass(exponent_of_block, t, dim):
    """_tensor_logsum as it was before a tensor that one block holds was
    built once: at dim >= 2 always a max pass and a sum pass, kept
    literally as the reference for bit identity."""
    if dim == 1:
        e = exponent_of_block(t)
        m0 = float(np.max(e))
        return m0 + math.log(float(np.sum(np.exp(e - m0))))
    n = len(t)
    chunk = max(1, int(4e6 // n ** (dim - 1)))
    m0 = float("-inf")
    for i in range(0, n, chunk):
        m0 = max(m0, float(np.max(exponent_of_block(t[i:i + chunk]))))
    total = 0.0
    for i in range(0, n, chunk):
        total += float(np.sum(np.exp(exponent_of_block(t[i:i + chunk]) - m0)))
    return m0 + math.log(total)


@pytest.mark.parametrize("route,m", [
    (log_radial_weight_centered, 2),
    (log_radial_weight_centered, 3), (log_radial_weight_product, 3),
    (log_radial_weight_product, 4)])
def test_tensor_sum_in_one_block_is_the_two_pass_sum_bitwise(
        route, m, monkeypatch):
    xs = (10.0 ** np.random.default_rng(5).uniform(-6.0, 3.0, 20)).tolist()
    if m == 4:
        xs = [0.05, 1.0, 7.0]  # the m = 4 grids one block holds
    calls = []
    real = rk._tensor_logsum

    def recording(block, t, dim):
        builds = []

        def counted(t0):
            builds.append(len(t0))
            return block(t0)
        got = real(counted, t, dim)
        calls.append((block, t, dim, got, builds))
        return got
    monkeypatch.setattr(rk, "_tensor_logsum", recording)
    for x in xs:
        route(m, x)
    assert len(calls) == len(xs)
    for block, t, dim, got, builds in calls:
        assert repr(got) == repr(_tensor_logsum_two_pass(block, t, dim))
        assert builds == [len(t)]  # the whole tensor, built once


def test_tensor_sum_past_one_block_keeps_two_passes():
    # 3000 points at dim 3 make chunks of one row, each built twice; the
    # block builds 1 x 40 x 40 per row, not 3000 x 3000, to stay small
    t = np.linspace(-1.0, 1.0, 3000)
    small = t[::75]
    builds = []

    def block(t0):
        builds.append(len(t0))
        return (-np.cosh(t0)[:, None, None] - small[None, :, None] ** 2
                - small[None, None, :] ** 2)
    want = _tensor_logsum_two_pass(block, t, 3)
    builds.clear()
    assert repr(rk._tensor_logsum(block, t, 3)) == repr(want)
    assert builds == [1] * 6000


@pytest.mark.parametrize("w", [0.5, -3.0, np.float64(2.0), np.array(1.5),
                               np.linspace(-40.0, 7.0, 9),
                               np.linspace(-2.0, 2.0, 6).reshape(2, 3)])
def test_log_k1_negates_in_place_bitwise(w):
    got, want = _log_k1(w), -np.exp(w)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
