"""Hermite-side transform: basis, unitarity, kernel, quadrature cross-check."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from genfock import bargmann
from genfock.bargmann import (
    HERMITE_SUP_BOUND,
    HermiteEvaluation,
    classic_kernel_values,
    eta_sup_on_grid,
    forward,
    hermite_eta,
    hermite_eta_all,
    inverse,
    transform_kernel,
    transform_via_quadrature,
    unitarity_gap,
)
from genfock.coeffspace import (
    TaylorCoeffs,
    WeightOverflowError,
    eval_point,
    squared_norm,
)

PI_QUARTER = math.pi ** -0.25


def physicist_phi(n: int, t: float) -> float:
    """Orthonormal oscillator function via the library Hermite polynomial.

    Independent of the package's recurrence; usable up to n ~ 150 before
    the polynomial route loses accuracy.
    """
    h = float(sp.eval_hermite(n, t))
    scale = math.exp(-0.5 * (n * math.log(2) + math.lgamma(n + 1) + 0.5 * math.log(math.pi)))
    return h * scale * math.exp(-0.5 * t * t)


# -------------------------------------------------------------------- basis


def test_eta_matches_alternating_oscillator_functions():
    for n in (0, 1, 2, 5, 12):
        for t in (-1.7, 0.0, 0.4, 2.3):
            want = (-1.0) ** n * physicist_phi(n, t)
            assert hermite_eta(n, t) == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_eta_all_stacks_consistently():
    t = np.linspace(-3, 3, 11)
    block = hermite_eta_all(8, t)
    assert block.shape == (9, 11)
    for n in (0, 3, 8):
        assert np.allclose(block[n], hermite_eta(n, t))


def test_eta_sup_bound_holds_on_scan():
    per_index = eta_sup_on_grid(60)
    assert per_index.shape == (61,)
    assert float(per_index.max()) < HERMITE_SUP_BOUND
    # the largest value over the whole family sits at n = 0, t = 0
    assert float(per_index.max()) == pytest.approx(PI_QUARTER, abs=1e-6)
    # sups decrease with the index (turning-point spreading)
    assert float(per_index[1]) < float(per_index[0])
    assert float(per_index[40]) < float(per_index[10])


def test_orthonormality_via_quadrature():
    ev = HermiteEvaluation.build(40)
    assert ev.orthonormality_deviation() < 1e-12
    g = ev.gram()
    assert g.shape == (41, 41)


def test_evaluation_rejects_underresolved_rule():
    with pytest.raises(ValueError):
        HermiteEvaluation.build(10, order=5)


# ---------------------------------------------------------------- transform


def test_forward_scales_monomials():
    for m in (1, 2, 5):
        f = forward([0, 0, 1.0], m)
        assert f.coeff(2) == pytest.approx(
            math.factorial(2) ** (-m / 2), rel=1e-14, abs=0
        )
        assert f.coeff(0) == 0


def test_round_trip_is_near_exact():
    rng = np.random.default_rng(11)
    for m in (1, 3, 5):
        c = rng.standard_normal(41) + 1j * rng.standard_normal(41)
        back = inverse(forward(list(c), m), m)
        err = max(abs(a - b) / max(abs(a), 1e-300) for a, b in zip(c, back))
        assert err < 1e-15


@pytest.mark.parametrize("m", [1, 2, 4, 5])
def test_unitarity_random(m):
    rng = np.random.default_rng(40 + m)
    for _ in range(30):
        n = int(rng.integers(1, 61))
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        assert unitarity_gap(list(c), m)["gap"] < 1e-12


@pytest.mark.parametrize("m", [1, 3, 5])
def test_unitarity_gap_is_a_few_ulps(m):
    # the scale comes from the exact weight table, so scale**2 * (n!)**m is
    # 1 to a few ulps; an lgamma-based scale was off by up to ~5e-14
    rng = np.random.default_rng(70 + m)
    for _ in range(30):
        c = rng.standard_normal(61) + 1j * rng.standard_normal(61)
        assert unitarity_gap(list(c), m)["gap"] <= 1e-15


def test_scale_overflow_is_typed():
    with pytest.raises(WeightOverflowError) as info:
        forward([0] * 400 + [1.0], 6)
    assert (info.value.index, info.value.m) == (400, 6)


@given(st.integers(min_value=1, max_value=4))
def test_unitarity_on_basis_vectors(m):
    c = [0] * 17 + [1.0]
    assert unitarity_gap(c, m)["gap"] < 1e-13


# ------------------------------------------------------------------- kernel


def test_level1_kernel_equals_generating_form():
    for z in (0.3, 1.1 - 0.7j, 1.9j):
        for t in (-1.3, 0.0, 0.8):
            vals = classic_kernel_values(z, t)
            assert vals["series"] == pytest.approx(
                vals["generating_form"], rel=1e-12, abs=1e-12
            )


def test_documented_variant_differs():
    vals = classic_kernel_values(1.0, 1.0)
    assert abs(vals["series"] - vals["gaussian_variant"]) > 1e-3


def test_kernel_series_matches_direct_sum():
    # brute-force partial sum with the package basis values
    z, t, m = 0.8 - 0.5j, 1.2, 3
    etas = hermite_eta_all(80, np.array([t]))
    direct = sum(
        z**n * math.factorial(n) ** (-m / 2) * float(etas[n][0])
        for n in range(81)
    )
    got = complex(transform_kernel(m, z, t))
    assert got == pytest.approx(direct, rel=1e-12, abs=0)


def test_kernel_vectorizes_over_t():
    t = np.linspace(-2, 2, 7)
    vals = transform_kernel(2, 0.5 + 0.1j, t)
    assert vals.shape == t.shape
    one = transform_kernel(2, 0.5 + 0.1j, float(t[3]))
    assert complex(vals[3]) == pytest.approx(complex(one), rel=1e-13, abs=0)


# ------------------------------------------------------------ cross-check


@pytest.mark.parametrize("z", [0.5, 1.5 - 1.0j, 2.0j])
def test_quadrature_route_matches_coefficient_route(z):
    rng = np.random.default_rng(77)
    c = list(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    for m in (1, 2, 4):
        via_quad = transform_via_quadrature(c, m, z)
        via_coeffs = eval_point(forward(c, m), z)
        assert via_quad == pytest.approx(via_coeffs, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("order", [1, 17, 96])
def test_cached_rule_is_hermgauss_and_read_only(order):
    nodes, weights = bargmann._gauss_hermite(order)
    want_nodes, want_weights = hermgauss(order)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    assert bargmann._gauss_hermite(order)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_cached_rule_rejects_what_hermgauss_rejects():
    transform_via_quadrature([1.0], 2, 0.5, order=96)  # 96 is now cached
    with pytest.raises(TypeError):
        transform_via_quadrature([1.0], 2, 0.5, order=96.0)
    with pytest.raises(TypeError):
        HermiteEvaluation.build(3, order=96.0)
    with pytest.raises(ValueError):
        bargmann._gauss_hermite(-1)


def test_forward_image_norm_equals_l2():
    # the unitarity identity written out against coefficient-space norms
    c = [1.0, -2.0, 0.5j]
    l2 = sum(abs(x) ** 2 for x in c)
    for m in (1, 2, 3):
        assert squared_norm(forward(c, m), m) == pytest.approx(
            l2, rel=1e-14, abs=0
        )
