"""Hermite-side transform: basis, unitarity, kernel, quadrature cross-check."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from series_reference import kernel_term_by_term, quadrature_term_by_term

from genfock import bargmann, suites
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
    _fsum_complex,
    eval_point,
    log_weight,
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


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("coeffs", [[1.3e154, 1.3e154], [1e155]])
def test_unitarity_gap_past_double_range_is_inf(coeffs, m):
    # each squared modulus is finite but their sum is not, or the square
    # itself is past range; the image's norm leaves range with it
    assert unitarity_gap(coeffs, m) == {
        "l2": math.inf, "image": math.inf, "gap": math.inf}


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


@pytest.mark.parametrize("z", [12.0, 12j, -12.0])
def test_kernel_raises_once_z_power_leaves_double_range(z):
    # z**n overflows at n = 286, long before (n!)**(-1/2) would bring the
    # term back; the sum was NaN at every node
    nodes = hermgauss(96)[0]
    with pytest.raises(WeightOverflowError) as info:
        transform_kernel(1, z, nodes)
    assert (info.value.index, info.value.m) == (286, 1)
    assert str(info.value) == (f"z**n (z={complex(z)!r}) exceeds double "
                               "range at index n=286 (level m=1)")
    assert np.all(np.isfinite(transform_kernel(1, z / 1.2, nodes)))


def test_kernel_blames_the_weight_where_the_scale_leaves_range():
    # at z = 14 the scale (n!)^(-1/2) underflows at n = 314 while z**n is
    # still finite: the weight, not z**n, is what left double range
    with pytest.raises(WeightOverflowError) as info:
        transform_kernel(1, 14.0, 0.0)
    assert (info.value.index, info.value.m) == (314, 1)
    assert str(info.value).startswith(
        "weight (n!)^m exceeds double range at index n=314 (level m=1)")
    assert "z**n" not in str(info.value)


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
    bargmann._gauss_hermite(96)  # 96 is now cached
    with pytest.raises(TypeError):
        bargmann._gauss_hermite(96.0)
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


# ---------------------------------------------------------- streamed rows


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc during one call of fn, after a warm
    call has filled the caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sup_scan_and_bargmann_suite_hold_no_table():
    # a 201 x 6001 table and its np.abs copy traced 19.3 MB
    assert traced_peak(lambda: eta_sup_on_grid(200)) <= 1_000_000
    assert traced_peak(lambda: suites.suite_bargmann(
        suites.RunConfig(seed=1))) <= 2_000_000


@pytest.mark.parametrize("n", [0, 1, 2, 60, 200])
def test_sup_scan_is_the_table_maximum_exactly(n):
    t = np.linspace(-30.0, 30.0, 6001)
    want = np.abs(hermite_eta_all(n, t)).max(axis=1)
    assert eta_sup_on_grid(n).tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [0.7, -2.5, np.linspace(-8.0, 8.0, 33),
                               np.linspace(-3.0, 3.0, 6).reshape(2, 3)])
def test_single_row_is_the_table_row_bitwise(t):
    table = hermite_eta_all(120, t)
    for n in (0, 1, 2, 7, 120):
        got = hermite_eta(n, t)
        assert type(got) is type(table[n])
        assert np.asarray(got).tobytes() == table[n].tobytes()


def _table_before_streaming(nmax, t):
    """The (nmax+1) x grid table as it was built before the rows were
    streamed, kept literally as the reference for bit identity."""
    t = np.asarray(t, float)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = PI_QUARTER * np.exp(-0.5 * t * t)
    if nmax >= 1:
        out[1] = -math.sqrt(2.0) * t * out[0]
    for k in range(1, nmax):
        out[k + 1] = (-math.sqrt(2.0 / (k + 1)) * t * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def _kernel_before_streaming(m, z, t, tol=1e-14):
    """transform_kernel with its own copy of the recurrence, literally as
    it was before the rows were streamed."""
    z = complex(z)
    zabs = max(abs(z), 1e-30)
    t = np.asarray(t, float)
    eta_prev = np.zeros_like(t)
    eta = PI_QUARTER * np.exp(-0.5 * t * t)
    total = eta.astype(complex)
    zpow = 1.0 + 0.0j
    term_bound = HERMITE_SUP_BOUND
    ref = max(float(np.abs(total).max()), 1e-300)
    scales = bargmann._scales(m, 64)
    below = 0
    n = 0
    while below < 3 and n < 2000:
        n += 1
        if n == len(scales):
            scales = bargmann._scales(m, 2 * n)
        if scales[n] == 0.0:
            raise WeightOverflowError(n, m)
        eta_prev, eta = eta, (-math.sqrt(2.0 / n) * t * eta
                              - math.sqrt((n - 1.0) / n) * eta_prev)
        zpow = zpow * z
        total = total + zpow * scales[n] * eta
        ref = max(ref, float(np.abs(total).max()))
        term_bound = term_bound * zabs * math.exp(
            -0.5 * (log_weight(n, m) - log_weight(n - 1, m)))
        below = below + 1 if term_bound < tol * ref else 0
    return total if total.ndim else complex(total)


def _quadrature_before_streaming(hermite_coeffs, m, z, order=96):
    nodes, weights = bargmann._gauss_hermite(order)
    coeffs = list(hermite_coeffs)
    etas = _table_before_streaming(max(len(coeffs) - 1, 0), nodes)
    phi = np.zeros_like(nodes, dtype=complex)
    for n, c in enumerate(coeffs):
        phi += complex(c) * etas[n]
    hz = _kernel_before_streaming(m, z, nodes)
    return _fsum_complex(bargmann._lifted_weights(nodes, weights) * hz * phi)


def same_value(a, b) -> bool:
    """Same type and repr, and for arrays the same dtype, shape and bytes
    (an array's repr rounds to 8 digits)."""
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return type(a) is type(b) and repr(a) == repr(b)


_Z = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                        allow_infinity=False)
_T = (st.floats(-12.0, 12.0)
      | st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40).map(np.array)
      | st.just(np.asarray(bargmann._gauss_hermite(96)[0])))
_COEFFS = st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                      allow_infinity=False), max_size=60)


@given(st.integers(1, 6), _Z, _T, st.integers(0, 200))
def test_streamed_rows_match_the_table_they_replace(m, z, t, nmax):
    want = _table_before_streaming(nmax, t)
    assert same_value(hermite_eta_all(nmax, t), want)
    assert same_value(hermite_eta(nmax, t), want[nmax])
    assert same_value(transform_kernel(m, z, t),
                      _kernel_before_streaming(m, z, t))


@given(st.integers(1, 6), _Z, _COEFFS)
def test_quadrature_route_matches_the_code_it_replaces(m, z, coeffs):
    assert same_value(transform_via_quadrature(coeffs, m, z),
                      _quadrature_before_streaming(coeffs, m, z))


# ------------------------------------------------ cached basis, block sums


def outcome(fn, *args):
    """The value (compared by same_value) or the raised error's type,
    index, level and message."""
    try:
        return "value", fn(*args)
    except (WeightOverflowError, ValueError, TypeError) as err:
        return "raise", (type(err), getattr(err, "index", None),
                         getattr(err, "m", None), str(err))


def same_outcome(a, b) -> bool:
    return a[0] == b[0] and (same_value(a[1], b[1]) if a[0] == "value"
                             else a[1] == b[1])


_NODES = bargmann._gauss_hermite(96)[0]
_KERNEL_Z = (1e-3, 0.3 - 0.2j, 2.0j, -3.1, 7.0 + 5.0j, 11.7, 12.0, 12j,
             -12.0, 14.0, 20.0, 20j)
_KERNEL_T = (0.7, np.linspace(-6.0, 6.0, 33),
             np.linspace(-3.0, 3.0, 6).reshape(2, 3), _NODES)


_EMPTY_SLOT = (None, None)


def _read_another_set():
    """Put another array node set's table in the slot."""
    bargmann._EtaReader(np.linspace(-1.0, 1.0, 7)).take(3)


@pytest.fixture
def empty_slot(monkeypatch):
    """An empty basis slot, put back as it was after the test."""
    monkeypatch.setattr(bargmann, "_slot", _EMPTY_SLOT)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_block_sums_match_the_term_by_term_kernel(m, monkeypatch,
                                                  empty_slot):
    for z in _KERNEL_Z:
        for t in _KERNEL_T:
            want = outcome(kernel_term_by_term, m, z, t)
            bargmann._slot = _EMPTY_SLOT
            got = {"cold": outcome(transform_kernel, m, z, t),
                   "warm": outcome(transform_kernel, m, z, t)}
            _read_another_set()
            got["replaced"] = outcome(transform_kernel, m, z, t)
            with monkeypatch.context() as patch:
                # three rows a block: the table grows mid-call
                patch.setattr(bargmann, "_BLOCK_BYTES", 3 * 16 * 96)
                bargmann._slot = _EMPTY_SLOT
                got["grown"] = outcome(transform_kernel, m, z, t)
            with monkeypatch.context() as patch:
                # no set fits: every row streams
                patch.setattr(bargmann, "_BASIS_BUDGET", 64)
                got["streamed"] = outcome(transform_kernel, m, z, t)
            for state, value in got.items():
                assert same_outcome(value, want), (m, z, t, state)


@pytest.mark.parametrize("count", [0, 1, 15, 60, 2100])
def test_block_phi_matches_the_term_by_term_quadrature(count, empty_slot):
    # past 2001 rows the table stops growing and the rows stream
    rng = np.random.default_rng(count)
    c = list(rng.standard_normal(count) + 1j * rng.standard_normal(count))
    if count:
        c[0] = complex(-1.0, -0.0)  # its imaginary term is -0.0
    for m in (1, 3, 5):
        for z in (0.5, 1.5 - 1.0j, 2.0j):
            want = quadrature_term_by_term(c, m, z)
            bargmann._slot = _EMPTY_SLOT
            got = [transform_via_quadrature(c, m, z),  # cold
                   transform_via_quadrature(c, m, z)]  # warm
            _read_another_set()
            got.append(transform_via_quadrature(c, m, z))  # replaced
            assert all(same_value(value, want) for value in got), (m, z)


def test_cached_basis_is_the_table_and_read_only(empty_slot):
    transform_kernel(1, 2.0, _NODES)
    key, table = bargmann._slot
    assert key == (_NODES.shape, _NODES.tobytes())
    assert table.tobytes() == hermite_eta_all(len(table) - 1,
                                               _NODES).tobytes()
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    block = bargmann._EtaReader(_NODES).take(5)
    with pytest.raises(ValueError):
        block[0, 0] = 1.0


def test_basis_is_keyed_by_the_node_values(empty_slot):
    t = np.linspace(-2.0, 2.0, 9)
    first = transform_kernel(2, 1.5, t)
    held = bargmann._slot
    t[4] = 0.25  # changed in place: a new key, not a stale table
    assert same_value(transform_kernel(2, 1.5, t),
                      kernel_term_by_term(2, 1.5, t))
    assert not same_value(first, transform_kernel(2, 1.5, t))
    assert held[0] != bargmann._slot[0] == (t.shape, t.tobytes())


def test_basis_grows_to_the_row_cap_and_no_further(empty_slot):
    # at z = 10, m = 1 the kernel reads a few hundred rows, over two
    # blocks; a quadrature of 2100 coefficients reads past the row cap, so
    # its rows stream and the table stays; 2001 coefficients fill it
    key = (_NODES.shape, _NODES.tobytes())
    transform_kernel(1, 10.0, _NODES)
    held = bargmann._slot
    assert held[0] == key and 200 < len(held[1]) < bargmann._BASIS_ROWS
    transform_via_quadrature([1.0] * 2100, 1, 0.5)
    assert bargmann._slot is held
    transform_via_quadrature([1.0] * 2001, 1, 0.5)
    assert bargmann._slot[0] == key
    assert len(bargmann._slot[1]) == bargmann._BASIS_ROWS


@pytest.mark.parametrize("t", [0.7, np.array([]), np.empty((0, 3)),
                               np.linspace(-5.0, 5.0, 7),
                               np.linspace(-3.0, 3.0, 12).reshape(3, 4)])
def test_eta_table_is_the_recurrence_rows_bytewise(t):
    # the preallocated table holds the streamed rows, a scalar's and a
    # zero-size t's too, with the shape and dtype of their stack
    for nmax in (0, 1, 30):
        want = np.stack(tuple(bargmann._eta_rows(t, nmax)))
        got = hermite_eta_all(nmax, t)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        hermite_eta_all(-1, t)


@pytest.mark.parametrize("t", [0.7, _NODES,
                               np.linspace(-3.0, 3.0, 6).reshape(2, 3)])
def test_basis_grown_in_steps_is_the_table_bytewise(t, empty_slot):
    # a request past the held rows refills the table from eta_0, to twice
    # its rows where that covers the request; a single point's rows stream
    # and leave the slot empty
    t = np.asarray(t, float)
    sizes = []
    for rows in (1, 2, 3, 7, 40, 41, 300, 299, bargmann._BASIS_ROWS):
        block = bargmann._EtaReader(t).take(rows)
        assert block.tobytes() == hermite_eta_all(rows - 1, t).tobytes()
        if t.ndim == 0:
            assert bargmann._slot == _EMPTY_SLOT
            continue
        key, table = bargmann._slot
        assert key == (t.shape, t.tobytes())
        assert table.tobytes() == hermite_eta_all(len(table) - 1,
                                                  t).tobytes(), rows
        sizes.append(len(table))
    assert sizes == ([] if t.ndim == 0 else
                     [1, 2, 4, 8, 40, 80, 300, 300, bargmann._BASIS_ROWS])


def test_single_points_leave_the_rule_table_in_place(empty_slot):
    # the tables of classic_kernel_values' points would each replace the
    # 96-node table that transform_via_quadrature reads
    transform_via_quadrature([1.0] * 15, 1, 0.5)
    held = bargmann._slot
    assert held[0] == (_NODES.shape, _NODES.tobytes())
    for t in (0.7, -2.0, np.float64(3.5), np.asarray(1.25)):
        classic_kernel_values(1.5 - 0.5j, t)
        assert same_value(transform_kernel(1, 2.0, t),
                          kernel_term_by_term(1, 2.0, t))
    assert bargmann._slot is held  # no rebuild


def slot_bytes() -> int:
    """The bytes the slot holds: its table and its key's node bytes."""
    key, table = bargmann._slot
    return table.nbytes + len(key[1]) if key else 0


def test_cache_stays_within_its_budget(empty_slot):
    # 1024 nodes: 8 kB a row, so at most 255 rows of the set are held
    # (the key's nodes count too), and the |z| = 20 sum, which runs to
    # z**n overflow at m = 1, streams the rest
    nodes = np.linspace(-20.0, 20.0, 1024)
    for m in (1, 2):
        assert same_outcome(outcome(transform_kernel, m, 20.0, nodes),
                            outcome(kernel_term_by_term, m, 20.0, nodes))
        assert 0 < slot_bytes() <= bargmann._BASIS_BUDGET
    # the last array set read holds the slot
    for shift in (1e-3, 2e-3):
        transform_kernel(1, 2.0, _NODES)
        assert bargmann._slot[0] == (_NODES.shape, _NODES.tobytes())
        transform_kernel(2, 20.0, nodes + shift)
        assert bargmann._slot[0] == (nodes.shape, (nodes + shift).tobytes())
        assert slot_bytes() <= bargmann._BASIS_BUDGET


def test_kernel_past_double_range_raises_without_a_warning():
    # z**n * eta turns NaN before the typed error is raised; numpy's
    # invalid-value warning does not escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WeightOverflowError) as info:
            transform_kernel(1, 30j, hermgauss(96)[0])
    assert (info.value.index, info.value.m) == (314, 1)
