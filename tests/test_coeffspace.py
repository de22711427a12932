"""Coefficient-space core: weights, pairings, kernel series, aggregation."""

import cmath
import enum
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from series_reference import kernel_section_by_loop

import coeffs_reference
from dual_reference import reference_exact_product, reference_product
from genfock import coeffspace, dualalgebra
from genfock.coeffspace import (
    TaylorCoeffs,
    WeightOverflowError,
    _fsum,
    _fsum_complex,
    _is_exact,
    _weight_table,
    add,
    aggregate_kernels_exponential,
    aggregate_kernels_geometric,
    eval_point,
    inner_product,
    kernel_eval,
    kernel_section,
    log_weight,
    norm,
    scale,
    squared_norm,
    sub,
    weight,
)

# Independent oracles, frozen.  The level-2 and level-3 sums were computed
# with 60-digit decimal arithmetic over exact big-int factorials; level 2
# equals the modified Bessel value I_0(2) (scipy.special.i0 agrees to the
# last bit).
SUM_INV_FACT_SQ = 2.2795853023360673
SUM_INV_FACT_CUBE = 2.1297025489833064

finite_complex = st.complex_numbers(
    max_magnitude=5.0, allow_nan=False, allow_infinity=False
)
small_int = st.integers(min_value=-50, max_value=50)


def coeffs_list(max_len=12, elements=finite_complex):
    return st.lists(elements, min_size=1, max_size=max_len)


# ---------------------------------------------------------------- weights


def test_weight_matches_bigint():
    for n in range(0, 30):
        for m in range(0, 5):
            assert weight(n, m) == float(math.factorial(n) ** m)


def test_weight_overflow_raises():
    with pytest.raises(WeightOverflowError):
        weight(200, 3)


def test_weight_negative_exponent():
    assert weight(4, -1) == 1.0 / 24.0
    assert weight(0, -7) == 1.0
    # deep negative exponents flush through the log domain without raising
    assert weight(300, -5) >= 0.0


_FLOAT3 = TaylorCoeffs([1.0, 2.0, 3.0])
_EXACT3 = TaylorCoeffs([1, 2, 3])
_LEVEL_CALLS = {
    "inner_product exact": lambda m: inner_product(_EXACT3, _EXACT3, m),
    "inner_product float": lambda m: inner_product(_FLOAT3, _FLOAT3, m),
    "squared_norm": lambda m: squared_norm(_FLOAT3, m),
    "norm": lambda m: norm(_FLOAT3, m),
    "weight": lambda m: weight(3, m),
}


@pytest.mark.parametrize("m", [True, False, 2.5, 2.0, np.int64(2)],
                         ids=["True", "False", "2.5", "2.0", "int64"])
@pytest.mark.parametrize("call", sorted(_LEVEL_CALLS))
def test_level_of_the_wrong_kind_is_rejected(call, m):
    # the bare AttributeError of _weight_table's big-int arithmetic, and a
    # value from the exact route, were what these gave
    with pytest.raises(ValueError, match="^level must be an integer, got"):
        _LEVEL_CALLS[call](m)


@pytest.mark.parametrize("call", sorted(_LEVEL_CALLS))
def test_levels_below_one_are_levels(call):
    # (n!)**0 is 1, and level -1 weighs z^n by 1/n!
    want = {0: (14, 1.0), -1: (1 + 4 + 9 / 2, 1 / 6)}
    for m, (sq, w) in want.items():
        got = _LEVEL_CALLS[call](m)
        assert got == (w if call == "weight" else
                       pytest.approx(math.sqrt(sq)) if call == "norm" else sq)


def _rounded_mantissa(x: Fraction) -> tuple[float, int]:
    """(mant, exp) with x ~ mant * 2**exp, mant the correctly rounded
    mantissa in [0.5, 1) (Fraction.__float__ rounds correctly)."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if x / Fraction(2) ** e >= 1:
        e += 1
    if x / Fraction(2) ** e < Fraction(1, 2):
        e -= 1
    mant = float(x / Fraction(2) ** e)
    return (0.5, e + 1) if mant == 1.0 else (mant, e)


@pytest.mark.parametrize("m", range(-4, 7))
def test_weight_table_is_correctly_rounded(m):
    mant, exp = _weight_table(m, 301)
    for n in range(301):
        exact = Fraction(math.factorial(n)) ** m
        assert (mant[n], exp[n]) == _rounded_mantissa(exact), n
        if exact >= 2**1024:
            continue
        want = float(exact)  # correctly rounded
        if want >= 2.2250738585072014e-308:
            assert math.ldexp(mant[n], int(exp[n])) == want
            assert weight(n, m) == want


def test_log_weight_consistency():
    for n in (0, 1, 2, 7, 40):
        for m in (1, 2, 5):
            assert log_weight(n, m) == pytest.approx(
                m * math.log(math.factorial(n)), rel=1e-14, abs=1e-12
            )


# --------------------------------------------------------------- elements


def test_monomial_and_degree():
    f = TaylorCoeffs.monomial(3, 2.5)
    assert f.degree == 3
    assert f.coeff(3) == 2.5
    assert f.coeff(1) == 0
    assert f.coeff(99) == 0
    assert TaylorCoeffs.zero().degree == -1


def test_equality_ignores_trailing_zeros():
    assert TaylorCoeffs([1, 2]) == TaylorCoeffs([1, 2, 0, 0])
    assert TaylorCoeffs([1, 2]) != TaylorCoeffs([1, 2, 3])


def test_json_round_trip():
    f = TaylorCoeffs([1.5, 2 + 3j, 0, -1])
    g = TaylorCoeffs.from_json_obj(json.loads(json.dumps(f.to_json_obj())))
    assert g == f


def test_arithmetic_is_coefficientwise():
    f = TaylorCoeffs([1, 2])
    g = TaylorCoeffs([0, 1, 4])
    assert add(f, g) == TaylorCoeffs([1, 3, 4])
    assert sub(f, g) == TaylorCoeffs([1, 1, -4])
    assert scale(3, f) == TaylorCoeffs([3, 6])


def test_exact_coefficients_stay_exact():
    f = TaylorCoeffs([Fraction(1, 3), 2])
    assert f.is_exact()
    assert add(f, f).coeff(0) == Fraction(2, 3)
    assert not TaylorCoeffs([0.5]).is_exact()


class _Two(enum.IntEnum):
    TWO = 2


class _Ratio(Fraction):
    pass


# the exact route is for int and Fraction, subclasses included; a numpy
# integer is no int, and one float or complex anywhere sends all to floats
_KINDS = {
    "int": [3, -1, 0, 2, 5],
    "Fraction": [Fraction(1, 3), Fraction(-2, 5), 0, Fraction(7, 2), 1],
    "bool": [True, False, 2, True, -1],
    "IntEnum": [_Two.TWO, 1, 0, -3, _Two.TWO],
    "Fraction subclass": [_Ratio(1, 3), 2, _Ratio(-5, 7), 0, 1],
    "np.int64": [np.int64(2), 1, 0, -3, 4],
    "float first": [0.5, 1, 0, -3, 4],
    "float middle": [2, 1, 0.25, -3, 4],
    "float last": [2, 1, 0, -3, 4.0],
    "complex first": [0.5j, 1, 0, -3, 4],
    "complex middle": [2, 1, 1 - 2j, -3, 4],
    "complex last": [2, 1, 0, -3, 4j],
    "empty": [],
}


def _bits(x):
    return type(x), repr(x)


@pytest.mark.parametrize("kind", _KINDS)
def test_exact_route_is_the_isinstance_verdict(monkeypatch, kind):
    # each call takes the route all(map(_is_exact, ...)) picks, with the
    # values and types of the references that keep that dispatch
    x = _KINDS[kind]
    y = [1, -2, 3, 0, 7][:len(x)]
    exact = all(map(_is_exact, x))
    assert TaylorCoeffs(x).is_exact() is exact
    routes = []

    def exact_inner(*args):
        routes.append("exact")
        return inner(*args)

    def float_convolution(pairs, level):
        routes.append("float")
        return convolution(pairs, level)
    inner, convolution = coeffspace._exact_inner, dualalgebra._float_convolution
    monkeypatch.setattr(coeffspace, "_exact_inner", exact_inner)
    monkeypatch.setattr(dualalgebra, "_float_convolution", float_convolution)
    for f, g in ((x, y), (y, x)):
        got = inner_product(TaylorCoeffs(f), TaylorCoeffs(g), 2)
        assert _bits(got) == _bits(coeffs_reference.inner_product(
            TaylorCoeffs(f), TaylorCoeffs(g), 2))
    assert routes == (["exact"] * 2 if exact else [])
    routes.clear()
    a, b = dualalgebra.DualSequence(x), dualalgebra.DualSequence(y)
    product = (reference_exact_product if exact else reference_product)(x, y)
    got = dualalgebra.cauchy_product(a, b).coeffs
    if not exact:  # the float product holds its array
        got = got.tolist()
    assert list(map(_bits, got)) == list(map(_bits, product))
    lhs = dualalgebra.dual_norm(dualalgebra.DualSequence(product), 2)
    bound = (dualalgebra.vage_constant(1) * dualalgebra.dual_norm(a, 1)
             * dualalgebra.dual_norm(b, 2))
    assert repr(dualalgebra.vage_check(a, b, 1, 2)) == repr(
        (lhs, bound, lhs <= bound * (1.0 + 1e-12)))
    assert routes == ([] if exact or not x else ["float"] * 2)


# ----------------------------------------------------------- inner product


def test_monomial_norms():
    for n in (0, 1, 4, 9):
        for m in (1, 2, 3):
            f = TaylorCoeffs.monomial(n)
            assert squared_norm(f, m) == float(math.factorial(n) ** m)
            assert norm(f, m) == pytest.approx(
                math.factorial(n) ** (m / 2), rel=1e-14, abs=0
            )


def test_inner_product_small_exact():
    f = TaylorCoeffs([1, 2, 3])
    g = TaylorCoeffs([5, 1, 1])
    # level 1: 5*1 + 2*1*1 + 3*1*2 = 13 ; level 2: 5 + 2 + 3*4 = 19
    assert inner_product(f, g, 1) == 13
    assert inner_product(f, g, 2) == 19


def test_inner_product_conjugates_second_argument():
    f = TaylorCoeffs([1j])
    g = TaylorCoeffs([2 + 2j])
    assert inner_product(f, g, 1) == 1j * (2 - 2j)
    assert inner_product(g, f, 1) == (2 + 2j) * (-1j)


def test_inner_product_rational_fallback_paths():
    # weight log-magnitude beyond double range at n=50, level 5, yet the
    # term itself is order one
    lw = log_weight(50, 5)
    assert lw > 700
    f = TaylorCoeffs([0] * 50 + [math.exp(-0.5 * lw)])
    v = inner_product(f, f, 5)
    assert v.real == pytest.approx(1.0, rel=1e-12)
    # huge exact integer against a deeply negative exponent stays finite
    g = TaylorCoeffs([0] * 50 + [10**200])
    assert 0.0 < inner_product(g, g, -8).real < math.inf


def test_inner_product_overflow_raises():
    e50 = TaylorCoeffs.monomial(50)
    with pytest.raises(WeightOverflowError):
        inner_product(e50, e50, 5)
    with pytest.raises(WeightOverflowError):
        squared_norm(e50, 5)


def test_sum_past_double_range_is_infinite_not_an_error():
    # math.fsum raises once a partial sum leaves range
    assert _fsum([1.7e308, 1.7e308]) == math.inf
    assert _fsum([-1.7e308, -1.7e308, 1.0]) == -math.inf
    assert _fsum([1.7e308, 1.7e308, -1.7e308]) == 1.7e308
    assert _fsum([0.1] * 10) == math.fsum([0.1] * 10)
    # every term in range, their sum is not
    f = TaylorCoeffs([1.3e154, 1.3e154])
    assert inner_product(f, f, 1) == complex(math.inf, 0)


def test_overflow_fallback_is_correctly_rounded():
    # 2**970 is half an ulp of 2**1023 and 5e-324 breaks the tie upward; a
    # fallback that scaled the terms down would flush 5e-324 and round down
    got = _fsum([2.0 ** 1023, 2.0 ** 1023, -(2.0 ** 1023), 2.0 ** 970, 5e-324])
    assert got.hex() == "0x1.0000000000001p+1023"


def test_complex_sum_shares_the_overflow_rule():
    assert _fsum_complex(np.array([1.7e308, 1.7e308, -1.7e308])) == 1.7e308
    assert _fsum_complex([1.7e308j, 1.7e308j]) == complex(0, math.inf)


def test_subnormal_product_is_not_flushed():
    # coefficient product underflows a double, the weighted term does not;
    # the oracle is exact (c * c alone would flush to 0.0 and, with an
    # absolute tolerance, accept a flushed result)
    c = 1e-170
    f = TaylorCoeffs([0] * 40 + [c])
    got = inner_product(f, f, 5)
    want = float(Fraction(c) ** 2 * math.factorial(40) ** 5)
    assert want == pytest.approx(3.61597434703034e-101, rel=1e-14, abs=0)
    assert got.real == pytest.approx(want, rel=1e-15, abs=0)


def test_exact_input_is_summed_exactly_and_rounded_once():
    # rounding each term 1/3, 1/3, 2/3, 2 first would give 3.333333333333333
    f = TaylorCoeffs([Fraction(1, 3)] * 4)
    assert inner_product(f, TaylorCoeffs([1] * 4), 1) == float(Fraction(10, 3))
    f = TaylorCoeffs([2**53 + 1] * 3)
    assert inner_product(f, TaylorCoeffs([1] * 3), 2) == float(6 * (2**53 + 1))
    # the sum alone leaves double range: the largest term is reported
    with pytest.raises(WeightOverflowError) as info:
        inner_product(TaylorCoeffs([1, 10**200]), TaylorCoeffs([1, 10**200]), 1)
    assert info.value.index == 1


@pytest.mark.parametrize("f", [
    TaylorCoeffs([10**200]),  # exact route
    TaylorCoeffs([1.7e308 + 1.7e308j]),  # float route
])
def test_term_overflow_blames_the_term_not_the_weight(f):
    # the weight 0! ** 1 is 1; the coefficient product is what overflows
    for fn in (lambda: inner_product(f, f, 1), lambda: squared_norm(f, 1)):
        with pytest.raises(WeightOverflowError) as info:
            fn()
        assert (info.value.index, info.value.m) == (0, 1)
        assert str(info.value).startswith("term at index n=0 (level m=1)")
        assert "weight (n!)^m exceeds" not in str(info.value)
    # a weight past double range is still blamed as such
    with pytest.raises(WeightOverflowError, match="^weight .* n=200 "):
        squared_norm(TaylorCoeffs.monomial(200), 1)


def test_exact_coefficient_past_double_range_is_a_typed_overflow():
    # inner_product already raised WeightOverflowError on this input
    with pytest.raises(WeightOverflowError) as info:
        squared_norm(TaylorCoeffs([10**400]), 1)
    assert (info.value.index, info.value.m) == (0, 1)
    assert str(info.value).startswith("coefficient exceeds double range")
    with pytest.raises(WeightOverflowError) as info:
        squared_norm(TaylorCoeffs([1, 0.5, -10**400]), 1)  # mixed: float
    assert info.value.index == 2


def test_mixed_input_takes_the_float_route():
    # any float coefficient converts every paired coefficient to complex
    f = TaylorCoeffs([Fraction(1, 3), 0.5])
    g = TaylorCoeffs([1, 2.0])
    assert inner_product(f, g, 1) == complex(1 / 3 + 1.0)
    # coefficients past the shorter vector do not take part
    assert inner_product(TaylorCoeffs([1, 2, 0.5]), TaylorCoeffs([1, 3]),
                         1) == 7
    # an exact coefficient outside double range cannot be converted: the
    # first one read is named, in either factor
    for f, g, n in ((TaylorCoeffs([10**400, 1.0]), TaylorCoeffs([1, 1.0]), 0),
                    (TaylorCoeffs([1.0, 2.0]), TaylorCoeffs([1.5, 10**400]), 1)):
        with pytest.raises(WeightOverflowError) as info:
            inner_product(f, g, 1)
        assert (info.value.index, info.value.m) == (n, 1)
        assert str(info.value) == (f"coefficient exceeds double range at "
                                   f"index n={n} (level m=1)")


def test_second_factor_is_read_only_inside_the_first_ones_live_span():
    # f is live at n = 2..3 only, so g's entries before and after are never
    # converted: neither the int past double range nor the string raises
    f = TaylorCoeffs([0.0, 0j, 1.0, -0.5, 0.0, 0])
    g = TaylorCoeffs([10**400, "junk", 2.0, 4j, 10**400, "junk"])
    # 1 * 2 * 2! + (-0.5) * conj(4j) * 3!
    assert inner_product(f, g, 1) == 4 + 12j
    # inside the span an unconvertible entry still raises, named by its index
    g = TaylorCoeffs([1.0, 1.0, 2.0, 10**400])
    with pytest.raises(WeightOverflowError, match=r"index n=3 \(level m=1\)"):
        inner_product(f, g, 1)


def test_horner_overflow_is_typed_and_names_level_zero():
    # an exact coefficient past double range meets the float partial sum
    # at index 0; the evaluation carries no weight, so it names level 0
    with pytest.raises(WeightOverflowError) as info:
        eval_point(TaylorCoeffs([10**400, 1.0]), 0.5)
    assert (info.value.index, info.value.m) == (0, 0)
    assert str(info.value) == ("Horner step exceeds double range at index "
                               "n=0 (level m=0)")
    # all-exact input stays exact, however large
    assert eval_point(TaylorCoeffs([10**400, 1]), 2) == 10**400 + 2


def test_overflow_reports_the_offending_index():
    f = TaylorCoeffs([1.0] * 40 + [0.0] * 10 + [1.0])
    for fn in (lambda: inner_product(f, f, 5), lambda: squared_norm(f, 5)):
        with pytest.raises(WeightOverflowError) as info:
            fn()
        assert (info.value.index, info.value.m) == (50, 5)


def _reference_inner(fs, gs, m):
    """The per-term loop: (f_n * conj(g_n)) * (n!)**m, summed correctly
    rounded; valid while every weight and term is in double range."""
    terms = [complex(fn * complex(gn).conjugate() * float(math.factorial(n) ** m))
             for n, (fn, gn) in enumerate(zip(fs, gs)) if fn != 0 and gn != 0]
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


@pytest.mark.parametrize("m,deg", [(m, 30) for m in range(1, 7)] + [(1, 150)])
def test_in_range_terms_match_the_reference_loop_bitwise(m, deg):
    rng = np.random.default_rng(100 * m + deg)
    for _ in range(20):
        fs = (rng.standard_normal(deg + 1)
              + 1j * rng.standard_normal(deg + 1)).tolist()
        gs = (rng.standard_normal(deg + 1)
              + 1j * rng.standard_normal(deg + 1)).tolist()
        fs[3], gs[5] = 0, 2.5  # exact zeros and real coefficients
        got = inner_product(TaylorCoeffs(fs), TaylorCoeffs(gs), m)
        assert got == _reference_inner(fs, gs, m)
    w = complex(rng.standard_normal(), rng.standard_normal())
    p, want = 1.0 + 0.0j, []
    for n in range(deg + 1):
        want.append(p / float(math.factorial(n) ** m))
        p = p * w.conjugate()
    assert kernel_section(m, w, deg).coeffs.tolist() == want


def _exact_pairing(fs, gs, m):
    re = im = Fraction(0)
    for n, (fn, gn) in enumerate(zip(fs, gs)):
        fr, fi = Fraction(fn.real), Fraction(fn.imag)
        gr, gi = Fraction(gn.real), Fraction(gn.imag)
        w = math.factorial(n) ** m
        re += (fr * gr + fi * gi) * w
        im += (fi * gr - fr * gi) * w
    return complex(float(re), float(im))


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("deg", [200, 1000])
def test_inner_product_on_norm_scaled_draws_is_exact_to_an_ulp(m, deg):
    rng = np.random.default_rng(7 * m + deg)
    scale = np.exp([-0.5 * m * math.lgamma(n + 1) for n in range(deg + 1)])
    fs, gs = (((rng.standard_normal(deg + 1)
                + 1j * rng.standard_normal(deg + 1)) * scale).tolist()
              for _ in range(2))
    want = _exact_pairing(fs, gs, m)
    got = inner_product(TaylorCoeffs(fs), TaylorCoeffs(gs), m)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_kernel_section_past_double_range_keeps_its_digits():
    # (n!)**5 leaves double range from n = 40 on; the coefficient does not
    sec = kernel_section(5, 1000.0, 60)
    p = 1.0
    for n in range(61):
        want = Fraction(p) / math.factorial(n) ** 5
        assert abs(Fraction(sec.coeffs[n].real) - want) <= 3e-16 * want
        p *= 1000.0


def _exact_sq_norm(cs, m):
    acc = Fraction(0)
    for n, c in enumerate(cs):
        acc += (Fraction(c.real) ** 2 + Fraction(c.imag) ** 2) \
            * math.factorial(n) ** m
    return float(acc)


@pytest.mark.parametrize("m,deg", [(1, 1000), (2, 200), (5, 200)])
def test_squared_norm_keeps_subnormal_bits(m, deg):
    # norm-scaled draws c_n (n!)^(-m/2): every term is O(1), and the high
    # coefficients are subnormal, so each one must keep all its bits
    rng = np.random.default_rng(deg + m)
    scale = np.exp([-0.5 * m * math.lgamma(n + 1) for n in range(deg + 1)])
    cs = ((rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
          * scale).tolist()
    assert any(0 < abs(c) < 2.2e-308 for c in cs)
    want = _exact_sq_norm(cs, m)
    assert squared_norm(TaylorCoeffs(cs), m) == pytest.approx(want, rel=1e-12)


@given(coeffs_list(), coeffs_list(), st.integers(min_value=1, max_value=4))
def test_cauchy_schwarz(fs, gs, m):
    f, g = TaylorCoeffs(fs), TaylorCoeffs(gs)
    lhs = abs(inner_product(f, g, m))
    rhs = norm(f, m) * norm(g, m)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@given(coeffs_list(), st.integers(min_value=1, max_value=5))
def test_norms_increase_with_level(fs, m):
    f = TaylorCoeffs(fs)
    # weights (n!)**m are nondecreasing in m, so the norm scale is nested
    assert squared_norm(f, m) <= squared_norm(f, m + 1) * (1 + 1e-12)


@given(coeffs_list(), coeffs_list(), st.integers(min_value=1, max_value=4))
def test_hermitian_symmetry(fs, gs, m):
    f, g = TaylorCoeffs(fs), TaylorCoeffs(gs)
    a = inner_product(f, g, m)
    b = inner_product(g, f, m)
    assert a == pytest.approx(b.conjugate(), rel=1e-12, abs=1e-9)


# ------------------------------------------------------------ kernel series


def test_kernel_level1_is_exponential():
    for z, w in [(1.0, 1.0), (0.3 + 0.2j, 1.1 - 0.4j), (2.0, 0.5)]:
        u = z * complex(w).conjugate()
        got = kernel_eval(1, z, w)
        assert got == pytest.approx(complex(math.e) ** u, rel=1e-13, abs=0)


def test_kernel_frozen_diagonal_values():
    assert kernel_eval(1, 1, 1).real == pytest.approx(math.e, rel=1e-14, abs=0)
    assert kernel_eval(2, 1, 1).real == pytest.approx(SUM_INV_FACT_SQ, rel=1e-14,
                                                       abs=0)
    assert kernel_eval(3, 1, 1).real == pytest.approx(SUM_INV_FACT_CUBE, rel=1e-14,
                                                       abs=0)


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kernel_eval(0, 1, 1)
    with pytest.raises(ValueError):
        kernel_eval(1, 1, 1, tol=0.0)
    with pytest.raises(ValueError):
        kernel_eval(1, 1, 1, tol=math.nan)


def test_kernel_at_a_level_whose_powers_leave_double_range():
    # 3.0 ** 1000 raised OverflowError; n**m past range divides to 0 as in
    # IEEE arithmetic, and the value is 1 + 1 + 2**-1000 + ...
    assert kernel_eval(1000, 1, 1) == 2.0
    assert kernel_eval(400, 3, 1) == pytest.approx(4.0, rel=1e-15, abs=0)


@pytest.mark.parametrize("m,z,w", [(1, 1e3, 1), (1, -1e3, 1),
                                   (1000, 0.5 + 0.5j, 1e200)])
def test_kernel_returns_once_the_sum_is_not_finite(m, z, w):
    # the series would run to its 100 000-term cap (about 0.1 s) with a
    # partial sum that no later term can make finite again
    start = time.perf_counter()
    got = kernel_eval(m, z, w)
    assert time.perf_counter() - start < 0.02
    assert not cmath.isfinite(got)


@given(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=4),
)
def test_kernel_hermitian(z, w, m):
    a = kernel_eval(m, z, w)
    b = kernel_eval(m, w, z)
    assert a == pytest.approx(b.conjugate(), rel=1e-12, abs=1e-12)


def test_kernel_section_reproduces_polynomials():
    # small integer polynomial: the pairing against the section must give
    # back the point value with only rounding-level error
    f = TaylorCoeffs([2, -1, 0, 3, 5])
    for m in (1, 2, 4):
        for w in (0.7, -1.3 + 0.4j, 2j):
            sec = kernel_section(m, w, 8)
            got = inner_product(f, sec, m)
            want = eval_point(f, w)
            assert got == pytest.approx(want, rel=5e-15, abs=1e-13)


def test_kernel_section_degree_cut():
    sec = kernel_section(2, 1.5, 6)
    assert sec.degree == 6
    assert sec.coeff(3) == pytest.approx(1.5**3 / 36.0, rel=1e-15, abs=0)


def test_eval_point_exact_for_ints():
    f = TaylorCoeffs([1, -2, 3])
    assert eval_point(f, 2) == 1 - 4 + 12


# -------------------------------------------------------------- aggregation


@pytest.mark.parametrize("eps", [0.25, 0.5, 0.9])
def test_geometric_aggregation_identity(eps):
    lhs, rhs = aggregate_kernels_geometric(eps, 1.1, 0.8 - 0.3j)
    assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("eps", [0.25, 0.5, 0.9])
def test_exponential_aggregation_identity(eps):
    lhs, rhs = aggregate_kernels_exponential(eps, 0.9 + 0.2j, 1.2)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_aggregation_rejects_eps_out_of_range():
    with pytest.raises(ValueError):
        aggregate_kernels_geometric(0.0, 1, 1)
    with pytest.raises(ValueError):
        aggregate_kernels_exponential(1.0, 1, 1)


# the verify kernels suite's grid and acceptance criterion 10's grid
_AGGREGATION_GRID = (
    [(eps, z, w) for eps in (0.25, 0.5, 0.85) for z in (0.3, 0.8 + 0.2j, -1.1)
     for w in (0.4, -0.6 + 0.5j, 1.2)]
    + [(eps, z, w) for eps in (0.25, 0.5, 0.9) for z in (0.6, 1.1 + 0.3j, 1.8j)
       for w in (0.5, 1.2 - 0.4j, 2.0)])


@pytest.mark.parametrize("fn", [aggregate_kernels_geometric,
                                aggregate_kernels_exponential])
def test_aggregation_lhs_against_mpmath(fn):
    # 40-digit coefficientwise resummation at the u the code forms; the
    # level sums the lhs truncates differ from it by under 3e-18 relative
    # on this grid
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for eps, z, w in _AGGREGATION_GRID:
            u = complex(z) * complex(w).conjugate()
            uu, e = mpmath.mpc(u.real, u.imag), mpmath.mpf(eps)
            coeff = ((lambda f: e / (f - e))
                     if fn is aggregate_kernels_geometric
                     else (lambda f: mpmath.expm1(e / f)))
            want = complex(mpmath.fsum(uu ** n * coeff(mpmath.factorial(n))
                                       for n in range(49)))
            lhs, _ = fn(eps, z, w)
            worst = max(worst, abs(lhs - want) / abs(want))
    assert worst <= 3e-15


def _section_outcome(fn, *args):
    """repr of the coefficients as a tuple of Python complex (the package
    holds its array), or the error raised."""
    try:
        return "value", repr(tuple(np.asarray(fn(*args).coeffs).tolist()))
    except (TypeError, ValueError) as err:
        return "raise", type(err), str(err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_kernel_section_powers_match_the_loop_bitwise(m):
    # |w| from 1e-3 to 30: degree 1000 runs |w|**n far past double range,
    # where the powers turn inf and nan as the loop's did
    rng = np.random.default_rng(600 + m)
    ws = [0.0, 1e-3j, -0.5, complex(-1.0, -0.0), 2.0, 12.0j, 30.0 - 1.0j,
          complex("inf"), complex("nan")]
    ws += [complex(rng.standard_normal(), rng.standard_normal())
           * 10 ** rng.uniform(-3, 1.5) for _ in range(6)]
    for w in ws:
        for degree in (0, 1, 30, 200, 1000):
            assert _section_outcome(kernel_section, m, w, degree) == (
                _section_outcome(kernel_section_by_loop, m, w, degree)), (
                    w, degree)


@pytest.mark.parametrize("degree", [-1, -3, 30.0, "30"])
def test_kernel_section_rejects_what_the_loop_rejected(degree):
    assert _section_outcome(kernel_section, 2, 0.5, degree) == (
        _section_outcome(kernel_section_by_loop, 2, 0.5, degree))
