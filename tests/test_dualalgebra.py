"""Dual-scale sequence algebra: products, norms, the product inequality.

A sequence at "level m" is measured with weights (n!)**(2-m), so higher
levels mean weaker norms.  The product inequality implemented here bounds
the product in the weaker of the two norms:

    ||a * b||_q  <=  A(q - p) ||a||_p ||b||_q        (q > p)

The swapped placement that circulates in the literature (product and b in
the stronger norm, a in the weaker) fails on basis vectors; a test below
pins that counterexample so nobody "fixes" the orientation back.
"""

import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coeffs_reference import coeff_bits
from dual_reference import (reference_exact_product, reference_product,
                            reference_riemann)
from genfock import bargmann, dualalgebra
from genfock.coeffspace import TaylorCoeffs, WeightOverflowError
from genfock.radialkernel import geometric_inner_product
from genfock.dualalgebra import (
    DualSequence,
    cauchy_product,
    dual_distance,
    dual_norm,
    dual_sq_norm_flagged,
    pairing,
    refinement_order,
    riemann_integral_product,
    sample_path,
    vage_check,
    vage_constant,
)

SUM_INV_FACT_SQ = 2.2795853023360673  # 60-digit decimal oracle, level-2 sum

small_complex = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def seqs(max_len=8, elements=small_complex, levels=st.integers(1, 4)):
    return st.builds(
        DualSequence,
        st.lists(elements, min_size=1, max_size=max_len),
        levels,
    )


# ---------------------------------------------------------------- elements


def test_unit_and_equality():
    e = DualSequence.unit()
    assert e.coeff(0) == 1 and e.coeff(1) == 0
    assert DualSequence([1, 0, 0], 2) == DualSequence([1], 2)
    assert DualSequence([1], 1) != DualSequence([1], 2)  # level is identity


def test_json_round_trip():
    b = DualSequence([1.5, -2j, 0.25], 3)
    again = DualSequence.from_json_obj(json.loads(json.dumps(b.to_json_obj())))
    assert again == b


def test_level_validation():
    with pytest.raises(ValueError):
        DualSequence([1], 0)
    with pytest.raises(ValueError):  # bool is an int, True is no level
        DualSequence([1, 2], True)


# ----------------------------------------------------------------- product


def test_cauchy_product_small_exact():
    a = DualSequence([1, 2, 3], 1)
    b = DualSequence([4, 5], 1)
    assert cauchy_product(a, b) == DualSequence([4, 13, 22, 15], 1)


def test_unit_is_neutral():
    b = DualSequence([3, 1j, -0.5], 2)
    assert cauchy_product(DualSequence.unit(level=2), b) == b


def test_product_takes_weaker_level():
    a = DualSequence([1], 1)
    b = DualSequence([1], 3)
    assert cauchy_product(a, b).level == 3


@given(seqs(), seqs())
def test_product_commutes(a, b):
    assert cauchy_product(a, b) == cauchy_product(b, a)


def _outcome(product, ca, cb):
    """The coefficients as :func:`coeff_bits`, or the exception raised."""
    try:
        return coeff_bits(product(ca, cb))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _package_product(ca, cb):
    return cauchy_product(DualSequence(ca), DualSequence(cb)).coeffs


def _draw(rng, n, zeros):
    c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()
    for i in zeros:
        c[i] = 0
    return c


@pytest.mark.parametrize("block", [4096, 5])
@pytest.mark.parametrize("la,lb,zeros", [
    (25, 40, ()), (1, 7, ()), (7, 1, ()), (30, 12, (0, 4, 5, 6, 29)),
    (200, 200, (17, 100, 101)),
])
def test_float_product_is_the_reference_bit_for_bit(monkeypatch, block,
                                                    la, lb, zeros):
    # block = 5 splits every product into many blocks, and puts single
    # diagonals longer than a block into blocks of their own
    monkeypatch.setattr(dualalgebra, "_BLOCK", block)
    rng = np.random.default_rng(la * lb)
    ca = _draw(rng, la, [z for z in zeros if z < la])
    cb = _draw(rng, lb, [z - 1 for z in zeros if 0 < z <= lb])
    ab = cauchy_product(DualSequence(ca), DualSequence(cb)).coeffs
    ba = cauchy_product(DualSequence(cb), DualSequence(ca)).coeffs
    want = reference_product(ca, cb)
    for got in (ab, ba):
        assert coeff_bits(got) == coeff_bits(want)


# float parts that stress the certificate: signed zeros, subnormals,
# magnitudes whose products reach the top of double range (and a sigma past
# it), and 1 beside 2**-53, whose sums are exact ties
_HARD_PARTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 2.0 ** -53, -(2.0 ** -53),
                     5e-324, -5e-324, 2.0 ** -1022, 1e154, -1e154, 1.3e154]))
_HARD_COEFFS = st.one_of(st.just(0), _HARD_PARTS,
                         st.builds(complex, _HARD_PARTS, _HARD_PARTS))
_BIG = complex(1.3e154, 1.3e154)


@pytest.mark.parametrize("block", [4096, 5])
def test_certified_product_is_the_reference_on_hard_input(monkeypatch, block):
    # every product takes the certificate, so each diagonal it refuses
    # (ties, cancellation, zero or subnormal sums, inf - inf, a sigma past
    # range) must come back from fsum as the reference has it
    monkeypatch.setattr(dualalgebra, "_BLOCK", block)
    monkeypatch.setattr(dualalgebra, "_CERTIFY_PAIRS", 0)

    @given(st.lists(_HARD_COEFFS, min_size=1, max_size=30),
           st.lists(_HARD_COEFFS, min_size=1, max_size=30))
    @example([1.0, 1.0], [1.0, 2.0 ** -53])     # 1 + 2**-53, a tie
    @example([1.0, 1.0], [1.0, -1.0])           # exact cancellation
    @example([_BIG, -_BIG], [_BIG, _BIG])       # inf - inf: NaN
    @example([1e154, 1e154, 1e154], [1.7e154, 1.7e154, -1.7e154])
    # diagonal 2 sums to 1 + 2**-53 + 2**-105, just above a tie; its low
    # parts do not sum exactly, and rounded they make the tie itself
    @example([1 + 2.0 ** -51, 2.0 ** -53 + 2.0 ** -105, -(2.0 ** -51)],
             [1.0, 1.0, 1.0])
    # diagonal 4 overflows fsum (1e308 + 1e308); the fallback's exact sum
    # keeps the 5e-324 term, which a scaled-down redo would flush to 0.0
    @example([5e-324, 1e154, 1e154, 1e154, 1e154],
             [1e154, 1e154, -1e154, -1e154, 1.0])
    def check(ca, cb):
        want = _outcome(reference_product, ca, cb)
        assert _outcome(_package_product, ca, cb) == want
        assert _outcome(_package_product, cb, ca) == want

    check()


def _converts(x) -> bool:
    try:
        complex(x)
    except OverflowError:
        return False
    return True


def _stack_outcome(pairs, level):
    """Each pair's reference product as :func:`coeff_bits`, or the error
    the first pair to fail raises.  Where the reference raises a bare
    OverflowError, the kernel names the pair's first coefficient that no
    double holds, ca before cb, with WeightOverflowError at ``level``."""
    rows = []
    for ca, cb in pairs:
        row = _outcome(reference_product, ca, cb)
        if isinstance(row, tuple) and row[0] is OverflowError:
            n = next(n for c in (ca, cb) for n, x in enumerate(c)
                     if not _converts(x))
            return WeightOverflowError, str(
                WeightOverflowError(n, level, cause="coefficient"))
        if isinstance(row, tuple):
            return row
        rows.append(row)
    return rows


def _kernel_outcome(pairs, level):
    try:
        return [coeff_bits(row[:len(ca) + len(cb) - 1]) for (ca, cb), row
                in zip(pairs, dualalgebra._float_convolution(pairs, level))]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("block", [4096, 5])
def test_stacked_kernel_is_the_reference_pair_by_pair(monkeypatch, block):
    # ragged pairs are zero-padded to common lengths; block = 5 puts block
    # boundaries inside a pair, and with a shorter factor of length 1 or 2
    # makes blocks that span pairs
    monkeypatch.setattr(dualalgebra, "_BLOCK", block)
    monkeypatch.setattr(dualalgebra, "_CERTIFY_PAIRS", 0)
    factor = st.lists(_HARD_COEFFS, min_size=1, max_size=12)

    @given(st.lists(st.tuples(factor, factor), min_size=1, max_size=4))
    @example([([1.0], [2.0, 3.0, 4.0]), ([5.0, 0], [1e154, -1e154, 1.0]),
              ([2.0 ** -53, 1.0], [1.0])])
    @example([([1.0, 1.0], [1.0, 2.0 ** -53]), ([1.0], [_BIG]),
              ([_BIG, -_BIG], [_BIG, _BIG])])      # the third is NaN
    @example([([3.0, 0, 1.0], [0, 0]), ([1.0, 1.0], [1.0, -1.0])])
    # a factor that does not convert raises after the pairs before it,
    # naming the coefficient and the level passed
    @example([([_BIG, -_BIG], [_BIG, _BIG]), ([1.0, 10 ** 400], [1.0, 1.0])])
    @example([([1.0, 10 ** 400], [1.0, 1.0]), ([_BIG, -_BIG], [_BIG, _BIG])])
    def check(pairs):
        assert _kernel_outcome(pairs, 3) == _stack_outcome(pairs, 3)

    check()


def test_product_takes_both_routes(monkeypatch):
    # 40 x 40 is past _CERTIFY_PAIRS; diagonal 1 cancels exactly, which the
    # certificate refuses, so it alone goes to fsum
    summed = []

    def spy(re, im, live):
        out = fsum_rows(re, im, live)
        summed.extend(out)
        return out

    fsum_rows = dualalgebra._fsum_rows
    monkeypatch.setattr(dualalgebra, "_fsum_rows", spy)
    int64 = _spy_int64(monkeypatch)
    rng = np.random.default_rng(11)
    ca = [1.0, 1.0] + rng.standard_normal(38).tolist()
    cb = [1.0, -1.0] + rng.standard_normal(38).tolist()
    got = _package_product(ca, cb)
    assert summed == [0j]
    assert got[1] == 0j
    assert coeff_bits(got) == coeff_bits(reference_product(ca, cb))
    # an int (40, 40) product takes int64, one past the bound the loop
    assert not int64
    a = [int(v) for v in rng.integers(-5, 6, 40)]
    assert _package_product(a, a[::-1]) == tuple(
        reference_exact_product(a, a[::-1]))
    assert int64 == [(40, 40)]
    _package_product([2 ** 31] * 40, [2 ** 31] * 40)
    assert int64 == [(40, 40)]


def _spy_int64(monkeypatch) -> list:
    """The factor lengths of every product that takes the int64 route."""
    calls = []

    def spy(a, b):
        calls.append((len(a), len(b)))
        return convolve(a, b)

    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", spy)
    return calls


_B = 2 ** 31 - 1  # 2**30 * _B * 2 is 2**62 - 2**31: just under the bound


@pytest.mark.parametrize("ca,cb,int64", [
    ([2 ** 30, -2 ** 30], [_B, _B, -_B], True),
    ([2 ** 30, 2 ** 30], [_B + 1, _B + 1, _B + 1], False),  # 2**62 exactly
    ([2 ** 31, 2 ** 31], [2 ** 31] * 3, False),  # int64 would wrap at 2**63
    ([2 ** 70, -3, 1], [3, 2 ** 64 + 1], False),  # past int64
    ([10 ** 30, 5], [0, 0, 0], False),  # a 0 factor is no licence
    ([True, False, True], [1, -2], False),
    ([True, 3], [True, True], False),
    ([Fraction(1, 3), Fraction(0), 2], [Fraction(3, 2), 4], False),
    ([1, Fraction(1, 2)], [2, 3, -1], False),
    ([Fraction(4, 2), 1], [5, 6], False),  # Fraction(2), still a Fraction
    ([0, 0, 0], [1, 2], True),
    ([0], [0, 0], True),
    ([7], [3, -4], True),
    ([-9], [5], True),
])
def test_int_product_takes_int64_only_under_the_bound(monkeypatch, ca, cb,
                                                     int64):
    calls = _spy_int64(monkeypatch)
    want = _outcome(reference_exact_product, ca, cb)
    assert _outcome(_package_product, ca, cb) == want
    assert _outcome(_package_product, cb, ca) == _outcome(
        reference_exact_product, cb, ca)
    assert bool(calls) is int64


def test_exact_products_are_the_loop_on_seeded_draws(monkeypatch):
    # ints of 2 to 80 bits, Fractions and mixed factors, lengths 1 to 40:
    # every output is the double loop's, value, type and repr
    calls, under = _spy_int64(monkeypatch), []
    rng = np.random.default_rng(12)
    for bits in (2, 20, 31, 40, 62, 64, 80):
        for kind in ("int", "fraction", "mixed"):
            la, lb = (int(n) for n in rng.integers(1, 41, 2))
            a, b = ([int(rng.integers(-2 ** 20, 2 ** 20)) << max(0, bits - 21)
                     for _ in range(n)] for n in (la, lb))
            if kind != "int":
                a = [Fraction(x, int(rng.integers(1, 9))) for x in a]
            if kind == "mixed":
                a[::2] = [int(x) for x in a[::2]]
            assert _outcome(_package_product, a, b) == _outcome(
                reference_exact_product, a, b)
            if kind == "int" and max(map(abs, a)) * max(map(abs, b)) * min(
                    la, lb) < 2 ** 62:
                under.append((la, lb))
    assert calls == under and len(under) == 2  # the 2- and 20-bit ints


def test_float_product_memory_is_bounded_per_block():
    # one full (1000, 1000) array of products would take 8 MB
    rng = np.random.default_rng(5)
    a = DualSequence(_draw(rng, 1000, ()))
    b = DualSequence(_draw(rng, 1000, ()))
    tracemalloc.start()
    try:
        cauchy_product(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _with_zero_ends(c, head, tail, zero=0):
    return [zero] * head + c + [zero] * tail


_ZERO_ENDS = [  # (head, tail, zero) of each factor
    ((3, 0, 0), (0, 0, 0)),          # a zero head
    ((0, 4, 0.0), (0, 2, 0j)),       # zero tails
    ((2, 3, -0.0), (5, 1, 0)),       # both, signed zeros in a
    ((0, 0, 0), (4, 4, complex(-0.0, -0.0))),
    ((7, 7, 0.0), (0, 0, 0)),        # most of a is zeros
]


@pytest.mark.parametrize("certify", [0, 300])
@pytest.mark.parametrize("ends", _ZERO_ENDS)
def test_trimmed_product_is_the_reference(monkeypatch, certify, ends):
    # zero heads and tails are trimmed before any product is formed; the
    # diagonals outside the window are still the exact 0 and the rest is
    # bit for bit the reference, on both routes
    monkeypatch.setattr(dualalgebra, "_CERTIFY_PAIRS", certify)
    rng = np.random.default_rng(sum(sum(e[:2]) for e in ends))
    (ha, ta, za), (hb, tb, zb) = ends
    for la, lb in ((1, 1), (5, 9), (30, 30)):
        ca = _with_zero_ends(_draw(rng, la, ()), ha, ta, za)
        cb = _with_zero_ends(_draw(rng, lb, ()), hb, tb, zb)
        if la == 5:  # signed zeros inside, and a real factor
            ca[ha + 1], cb = -0.0, [complex(c).real for c in cb]
        want = coeff_bits(reference_product(ca, cb))
        for x, y in ((ca, cb), (cb, ca)):
            assert coeff_bits(_package_product(x, y)) == want


@pytest.mark.parametrize("zero", [0, 0.0, -0.0, complex(-0.0, 0.0)])
def test_all_zero_factor_gives_exact_zeros(zero):
    rng = np.random.default_rng(3)
    for n in (1, 40):
        c = _draw(rng, n, ())
        held = _package_product([zero] * 6, c)
        # the held array's exact 0s are +0j, where the tuple had the int 0
        assert held.dtype == complex and repr(held.tolist()) == repr(
            [0j] * (n + 5))
        got = coeff_bits(held)
        assert got == coeff_bits([0] * (n + 5))
        assert got == coeff_bits(reference_product([zero] * 6, c))
        assert coeff_bits(_package_product(c, [zero] * 6)) == got


def test_stack_trims_what_its_pairs_share(monkeypatch):
    # a stack trims only the zero ends every pair has; each pair's own
    # outer diagonals come out as the exact 0 all the same
    monkeypatch.setattr(dualalgebra, "_CERTIFY_PAIRS", 0)
    rng = np.random.default_rng(4)
    pairs = [(_with_zero_ends(_draw(rng, 8, ()), 2, 1), [0, 0] + _draw(
        rng, 5, ())), (_with_zero_ends(_draw(rng, 4, ()), 3, 4), _draw(
            rng, 9, ()) + [0.0] * 3), ([0, 0, 0, 1.5], [0.0, 2.0])]
    got = dualalgebra._float_convolution(pairs, 1)
    for row, (ca, cb) in zip(got, pairs):
        assert coeff_bits(row[:len(ca) + len(cb) - 1]) == coeff_bits(
            reference_product(ca, cb))
        assert not row[len(ca) + len(cb) - 1:].any()


def test_norm_scaled_product_forms_only_its_live_window(monkeypatch):
    # c_n (n!)^(-1) is exactly 0 from n = 178 on (the draws of the algebra
    # benchmark at m = 2): a (1000, 1000) product forms 355 diagonals of
    # its 1999, and the rest are the exact 0
    formed = []

    def spy(short, other, view, swap):
        formed.append((short.shape, other.shape))
        return diagonal_sums(short, other, view, swap)

    diagonal_sums = dualalgebra._diagonal_sums
    monkeypatch.setattr(dualalgebra, "_diagonal_sums", spy)
    rng = np.random.default_rng(6)
    s = np.exp([-math.lgamma(n + 1) for n in range(1000)])
    a, b = (np.array(_draw(rng, 1000, ())) * s).tolist(), (np.array(
        _draw(rng, 1000, ())) * s).tolist()
    live = int(np.flatnonzero(s)[-1]) + 1
    assert live == 178
    got = _package_product(a, b)
    assert formed == [((1, live), (1, live))]
    assert coeff_bits(got[2 * live - 1:]) == coeff_bits([0] * (
        1999 - (2 * live - 1)))


def test_mixed_product_takes_the_float_route():
    a = DualSequence([1, Fraction(1, 2)], 1)
    b = DualSequence([2, 0.25], 1)
    got = cauchy_product(a, b).coeffs
    assert got.dtype == complex  # the float route's array, held
    assert tuple(got.tolist()) == (2, 1.25, 0.125)
    assert cauchy_product(a, a).coeffs == (1, 1, Fraction(1, 4))


def test_product_associates_exactly_on_integers():
    a = DualSequence([1, -2], 1)
    b = DualSequence([0, 3, 1], 1)
    c = DualSequence([5, 0, 0, 2], 1)
    assert cauchy_product(cauchy_product(a, b), c) == cauchy_product(
        a, cauchy_product(b, c)
    )


def test_basis_shift():
    e2 = DualSequence.unit(2)
    e3 = DualSequence.unit(3)
    assert cauchy_product(e2, e3) == DualSequence.unit(5)


# ------------------------------------------------------------------- norms


def test_dual_norm_basis_values():
    # ||e_n|| at level m is (n!)**((2-m)/2)
    assert dual_norm(DualSequence.unit(3), 1) == pytest.approx(
        math.sqrt(6.0), rel=1e-14, abs=0
    )
    assert dual_norm(DualSequence.unit(3), 2) == 1.0
    assert dual_norm(DualSequence.unit(3), 4) == pytest.approx(
        1.0 / 6.0, rel=1e-14, abs=0
    )


def test_dual_norm_underflow_flag():
    b = DualSequence([0] * 200 + [1.0], 50)
    val, underflowed = dual_sq_norm_flagged(b, 50)
    assert underflowed
    assert val == 0.0


@given(seqs(levels=st.integers(1, 3)), st.integers(min_value=1, max_value=3))
def test_dual_norms_weaken_with_level(b, m):
    # weights (n!)**(2-m) are nonincreasing in m
    assert dual_norm(b, m + 1) <= dual_norm(b, m) * (1 + 1e-12)


def test_pairing_weights_by_factorial():
    f = TaylorCoeffs([1, 2])
    b = DualSequence([3, 5j], 1)
    # 1*conj(3)*0! + 2*conj(5j)*1!
    assert pairing(f, b) == 3 - 10j


# -------------------------------------------------------- the A(d) constant


def test_constant_gap_one_is_sqrt_e():
    assert vage_constant(1) == pytest.approx(
        math.sqrt(math.e), rel=1e-14, abs=0
    )


def test_constant_gap_two_squares_to_level2_sum():
    assert vage_constant(2) ** 2 == pytest.approx(
        SUM_INV_FACT_SQ, rel=1e-14, abs=0
    )


def test_constant_large_gap_approaches_sqrt_two():
    # only n = 0, 1 survive: A(d)^2 -> 2 from above
    assert vage_constant(50) == pytest.approx(
        math.sqrt(2.0), rel=1e-15, abs=0
    )


@pytest.mark.parametrize("d", range(3, 9))
def test_constant_against_exact_sum(d):
    # terms past n = 30 are below 1e-101 of the n = 0 term at d = 3
    exact = sum(Fraction(1, math.factorial(n) ** d) for n in range(31))
    assert vage_constant(d) == pytest.approx(math.sqrt(exact), rel=1e-15,
                                             abs=0)


def test_constant_rejects_bad_gap():
    with pytest.raises(ValueError):
        vage_constant(0)
    with pytest.raises(ValueError):  # bool is an int, True is no gap
        vage_constant(True)


def test_cached_constant_still_validates_every_call():
    vage_constant(1)  # now cached
    with pytest.raises(ValueError):
        vage_constant(1.0)
    with pytest.raises(ValueError):
        vage_constant(0)
    # a keyword call keys a cache by value, where 1.0 == 1
    vage_constant(d=1)
    with pytest.raises(ValueError):
        vage_constant(d=1.0)


# ------------------------------------------------------ product inequality


@given(
    seqs(max_len=10, levels=st.just(1)),
    seqs(max_len=10, levels=st.just(1)),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_product_inequality_random(a, b, p, gap):
    lhs, bound, ok = vage_check(a, b, p, p + gap)
    assert ok
    assert lhs <= bound * (1 + 1e-12)


def test_product_inequality_tight_direction_on_basis():
    # a = e_3, b = e_0, p = 1, q = 2: lhs = (3!)^0 = 1, bound = sqrt(e*6)
    lhs, bound, ok = vage_check(
        DualSequence.unit(3), DualSequence.unit(0), 1, 2
    )
    assert ok
    assert lhs == pytest.approx(1.0, rel=1e-14, abs=0)
    assert bound == pytest.approx(math.sqrt(math.e * 6.0), rel=1e-12)


def test_product_bound_fails_when_norms_swap():
    # the swapped orientation: product and b measured at the STRONGER
    # level p, a at the weaker level q.  e_3 * e_0 = e_3 gives
    # lhs = ||e_3||_1 = sqrt(6) > sqrt(e) = A(1) ||e_3||_2 ||e_0||_1,
    # so that placement is not an inequality at all.
    e3 = DualSequence.unit(3)
    e0 = DualSequence.unit(0)
    lhs_swapped = dual_norm(cauchy_product(e3, e0), 1)
    bound_swapped = vage_constant(1) * dual_norm(e3, 2) * dual_norm(e0, 1)
    assert lhs_swapped > bound_swapped


def _old_vage(a, b, p, q):
    """vage_check as the full product's norm: (lhs, bound, holds)."""
    lhs = dual_norm(cauchy_product(a, b), q)
    bound = vage_constant(q - p) * dual_norm(a, p) * dual_norm(b, q)
    return lhs, bound, lhs <= bound * (1.0 + 1e-12)


def _vage_draws():
    rng = np.random.default_rng(21)
    for q in (3, 4, 5, 6):
        for la, lb in ((1, 1), (1, 400), (7, 3), (60, 250), (400, 400)):
            for scale in (1e-100, 1.0, 1e100):
                a = _draw(rng, la, ()) if la > 1 else [scale * 0.75j]
                b = [scale * c for c in _draw(rng, lb, ())]
                yield a, b, int(rng.integers(1, q)), q
    # a non-finite coefficient, early or where only a full product reads it
    a, b = _draw(rng, 300, ()), _draw(rng, 300, ())
    for bad in (math.inf, math.nan, complex(0.0, -math.inf)):
        yield a[:12] + [bad] + a[13:], b[:30], 2, 3
        yield a, b[:280] + [bad] + b[281:], 1, 3
        yield a[:30], [bad] + b[1:30], 1, 4
    yield [1, -2, 3] * 30, [Fraction(1, 3), 0, 5] * 40, 2, 3  # exact
    yield [1, Fraction(1, 2)] * 50, [0.5] * 90, 1, 5  # mixed: float
    yield [1e200] * 300, [1e200] * 300, 2, 3  # products past range
    # finite early diagonals, inf from n = 300 on, where the weights
    # (n!)**-4 alone would flush every finite term
    yield [1.0] * 150 + [1e200] * 150, [1.0] * 150 + [1e200] * 150, 2, 6
    yield [0] * 200 + [1.0], [0.0] * 5 + [2.0] * 9, 1, 3  # zero heads
    # lengths around the early stop's first head of 24 diagonals, its
    # fourfold growth and the 48 diagonals below which it is not tried
    for la, lb in ((24, 25), (25, 25), (1, 49), (49, 1), (24, 24), (97, 3),
                   (96, 97), (385, 2)):
        for q in (3, 5):
            yield _draw(rng, la, ()), _draw(rng, lb, ()), 2, q
    # one large coefficient: its bound spoils the first head, not the second
    a = _draw(rng, 200, ())
    yield a[:50] + [1e6] + a[51:], _draw(rng, 200, ()), 2, 3


def test_vage_check_is_the_full_product_norm_bit_for_bit():
    for ca, cb, p, q in _vage_draws():
        a, b = DualSequence(ca, p), DualSequence(cb, q)
        with np.errstate(all="ignore"):
            want = _old_vage(a, b, p, q)
            got = vage_check(a, b, p, q)
        assert repr(got) == repr(want), (len(ca), len(cb), p, q)


def test_vage_check_forms_only_the_visible_diagonals(monkeypatch):
    # at n = 200 and q = 3 the first head, the product of the first 24
    # coefficients of each factor, certifies the norm: 47 of the full
    # product's 399 diagonals are formed
    formed = []

    def spy(p):
        formed.append(p.shape[1])
        return certified_sums(p)

    certified_sums = dualalgebra._certified_sums
    rng = np.random.default_rng(0)
    a = DualSequence(_draw(rng, 200, ()), 2)
    b = DualSequence(_draw(rng, 200, ()), 3)
    want = _old_vage(a, b, 2, 3)
    monkeypatch.setattr(dualalgebra, "_certified_sums", spy)
    got = vage_check(a, b, 2, 3)
    assert repr(got) == repr(want)
    assert formed == [47]


def test_vage_check_early_stop_is_not_fooled_by_a_tie():
    # the first 24 diagonals sum to exactly 1 + 2**-53, a tie that fsum
    # rounds to 1.0; the term at n = 40, about 7.8e-25, breaks it upward
    a = [1.0, 0.0, 2 ** -26] + [0.0] * 37 + [8e11] + [0.0] * 19
    want = float.fromhex("0x1.0000000000001p+0")
    assert math.fsum(dualalgebra._weighted_sq_terms(a[:24], -1)) == 1.0
    assert dualalgebra._product_sq_norm(tuple(a), (1.0,), 3) == want
    x, y = DualSequence(a, 2), DualSequence([1.0], 3)
    assert repr(vage_check(x, y, 2, 3)) == repr(_old_vage(x, y, 2, 3))


def test_vage_check_validates_levels():
    a = DualSequence.unit(0)
    with pytest.raises(ValueError):
        vage_check(a, a, 2, 2)  # needs q > p
    with pytest.raises(ValueError):
        vage_check(a, a, 0, 1)
    with pytest.raises(ValueError):
        vage_check(a, a, True, 2)


def test_exact_coefficient_past_double_range_is_a_typed_overflow():
    # every dual route names a level the caller passed, not the weight's
    # exponent 2 - m; the difference of an exact and a float coefficient
    # is past range at once
    big = DualSequence([10**400])
    for fn in (lambda: dual_norm(big, 3),
               lambda: dual_distance(big, DualSequence([1]), 3),
               lambda: dual_distance(big, DualSequence([1.0]), 3),
               lambda: dual_distance(DualSequence([1.0]), big, 3)):
        with pytest.raises(WeightOverflowError) as info:
            fn()
        assert (info.value.index, info.value.m) == (0, 3)
        assert str(info.value) == ("coefficient exceeds double range at "
                                   "index n=0 (level m=3)")
    # the exact product is the coefficient itself: lhs raises first, at q
    with pytest.raises(WeightOverflowError) as info:
        vage_check(big, DualSequence([1]), 1, 3)
    assert (info.value.index, info.value.m) == (0, 3)
    # an exact node's product past range, at the path's level
    e200 = 10**200
    for f, g, index, level in (
            ([[e200], [e200]], [[e200], [1.0]], 0, 1),
            ([[1.0], [1, e200]], [[2.0], [1, e200]], 2, 2)):
        with pytest.raises(WeightOverflowError) as info:
            riemann_integral_product(
                [(t, DualSequence(c, level)) for t, c in zip((0.0, 1.0), f)],
                [(t, DualSequence(c)) for t, c in zip((0.0, 1.0), g)])
        assert (info.value.index, info.value.m) == (index, level)
    # mixed factors convert once each, a's at level p, then b's at level q
    for a, b, index, level in (([10**400, 1.0], [1.0], 0, 1),
                               ([1.0], [1.0, 10**400], 1, 3),
                               ([1.0, 10**400], [10**400], 1, 1)):
        with pytest.raises(WeightOverflowError) as info:
            vage_check(DualSequence(a), DualSequence(b), 1, 3)
        assert (info.value.index, info.value.m) == (index, level)
        assert str(info.value).startswith("coefficient exceeds double range")
    # the pairing's float route names the coefficient too
    with pytest.raises(WeightOverflowError) as info:
        pairing(TaylorCoeffs([1.0, 2.0]), DualSequence([1.5, 10**400]))
    assert (info.value.index, info.value.m) == (1, 1)
    # so do the float products, at the product's or the path's level
    for a, b, index, level in (((10 ** 400, 1.0), (1.0,), 0, 1),
                               ((1.0,), (2.0, 3, -Fraction(10 ** 401, 3)),
                                2, 2)):
        with pytest.raises(WeightOverflowError) as info:
            cauchy_product(DualSequence(a), DualSequence(b, level))
        assert (info.value.index, info.value.m) == (index, level)
        assert str(info.value) == ("coefficient exceeds double range at "
                                   f"index n={index} (level m={level})")
        f = sample_path(lambda t: DualSequence([1.0, t], 2), steps=4)
        g = sample_path(lambda t: DualSequence([t, 2.0]), steps=4)
        f[3], g[3] = (f[3][0], DualSequence(a)), (g[3][0], DualSequence(b))
        with pytest.raises(WeightOverflowError) as info:
            riemann_integral_product(f, g)
        assert (info.value.index, info.value.m) == (index, 2)
    # and so do the Hermite transform and the plane-integral inner product,
    # at the first index where one stands
    big, T = -Fraction(10 ** 401, 3), TaylorCoeffs
    for fn, index in (
            (lambda: bargmann.forward([10 ** 400, 1.0], 2), 0),
            (lambda: bargmann.inverse(T([1.0, big, 10 ** 400]), 2), 1),
            (lambda: bargmann.unitarity_gap([1.0, 10 ** 400], 2), 1),
            (lambda: bargmann.transform_via_quadrature([big, 1.0], 2, 0.5),
             0),
            (lambda: geometric_inner_product(T([10 ** 400, 1.0]),
                                             T([1.0, 1.0]), 2), 0),
            (lambda: geometric_inner_product(T([1.0, 1.0]),
                                             T([1.0, 10 ** 400]), 2), 1)):
        with pytest.raises(WeightOverflowError) as info:
            fn()
        assert (info.value.index, info.value.m) == (index, 2)
        assert str(info.value) == ("coefficient exceeds double range at "
                                   f"index n={index} (level m=2)")


def test_product_past_double_range_is_quiet():
    # the documented inf, without numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cauchy_product(DualSequence([1e308, 1e308]),
                             DualSequence([1e308, 1.0]))
        # inf - inf on diagonal 1 is NaN, as in float arithmetic (fsum
        # alone raises ValueError); the trapezoid rule's float-by-complex
        # multiply adds -0.0 * inf to every part
        a, b = [1e308, 1e308], [10.0, -10.0]
        nan = cauchy_product(DualSequence(a), DualSequence(b))
        path = riemann_integral_product(
            sample_path(lambda t: DualSequence(a), steps=2),
            sample_path(lambda t: DualSequence(b), steps=2))
    assert got.coeffs.tolist() == [complex(math.inf), complex(math.inf),
                                   1e308 + 0j]
    assert repr(nan.coeffs.tolist()) == "[(inf+0j), (nan+0j), (-inf+0j)]"
    assert repr(path.coeffs.tolist()) == (
        "[(inf+nanj), (nan+nanj), (-inf+nanj)]")
    # a partial sum past double range first, then inf and -inf
    assert math.isnan(dualalgebra._fsum([1e308, 1e308, math.inf, -math.inf]))


# ------------------------------------------------------------ path integral


def linear_paths():
    x = DualSequence([1.0, 0.5], 2)
    y = DualSequence([0.25, -1.0, 0.75], 2)

    def f(t):
        return DualSequence([1.0 + t * 0.5, 0.5 * t], 2)

    def g(t):
        return DualSequence([0.25, -1.0 + t, 0.75 * t * t], 2)

    return f, g


def exact_integral(f, g, width=8):
    # integrate the coefficientwise polynomial product with high-order
    # Gauss-Legendre, far beyond trapezoid accuracy
    nodes, weights = np.polynomial.legendre.leggauss(12)
    ts = 0.5 * (nodes + 1.0)
    acc = [0.0j] * width
    for t, w in zip(ts, weights):
        prod = cauchy_product(f(float(t)), g(float(t)))
        for n in range(width):
            acc[n] += 0.5 * w * complex(prod.coeff(n))
    return DualSequence(acc, 2)


def test_path_integral_converges_to_exact():
    f, g = linear_paths()
    exact = exact_integral(f, g)
    approx = riemann_integral_product(sample_path(f, steps=256),
                                      sample_path(g, steps=256))
    assert dual_distance(approx, exact, 2) < 1e-5


def test_refinement_order_is_two():
    f, g = linear_paths()
    order = refinement_order(f, g, exact_integral(f, g))
    assert 1.9 <= order <= 2.1


def test_grid_mismatch_raises():
    f, g = linear_paths()
    with pytest.raises(ValueError):
        riemann_integral_product(sample_path(f, steps=8),
                                 sample_path(g, steps=16))
    fp = sample_path(f, steps=8)
    gp = sample_path(g, steps=8)
    gp[3] = (gp[3][0] + 0.01, gp[3][1])
    with pytest.raises(ValueError):
        riemann_integral_product(fp, gp)


def _path_outcome(integrate, f_rows, g_rows, ts):
    try:
        got = integrate(f_rows, g_rows, ts)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return coeff_bits(got)


def _package_riemann(f_rows, g_rows, ts):
    out = riemann_integral_product(
        [(t, DualSequence(f, 2)) for t, f in zip(ts, f_rows)],
        [(t, DualSequence(g, 3)) for t, g in zip(ts, g_rows)])
    assert out.level == 3
    return out.coeffs


_HUGE = 2 ** 53 + 1   # exact products of it are not doubles


def _node_rows(kind):
    """(f_rows, g_rows, ts): nine nodes on an uneven grid, ragged float
    factors of one to seven coefficients, and one node of each kind."""
    rng = np.random.default_rng(23)
    ts = np.cumsum(rng.uniform(0.05, 0.3, 9)).tolist()
    f_rows = [_draw(rng, int(rng.integers(1, 8)), ()) for _ in ts]
    g_rows = [_draw(rng, int(rng.integers(1, 8)), ()) for _ in ts]
    if kind == "empty":
        f_rows[4] = []
    elif kind == "exact":
        f_rows[2], g_rows[2] = [_HUGE, 3], [_HUGE, 2 ** 60 + 7, -_HUGE]
    elif kind == "all exact":
        f_rows = [[_HUGE, 3]] * len(ts)
        g_rows = [[_HUGE, 2 ** 60 + 7, -_HUGE]] * len(ts)
    elif kind == "signed zeros":  # products that underflow toward -0.0
        f_rows, g_rows = [[-1e-200]] * len(ts), [[1e-200]] * len(ts)
    elif kind == "non-finite":  # 0.0 * inf in the float-by-complex multiply
        f_rows[3], g_rows[3] = [1e300j], [1e300j, 1.0]
    if kind.startswith("inf - inf"):
        f_rows[6], g_rows[6] = [_BIG, -_BIG], [_BIG, _BIG]
    if kind.endswith("no float"):  # an int past double range in a float node
        f_rows[8] = [1.0, 10 ** 400]
    return f_rows, g_rows, ts


@pytest.mark.parametrize("kind", [
    "ragged", "empty", "exact", "all exact", "signed zeros", "non-finite",
    "inf - inf", "no float", "inf - inf, then no float"])
def test_path_integral_is_the_reference(kind):
    f_rows, g_rows, ts = _node_rows(kind)
    want = _path_outcome(reference_riemann, f_rows, g_rows, ts)
    got = _path_outcome(_package_riemann, f_rows, g_rows, ts)
    if kind.endswith("no float"):
        # the reference's bare OverflowError comes typed, at the path's
        # level, after any NaN node
        assert want == (OverflowError, "int too large to convert to float")
        assert got == (WeightOverflowError, "coefficient exceeds double "
                       "range at index n=1 (level m=3)")
    else:
        assert got == want
    if kind == "inf - inf":  # NaN, as in float arithmetic
        assert repr(reference_riemann(f_rows, g_rows, ts)[1]) == "(nan+nanj)"
    if kind == "signed zeros":
        assert repr(reference_riemann(f_rows, g_rows, ts)) == "[0j]"
    if kind == "non-finite":
        assert "nan" in repr(reference_riemann(f_rows, g_rows, ts)[0])
    if "exact" in kind:
        # the same node in floats rounds its factors first and differs
        floats = [[complex(c) for c in f] for f in f_rows]
        assert _path_outcome(reference_riemann, floats, g_rows, ts) != want


def test_all_int_path_takes_int64_at_every_node(monkeypatch):
    calls = _spy_int64(monkeypatch)
    rng = np.random.default_rng(24)
    ts = np.cumsum(rng.uniform(0.05, 0.3, 9)).tolist()
    f_rows = [[int(v) for v in rng.integers(-9, 10, 6)] for _ in ts]
    g_rows = [[int(v) for v in rng.integers(-9, 10, 4)] for _ in ts]
    want = _path_outcome(reference_riemann, f_rows, g_rows, ts)
    assert _path_outcome(_package_riemann, f_rows, g_rows, ts) == want
    assert calls == [(6, 4)] * len(ts)


def test_float_path_takes_one_kernel_call(monkeypatch):
    calls = []
    kernel = dualalgebra._float_convolution

    def spy(pairs, level):
        calls.append(len(pairs))
        return kernel(pairs, level)

    def per_node(a, b):
        raise AssertionError("a per-node cauchy_product call")

    monkeypatch.setattr(dualalgebra, "_float_convolution", spy)
    monkeypatch.setattr(dualalgebra, "cauchy_product", per_node)
    f, g = linear_paths()
    riemann_integral_product(sample_path(f), sample_path(g))
    assert calls == [17]
