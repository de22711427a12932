"""The float routes of ``inner_product``, ``_weighted_sq_terms`` and
``norm_identity_report`` against their earlier forms in
``coeffs_reference.py``: the same values bit for bit (struct-packed, so
the sign of a zero and a NaN's bits count) and the same errors (type and
message), on vectors with zero heads and tails, interior zeros, signed
zeros, subnormals, huge and non-finite parts and mixed int, Fraction and
float coefficients, at levels -4 to 6."""

import struct
from fractions import Fraction

import coeffs_reference as ref
from hypothesis import given
from hypothesis import strategies as st

from genfock import coeffspace, operators
from genfock.coeffspace import TaylorCoeffs

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1.0, -2.5, 1e150,
           1e308, -1e308, float("inf"), float("-inf"), float("nan")]
zeros = st.sampled_from([0, 0.0, -0.0, 0j, complex(-0.0, -0.0)])
parts = st.one_of(st.sampled_from(SPECIAL),
                  st.floats(-1e6, 1e6, allow_subnormal=True))
coefficient = st.one_of(
    zeros, parts, st.builds(complex, parts, parts),
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6))
levels = st.integers(-4, 6)


@st.composite
def vectors(draw, max_body=40):
    """A zero head, a body with interior zeros, a zero tail."""
    head = draw(st.lists(zeros, max_size=12))
    body = draw(st.lists(st.one_of(zeros, coefficient), max_size=max_body))
    return head + body + draw(st.lists(zeros, max_size=12))


def _bits(x):
    """x with every float replaced by its packed bytes."""
    if isinstance(x, complex):
        return struct.pack("<dd", x.real, x.imag)
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, (list, tuple)):
        return type(x)(map(_bits, x))
    return x


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return "raise", type(exc), str(exc)


@given(vectors(), vectors(), levels)
def test_inner_product_is_the_full_conversion_bit_for_bit(fs, gs, m):
    f, g = TaylorCoeffs(fs), TaylorCoeffs(gs)
    for x, y in ((f, g), (g, f), (f, f)):
        assert (_outcome(coeffspace.inner_product, x, y, m)
                == _outcome(ref.inner_product, x, y, m))


@given(vectors(), levels, st.booleans())
def test_weighted_square_terms_are_the_single_order_ones(cs, w, strict):
    for k in range(4):
        assert (_outcome(coeffspace._weighted_sq_terms, cs, w, k, strict)
                == _outcome(ref._weighted_sq_terms, cs, w, k, strict))
    assert (_outcome(coeffspace._weighted_sq_terms, cs, w, range(4), strict)
            == _outcome(lambda: [ref._weighted_sq_terms(cs, w, k, strict)
                                 for k in range(4)]))


@given(vectors(max_body=30), levels)
def test_norm_identity_report_is_the_per_term_route_bit_for_bit(cs, m):
    f = TaylorCoeffs(cs)
    assert (_outcome(operators.norm_identity_report, f, m)
            == _outcome(ref.norm_identity_report, f, m))


def test_hand_picked_edges_match():
    nan, inf = float("nan"), float("inf")
    cases = [([0, 1.0, 0.0], [1e308, 2.0, nan]),  # g's NaN is not paired
             ([0, 1e308, Fraction(1, 3), 2], [1.0, 1e308, 3, 0.5]),
             ([-0.0, 5e-324, 3, 0j], [0.0, 5e-324, -1, 1j]),
             ([inf, 0.0, 1.0], [0.0, 1.0, 1.0]),
             ([1.0] * 40 + [0.0] * 10 + [1.0], [1.0] * 51),
             ([0j] * 5, [1.0] * 5), ([1.0], [])]
    for fs, gs in cases:
        f, g = TaylorCoeffs(fs), TaylorCoeffs(gs)
        for m in (-4, 0, 1, 6):
            assert (_outcome(coeffspace.inner_product, f, g, m)
                    == _outcome(ref.inner_product, f, g, m))
            assert (_outcome(operators.norm_identity_report, f, m)
                    == _outcome(ref.norm_identity_report, f, m))
