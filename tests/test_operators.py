"""Raise/lower calculus: adjoints, commutators, normal ordering, norms."""

import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genfock import coeffspace, operators
from genfock.coeffspace import (
    TaylorCoeffs,
    WeightOverflowError,
    _weighted_sq_terms,
    inner_product,
    log_weight,
    squared_norm,
    sub,
)
from genfock.operators import (
    adjoint_word_check,
    apply_word,
    commutator_apply,
    commutator_expansion_terms,
    commutator_raising,
    commutator_via_expansion,
    domain_functional,
    lowering,
    lowering_adjoint,
    norm_identity_report,
    number_power_direct,
    number_power_normal_ordered,
    raising,
    raising_adjoint,
    raising_adjoint_via_stirling,
    reordering_identity_check,
    shift_norm_decomposition,
    weighted_moment,
)
from genfock.stirling import stirling_s2
from genfock.suites import RunConfig, run_suite


def rand_element(rng, deg, scale=1.0):
    z = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return TaylorCoeffs(list(scale * z))


# ------------------------------------------------------------ basic action


def test_raising_and_lowering_on_monomials():
    f = TaylorCoeffs.monomial(3, 2)
    assert raising(f) == TaylorCoeffs.monomial(4, 2)
    assert lowering(f) == TaylorCoeffs.monomial(2, 6)
    assert lowering(TaylorCoeffs([5])) == TaylorCoeffs.zero()


def test_word_application_order_is_right_to_left():
    f = TaylorCoeffs.monomial(2)
    # BA: raise to degree 3, then lower -> 3 z^2 ; AB: 2 z^2
    assert apply_word("BA", f) == TaylorCoeffs.monomial(2, 3)
    assert apply_word("AB", f) == TaylorCoeffs.monomial(2, 2)
    assert apply_word("ba", f) == apply_word("BA", f)


def test_word_rejects_unknown_letters():
    with pytest.raises(ValueError):
        apply_word("AXB", TaylorCoeffs.monomial(1))


def test_boolean_level_is_rejected():
    # bool is an int in Python, but True is not the level 1
    with pytest.raises(ValueError):
        raising_adjoint(TaylorCoeffs([1, 2]), True)


def test_adjoint_letters_match_functions():
    f = TaylorCoeffs([1, 2, 3, 4])
    assert apply_word("S", f, m=3) == raising_adjoint(f, 3)
    assert apply_word("T", f, m=3) == lowering_adjoint(f, 3)


def test_level1_adjoint_of_raising_is_lowering():
    f = TaylorCoeffs([1, -2, 5, 1])
    assert raising_adjoint(f, 1) == lowering(f)


def test_raising_adjoint_diagonal_factor():
    # on z^{n+1} the adjoint lowers with factor (n+1)^m
    for m in (1, 2, 4):
        g = raising_adjoint(TaylorCoeffs.monomial(5), m)
        assert g == TaylorCoeffs.monomial(4, 5**m)


# -------------------------------------------------------------- adjointness


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_adjointness_random(m):
    rng = np.random.default_rng(100 + m)
    worst = 0.0
    for _ in range(50):
        f = rand_element(rng, 16)
        g = rand_element(rng, 16)
        lhs = inner_product(raising(f), g, m)
        rhs = inner_product(f, raising_adjoint(g, m), m)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    assert worst < 1e-12


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=9),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=10),
    st.integers(min_value=1, max_value=2),
)
def test_adjointness_exact_on_integers(fs, gs, m):
    # small integer data keeps every term inside exact float range, so the
    # two pairings agree exactly, not just to tolerance
    f, g = TaylorCoeffs(fs), TaylorCoeffs(gs)
    assert inner_product(raising(f), g, m) == inner_product(
        f, raising_adjoint(g, m), m
    )


def test_adjoint_word_equals_operator():
    for m in (1, 2, 3, 4):
        assert adjoint_word_check(m, 12)


def test_adjoint_check_catches_a_wrong_stirling_weight(monkeypatch):
    def off_by_one(k):
        return [(n, w + (n == k)) for n, w in weights(k)]

    weights = operators.normal_order_coeffs
    monkeypatch.setattr(operators, "normal_order_coeffs", off_by_one)
    for m in range(2, 7):
        assert adjoint_word_check(m, 12) is False
    assert adjoint_word_check(1, 12) is True  # m = 1 takes no weight
    # the word route still agrees with the adjoint: the Stirling route fails
    f = TaylorCoeffs([1] * 13)
    assert apply_word("BA" * 3 + "B", f, 4) == raising_adjoint(f, 4)


_FAULTS = {  # one letter's coefficient action, perturbed
    "B times 2d": ("B", lambda cs, m: tuple(
        2 * k * c for k, c in enumerate(cs[1:], 1))),
    "B steps by -2": ("B", lambda cs, m: tuple(
        k * c for k, c in enumerate(cs[2:], 2))),
    "A steps by 0": ("A", lambda cs, m: cs),
    "A times 2": ("A", lambda cs, m: (0,) + tuple(2 * c for c in cs)),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_monomial_checks_catch_a_wrong_letter(monkeypatch, fault):
    letter, action = _FAULTS[fault]
    monkeypatch.setitem(operators._LETTERS, letter, action)
    for m in range(2, 7):
        assert adjoint_word_check(m, 12) is False
    for n in range(1, 6):
        assert reordering_identity_check(n, 12) is False


def test_adjoint_check_catches_a_lowering_that_keeps_the_commutator(
        monkeypatch):
    # z^j -> (j + 1) z^(j-1) adds the plain down-shift to lowering.  On
    # power series the down-shift drops the image of z^0, so it does not
    # commute with raising: [lowering, raising] = 1 fails on z^0, and the
    # reordering identities that follow from it fail with it
    monkeypatch.setitem(operators._LETTERS, "B", lambda cs, m: tuple(
        (k + 1) * c for k, c in enumerate(cs[1:], 1)))
    assert all(adjoint_word_check(m, 12) is False for m in range(1, 7))
    assert all(reordering_identity_check(n, 12) is False for n in range(1, 6))


def test_adjoint_check_catches_a_wrong_adjoint(monkeypatch):
    # the public raising_adjoint, wrong on z^7 only
    monkeypatch.setattr(operators, "_raise_adj", lambda cs, m: tuple(
        (k ** m + (k == 7)) * c for k, c in enumerate(cs[1:], 1)))
    assert all(adjoint_word_check(m, 12) is False for m in range(1, 7))
    assert adjoint_word_check(3, 6) is True  # degree 7 is never reached


def test_verify_operators_catches_a_wrong_public_adjoint(monkeypatch):
    # the checks run through raising_adjoint itself, so one wrong
    # coefficient of it (z -> 2 z^0 at every level) fails the check and
    # the row of ``verify operators`` that reports it
    monkeypatch.setattr(operators, "_raise_adj", lambda cs, m: tuple(
        (k ** m + (k == 1)) * c for k, c in enumerate(cs[1:], 1)))
    assert all(adjoint_word_check(m, 12) is False for m in range(1, 7))
    rows = {c["name"]: c["passed"]
            for c in run_suite(RunConfig(seed=7), "operators")["checks"]}
    assert rows["adjoint construction routes agree exactly"] is False


@pytest.mark.parametrize("m", [1, 3])
def test_verify_operators_catches_a_wrong_entry_of_the_cached_row(
        monkeypatch, m):
    # 5**m + 1 in place of 5**m: the check routes (the word, the ladder)
    # do not read the row, so they disagree with the adjoint that does
    row = list(operators._powers(m, 64))
    row[4] += 1
    monkeypatch.setitem(operators._POWERS, m, tuple(row))
    assert adjoint_word_check(m, 12) is False
    rows = {c["name"]: c["passed"]
            for c in run_suite(RunConfig(seed=7), "operators")["checks"]}
    assert rows["adjoint construction routes agree exactly"] is False


def test_cached_row_grows_by_request_and_keeps_its_entries(monkeypatch):
    monkeypatch.setattr(operators, "_POWERS", {})
    for m in (0, 1, 4):
        short = operators._powers(m, 5)
        assert short == tuple(n**m for n in range(1, 6))
        long = operators._powers(m, 3000)
        assert long[:5] == short
        assert long == tuple(n**m for n in range(1, len(long) + 1))
        assert len(long) >= 3000
        assert operators._powers(m, 10) is long
        assert operators._POWERS[m] is long


_SPECIAL = [0, 7, -3, Fraction(2, 3), Fraction(-5, 7), 0.0, -0.0, 5e-324,
            -2.5e-320, 1e300, -math.inf, math.inf, math.nan, 0.0j,
            complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1.0),
            complex(1e300, -1e300), complex(math.inf, math.nan),
            complex(math.nan, math.inf), complex(-math.inf, 0.0)]


def _bits(cs) -> list:
    # type and float.hex of every part, so -0.0, nan and inf are told apart
    def one(c):
        parts = ((c.real, c.imag) if isinstance(c, complex)
                 else (c,) if isinstance(c, float) else ())
        return type(c), tuple(map(float.hex, parts)) or c
    return list(map(one, cs))


@pytest.mark.parametrize("length", [0, 1, 2, 1001])
@pytest.mark.parametrize("m", range(1, 9))
def test_adjoints_from_the_row_are_the_per_coefficient_formulas(m, length):
    cs = [_SPECIAL[(7 * i + m) % len(_SPECIAL)] for i in range(length)]
    lowered = [0] if cs else []
    for k, c in enumerate(cs):
        d = (k + 1) ** (m - 1)
        lowered.append(c if d == 1 or c == 0
                       else Fraction(c, d) if isinstance(c, (int, Fraction))
                       else c / d)
    raised = [pow(n, m) * c for n, c in enumerate(cs[1:], 1)]
    f = TaylorCoeffs(cs)
    assert _bits(raising_adjoint(f, m).coeffs) == _bits(raised)
    assert _bits(lowering_adjoint(f, m).coeffs) == _bits(lowered)


def test_adjoint_factor_past_double_range_is_typed():
    # 371**120 is the first n**120 past double range: Python's int * float
    # raised a bare OverflowError there, zero coefficient or not
    with pytest.raises(WeightOverflowError) as info:
        raising_adjoint(TaylorCoeffs([0.0] * 400 + [1e-300]), 120)
    assert (info.value.index, info.value.m) == (371, 120)
    assert str(info.value).startswith("factor n**120 exceeds double range")
    # 246**129 is the first divisor past range with a non-zero coefficient
    with pytest.raises(WeightOverflowError) as info:
        lowering_adjoint(TaylorCoeffs([1.0] * 400), 130)
    assert (info.value.index, info.value.m) == (246, 130)
    assert str(info.value).startswith("divisor n**129 exceeds double range")
    # zeros are kept, not divided, so a zero tail there raises nothing
    got = lowering_adjoint(TaylorCoeffs([1.0] * 3 + [0.0] * 400), 130)
    assert got.coeffs[:4] == (0, 1.0, 1.0 / 2 ** 129, 1.0 / 3 ** 129)
    # a held array raises the same, at the same index
    held = coeffspace._held(TaylorCoeffs, np.array([0.0] * 400 + [1e-300],
                                                   complex))
    with pytest.raises(WeightOverflowError) as info:
        raising_adjoint(held, 120)
    assert (info.value.index, info.value.m) == (371, 120)
    # a mixed tuple keeps its exact products and its value
    got = raising_adjoint(TaylorCoeffs([0, 10**400, 1.0]), 1)
    assert got.coeffs == (10**400, 2.0)


def test_stirling_route_equals_direct_adjoint():
    f = TaylorCoeffs(list(range(1, 14)))
    for m in (1, 2, 3, 5):
        assert raising_adjoint_via_stirling(f, m) == raising_adjoint(f, m)


# -------------------------------------------------------------- commutator


def test_commutator_diagonal_coefficients():
    # [adjoint, raising] scales z^n by (n+1)^m - n^m
    for m in (1, 2, 3, 6):
        for n in (0, 1, 2, 7, 20):
            f = TaylorCoeffs.monomial(n)
            got = commutator_raising(f, m)
            assert got == TaylorCoeffs.monomial(n, (n + 1) ** m - n**m)


def test_commutator_expansion_terms_level3():
    # identity + sum over n >= 1 of (n+1) S(m, n+1) (raising^n lowering^n)
    assert commutator_expansion_terms(3) == [(1, 2 * 3), (2, 3 * 1)]


def test_commutator_routes_agree_exactly():
    for m in (1, 2, 4, 6):
        for n in range(0, 21):
            f = TaylorCoeffs.monomial(n)
            assert commutator_raising(f, m) == commutator_via_expansion(f, m)


def test_commutator_apply_checks_consistency():
    f = TaylorCoeffs([3, 1, 4, 1, 5])
    for m in (1, 2, 5):
        assert commutator_apply(f, m) == commutator_raising(f, m)


def test_level1_commutator_is_identity():
    f = TaylorCoeffs([2, 0, -1, 7])
    assert commutator_raising(f, 1) == f


# ----------------------------------------------------------- normal order


def test_number_power_routes_agree_exactly():
    f = TaylorCoeffs(list(range(1, 13)))
    for k in range(0, 9):
        assert number_power_direct(k, f) == number_power_normal_ordered(k, f)


# ---------------------------------------------------- the lowering ladder

_COEFFS = {
    "int": st.integers(-50, 50),
    "fraction": st.fractions(-20, 20, max_denominator=12),
    "float": st.floats(-1e6, 1e6),
    "complex": st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                  allow_infinity=False),
}
coeff_tuples = st.sampled_from(sorted(_COEFFS)).flatmap(
    lambda kind: st.lists(_COEFFS[kind], max_size=25).map(tuple))


def _exact(cs):
    return all(isinstance(c, (int, Fraction)) for c in cs)


def _routes_agree(a, b, cs):
    """Exact input: equal.  Float input: each coefficient within 1e-12 of
    the larger (the routes round differently, with no cancellation beyond
    the direct commutator's (n+1)**m - n**m)."""
    if _exact(cs):
        return a == b
    return all(abs(complex(x) - complex(y))
               <= 1e-12 * max(abs(complex(x)), abs(complex(y)), 1e-300)
               for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0))


# A literal copy of the expansion the ladder replaced: a fresh object per
# operator letter, each term lowered from f again, sums through _axpy.
def _ref_raise(f):
    return f if not f.coeffs else TaylorCoeffs((0,) + f.coeffs)


def _ref_lower(f):
    cs = f.coeffs
    return TaylorCoeffs(tuple((n + 1) * cs[n + 1] for n in range(len(cs) - 1)))


def _ref_word(word, f):
    for ch in reversed(word):
        f = _ref_raise(f) if ch == "A" else _ref_lower(f)
    return f


def _ref_axpy(c, g, acc):
    n = max(len(g.coeffs), len(acc.coeffs))
    return TaylorCoeffs(tuple(acc.coeff(i) + c * g.coeff(i) for i in range(n)))


def _ref_number_power(k, f):
    if k == 0:
        return f
    total = TaylorCoeffs.zero()
    for n in range(1, k + 1):
        total = _ref_axpy(stirling_s2(k, n), _ref_word("A" * n + "B" * n, f),
                          total)
    return total


def _ref_commutator(f, m):
    total = f
    for n in range(1, m):
        total = _ref_axpy((n + 1) * stirling_s2(m, n + 1),
                          _ref_word("A" * n + "B" * n, f), total)
    return total


def _same_output(got, want, cs):
    """Equal coefficients of the same types; the same repr on exact input."""
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert got.coeffs == want.coeffs
    if _exact(cs):
        assert repr(got) == repr(want)


@given(coeff_tuples, st.integers(0, 9), st.integers(1, 7))
@example((), 3, 2)
@example((5,), 2, 4)
@example((Fraction(1, 3),), 0, 1)
@example((1.5, -0.0, 2.0), 9, 7)
@example((1, 2, 3), 9, 6)
def test_ladder_routes_agree_and_match_the_expansion_they_replace(cs, k, m):
    f = TaylorCoeffs(cs)
    numpow = number_power_normal_ordered(k, f)
    comm = commutator_via_expansion(f, m)
    adj = raising_adjoint_via_stirling(f, m)
    assert _routes_agree(numpow, number_power_direct(k, f), cs)
    assert _routes_agree(comm, commutator_raising(f, m), cs)
    assert _routes_agree(adj, raising_adjoint(f, m), cs)
    _same_output(numpow, _ref_number_power(k, f), cs)
    _same_output(comm, _ref_commutator(f, m), cs)
    _same_output(adj, _ref_lower(_ref_number_power(m - 1, f)), cs)


# ------------------------------------------------------------ norm pieces


def test_weighted_moment_small_exact():
    f = TaylorCoeffs([1, 2, 3])
    # sum |f_n|^2 (n!)^2 n^1 = 0 + 4*1*1 + 9*4*2 = 76
    assert weighted_moment(f, 2, 1) == 76.0
    assert weighted_moment(f, 1, 0) == 1 + 4 + 18


def test_weighted_moment_rejects_negative_order():
    with pytest.raises(ValueError):
        weighted_moment(TaylorCoeffs([1]), 2, -1)
    # an order is a Python int >= 0, as a level is; domain_functional's
    # order is its level
    f = TaylorCoeffs([1.0, 2.0, 3.0])
    for k in (True, 2.5, np.int64(2), -1):
        with pytest.raises(ValueError, match="must be an integer"):
            weighted_moment(f, 1, k)
        with pytest.raises(ValueError, match="must be an integer"):
            domain_functional(f, k)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_shift_norm_identity_random(m):
    rng = np.random.default_rng(300 + m)
    for _ in range(40):
        f = rand_element(rng, 20)
        lhs, terms = norm_identity_report(f, m)
        assert lhs == pytest.approx(math.fsum(terms), rel=1e-13)
        d = shift_norm_decomposition(f, m)
        assert d["lhs"] == lhs
        assert d["rhs"] == pytest.approx(lhs, rel=1e-13)


def test_shift_norm_decomposition_past_double_range_is_inf():
    # every moment is in range, but their sum passes it: inf, not an
    # OverflowError from math.fsum
    f = TaylorCoeffs([0.0] + [math.sqrt(5e307 / math.factorial(n + 1) ** 3)
                              for n in range(1, 12)])
    _, (_, _, *moments) = norm_identity_report(f, 3)
    assert all(map(math.isfinite, moments))
    d = shift_norm_decomposition(f, 3)
    assert d["extra"] == math.inf and d["rhs"] == math.inf


def test_norm_identity_level1_reduces_to_two_terms():
    f = TaylorCoeffs([1, 1j, -2])
    lhs, terms = norm_identity_report(f, 1)
    assert len(terms) == 2
    assert lhs == pytest.approx(
        squared_norm(lowering(f), 1) + squared_norm(f, 1), rel=1e-14, abs=0
    )


def test_domain_functional_flags_overflow():
    val, ok = domain_functional(TaylorCoeffs.monomial(4), 3)
    assert ok and val == (math.factorial(4) ** 3) * 4**3
    val, ok = domain_functional(TaylorCoeffs.monomial(200), 6)
    assert not ok and val == math.inf


def test_weighted_sums_of_in_range_terms_past_double_range_are_inf():
    # every term is finite, their sum is not: the squared norm, the moment
    # and the domain functional read inf, as the dual norm does
    f = TaylorCoeffs([1.3e154, 1.3e154])
    assert squared_norm(f, 1) == math.inf
    assert weighted_moment(f, 1, 0) == math.inf
    g = TaylorCoeffs([0, 1.3e154, 6.5e153])
    assert domain_functional(g, 1) == (math.inf, False)
    # in range the sum is math.fsum's, bit for bit
    h = TaylorCoeffs([0.1, 0.2j, 0.3 - 0.4j])
    assert squared_norm(h, 2) == math.fsum(_weighted_sq_terms(h.coeffs, 2))
    assert weighted_moment(h, 2, 1) == math.fsum(
        _weighted_sq_terms(h.coeffs, 2, 1))


def test_domain_functional_overflow_raises_nothing(monkeypatch):
    # the overflowing case is an ordinary outcome, not a caught exception
    import genfock.operators as ops

    def forbidden(*args):
        raise AssertionError("domain_functional called weighted_moment")

    monkeypatch.setattr(ops, "weighted_moment", forbidden)
    assert domain_functional(TaylorCoeffs.monomial(200), 6) == (math.inf, False)
    val, ok = domain_functional(TaylorCoeffs.monomial(4), 3)
    assert ok and val == (math.factorial(4) ** 3) * 4**3
    with pytest.raises(ValueError):
        domain_functional(TaylorCoeffs.monomial(4), 0)


# ------------------------------------------------------------- reordering


def test_reordering_identities():
    for n in (1, 2, 3, 5):
        assert reordering_identity_check(n, 12) is True
    assert all(reordering_identity_check(n, 0) is True for n in range(1, 9))


def test_lowering_adjoint_inverts_grading():
    # T raises degree with the exact factor (n+1)^{1-m}
    from fractions import Fraction

    g = lowering_adjoint(TaylorCoeffs.monomial(2), 3)
    assert g.degree == 3
    assert g.coeff(3) == Fraction(1, 9)


def test_word_composition_matches_manual_chain():
    f = TaylorCoeffs([0.5, -1.5, 2.25])
    m = 4
    via_word = apply_word("ASB", f, m=m)
    manual = raising(raising_adjoint(lowering(f), m))
    assert sub(via_word, manual) == TaylorCoeffs.zero()
