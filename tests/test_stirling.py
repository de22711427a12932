"""Partition-count triangle: exact values, identities, and normal ordering."""

import math
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genfock import stirling
from genfock.coeffspace import TaylorCoeffs
from genfock.stirling import (
    normal_order_coeffs,
    stirling_s2,
    verify_normal_ordering,
)

# Row sums of the triangle are the Bell numbers; frozen from the Bell
# triangle recurrence (independent of the package's recurrence).
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def explicit_s2(k: int, n: int) -> int:
    """Inclusion-exclusion count of surjections, divided by n!.

    Entirely independent of the triangle recurrence; exact big-int.
    """
    if n == 0:
        return 1 if k == 0 else 0
    total = sum((-1) ** (n - j) * math.comb(n, j) * j**k for j in range(n + 1))
    q, r = divmod(total, math.factorial(n))
    assert r == 0
    return q


def test_small_values_match_explicit_formula():
    for k in range(0, 13):
        for n in range(0, k + 1):
            assert stirling_s2(k, n) == explicit_s2(k, n)


def test_row_sums_are_bell_numbers():
    for k in range(len(BELL)):
        assert sum(stirling_s2(k, n) for n in range(k + 1)) == BELL[k]


def test_boundary_columns():
    for k in range(1, 20):
        assert stirling_s2(k, 1) == 1
        assert stirling_s2(k, k) == 1
    for k in range(2, 20):
        assert stirling_s2(k, 2) == 2 ** (k - 1) - 1
        assert stirling_s2(k, k - 1) == math.comb(k, 2)


def test_out_of_range_is_zero():
    assert stirling_s2(3, 5) == 0
    assert stirling_s2(0, 0) == 1
    assert stirling_s2(5, 0) == 0


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_triangle_recurrence(k, n):
    assert stirling_s2(k, n) == n * stirling_s2(k - 1, n) + stirling_s2(k - 1, n - 1)


def test_table_grows_and_caches(monkeypatch):
    monkeypatch.setattr(stirling, "_ROWS", [[1]])  # a fresh triangle
    assert normal_order_coeffs(4) == [(1, 1), (2, 7), (3, 6), (4, 1)]
    assert len(stirling._ROWS) == 5
    r4 = stirling._ROWS[4]
    assert stirling_s2(10, 3) == explicit_s2(10, 3)
    assert len(stirling._ROWS) == 11
    # growing must not disturb existing rows
    assert stirling._ROWS[4] is r4 and r4 == [0, 1, 7, 6, 1]
    # a smaller request is a no-op
    assert stirling_s2(3, 2) == 3
    assert normal_order_coeffs(2) == [(1, 1), (2, 1)]
    assert len(stirling._ROWS) == 11
    # callers get new lists; the rows stay out of their reach
    pairs = normal_order_coeffs(4)
    pairs.clear()
    assert normal_order_coeffs(4) == [(1, 1), (2, 7), (3, 6), (4, 1)]


def test_concurrent_growth_appends_each_row_once(monkeypatch):
    monkeypatch.setattr(stirling, "_ROWS", [[1]])  # a fresh triangle
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=stirling_s2, args=(k, 1))
                   for k in (40, 80, 120, 160) * 4]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert [len(row) for row in stirling._ROWS] == list(range(1, 162))
    assert stirling._ROWS[160] == [explicit_s2(160, n) for n in range(161)]


def test_table_value_validation():
    with pytest.raises(ValueError):
        stirling_s2(-1, 0)
    with pytest.raises(ValueError):
        stirling_s2(2, -1)


def test_normal_order_coeffs_are_triangle_rows():
    for k in range(1, 9):
        pairs = normal_order_coeffs(k)
        assert pairs == [(n, stirling_s2(k, n)) for n in range(1, k + 1)]


def test_normal_order_coeffs_rejects_k_zero():
    with pytest.raises(ValueError):
        normal_order_coeffs(0)


def test_normal_ordering_on_monomials():
    # (composite of raise-then-lower)^k acts diagonally on z^n with exact
    # integer eigenvalue n^k; the ordered expansion must reproduce it.
    for k in range(1, 7):
        assert verify_normal_ordering(k, 10)


def test_diagonal_eigenvalue_is_power():
    # spot-check the underlying action rather than the boolean wrapper
    from genfock.operators import number_power_direct

    f = TaylorCoeffs.monomial(7)
    g = number_power_direct(4, f)
    assert g.coeff(7) == 7**4
    assert all(g.coeff(i) == 0 for i in range(7))
