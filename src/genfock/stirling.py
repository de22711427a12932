"""Exact second-kind Stirling numbers and the operator reordering they encode.

All values are Python ints (arbitrary precision); nothing here ever rounds.
The triangle is one private list of rows, grown on demand: row ``k`` holds
``S(k, 0) .. S(k, k)`` built from the recurrence
``S(k, n) = n*S(k-1, n) + S(k-1, n-1)`` with ``S(0, 0) = 1``.  Rows are
append-only and never mutated after creation, so concurrent readers are
safe; growth serializes on one lock.
"""

from __future__ import annotations

import threading

_ROWS = [[1]]
_ROWS_LOCK = threading.Lock()


def _row(k: int) -> list[int]:
    """Row ``k`` of the triangle, grown to it first: the stored list
    itself, not a copy, so callers must not hand it on."""
    if k >= len(_ROWS):
        with _ROWS_LOCK:
            while len(_ROWS) <= k:
                prev, kk = _ROWS[-1], len(_ROWS)
                row = [0] * (kk + 1)
                for n in range(1, kk):
                    row[n] = n * prev[n] + prev[n - 1]
                row[kk] = 1
                _ROWS.append(row)
    return _ROWS[k]


def stirling_s2(k: int, n: int) -> int:
    """S(k, n): partitions of a k-set into n non-empty blocks (exact int)."""
    if k < 0 or n < 0:
        raise ValueError("Stirling indices must be non-negative")
    return _row(k)[n] if n <= k else 0


def normal_order_coeffs(k: int) -> list[tuple[int, int]]:
    """Coefficients of the normal-ordered form of the k-th power of
    (multiply-then-differentiate): ``[(n, S(k, n)) for n in 1..k]``.

    Applying the word ``raise^n lower^n`` to a monomial multiplies it by a
    falling factorial, so these coefficients turn powers into falling
    factorials and back.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return list(enumerate(_row(k)))[1:]


def verify_normal_ordering(k: int, degree: int) -> bool:
    """Check the reordering identity on every monomial of degree <= degree.

    Left side: apply (multiply * differentiate) k times to z^j, which scales
    by j each time.  Right side: sum S(k, n) times the falling factorial
    j(j-1)...(j-n+1), each one factor more than the last.  Both sides are
    exact ints; returns True iff they agree for every j.
    """
    if k < 1 or degree < 1:
        raise ValueError("k and degree must be >= 1")
    coeffs = normal_order_coeffs(k)
    for j in range(degree + 1):
        lhs = 1
        for _ in range(k):
            lhs *= j
        rhs, ff = 0, 1
        for n, s in coeffs:
            ff *= j - n + 1
            rhs += s * ff
        if lhs != rhs:
            return False
    return True
