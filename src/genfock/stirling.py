"""Exact second-kind Stirling numbers and the operator reordering they encode.

All values are Python ints (arbitrary precision); nothing here ever rounds.
"""

from __future__ import annotations

import threading


class StirlingTable:
    """Triangular cache of second-kind Stirling numbers, grown on demand.

    Row ``k`` holds ``S(k, 0) .. S(k, k)`` built from the recurrence
    ``S(k, n) = n*S(k-1, n) + S(k-1, n-1)`` with ``S(0, 0) = 1``.  Rows are
    append-only and never mutated after creation, so concurrent readers are
    safe; growth serializes on an internal lock.
    """

    def __init__(self, max_k: int = 0):
        self._rows = [[1]]
        self._lock = threading.Lock()
        self.grow(max_k)

    @property
    def max_k(self) -> int:
        return len(self._rows) - 1

    def grow(self, k: int) -> None:
        """Extend the triangle so that rows up to ``k`` exist."""
        if k <= self.max_k:
            return
        with self._lock:
            while self.max_k < k:
                prev = self._rows[-1]
                kk = len(self._rows)
                row = [0] * (kk + 1)
                for n in range(1, kk):
                    row[n] = n * prev[n] + prev[n - 1]
                row[kk] = 1
                self._rows.append(row)

    def row(self, k: int) -> list[int]:
        self.grow(k)
        return list(self._rows[k])

    def value(self, k: int, n: int) -> int:
        if k < 0 or n < 0:
            raise ValueError("Stirling indices must be non-negative")
        if n > k:
            return 0
        self.grow(k)
        return self._rows[k][n]


_SHARED = StirlingTable()


def stirling_s2(k: int, n: int) -> int:
    """S(k, n): partitions of a k-set into n non-empty blocks (exact int)."""
    return _SHARED.value(k, n)


def normal_order_coeffs(k: int) -> list[tuple[int, int]]:
    """Coefficients of the normal-ordered form of the k-th power of
    (multiply-then-differentiate): ``[(n, S(k, n)) for n in 1..k]``.

    Applying the word ``raise^n lower^n`` to a monomial multiplies it by a
    falling factorial, so these coefficients turn powers into falling
    factorials and back.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return list(enumerate(_SHARED.row(k)))[1:]


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
