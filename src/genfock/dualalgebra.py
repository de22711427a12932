"""The dual scale, its convolution algebra, and integration of dual paths.

Truncated dual elements are coefficient vectors with the level-m dual norm
using weights (n!)**(2-m): level 1 reproduces the base Hilbert norm, level 2
is plain l2, and for m > 2 the weights decay, which is what makes room for
sequences that no function space contains.  The product is the Cauchy
convolution; it is submultiplicative across levels:

    || a * b ||_{level q}  <=  A(q - p) * ||a||_{level p} * ||b||_{level q}

for integers q >= p + 1 (and q >= 2), with A(d) = sqrt(sum (1/n!)**d).
The factor measured in the stronger norm (smaller level) is the first one;
the product inherits the weaker level.  Statements of this inequality in
circulation sometimes swap the two levels; the swapped form is false
(already for a = e_3, b = e_0), so this module implements the provable
orientation.  See the project notes for the derivation:

    |(a*b)_n| (n!)^{(2-q)/2} <= sum_k |a_k| |b_{n-k}| (k!(n-k)!)^{(2-q)/2}

using n! >= k!(n-k)! with a non-positive exponent, then Cauchy-Schwarz in k
splitting (k!)^{(2-q)/2} = (k!)^{(2-p)/2} (k!)^{(p-q)/2}, then summing in n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coeffspace import (TaylorCoeffs, _fsum, _is_exact,
                         _require_level, _strip, _weighted_sq_terms,
                         inner_product, log_weight)


@dataclass(frozen=True, eq=False)
class DualSequence:
    """A truncated dual element: coefficients plus an advisory level tag.

    The level records which space the user claims membership in; every norm
    stays computable at any level, so the tag never gates an operation.
    """

    coeffs: tuple
    level: int = 1

    def __init__(self, coeffs=(), level: int = 1):
        _require_level(level)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "level", level)

    @classmethod
    def unit(cls, n: int = 0, level: int = 1) -> "DualSequence":
        """The n-th coordinate sequence e_n."""
        return cls((0,) * n + (1,), level)

    coeff = TaylorCoeffs.coeff

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualSequence):
            return NotImplemented
        return (self.level == other.level
                and _strip(self.coeffs) == _strip(other.coeffs))

    __hash__ = None

    def to_json_obj(self) -> dict:
        return {**TaylorCoeffs(self.coeffs).to_json_obj(), "level": self.level}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DualSequence":
        # the level, if given, must be a JSON integer >= 1 (the constructor
        # raises ValueError for anything else)
        return cls(TaylorCoeffs.from_json_obj(obj).coeffs, obj.get("level", 1))


def dual_sq_norm_flagged(b: DualSequence, m: int) -> tuple[float, bool]:
    """(sum |b_n|^2 (n!)**(2-m), underflowed).  A term, or the sum, past
    double range counts as inf; the flag goes True when some nonzero
    coefficient contributed exactly 0.0 because its weighted term left
    double range below."""
    _require_level(m)
    terms = _weighted_sq_terms(b.coeffs, 2 - m, strict=False)
    return _fsum(terms), 0.0 in terms


def dual_norm(b: DualSequence, m: int) -> float:
    """sqrt of sum |b_n|^2 (n!)**(2-m); for m > 2 the weights decay and the
    sum cannot overflow (terms below double range flush to zero)."""
    return math.sqrt(dual_sq_norm_flagged(b, m)[0])


def pairing(f: TaylorCoeffs, b: DualSequence) -> complex:
    """The duality pairing sum f_n conj(b_n) n! (level-1 weights).

    Satisfies |pairing(f, b)| <= norm(f, m) * dual_norm(b, m) for every m,
    by Cauchy-Schwarz after splitting n! = (n!)^{m/2} (n!)^{(2-m)/2}.
    """
    return inner_product(f, TaylorCoeffs(b.coeffs), 1)


# index pairs per block of consecutive diagonals in the float Cauchy product
_BLOCK = 4096


def _float_convolution(ca: tuple, cb: tuple) -> list:
    """Cauchy product of float coefficients, each output correctly rounded.

    The products a_i * b_j are formed with the real operations of a complex
    multiply, diagonal by diagonal in blocks of about ``_BLOCK`` index
    pairs, and the live ones (both factors non-zero) of each diagonal
    i + j are reduced with ``fsum``, which does not depend on the order of
    its terms.  A diagonal with no live product is the exact 0.
    """
    a = np.array(ca, dtype=complex)
    b = np.array(cb, dtype=complex)
    live_a, live_b = a != 0, b != 0
    # diagonal d holds the pairs (first[d] + k, d - first[d] - k), k < pairs[d]
    diag = np.arange(len(ca) + len(cb) - 1)
    first = np.maximum(diag - len(cb) + 1, 0)
    pairs = np.minimum(diag, len(ca) - 1) - first + 1
    ends = pairs.cumsum()
    out = []
    d0 = 0
    while d0 < len(diag):
        done = int(ends[d0 - 1]) if d0 else 0
        d1 = max(int(ends.searchsorted(done + _BLOCK, "right")), d0 + 1)
        n = pairs[d0:d1]
        starts = ends[d0:d1] - n - done
        rows = (first[d0:d1] - starts).repeat(n)
        rows += np.arange(len(rows))
        cols = diag[d0:d1].repeat(n) - rows
        keep = live_a[rows] & live_b[cols]
        live = np.add.reduceat(keep, starts).tolist()
        x, y = a[rows[keep]], b[cols[keep]]
        re = (x.real * y.real - x.imag * y.imag).tolist()
        im = (x.real * y.imag + x.imag * y.real).tolist()
        start = 0
        for cnt in live:
            if cnt:
                try:
                    out.append(complex(math.fsum(re[start:start + cnt]),
                                       math.fsum(im[start:start + cnt])))
                except OverflowError:  # a partial sum left double range
                    out.append(complex(_fsum(re[start:start + cnt]),
                                       _fsum(im[start:start + cnt])))
                start += cnt
            else:
                out.append(0)
        d0 = d1
    return out


def cauchy_product(a: DualSequence, b: DualSequence) -> DualSequence:
    """Coefficient convolution; the result carries the coarser level tag.

    All-exact (int/Fraction) inputs stay exact.  Otherwise every coefficient
    is taken as a complex float and each output coefficient is the
    correctly rounded sum of its products (see :func:`_float_convolution`),
    so the product commutes exactly: a running sum would depend on the
    traversal order.
    """
    ca, cb = a.coeffs, b.coeffs
    level = max(a.level, b.level)
    if not ca or not cb:
        return DualSequence((), level)
    if not (all(map(_is_exact, ca)) and all(map(_is_exact, cb))):
        return DualSequence(_float_convolution(ca, cb), level)
    out = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        if x == 0:
            continue
        for j, y in enumerate(cb):
            if y != 0:
                out[i + j] += x * y
    return DualSequence(out, level)


def vage_constant(d: int) -> float:
    """A(d) = sqrt(sum over n of (1/n!)**d); finite for every d >= 1.

    A(1) is sqrt(e).  The series is summed until terms vanish at machine
    precision, which happens within a few dozen terms even for d = 1.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("the constant is defined for integer gaps d >= 1")
    return _vage_constant(d)


@functools.lru_cache(maxsize=None)
def _vage_constant(d: int) -> float:
    """The series of :func:`vage_constant`, summed once per validated d."""
    terms = []
    n = 0
    while True:
        t = math.exp(-d * log_weight(n, 1))
        if t < 1e-40 and n > 2:
            break
        terms.append(t)
        n += 1
    return math.sqrt(math.fsum(terms))


def vage_check(a: DualSequence, b: DualSequence, p: int, q: int
               ) -> tuple[float, float, bool]:
    """(lhs, bound, holds) for the submultiplicativity inequality.

    lhs    = dual_norm(a * b, q)
    bound  = A(q - p) * dual_norm(a, p) * dual_norm(b, q)
    holds  = lhs <= bound * (1 + 1e-12)

    Requires integer levels with q >= p + 1; the first factor is the one
    measured in the stronger norm.  (The orientation with the product and
    ``a`` measured at level p instead is not a theorem; see the module
    docstring.)
    """
    _require_level(p)
    if not isinstance(q, int) or q < p + 1:
        raise ValueError("need q >= p + 1 >= 2")
    lhs = dual_norm(cauchy_product(a, b), q)
    bound = vage_constant(q - p) * dual_norm(a, p) * dual_norm(b, q)
    return lhs, bound, lhs <= bound * (1.0 + 1e-12)


def riemann_integral_product(f_path, g_path) -> DualSequence:
    """Trapezoidal integral of t -> f(t) * g(t) along a shared grid.

    Both paths are lists of (t_i, DualSequence) on the same strictly
    increasing grid; the grid need not be uniform.  The integrand is the
    Cauchy product at each node.
    """
    if len(f_path) != len(g_path):
        raise ValueError("paths must share one grid (length mismatch)")
    if len(f_path) < 2:
        raise ValueError("need at least two nodes")
    ts = [float(t) for t, _ in f_path]
    if any(abs(tg - tf) > 1e-12 * max(1.0, abs(tf))
           for tf, (tg, _) in zip(ts, g_path)):
        raise ValueError("paths must share one grid (node mismatch)")
    if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
        raise ValueError("grid must be strictly increasing")

    prods = [cauchy_product(fb, gb) for (_, fb), (_, gb) in zip(f_path, g_path)]
    level = max(pr.level for pr in prods)
    width = max(len(pr.coeffs) for pr in prods)
    acc = [0.0j] * width
    for (t0, t1, p0, p1) in zip(ts, ts[1:], prods, prods[1:]):
        half_h = 0.5 * (t1 - t0)
        for n in range(width):
            acc[n] += half_h * (complex(p0.coeff(n)) + complex(p1.coeff(n)))
    return DualSequence(acc, level)


def sample_path(fn, t0: float = 0.0, t1: float = 1.0, steps: int = 16):
    """[(t_i, fn(t_i))] on a uniform grid with ``steps`` intervals."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return [(t0 + (t1 - t0) * i / steps, fn(t0 + (t1 - t0) * i / steps))
            for i in range(steps + 1)]


def dual_distance(x: DualSequence, y: DualSequence, m: int) -> float:
    """Dual norm of the difference, padding the shorter vector."""
    width = max(len(x.coeffs), len(y.coeffs))
    diff = DualSequence((x.coeff(n) - y.coeff(n) for n in range(width)),
                        max(x.level, y.level))
    return dual_norm(diff, m)


def refinement_order(f_fn, g_fn, exact: DualSequence, level: int = 2,
                     t0: float = 0.0, t1: float = 1.0,
                     step_counts=(8, 16, 32)) -> float:
    """Measured convergence order of the trapezoidal path integral.

    Computes errors against ``exact`` at the given grid resolutions and
    returns the least-squares slope of log error vs log spacing; second
    order means a slope near 2.
    """
    logs_h, logs_e = [], []
    for n in step_counts:
        approx = riemann_integral_product(sample_path(f_fn, t0, t1, n),
                                          sample_path(g_fn, t0, t1, n))
        err = dual_distance(approx, exact, level)
        if err <= 0.0:
            raise ValueError("exact agreement leaves no order to measure")
        logs_h.append(math.log((t1 - t0) / n))
        logs_e.append(math.log(err))
    n = len(logs_h)
    mh = math.fsum(logs_h) / n
    me = math.fsum(logs_e) / n
    num = math.fsum((lh - mh) * (le - me) for lh, le in zip(logs_h, logs_e))
    den = math.fsum((lh - mh) ** 2 for lh in logs_h)
    return num / den
