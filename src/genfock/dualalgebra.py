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

from .coeffspace import (TaylorCoeffs, WeightOverflowError, _all_exact,
                         _complex, _fsum, _held, _plain, _require_level,
                         _strip, _weight_table, _weighted_sq_terms,
                         inner_product, weight)


@dataclass(frozen=True, eq=False)
class DualSequence:
    """A truncated dual element: coefficients plus an advisory level tag.

    The level records which space the user claims membership in; every norm
    stays computable at any level, so the tag never gates an operation.
    """

    coeffs: tuple | np.ndarray
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

    def __repr__(self) -> str:
        coeffs, level = _plain(self.coeffs), self.level
        return f"DualSequence({coeffs=!r}, {level=!r})"

    def to_json_obj(self) -> dict:
        return {**TaylorCoeffs.to_json_obj(self), "level": self.level}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DualSequence":
        # the level, if given, must be a JSON integer >= 1: the constructor
        # raises ValueError for anything else, true included
        return cls(TaylorCoeffs.from_json_obj(obj).coeffs, obj.get("level", 1))


def dual_sq_norm_flagged(b: DualSequence, m: int) -> tuple[float, bool]:
    """(sum |b_n|^2 (n!)**(2-m), underflowed).  A term, or the sum, past
    double range counts as inf; the flag goes True when some nonzero
    coefficient contributed exactly 0.0 because its weighted term left
    double range below.  An exact coefficient that no double holds raises
    WeightOverflowError at its index and level m."""
    _require_level(m)
    terms = _weighted_sq_terms(_complex(b.coeffs, m), 2 - m, strict=False)
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
    return inner_product(f, _held(TaylorCoeffs, b.coeffs), 1)


# cells (index pairs, padding included) per block of consecutive diagonals
_BLOCK = 8192
# below this many index pairs every diagonal takes the fsum route: there the
# certificate's fixed numpy cost per block exceeds the fsum work it saves
_CERTIFY_PAIRS = 300
# the interval test wants sigma at least this large, so that E is a double
_CERTIFY_TINY = 2.0 ** -900
# fsum of terms that are all zeros: the first unless every term is -0.0
_ZERO_SUMS = (math.fsum([0.0]), math.fsum([-0.0]))
# the exponent field of a double: x & _EXPONENT is 2**floor(log2 |x|)
_EXPONENT = np.uint64(0x7FF0000000000000)


def _fsum_rows(re, im, live) -> list:
    """The fsum route: row k of the (diagonals, pairs) product arrays
    ``re``, ``im`` summed over its live cells, in order, with ``fsum``; a
    row without a live cell is the exact 0.  The rows run through
    ``math.fsum``, and through the package's ``_fsum`` (the same value
    wherever ``math.fsum`` returns one) only once a partial sum leaves
    double range or inf meets -inf."""
    counts = live.sum(axis=1).tolist()
    re, im = re[live].tolist(), im[live].tolist()

    def rows(fsum):
        out, start = [], 0
        for n in counts:
            if n:
                end = start + n
                out.append(complex(fsum(re[start:end]), fsum(im[start:end])))
                start = end
            else:
                out.append(0)
        return out
    try:
        return rows(math.fsum)
    except (OverflowError, ValueError):
        return rows(_fsum)


def _certified_sums(p):
    """(vals, s, ok) for the sums along the last axis of ``p``, shape
    (2, diagonals, pairs): ``vals`` is complex, s[h] a view of its real
    (h = 0) or imaginary (h = 1) parts, and ok a mask of s.

    Where ok holds, s is the double nearest to the exact sum of the doubles
    summed, ties to even: the value ``fsum`` returns.  Each sum is split
    against a power of two sigma >= (pairs + 2) * max|p|, the error-free
    extraction of Rump, Ogita and Oishi (Accurate floating-point summation
    part I, SIAM J. Sci. Comput. 31, 2008): q = (p + sigma) - sigma and
    p - q are exact, every q is a multiple of 2**-53 sigma and their sum hi
    stays below sigma, so hi is exact in any order.  The low parts p - q,
    each at most 2**-53 sigma, sum to lo within
    E = gamma(pairs - 1) * pairs * 2**-53 sigma of their exact sum, with E
    rounded up to a power of two large enough that fl(lo - 2E) <= lo - E
    and fl(lo + 2E) >= lo + E.

    Rounding is monotone, so s = hi + lo is certified when hi + fl(lo - 2E)
    and hi + fl(lo + 2E) round alike; no gap is computed, so the half gap
    below a power of two needs no special case.  That test fails near a
    tie, and a sum of a few terms of one binade is often exactly a tie.
    There a second test applies: each low part is a multiple of the unit
    in the last place of its term, so when
    sigma * 2**bit_length(pairs) <= 2**54 * 2**floor(log2 |p|) for the
    smallest non-zero |p|, every partial sum of the low parts is a double,
    lo is exact and s = hi + lo is rounded once.  A non-finite term, or a
    sigma past double range, fails both tests, and so does a zero sum; the
    first also wants sigma >= ``_CERTIFY_TINY``, which keeps E a double.
    All comparisons are between powers of two or exact doubles.
    """
    n = p.shape[-1]
    q, lo = np.empty_like(p), np.empty_like(p)  # the high and low parts
    m = np.abs(p, out=q).max(axis=-1)
    # 2**floor(log2 m) * 2**(c + 1) with 2**c >= n + 2; 0 for subnormal m
    sigma = (m.view(np.uint64) & _EXPONENT).view(float)
    sigma *= 2.0 ** ((n + 1).bit_length() + 1)
    np.add(p, sigma[..., None], out=q)
    q -= sigma[..., None]
    np.subtract(p, q, out=lo)
    hi, lo = q.sum(axis=-1), lo.sum(axis=-1)
    vals = np.empty(p.shape[1], dtype=complex)
    s = vals.view(float).reshape(-1, 2).T
    np.add(hi, lo, out=s)
    two_e = sigma * 2.0 ** (((n - 1) * n).bit_length() - 104)
    ok = hi + (lo + two_e) == hi + (lo - two_e)
    ok &= sigma >= _CERTIFY_TINY
    if not ok.all():
        rest = ~ok & (s != 0)
        a = np.abs(p[rest])
        least = np.minimum.reduce(a, axis=-1, initial=np.inf, where=a != 0)
        least = (least.view(np.uint64) & _EXPONENT).view(float)
        ok[rest] = sigma[rest] * 2.0 ** (n.bit_length() - 55) < least
    return vals, s, ok


def _skewed(n_pairs: int, nr: int, nc: int):
    """(short, other, view) over one zeroed buffer: ``short`` and ``other``
    (n_pairs rows of nr <= nc) take the shorter and the longer factors, and
    view[j*nd + d, i] = other[j, d - i], zero outside other[j], with
    nd = nr + nc - 1 rows per pair: the diagonals as rows of cells."""
    nd = nr + nc - 1
    rows = n_pairs * nd
    # per pair nr - 1 zeros and its longer factor; then nr - 1 zeros and
    # the shorter factors
    pad = np.zeros(rows + nr - 1 + n_pairs * nr, dtype=complex)
    other = pad[:rows].reshape(-1, nd)[:, nr - 1:]
    short = pad[rows + nr - 1:].reshape(-1, nr)
    view = np.ndarray((rows, nr), complex, pad, (nr - 1) * 16, (16, -16))
    return short, other, view


def _diagonal_sums(short, other, view, swap: bool) -> np.ndarray:
    """The rows of a :func:`_skewed` layout, diagonal sums pair after pair,
    each correctly rounded, as one complex array; ``swap`` tells that
    ``short`` holds the second factors.

    The products a_i * b_j are formed with the real operations of a complex
    multiply, in blocks of about ``_BLOCK`` cells, so memory stays bounded;
    a block may end inside a pair.  Each diagonal's real and imaginary sums
    are certified in numpy by :func:`_certified_sums` to be the double
    nearest the exact sum, the value ``fsum`` returns in any order; a part
    whose products are all zeros takes the zero ``fsum`` gives.  ``fsum``
    itself, over the diagonal's live products (both factors non-zero:
    never a padded cell), runs where the certificate fails (near ties,
    exact cancellation, subnormal or non-finite terms, a split past range)
    and on every diagonal when the layout holds under ``_CERTIFY_PAIRS``
    index pairs.  A diagonal with no live product is +0j (not the int 0).
    """
    (n_pairs, nr), nc = short.shape, other.shape[1]
    nd = nr + nc - 1
    n_rows = n_pairs * nd
    width = max(1, _BLOCK // nr)
    certify = n_pairs * nr * nc >= _CERTIFY_PAIRS
    out = np.empty(n_rows, complex)
    # inf - inf, overflow (the documented inf) and the 0 * inf that padding
    # and dead cells meet beside an infinite part are by design: none warns
    with np.errstate(all="ignore"):
        for r0 in range(0, n_rows, width):
            r1 = min(r0 + width, n_rows)
            j, d0 = divmod(r0, nd)
            one = d0 + r1 - r0 <= nd  # in pair j: the columns it reaches
            i0, i1 = (max(0, d0 - nc + 1), min(d0 + r1 - r0, nr)) if (
                one) else (0, nr)
            u = short[j, i0:i1] if one else short[np.arange(r0, r1) // nd]
            v = view[r0:r1, i0:i1]
            xr, xi, yr, yi = (v.real, v.imag, u.real, u.imag) if swap else (
                u.real, u.imag, v.real, v.imag)
            p = np.empty((2, r1 - r0, i1 - i0))
            np.multiply(xr, yr, out=p[0])
            p[0] -= xi * yi
            np.multiply(xr, yi, out=p[1])
            p[1] += xi * yr
            if not certify:
                live = (u != 0) & (v != 0)
                out[r0:r1] = _fsum_rows(p[0], p[1], live)
                continue
            if r1 - r0 > 4 * (i1 - i0):  # short rows sum faster column-major
                p = p.transpose(0, 2, 1).copy().transpose(0, 2, 1)
            vals, s, ok = _certified_sums(p)
            if not ok.all():
                live = (u != 0) & (v != 0)
                zero = ~p.any(axis=-1)
                if zero.any():  # all-zero products (+0 with none live)
                    pos = (live & ~np.signbit(p)).any(axis=-1) | ~live.any(-1)
                    s[zero] = np.where(pos, *_ZERO_SUMS)[zero]
                    ok |= zero
                miss = np.flatnonzero(~(ok[0] & ok[1]))
                vals[miss] = _fsum_rows(p[0][miss], p[1][miss], live[miss])
            out[r0:r1] = vals
    return out


def _float_convolution(pairs, level: int) -> np.ndarray:
    """Cauchy products of a stack of factor pairs (ca, cb) of float
    coefficients, one complex row per pair (0 past its len(ca) + len(cb) - 1
    places), each output correctly rounded.

    The factors are zero-padded to common lengths and laid out by
    :func:`_skewed`, and :func:`_diagonal_sums` forms only the diagonals
    that can hold a live product (both factors non-zero): the zero heads
    and tails the factors share across the stack are trimmed first, and
    the diagonals before and after the trimmed window are +0j.
    Errors are those of pair-by-pair :func:`_complex` calls at ``level``.
    """
    fa, fb = zip(*pairs)
    na, nb = max(map(len, fa)), max(map(len, fb))
    n_pairs, swap = len(pairs), na > nb
    short, other, view = _skewed(n_pairs, min(na, nb), max(na, nb))
    a, b = (other, short) if swap else (short, other)
    try:  # factors of one length convert at once
        a[:], b[:] = fa, fb
    except Exception:  # else ca, then cb, pair by pair, as one-pair calls
        for j, (ca, cb) in enumerate(pairs):
            a[j, :len(ca)] = _complex(ca, level)
            b[j, :len(cb)] = _complex(cb, level)
    full = na + nb - 1  # the diagonals of the longest product
    lo, hi = 0, full
    # the window [lo, hi) from the first to the last live product, sought
    # unless the first pair's factors start and end live
    if not (a[0, 0] and a[0, -1] and b[0, 0] and b[0, -1]):
        ra, rb = a.any(axis=0).tolist(), b.any(axis=0).tolist()
        if True not in ra or True not in rb:
            lo = hi = 0
        else:
            ha, hb = ra.index(True), rb.index(True)
            ea, eb = na - ra[::-1].index(True), nb - rb[::-1].index(True)
            lo, hi = ha + hb, ea + eb - 1
            if (ha, hb, ea, eb) != (0, 0, na, nb):  # trim the zero ends
                a, b = a[:, ha:ea], b[:, hb:eb]
                swap = ea - ha > eb - hb
                short, other, view = _skewed(n_pairs, min(ea - ha, eb - hb),
                                             max(ea - ha, eb - hb))
                short[:], other[:] = (b, a) if swap else (a, b)
    sums = _diagonal_sums(short, other, view, swap) if hi else None
    if (lo, hi) == (0, full):
        return sums.reshape(n_pairs, full)
    out = np.zeros((n_pairs, full), complex)  # +0j outside [lo, hi)
    if hi:
        out[:, lo:hi] = sums.reshape(n_pairs, hi - lo)
    return out


def _exact_convolution(ca: tuple, cb: tuple):
    """The exact product of non-empty all-int/Fraction factors, else None;
    in int64 when all are ints and max|a| max|b| min(len a, len b) < 2**62."""
    if not (_all_exact(ca) and _all_exact(cb)):
        return None
    if {*map(type, ca), *map(type, cb)} == {int} and 0 < min(len(ca), len(
            cb)) * max(1, *map(abs, ca)) * max(1, *map(abs, cb)) < 1 << 62:
        return np.convolve(*(np.array(c, np.int64) for c in (ca, cb))).tolist()
    out = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        if x == 0:
            continue
        for j, y in enumerate(cb):
            if y != 0:
                out[i + j] += x * y
    return out


def cauchy_product(a: DualSequence, b: DualSequence) -> DualSequence:
    """Coefficient convolution; the result carries the coarser level tag.

    All-exact (int/Fraction) inputs stay exact.  Otherwise every coefficient
    is taken as a complex float and each output coefficient is the
    correctly rounded sum of its products, so the product commutes exactly:
    a running sum would depend on the traversal order: past double range
    that is the signed inf, and inf with -inf is NaN, as in float
    arithmetic.  An exact coefficient that no double holds raises
    WeightOverflowError at its index and the product's level.  The float
    product is the one-pair call of :func:`_float_convolution`.
    """
    level = max(a.level, b.level)
    return _held(DualSequence, _products([(a.coeffs, b.coeffs)], level)[0],
                 level)


def _products(pairs, level: int) -> list:
    """The Cauchy products of ``pairs`` (ca, cb): [] for an empty factor,
    exact for all-exact pairs, the rest rows of one kernel call at level."""
    prods = [_exact_convolution(ca, cb) if len(ca) and len(cb) else []
             for ca, cb in pairs]
    if None in prods:
        rows = iter(_float_convolution(
            [pair for pair, pr in zip(pairs, prods) if pr is None], level))
        prods = [next(rows)[:len(ca) + len(cb) - 1] if pr is None else pr
                 for (ca, cb), pr in zip(pairs, prods)]
    return prods


# the first head of _product_sq_norm's early stop, in diagonals
_HEAD = 24


def _product_sq_norm(ca, cb, q: int) -> float:
    """The squared level-q dual norm of the product of the factors ``ca``
    and ``cb``, bit for bit that of :func:`_products`' coefficients.

    The exact or the float route is chosen once, on the whole factors.
    Float factors with finite parts, q >= 3 and more than 2 * ``_HEAD``
    diagonals stop early (Ziv's "compute a little, certify, else compute
    more"): the first k diagonals, formed from ca[:k] and cb[:k], are the
    full product's bit for bit, and the fsum s of their terms is returned
    as soon as the fsum of those terms and a bound B_n on every later term
    is s too.  Every later term lies in [0, B_n] and correctly rounded
    summation is monotone, so s is the full sum.  Else k grows fourfold,
    until the head is the whole product.

    The bound: let every part of ``ca`` lie below 2**ea and every part of
    ``cb`` below 2**eb.  A product part, fl(xr*yr - xi*yi) or
    fl(xr*yi + xi*yr), is at most 2**(ea + eb + 1); diagonal n is the
    correctly rounded sum of at most n + 1 < 2**L of them, L the bit length
    of n + 1, so it is at most the double (2**L - 1) * 2**(ea + eb + 1) and
    below 2**t(n), t(n) = ea + eb + 1 + L.  Where t <= 1023 on the last
    diagonal no product and no sum leaves double range; else the whole
    product is formed.  The term of a part below 2**t scales it by 2**-e
    with e <= t, forms (re**2 + im**2) * mant <= 2 * mant from the weight's
    table entry mant * 2**exp, and scales that by 2**(2e + exp).  Rounding
    is monotone, so the term is at most B_n = ldexp(2 * mant, 2t + exp).
    """
    out = _exact_convolution(ca, cb) if len(ca) and len(cb) else []
    nd = len(ca) + len(cb) - 1
    if out is None and q >= 3 and nd > 2 * _HEAD:
        x, y = _complex(ca, q), _complex(cb, q)
        big = np.abs(x.view(float)).max(), np.abs(y.view(float)).max()
        t = sum(math.frexp(v)[1] for v in big) + 1 + np.frexp(
            np.arange(1, nd + 1))[1]
        if all(map(math.isfinite, big)) and t[-1] <= 1023:
            mant, exp = _weight_table(2 - q, nd)
            with np.errstate(over="ignore"):
                bound = np.ldexp(2.0 * mant[:nd], 2 * t + exp[:nd]).tolist()
            k = _HEAD
            while k < max(x.size, y.size):
                head = _weighted_sq_terms(_float_convolution(
                    [(x[:k], y[:k])], q)[0][:k], 2 - q, strict=False)
                s = _fsum(head)
                if _fsum(head + bound[k:]) == s:
                    return s
                k *= 4
    if out is None:
        out = _float_convolution([(ca, cb)], q)[0]
    return _fsum(_weighted_sq_terms(_complex(out, q), 2 - q, strict=False))


def vage_constant(d: int) -> float:
    """A(d) = sqrt(sum over n of (1/n!)**d); finite for every d >= 1.

    A(1) is sqrt(e).  The series is summed until terms vanish at machine
    precision, which happens within a few dozen terms even for d = 1.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError("the constant is defined for integer gaps d >= 1")
    return _vage_constant(d)


@functools.lru_cache(maxsize=None)
def _vage_constant(d: int) -> float:
    """The series of :func:`vage_constant`, summed once per validated d."""
    terms = []
    n = 0
    while True:
        t = weight(n, -d)
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

    Float factors are converted once each, for all three norms; an exact
    coefficient that no double holds raises WeightOverflowError at its
    index, a's at level p, then b's at level q (all-exact factors: the
    product's first, at level q).  The product is formed
    only as far as its level-q norm can register: for float factors with
    finite coefficients and q >= 3, :func:`_product_sq_norm` stops once a
    head of its diagonals certifies the rounded sum, so lhs is bit for bit
    the norm of the full product.
    """
    _require_level(p)
    if not isinstance(q, int) or q < p + 1:
        raise ValueError("need q >= p + 1 >= 2")
    ca, cb = a.coeffs, b.coeffs
    if len(ca) and len(cb) and not (_all_exact(ca) and _all_exact(cb)):
        ca, cb = _complex(ca, p), _complex(cb, q)
    lhs = math.sqrt(_product_sq_norm(ca, cb, q))
    na, nb = (math.sqrt(_fsum(_weighted_sq_terms(_complex(c, lv), 2 - lv,
                                                 strict=False)))
              for c, lv in ((ca, p), (cb, q)))
    bound = vage_constant(q - p) * na * nb
    return lhs, bound, lhs <= bound * (1.0 + 1e-12)


def riemann_integral_product(f_path, g_path) -> DualSequence:
    """Trapezoidal integral of t -> f(t) * g(t) along a shared grid.

    Both paths are lists of (t_i, DualSequence) on the same strictly
    increasing grid; the grid need not be uniform.  The integrand is the
    Cauchy product at each node, with one kernel call for all float nodes;
    an exact coefficient that no double holds, in a float node's factor or
    an exact node's product, raises WeightOverflowError at the path's
    level, the first node's first.
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

    level = max(d.level for _, d in (*f_path, *g_path))
    prods = _products([(f.coeffs, g.coeffs)
                       for (_, f), (_, g) in zip(f_path, g_path)], level)
    width = max(map(len, prods))
    rows = np.zeros((len(prods), width), complex)
    for row, pr in zip(rows, prods):
        row[:len(pr)] = _complex(pr, level)
    terms = np.zeros((len(ts), width, 2))  # row 0 is the starting 0
    with np.errstate(all="ignore"):
        r = (rows[:-1] + rows[1:]).view(float).reshape(len(ts) - 1, width, 2)
        half_h = 0.5 * np.diff(ts)[:, None, None]
        # h * r as Python multiplies a float into a complex: cross terms too
        terms[1:] = half_h * r + np.array([-0.0, 0.0]) * r[..., ::-1]
        acc = np.add.accumulate(terms)[-1]
    return _held(DualSequence, acc.view(complex).ravel().copy(), level)


def sample_path(fn, steps: int = 16):
    """[(t_i, fn(t_i))] on a uniform grid of [0, 1], ``steps`` intervals."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return [(i / steps, fn(i / steps)) for i in range(steps + 1)]


def dual_distance(x: DualSequence, y: DualSequence, m: int) -> float:
    """Dual norm of the difference, padding the shorter vector.  A
    difference that no double holds (an exact coefficient past range less
    a float) raises WeightOverflowError at its index and level m."""
    diff = []
    for n in range(max(len(x.coeffs), len(y.coeffs))):
        try:
            diff.append(x.coeff(n) - y.coeff(n))
        except OverflowError as exc:
            raise WeightOverflowError(n, m, cause="coefficient") from exc
    return dual_norm(DualSequence(diff, max(x.level, y.level)), m)


def refinement_order(f_fn, g_fn, exact: DualSequence) -> float:
    """Measured convergence order of the trapezoidal path integral on [0, 1].

    Computes the level-2 dual distance to ``exact`` at 8, 16 and 32 steps
    and returns the least-squares slope of log error vs log spacing; second
    order means a slope near 2.
    """
    logs_h, logs_e = [], []
    for n in (8, 16, 32):
        approx = riemann_integral_product(sample_path(f_fn, steps=n),
                                          sample_path(g_fn, steps=n))
        err = dual_distance(approx, exact, 2)
        if err <= 0.0:
            raise ValueError("exact agreement leaves no order to measure")
        logs_h.append(math.log(1.0 / n))
        logs_e.append(math.log(err))
    n = len(logs_h)
    mh = math.fsum(logs_h) / n
    me = math.fsum(logs_e) / n
    num = math.fsum((lh - mh) * (le - me) for lh, le in zip(logs_h, logs_e))
    den = math.fsum((lh - mh) ** 2 for lh in logs_h)
    return num / den
