"""The float routes of ``inner_product``, ``_weighted_sq_terms`` and
``norm_identity_report`` as they were before the float kernels read only
the live span of the second factor and took a vector's norm and moments
from one conversion: each vector converted to complex whole, once per norm
and per moment.  Kept literally, with the ``squared_norm`` and
``weighted_moment`` they called, for the tests and
``scripts/bench_layers.py``'s ``coeffs`` layer.  The package's routes must
match them bit for bit, values and raised errors alike, on numeric
coefficients that a double holds; beyond that the old inner product raised
a bare OverflowError, and read, so could fail on, every coefficient of its
second factor.

Below them, the vector routes as they were before a float route's result
held its complex array: ``raising``, ``lowering``, both adjoints,
``kernel_section``, ``add``, ``sub`` and ``scale``, in Python arithmetic
on the coefficient tuple, one result tuple each.  A held array's routes
must match them bit for bit on the same coefficients as Python complex;
where they raised a bare OverflowError the package raises
WeightOverflowError.
"""

import math
import struct
from fractions import Fraction
from itertools import repeat, zip_longest
from operator import mul

import numpy as np

from genfock.coeffspace import (TaylorCoeffs, WeightOverflowError,
                                _exact_inner, _fsum, _is_exact,
                                _require_level, _split, _weight_table)
from genfock.operators import raising, raising_adjoint


def inner_product(f: TaylorCoeffs, g: TaylorCoeffs, m: int) -> complex:
    """Sum of f_n * conj(g_n) * (n!)**m; the shorter vector is zero-padded.

    When every paired coefficient is an int or a Fraction the sum is formed
    exactly and rounded once.  Otherwise every paired coefficient is
    converted to complex (an exact one outside double range raises
    OverflowError) and each term is formed in numpy: both coefficients are
    scaled by a power of two, the parts combined with the operations of a
    complex multiply, times the weight mantissa, and the summed exponent
    applied last.  A term in range is bit for bit
    ``(f_n * conj(g_n)) * weight(n, m)``; one whose weight or coefficient
    product alone leaves double range stays accurate, and one that is
    itself too large for a double raises WeightOverflowError.  The terms
    are summed correctly rounded; a sum past double range is infinite.
    """
    _require_level(m, signed=True)
    size = min(len(f.coeffs), len(g.coeffs))
    fc, gc = f.coeffs[:size], g.coeffs[:size]
    if all(map(_is_exact, fc)) and all(map(_is_exact, gc)):
        return _exact_inner(fc, gc, m)
    a = np.array(fc, dtype=complex)
    b = np.array(gc, dtype=complex)
    idx = np.flatnonzero((a != 0) & (b != 0))
    fr, fi, fe = _split(a[idx])
    gr, gi, ge = _split(b[idx])
    mant, exp = _weight_table(m, size)
    mw, e = mant[idx], fe + ge + exp[idx]
    with np.errstate(over="ignore", invalid="ignore"):
        re = np.ldexp((fr * gr + fi * gi) * mw, e)
        im = np.ldexp((fi * gr - fr * gi) * mw, e)
    bad = ~(np.isfinite(re) & np.isfinite(im))
    if bad.any():
        raise WeightOverflowError(int(idx[bad.argmax()]), m)
    return complex(_fsum(re.tolist()), _fsum(im.tolist()))


def _weighted_sq_terms(coeffs, w: int, k: int = 0,
                       strict: bool = True) -> list[float]:
    """|c_n|**2 * (n!)**w * n**k for each non-zero c_n (n = 0 skipped if k > 0).

    Each coefficient is scaled by 2**-e first (see :func:`_split`), the term
    formed as (re**2 + im**2) * mant * n**k and scaled by 2**(2e + exp), so
    in range it is bit for bit the double-precision product, and subnormal
    coefficients or weights past double range lose nothing.  A term past
    double range raises WeightOverflowError, or is inf when not
    ``strict``; a term below it flushes toward 0.0.  An exact coefficient
    past double range raises WeightOverflowError and names the first.
    """
    try:
        c = np.array(coeffs, dtype=complex)
    except OverflowError as exc:
        for n, x in enumerate(coeffs):
            try:
                complex(x)
            except OverflowError:
                raise WeightOverflowError(n, w, cause="coefficient") from exc
        raise
    idx = np.flatnonzero(c)
    if k:
        idx = idx[idx > 0]
    re, im, e = _split(c[idx])
    mant, exp = _weight_table(w, len(c))
    with np.errstate(over="ignore", invalid="ignore"):
        t = (re * re + im * im) * mant[idx]
        if k:
            t *= idx.astype(float) ** k
        t = np.ldexp(t, 2 * e + exp[idx])
    if strict:
        bad = ~np.isfinite(t)
        if bad.any():
            raise WeightOverflowError(int(idx[bad.argmax()]), w)
    return t.tolist()


def squared_norm(f: TaylorCoeffs, m: int) -> float:
    """Sum of |f_n|^2 * (n!)**m, correctly rounded over the terms of
    :func:`_weighted_sq_terms` (exact where a weight or a coefficient alone
    leaves double range but the term does not) by :func:`_fsum`, so a sum
    of in-range terms past double range is inf."""
    _require_level(m, signed=True)
    return _fsum(_weighted_sq_terms(f.coeffs, m))


def weighted_moment(f: TaylorCoeffs, m: int, k: int) -> float:
    """Sum over n of |f_n|**2 * (n!)**m * n**k, correctly rounded over the
    terms of ``_weighted_sq_terms`` (weights from the exact table) by
    ``_fsum``: inf where in-range terms sum past double range."""
    _require_level(m)
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return _fsum(_weighted_sq_terms(f.coeffs, m, k))



def norm_identity_report(f: TaylorCoeffs, m: int) -> tuple[float, list[float]]:
    """(lhs, rhs_terms) for the shift norm identity.

    rhs_terms = [||raising_adjoint f||^2, ||f||^2,
                 C(m,1)*moment_1, ..., C(m,m-1)*moment_{m-1}];
    the identity asserts lhs == sum(rhs_terms).
    """
    _require_level(m)
    lhs = squared_norm(raising(f), m)
    terms = [squared_norm(raising_adjoint(f, m), m), squared_norm(f, m)]
    terms.extend(math.comb(m, k) * weighted_moment(f, m, k)
                 for k in range(1, m))
    return lhs, terms


def _bits_of(x):
    if type(x) is int and x == 0 or not _is_exact(x):
        return struct.pack("<dd", complex(x).real, complex(x).imag)
    return type(x), repr(x)


def coeff_bits(cs) -> list:
    """A coefficient vector in a form that compares bit for bit, whichever
    holder: each float or complex coefficient, held or not, as its
    struct-packed complex128, and the int 0 (a float route's exact 0) as
    +0j, which is how an array holds it; any other int or Fraction as its
    type and repr."""
    return list(map(_bits_of, cs.tolist() if isinstance(cs, np.ndarray)
                    else cs))


# ----------------------------------------------- the tuple vector routes

_POWERS: dict[int, tuple] = {}  # level m -> (1**m, 2**m, ...)


def _powers(m: int, size: int) -> tuple:
    """Level m's row of ints, at least ``size`` long, grown by doubling."""
    row = _POWERS.get(m, ())
    if len(row) < size:
        row = _POWERS[m] = row + tuple(map(pow, range(
            len(row) + 1, max(size, 2 * len(row)) + 1), repeat(m)))
    return row


def raising(f: TaylorCoeffs) -> TaylorCoeffs:
    cs = f.coeffs
    return TaylorCoeffs((0,) + cs if cs else cs)


def lowering(f: TaylorCoeffs) -> TaylorCoeffs:
    cs = f.coeffs
    return TaylorCoeffs(tuple(map(mul, range(1, len(cs)), cs[1:])))


def raising_adjoint(f: TaylorCoeffs, m: int) -> TaylorCoeffs:
    _require_level(m)
    cs = f.coeffs
    return TaylorCoeffs(tuple(map(mul, _powers(m, len(cs) - 1), cs[1:])))


def lowering_adjoint(f: TaylorCoeffs, m: int) -> TaylorCoeffs:
    _require_level(m)
    cs = f.coeffs
    return TaylorCoeffs(((0,) if cs else ()) + tuple(
        c if d == 1 or c == 0 else Fraction(c, d) if _is_exact(c) else c / d
        for c, d in zip(cs, _powers(m - 1, len(cs)))))


def kernel_section(m: int, w: complex, degree: int) -> TaylorCoeffs:
    _require_level(m)
    wbar = complex(w).conjugate()
    p = np.empty(len(range(degree + 1)), complex)
    p.fill(wbar)
    p[:1] = 1.0
    if degree * math.log2(max(abs(wbar), 1e-300)) < 1000.0:
        np.multiply.accumulate(p, out=p)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.accumulate(p, out=p)
    mant, exp = _weight_table(m, degree + 1)
    mant, exp = mant[:degree + 1], -exp[:degree + 1]
    out = np.empty(degree + 1, dtype=complex)
    out.real = np.ldexp(p.real / mant, exp)
    out.imag = np.ldexp(p.imag / mant, exp)
    return TaylorCoeffs(out.tolist())


def add(f: TaylorCoeffs, g: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(
        x + y for x, y in zip_longest(f.coeffs, g.coeffs, fillvalue=0))


def sub(f: TaylorCoeffs, g: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(
        x - y for x, y in zip_longest(f.coeffs, g.coeffs, fillvalue=0))


def scale(c, f: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(tuple(c * x for x in f.coeffs))
