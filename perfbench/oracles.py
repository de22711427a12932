"""Reference values independent of the code under test.

Only these: scipy's ``k0e`` for level 2 (K_2(x) = 2 K0(2 sqrt x)),
mpmath's Meijer-G for levels 3..5 (K_m(x) = G^{m,0}_{0,m}(x | 0,...,0)),
(n!)**m for moments, exact ``Fraction`` sums for the weighted inner product
and squared norm, and compensated (fsum) point evaluation for the
reproducing identity.  Every function here runs outside timed regions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import k0e

MEIJER_DPS = 30
MEIJER_MAXTERMS = 10 ** 6


def bessel_log(x):
    """log(2 K0(2 sqrt x)), vectorized; finite where the value underflows."""
    z = 2.0 * np.sqrt(np.asarray(x, float))
    return math.log(2.0) + np.log(k0e(z)) - z


def meijer_log(m: int, x: float) -> float:
    """log K_m(x) from mpmath's Meijer-G at raised precision and term cap."""
    with mpmath.workdps(MEIJER_DPS):
        g = mpmath.meijerg([[], []], [[0] * m, []], mpmath.mpf(float(x)),
                           maxterms=MEIJER_MAXTERMS)
        return float(mpmath.log(g))


def radial_log(m: int, x: float) -> float:
    """log K_m(x) for m >= 2 from the oracle that suits the level."""
    if m == 2:
        return float(bessel_log(x))
    return meijer_log(m, x)


def value_err(values, ref_log, log_values=None) -> np.ndarray:
    """Relative errors of weight values against log references.

    Where a value is a normal double it is compared directly; where it
    underflowed, ``log_values`` (the package's log route at the same
    points) is compared in log space instead.
    """
    values = np.atleast_1d(np.asarray(values, float))
    ref_log = np.atleast_1d(np.asarray(ref_log, float))
    err = np.empty(values.shape)
    normal = values >= np.finfo(float).tiny
    with np.errstate(over="ignore", under="ignore"):
        err[normal] = np.abs(values[normal] / np.exp(ref_log[normal]) - 1.0)
    if not np.all(normal):
        if log_values is None:
            raise ValueError("underflowed values need their log route")
        lv = np.atleast_1d(np.asarray(log_values, float))
        err[~normal] = np.abs(np.expm1(lv[~normal] - ref_log[~normal]))
    return err


def _frac(c) -> tuple[Fraction, Fraction]:
    c = complex(c) if not isinstance(c, (int, Fraction)) else c
    if isinstance(c, complex):
        return Fraction(c.real), Fraction(c.imag)
    return Fraction(c), Fraction(0)


def exact_pairing(f, g, m: int) -> complex:
    """sum f_n conj(g_n) (n!)**m in exact rationals, rounded once."""
    re = im = Fraction(0)
    fact = 1
    for n in range(min(len(f), len(g))):
        if n:
            fact *= n
        if f[n] == 0 or g[n] == 0:
            continue
        fr, fi = _frac(f[n])
        gr, gi = _frac(g[n])
        wt = fact ** m
        re += (fr * gr + fi * gi) * wt
        im += (fi * gr - fr * gi) * wt
    return complex(float(re), float(im))


def exact_sq_norm(f, m: int) -> float:
    """sum |f_n|**2 (n!)**m in exact rationals, rounded once."""
    acc = Fraction(0)
    fact = 1
    for n in range(len(f)):
        if n:
            fact *= n
        if f[n] == 0:
            continue
        fr, fi = _frac(f[n])
        acc += (fr * fr + fi * fi) * fact ** m
    return float(acc)


def fsum_eval(coeffs, w: complex) -> complex:
    """f(w) by compensated summation of c_n w**n (no kernel machinery)."""
    re, im = [], []
    p = 1 + 0j
    for n, c in enumerate(coeffs):
        if n:
            p = p * w
        t = complex(c) * p
        re.append(t.real)
        im.append(t.imag)
    return complex(math.fsum(re), math.fsum(im))
