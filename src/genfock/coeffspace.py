"""Coefficient-space model of the factorially weighted power-series scale.

An element is a truncated Taylor series, stored as its coefficient vector.
The level-``m`` inner product weights index ``n`` by ``(n!)**m``.  Each
level keeps one cached table of those weights as ``(mant, exp)`` arrays,
``(n!)**m == mant * 2**exp`` with ``mant`` correctly rounded, built from the
exact big integers.  The float kernels (inner product, weighted squares,
kernel sections, weights) read their weights from it as arrays and scale
each coefficient by a power of two first, so a term is formed as in double
arithmetic while it is in range and stays exact where the weight or the
coefficient product alone would leave double range.  The kernel
aggregation reads it too: 1/n! from level -1, raised to each level's
power, and n! from level 1.  Exact (int/Fraction) input to the inner
product is summed exactly and rounded once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lgamma

import numpy as np

_TINY = 1e-300


class WeightOverflowError(OverflowError):
    """A factorial-power weight, or a term it scales, left double range at
    an index that matters.

    The message names ``cause`` when the caller gives the factor that left
    range.  Otherwise it blames the weight (n!)**m only when the weight
    itself is past double range, and else the term (a coefficient product
    times an in-range weight).
    """

    def __init__(self, index: int, m: int, cause: str | None = None):
        if cause is not None:
            msg = (f"{cause} exceeds double range at index n={index} "
                   f"(level m={m})")
        elif _weight_table(m, index + 1)[1][index] > 1024:
            msg = (f"weight (n!)^m exceeds double range at index n={index} "
                   f"(level m={m}) with a non-zero coefficient")
        else:
            msg = (f"term at index n={index} (level m={m}) exceeds double "
                   "range; its weight (n!)^m is within range")
        super().__init__(msg)
        self.index = index
        self.m = m


def _require_level(m: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"level must be an integer >= 1, got {m!r}")


def log_weight(n: int, m: int) -> float:
    """log of the level-m weight at index n, i.e. m * lgamma(n+1)."""
    return m * lgamma(n + 1)


# level m -> (big, mant, exp): big is (k!)**|m| for the last tabulated k
_TABLES: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}


def _weight_table(m: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(mant, exp), at least ``size`` long, with (k!)**m == mant * 2**exp.

    ``mant`` lies in [0.5, 1) and is the correctly rounded mantissa of the
    exact weight, so ``ldexp(mant, exp)`` is the exactly rounded float
    wherever that is representable, and the pair stays exact to one
    rounding far beyond double range.  The table grows incrementally from
    the big integer (k!)**|m|: one multiplication and one correctly rounded
    big-int division per entry.
    """
    tab = _TABLES.get(m)
    if tab is not None and len(tab[1]) >= size:
        return tab[1], tab[2]
    big, mant, exp = tab if tab is not None else (1, np.empty(0),
                                                  np.empty(0, np.int64))
    p = abs(m)
    ms, es = [], []
    for k in range(len(mant), max(size, 2 * len(mant))):
        if k:
            big *= k ** p
        s = big.bit_length()
        # int true division rounds correctly, however large its operands
        q = big / (1 << s) if m >= 0 else (1 << s) / big
        fm, fe = math.frexp(q)
        ms.append(fm)
        es.append(fe + s if m >= 0 else fe - s)
    mant = np.concatenate([mant, ms])
    exp = np.concatenate([exp, np.array(es, np.int64)])
    _TABLES[m] = (big, mant, exp)
    return mant, exp


def weight(n: int, m: int) -> float:
    """(n!)**m as a float, exactly rounded whenever representable.

    For m >= 0 an unrepresentable weight raises :class:`WeightOverflowError`;
    for m < 0 it underflows gracefully onto the subnormal grid and to 0.0.
    """
    mant, exp = _weight_table(m, n + 1)
    try:
        return math.ldexp(float(mant[n]), int(exp[n]))
    except OverflowError as exc:
        raise WeightOverflowError(n, m) from exc


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction))


def _strip(cs: tuple) -> tuple:
    """cs without its trailing zeros."""
    end = len(cs)
    while end > 0 and cs[end - 1] == 0:
        end -= 1
    return cs[:end]


def _fsum(xs: list) -> float:
    """``math.fsum``, except that a sum past double range is the signed
    infinity of float arithmetic, not an OverflowError.  fsum raises once a
    partial sum leaves range, even if the total does not; the exact sum of
    the finite terms, rounded once, settles which."""
    try:
        return math.fsum(xs)
    except OverflowError:
        special = [x for x in xs if not math.isfinite(x)]
        if special:  # inf or nan decides, as in fsum
            return math.fsum(special)
        exact = sum(map(Fraction, xs))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def _fsum_complex(terms) -> complex:
    """Correctly rounded sum of complex terms, real and imaginary parts
    apart, each by :func:`_fsum`.

    A numpy array is split through its real and imaginary views, so it pays
    no per-element conversion to Python complex.
    """
    if not isinstance(terms, np.ndarray):
        terms = np.array([complex(t) for t in terms])
    return complex(_fsum(terms.real.tolist()), _fsum(terms.imag.tolist()))


@dataclass(frozen=True, eq=False)
class TaylorCoeffs:
    """A truncated entire function: coefficients f_0 .. f_N.

    Coefficients may be ints, Fractions, floats or complex; the arithmetic
    operations preserve exact types, so identity checks can run in exact
    integer mode.  Equality strips trailing zeros first; the truncation
    degree is an artifact of construction, not data.
    """

    coeffs: tuple

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def zero(cls) -> "TaylorCoeffs":
        return cls(())

    @classmethod
    def monomial(cls, n: int, c=1) -> "TaylorCoeffs":
        """c * z^n."""
        return cls((0,) * n + (c,))

    @property
    def degree(self) -> int:
        """Degree after trailing-zero strip; -1 for the zero element."""
        return len(self.normalized().coeffs) - 1

    def normalized(self) -> "TaylorCoeffs":
        cs = _strip(self.coeffs)
        return TaylorCoeffs(cs) if len(cs) != len(self.coeffs) else self

    def coeff(self, n: int):
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else 0

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaylorCoeffs):
            return NotImplemented
        return _strip(self.coeffs) == _strip(other.coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TaylorCoeffs({list(self.coeffs)!r})"

    def to_json_obj(self) -> dict:
        return {"coeffs": [[complex(c).real, complex(c).imag] for c in self.coeffs]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TaylorCoeffs":
        return cls(_complex_pairs(obj, "coeffs"))


def _finite_number(x) -> bool:
    """x is a JSON number that is finite as a double (not NaN, not an
    infinity, not an integer past double range)."""
    try:
        return isinstance(x, (int, float)) and math.isfinite(x)
    except OverflowError:
        return False


def _complex_pairs(obj, key: str) -> list[complex]:
    """obj[key] of a JSON object, a list of [re, im] pairs of finite
    numbers, as complex numbers; anything else raises ValueError, a usage
    error."""
    pairs = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_finite_number, p))
            for p in pairs):
        return [complex(re, im) for re, im in pairs]
    raise ValueError(f'expected a JSON object {{"{key}": [[re, im], ...]}} '
                     'of finite numbers')


def add(f: TaylorCoeffs, g: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(
        x + y for x, y in zip_longest(f.coeffs, g.coeffs, fillvalue=0))


def sub(f: TaylorCoeffs, g: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(
        x - y for x, y in zip_longest(f.coeffs, g.coeffs, fillvalue=0))


def scale(c, f: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(tuple(c * x for x in f.coeffs))


def _split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(re, im, e): the parts of ``c`` times 2**-e, the larger in [0.5, 1).

    One power of two per coefficient, so the scaling is exact (bar a part
    below 2**-1022 of the other) and products of the scaled parts neither
    overflow nor lose subnormal bits.
    """
    re, im = c.real, c.imag
    e = np.frexp(np.maximum(np.abs(re), np.abs(im)))[1]
    return np.ldexp(re, -e), np.ldexp(im, -e), e


def _exact_inner(fc: tuple, gc: tuple, m: int) -> complex:
    """Sum of f_n g_n (n!)**m over int/Fraction input, held as one fraction
    N / D of big integers and rounded once (int true division rounds
    correctly, however large its operands)."""
    nums, dens = [], []
    big = 1
    for n, (fn, gn) in enumerate(zip(fc, gc)):
        if n:
            big *= n ** abs(m)
        num = fn.numerator * gn.numerator
        den = fn.denominator * gn.denominator
        nums.append(num * big if m >= 0 else num)
        dens.append(den if m >= 0 else den * big)
    lcm = math.lcm(*dens)
    try:
        return complex(sum(a * (lcm // d) for a, d in zip(nums, dens)) / lcm)
    except OverflowError as exc:
        worst = max(range(len(nums)),
                    key=lambda n: abs(Fraction(nums[n], dens[n])))
        raise WeightOverflowError(worst, m) from exc


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
    ``strict``; a term below it flushes toward 0.0.
    """
    c = np.array(coeffs, dtype=complex)
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
    return _fsum(_weighted_sq_terms(f.coeffs, m))


def norm(f: TaylorCoeffs, m: int) -> float:
    """sqrt of :func:`squared_norm`; for a monomial z^n this is (n!)**(m/2)."""
    return math.sqrt(squared_norm(f, m))


def eval_point(f: TaylorCoeffs, z) -> complex:
    """Horner evaluation of the truncated series at z (exact for exact input)."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * z + c
    return acc


def kernel_eval(m: int, z: complex, w: complex, tol: float = 1e-14) -> complex:
    """Level-m kernel at (z, w): sum over n of (z * conj(w))^n / (n!)**m.

    The partial sum stops after three consecutive terms fall below
    tol * |partial sum| (guards small-argument plateaus; terms decrease
    monotonically once the factorial dominates), or as soon as it is no
    longer finite, which it then returns.
    """
    _require_level(m)
    if not tol > 0:
        raise ValueError("tol must be positive")
    u = complex(z) * complex(w).conjugate()
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    below = 0
    n = 0
    while below < 3 and n < 100_000:
        n += 1
        try:
            nm = float(n) ** m
        except OverflowError:  # n**m past double range: inf, as in IEEE
            nm = math.inf
        term = term * u / nm
        total += term
        if not cmath.isfinite(total):  # no later term can bring it back
            break
        if abs(term) < tol * max(abs(total), _TINY):
            below += 1
        else:
            below = 0
    return total


def kernel_section(m: int, w: complex, degree: int) -> TaylorCoeffs:
    """Coefficient view of the kernel at w: index n holds conj(w)^n/(n!)**m.

    Each power is divided by the weight mantissa and the exponent applied
    last: in range that is bit for bit the division by the exactly rounded
    weight that :func:`inner_product` multiplies back in, so the
    reproducing identity cancels to a couple of ulps per term, and beyond
    double range the coefficient keeps its digits (two roundings).
    """
    _require_level(m)
    wbar = complex(w).conjugate()
    # p[n] = p[n-1] * wbar, one complex product a step.  Powers past double
    # range turn inf or nan quietly; the errstate that quiets them costs
    # more than the products at small degrees, so it is set only where
    # |wbar|**degree may leave range
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


def _aggregate(level_coeffs: list, z: complex, w: complex, degree: int,
               resum) -> tuple[complex, complex]:
    """(lhs, rhs) of a kernel aggregation identity at u = z * conj(w).

    lhs sums ``level_coeffs[lv - 1]`` times the degree-truncated level-lv
    kernel, each kernel summed correctly rounded; its weights are the level
    -1 row 1/n! raised to the power lv, so no level builds a table of its
    own.  rhs is ``resum(upow, fact)``, the coefficientwise resummation over
    the lists of u**n and of n! (level 1; inf past double range).
    """
    if not isinstance(degree, int) or degree < 0:
        raise ValueError(f"degree must be an integer >= 0, got {degree!r}")
    u = complex(z) * complex(w).conjugate()
    upow = [1.0 + 0.0j]
    for _ in range(degree):
        upow.append(upow[-1] * u)
    size = degree + 1
    mant, exp = _weight_table(-1, size)
    inv = np.ldexp(mant[:size], exp[:size])
    lv = np.arange(1, len(level_coeffs) + 1)[:, None]
    kernels = [_fsum_complex(row) for row in inv ** lv * np.array(upow)]
    lhs = _fsum_complex(np.array(level_coeffs) * kernels)
    mant, exp = _weight_table(1, size)
    with np.errstate(over="ignore"):
        fact = np.ldexp(mant[:size], exp[:size]).tolist()
    return lhs, resum(upow, fact)


def aggregate_kernels_geometric(eps: float, z: complex, w: complex,
                                degree: int = 48) -> tuple[complex, complex]:
    """Geometric aggregation of the kernel family across levels.

    lhs sums eps^m times the degree-truncated level-m kernel until the level
    weight is below machine tolerance; rhs is the closed coefficientwise
    resummation eps * sum of u^n / (n! - eps).  The two must agree to ~1e-10
    relative on sane inputs.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    n_levels = max(40, int(math.ceil(math.log(1e-18) / math.log(eps))))
    return _aggregate(
        [eps ** lv for lv in range(1, n_levels + 1)], z, w, degree,
        lambda upow, fact: eps * _fsum_complex(
            [p / (f - eps) for p, f in zip(upow, fact)]))


def aggregate_kernels_exponential(eps: float, z: complex, w: complex,
                                  degree: int = 48) -> tuple[complex, complex]:
    """Exponentially weighted aggregation: weights eps^m/m!, coefficientwise
    resummation expm1(eps/n!)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    level_coeffs, lw = [], eps
    while lw >= 1e-20 or len(level_coeffs) < 4:
        level_coeffs.append(lw)
        lw = lw * eps / (len(level_coeffs) + 1)
    return _aggregate(
        level_coeffs, z, w, degree,
        lambda upow, fact: _fsum_complex(
            [math.expm1(eps / f) * p for p, f in zip(upow, fact)]))
