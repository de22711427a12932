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


def _require_level(m: int, signed: bool = False) -> None:
    """m is a Python int other than a bool (``np.int64`` is none), and at
    least 1 unless ``signed``."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1 and not signed:
        raise ValueError(f"level must be an integer{'' if signed else ' >= 1'}"
                         f", got {m!r}")


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
                                                  np.empty(0, np.int32))
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
    # int32 (3x faster in ldexp) while |exp| <= bit_length(big) + 1 <= 2**30
    exp = np.concatenate([exp, np.array(es, np.int64 if big.bit_length()
                                        >> 30 else np.int32)])
    _TABLES[m] = (big, mant, exp)
    return mant, exp


def weight(n: int, m: int) -> float:
    """(n!)**m as a float, exactly rounded whenever representable.

    For m >= 0 an unrepresentable weight raises :class:`WeightOverflowError`;
    for m < 0 it underflows gracefully onto the subnormal grid and to 0.0.
    """
    _require_level(m, signed=True)
    mant, exp = _weight_table(m, n + 1)
    try:
        return math.ldexp(float(mant[n]), int(exp[n]))
    except OverflowError as exc:
        raise WeightOverflowError(n, m) from exc


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction))


_EXACT_TYPES = frozenset((int, Fraction))


def _all_exact(cs) -> bool:
    """Every element of ``cs`` is an int or a Fraction: the exact route.

    The type-set scan runs in C and stops at the first other type, so float
    input decides after a coefficient or two; only when it fails does the
    ``isinstance`` scan run, which gives ``bool``, other int subclasses and
    Fraction subclasses their verdict (``np.int64`` is no int).
    """
    return _EXACT_TYPES.issuperset(map(type, cs)) or all(map(_is_exact, cs))


def _plain(cs) -> tuple:
    """A vector's coefficients, a held array's as a tuple of Python complex."""
    return cs if type(cs) is tuple else tuple(cs.tolist())


def _strip(cs) -> tuple:
    """cs without its trailing zeros (a held array's as Python complex)."""
    cs = _plain(cs)
    end = len(cs)
    while end > 0 and cs[end - 1] == 0:
        end -= 1
    return cs[:end]


def _fsum(xs: list) -> float:
    """``math.fsum``, except that a sum past double range is the signed
    infinity of float arithmetic, not an OverflowError, and a sum of inf and
    -inf is NaN, as in float arithmetic, not a ValueError.  fsum raises once
    a partial sum leaves range, even if the total does not; the exact sum of
    the finite terms, rounded once, settles which."""
    try:
        return math.fsum(xs)
    except OverflowError:
        special = [x for x in xs if not math.isfinite(x)]
        if special:  # inf or nan decides, as in fsum
            return _fsum(special)
        exact = sum(map(Fraction, xs))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf
    except ValueError:  # -inf + inf: NaN, as in float arithmetic
        return math.nan


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
    degree is an artifact of construction, not data.  A float route's
    result may hold its complex array in place of the tuple (:func:`_held`).
    """

    coeffs: tuple | np.ndarray

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
        return _all_exact(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaylorCoeffs):
            return NotImplemented
        return _strip(self.coeffs) == _strip(other.coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TaylorCoeffs({list(_plain(self.coeffs))!r})"

    def to_json_obj(self) -> dict:
        return {"coeffs": [[complex(c).real, complex(c).imag]
                           for c in _plain(self.coeffs)]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TaylorCoeffs":
        return cls(_complex_pairs(obj, "coeffs"))


def _finite_number(x) -> bool:
    """x is a JSON number that is finite as a double (not a boolean, not
    NaN, not an infinity, not an integer past double range)."""
    try:
        return (isinstance(x, (int, float)) and not isinstance(x, bool)
                and math.isfinite(x))
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


def _held(cls, a, *args):
    """``cls(a, *args)``, but a non-empty complex array ``a``, a float route's
    own output, is kept once, read-only, in place of the tuple."""
    obj = cls(() if type(a) is np.ndarray else a, *args)
    if type(a) is np.ndarray and a.size:
        a.flags.writeable = False
        object.__setattr__(obj, "coeffs", a)
    return obj


def add(f: TaylorCoeffs, g: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(x + y for x, y in zip_longest(
        _plain(f.coeffs), _plain(g.coeffs), fillvalue=0))


def sub(f: TaylorCoeffs, g: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(x - y for x, y in zip_longest(
        _plain(f.coeffs), _plain(g.coeffs), fillvalue=0))


def scale(c, f: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(tuple(c * x for x in _plain(f.coeffs)))


def _split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(re, im, e): the parts of ``c`` times 2**-e, the larger in [0.5, 1).

    One power of two per coefficient, so the scaling is exact (bar a part
    below 2**-1022 of the other) and products of the scaled parts neither
    overflow nor lose subnormal bits.
    """
    re, im = c.real, c.imag
    e = np.frexp(np.maximum(np.abs(re), np.abs(im)))[1]
    return np.ldexp(re, -e), np.ldexp(im, -e), e


def _complex(cs, m: int, start: int = 0) -> np.ndarray:
    """A sequence as a complex array, by ``np.fromiter``, which skips the
    shape discovery that makes ``np.asarray`` about 15% slower; an ndarray
    as it is.  The first exact coefficient no double holds (one that rounds
    to 2**1024) raises WeightOverflowError at its index, from ``start``."""
    if isinstance(cs, np.ndarray):
        return cs
    try:
        return np.fromiter(cs, complex, len(cs))
    except OverflowError as exc:
        for n, x in enumerate(cs, start):
            if _is_exact(x) and abs(x) >= 2 ** 1024 - 2 ** 970:
                raise WeightOverflowError(n, m, cause="coefficient") from exc
        raise
    except (TypeError, ValueError):  # a sequence among them: numpy's verdict
        return np.asarray(cs, dtype=complex)


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
    exactly and rounded once.  Otherwise f's paired coefficients and g's from
    f's first to last non-zero one (no other is read) are converted to complex
    (an exact one past double range raises WeightOverflowError) and each live
    term is formed in numpy: both coefficients are scaled by a power of two,
    the parts combined with the operations of a complex multiply, times the
    weight mantissa, the summed exponent applied last.  A term in range is bit
    for bit ``(f_n * conj(g_n)) * weight(n, m)``; one whose weight or
    coefficient product alone leaves double range stays accurate, and one that
    is itself too large for a double raises WeightOverflowError.  The terms are
    summed correctly rounded; a sum past double range is infinite.
    """
    _require_level(m, signed=True)
    size = min(len(f.coeffs), len(g.coeffs))
    fc, gc = f.coeffs[:size], g.coeffs[:size]
    if _all_exact(fc) and _all_exact(gc):
        return _exact_inner(fc, gc, m)
    a = _complex(fc, m)
    live = a != 0
    lo, hi = 0, size  # the span from f's first to its last live coefficient
    if not (live[0] and live[-1]):
        lo = int(live.argmax())
        hi = size - int(live[::-1].argmax()) if live[lo] else lo
    b = _complex(gc[lo:hi], m, lo)
    i = (live[lo:hi] & (b != 0)).ravel().nonzero()[0]  # np.flatnonzero
    idx = i + lo if lo else i
    fr, fi, fe = _split(a[idx])
    gr, gi, ge = _split(b[i])
    mant, exp = _weight_table(m, size)
    mw, e = mant[idx], fe + ge + exp[idx]
    with np.errstate(over="ignore", invalid="ignore"):
        re = np.ldexp((fr * gr + fi * gi) * mw, e)
        im = np.ldexp((fi * gr - fr * gi) * mw, e)
        # a finite sum screens every term finite; one past range rechecks
        screen = math.isfinite(np.add.reduce(re) + np.add.reduce(im))
    if not screen:
        bad = ~(np.isfinite(re) & np.isfinite(im))
        if bad.any():
            raise WeightOverflowError(int(idx[bad.argmax()]), m)
    return complex(_fsum(re.tolist()), _fsum(im.tolist()))


def _weighted_sq_terms(coeffs, w: int, k=0, strict: bool = True) -> list:
    """|c_n|**2 * (n!)**w * n**k for each non-zero c_n (n = 0 skipped if
    k > 0); for a range of orders k, a list per order from one conversion.

    Each coefficient is scaled by 2**-e first (see :func:`_split`), the term
    formed as (re**2 + im**2) * mant * n**k and scaled by 2**(2e + exp), so
    in range it is bit for bit the double-precision product, and subnormal
    coefficients or weights past double range lose nothing.  A term past
    double range raises WeightOverflowError (the orders in turn), or is inf
    when not ``strict``; a term below it flushes toward 0.0.  An exact
    coefficient past double range raises WeightOverflowError and names the
    first.
    """
    c = _complex(coeffs, w)
    idx = c.ravel().nonzero()[0]  # np.flatnonzero, less its call layers
    re, im, e = _split(c[idx])
    mant, exp = _weight_table(w, len(c))
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        base = (re * re + im * im) * mant[idx]
        shift = 2 * e + exp[idx]
        for kk in k if isinstance(k, range) else (k,):
            j = int(kk != 0 and idx[:1].tolist() == [0])  # n = 0 skipped
            t = base[j:] * idx[j:].astype(float) ** kk if kk else base
            t = np.ldexp(t, shift[j:])
            # the terms are >= 0: a finite sum screens them all finite
            if strict and not math.isfinite(np.add.reduce(t)):
                bad = ~np.isfinite(t)
                if bad.any():
                    raise WeightOverflowError(int(idx[j + bad.argmax()]), w)
            rows.append(t.tolist())
    return rows if isinstance(k, range) else rows[0]


def squared_norm(f: TaylorCoeffs, m: int) -> float:
    """Sum of |f_n|^2 * (n!)**m, correctly rounded over the terms of
    :func:`_weighted_sq_terms` (exact where a weight or a coefficient alone
    leaves double range but the term does not) by :func:`_fsum`, so a sum
    of in-range terms past double range is inf."""
    _require_level(m, signed=True)
    return _fsum(_weighted_sq_terms(f.coeffs, m))


def norm(f: TaylorCoeffs, m: int) -> float:
    """sqrt of :func:`squared_norm`; for a monomial z^n this is (n!)**(m/2)."""
    return math.sqrt(squared_norm(f, m))


def eval_point(f: TaylorCoeffs, z) -> complex:
    """Horner evaluation of the truncated series at z (exact for exact input);
    a step past double range raises WeightOverflowError at level 0."""
    cs, acc = _plain(f.coeffs), 0
    for n in range(len(cs) - 1, -1, -1):
        try:
            acc = acc * z + cs[n]
        except OverflowError as exc:
            raise WeightOverflowError(n, 0, cause="Horner step") from exc
    return acc


def kernel_eval(m: int, z: complex, w: complex, tol: float = 1e-14) -> complex:
    """Level-m kernel at (z, w): sum over n of (z * conj(w))^n / (n!)**m.

    The partial sum stops after three consecutive terms fall below
    tol * |partial sum| (guards small-argument plateaus; terms decrease
    monotonically once the factorial dominates), or as soon as it is no
    longer finite, which it then returns.  ``tol`` is only that stopping
    threshold, not a bound on the error: where u = z * conj(w) points away
    from the positive axis the terms cancel, and the rounding they leave
    can exceed tol by far (at m = 1, u = -30 gives -3.07e-5 for e**-30).
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
    return _held(TaylorCoeffs, out)


# Both kernel aggregations truncate every kernel after the term u**48.
_AGGREGATE_DEGREE = 48


def _aggregate(level_coeffs: list, z: complex, w: complex,
               resum) -> tuple[complex, complex]:
    """(lhs, rhs) of a kernel aggregation identity at u = z * conj(w).

    lhs sums ``level_coeffs[lv - 1]`` times the level-lv kernel truncated
    at degree ``_AGGREGATE_DEGREE``, each kernel summed correctly rounded;
    its weights are the level -1 row 1/n! raised to the power lv, so no
    level builds a table of its own.  rhs is ``resum(upow, fact)``, the
    coefficientwise resummation over the lists of u**n and of n! (level 1;
    inf past double range).
    """
    u = complex(z) * complex(w).conjugate()
    upow = [1.0 + 0.0j]
    for _ in range(_AGGREGATE_DEGREE):
        upow.append(upow[-1] * u)
    size = _AGGREGATE_DEGREE + 1
    mant, exp = _weight_table(-1, size)
    inv = np.ldexp(mant[:size], exp[:size])
    lv = np.arange(1, len(level_coeffs) + 1)[:, None]
    kernels = [_fsum_complex(row) for row in inv ** lv * np.array(upow)]
    lhs = _fsum_complex(np.array(level_coeffs) * kernels)
    mant, exp = _weight_table(1, size)
    with np.errstate(over="ignore"):
        fact = np.ldexp(mant[:size], exp[:size]).tolist()
    return lhs, resum(upow, fact)


def aggregate_kernels_geometric(eps: float, z: complex, w: complex
                                ) -> tuple[complex, complex]:
    """Geometric aggregation of the kernel family across levels.

    lhs sums eps^m times the level-m kernel, truncated at degree 48, until
    the level weight is below machine tolerance; rhs is the closed
    coefficientwise resummation eps * sum of u^n / (n! - eps).  The two
    must agree to ~1e-10 relative on sane inputs.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    n_levels = max(40, int(math.ceil(math.log(1e-18) / math.log(eps))))
    return _aggregate(
        [eps ** lv for lv in range(1, n_levels + 1)], z, w,
        lambda upow, fact: eps * _fsum_complex(
            [p / (f - eps) for p, f in zip(upow, fact)]))


def aggregate_kernels_exponential(eps: float, z: complex, w: complex
                                  ) -> tuple[complex, complex]:
    """Exponentially weighted aggregation: weights eps^m/m! on the kernels
    truncated at degree 48, coefficientwise resummation expm1(eps/n!)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    level_coeffs, lw = [], eps
    while lw >= 1e-20 or len(level_coeffs) < 4:
        level_coeffs.append(lw)
        lw = lw * eps / (len(level_coeffs) + 1)
    return _aggregate(
        level_coeffs, z, w,
        lambda upow, fact: _fsum_complex(
            [math.expm1(eps / f) * p for p, f in zip(upow, fact)]))
