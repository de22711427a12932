"""Coefficient-space model of the factorially weighted power-series scale.

An element is a truncated Taylor series, stored as its coefficient vector.
The level-``m`` inner product weights index ``n`` by ``(n!)**m``.  Weights
are combined through exact big-int arithmetic while they fit in a double and
through ``exp(m * lgamma(n+1))`` beyond that, so norms of well-scaled
elements stay accurate even where the raw weights overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lgamma

import numpy as np

_TINY = 1e-300
# log 2 split so that k * _LN2_HI is exact for every |k| < 2**21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


class WeightOverflowError(OverflowError):
    """A factorial-power weight left double range at an index that matters."""

    def __init__(self, index: int, m: int):
        super().__init__(
            f"weight (n!)^m exceeds double range at index n={index} (level m={m}) "
            "with a non-zero coefficient"
        )
        self.index = index
        self.m = m


def _require_level(m: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"level must be an integer >= 1, got {m!r}")


def log_weight(n: int, m: int) -> float:
    """log of the level-m weight at index n, i.e. m * lgamma(n+1)."""
    return m * lgamma(n + 1)


@lru_cache(maxsize=None)
def weight(n: int, m: int) -> float:
    """(n!)**m as a float.

    Exactly rounded (big-int to float) whenever representable.  For m >= 0 an
    unrepresentable weight raises :class:`WeightOverflowError`; for m < 0 it
    underflows gracefully (flushes toward 0.0 through the log domain).
    """
    if m >= 0:
        try:
            return float(math.factorial(n) ** m)
        except OverflowError as exc:
            raise WeightOverflowError(n, m) from exc
    big = math.factorial(n) ** (-m)
    if big.bit_length() <= 1020:
        return 1.0 / float(big)
    return math.exp(log_weight(n, m))


def _conj(c):
    conj = getattr(c, "conjugate", None)
    if conj is not None:
        return conj()
    return c  # Fraction and friends are real


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction))


def _strip(cs: tuple) -> tuple:
    """cs without its trailing zeros."""
    end = len(cs)
    while end > 0 and cs[end - 1] == 0:
        end -= 1
    return cs[:end]


def _fsum_complex(terms) -> complex:
    """Correctly rounded sum of complex terms, real and imaginary parts apart.

    A numpy array is split through its real and imaginary views, so it pays
    no per-element conversion to Python complex.
    """
    if isinstance(terms, np.ndarray):
        return complex(math.fsum(terms.real.tolist()),
                       math.fsum(terms.imag.tolist()))
    cs = [complex(t) for t in terms]
    return complex(math.fsum([c.real for c in cs]),
                   math.fsum([c.imag for c in cs]))


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
        pairs = obj["coeffs"]
        return cls(complex(re, im) for re, im in pairs)


def add(f: TaylorCoeffs, g: TaylorCoeffs) -> TaylorCoeffs:
    n = max(len(f.coeffs), len(g.coeffs))
    return TaylorCoeffs(tuple(f.coeff(i) + g.coeff(i) for i in range(n)))


def sub(f: TaylorCoeffs, g: TaylorCoeffs) -> TaylorCoeffs:
    n = max(len(f.coeffs), len(g.coeffs))
    return TaylorCoeffs(tuple(f.coeff(i) - g.coeff(i) for i in range(n)))


def scale(c, f: TaylorCoeffs) -> TaylorCoeffs:
    return TaylorCoeffs(tuple(c * x for x in f.coeffs))


_NORMAL_FLOOR = 2.3e-308


def _frac_parts(c) -> tuple[Fraction, Fraction]:
    if isinstance(c, complex):
        return Fraction(c.real), Fraction(c.imag)
    return Fraction(c), Fraction(0)


def _exact_weighted_term(fn, gn, n: int, m: int) -> complex:
    """fn * conj(gn) * (n!)**m through big rationals, exactly rounded.

    Doubles are rationals, so the product can be formed without any
    intermediate rounding even when the weight alone (or the coefficient
    product alone) leaves double range; only the final float() rounds,
    flushing a genuinely tiny term to zero and raising on a term that is
    itself too large for a double.
    """
    wt = Fraction(math.factorial(n)) ** m
    fr, fi = _frac_parts(fn)
    gr, gi = _frac_parts(gn)
    re = fr * gr + fi * gi
    im = fi * gr - fr * gi
    try:
        return complex(float(re * wt), float(im * wt))
    except OverflowError as exc:
        raise WeightOverflowError(n, m) from exc


def inner_product(f: TaylorCoeffs, g: TaylorCoeffs, m: int) -> complex:
    """Sum of f_n * conj(g_n) * (n!)**m, compensated.

    The shorter vector is zero-padded.  Terms whose weight leaves double
    range, or whose coefficient product drops below the normal-number
    floor, are formed exactly through rationals instead; a term that is
    itself too large for a double raises WeightOverflowError.
    """
    terms = []
    for n in range(min(len(f.coeffs), len(g.coeffs))):
        fn, gn = f.coeffs[n], g.coeffs[n]
        if fn == 0 or gn == 0:
            continue
        prod = fn * _conj(gn)
        fast = abs(log_weight(n, m)) < 700.0 and (
            _is_exact(prod) or abs(complex(prod)) > _NORMAL_FLOOR)
        if fast:
            try:
                tc = complex(prod * weight(n, m))
            except OverflowError:
                tc = _exact_weighted_term(fn, gn, n, m)
            else:
                if not (math.isfinite(tc.real) and math.isfinite(tc.imag)):
                    raise WeightOverflowError(n, m)
        else:
            tc = _exact_weighted_term(fn, gn, n, m)
        terms.append(tc)
    return _fsum_complex(terms)


def _weighted_sq_terms(coeffs, w: int, k: int = 0,
                       strict: bool = True) -> list[float]:
    """|c_n|**2 * (n!)**w * n**k for each non-zero c_n (n = 0 skipped if k > 0).

    In range, |c_n|**2 meets the exactly rounded weight directly.  Otherwise
    the term is combined in the log domain, with log|c_n|**2 taken from the
    parts after an exact power-of-two rescale: abs() of a complex with
    subnormal parts rounds onto the subnormal grid and loses bits.  The
    rescale exponent enters through the split log 2, so it cancels against
    the log weight without rounding.  A term past double range raises
    WeightOverflowError, or is inf when not ``strict``.
    """
    terms = []
    for n, c in enumerate(coeffs):
        if c == 0 or (k and n == 0):
            continue
        cc = complex(c)
        re, im = cc.real, cc.imag
        mag2 = re * re + im * im
        lw = log_weight(n, w)
        if abs(lw) < 700.0 and _TINY < mag2 < math.inf:
            t = mag2 * weight(n, w) * n ** k
        else:
            e = math.frexp(max(abs(re), abs(im)))[1]
            re, im = math.ldexp(re, -e), math.ldexp(im, -e)
            lt = ((lw + 2 * e * _LN2_HI) + math.log(re * re + im * im)
                  + 2 * e * _LN2_LO + k * math.log(max(n, 1)))
            t = math.inf if lt > 709.0 else math.exp(lt)
        if strict and not math.isfinite(t):
            raise WeightOverflowError(n, w)
        terms.append(t)
    return terms


def squared_norm(f: TaylorCoeffs, m: int) -> float:
    """Sum of |f_n|^2 * (n!)**m.

    Per-index hybrid: exact float weights in range, log-domain combination
    when either factor alone would leave double range but the term itself
    may not.
    """
    return math.fsum(_weighted_sq_terms(f.coeffs, m))


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
    monotonically once the factorial dominates).
    """
    _require_level(m)
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = complex(z) * complex(w).conjugate()
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    below = 0
    n = 0
    while below < 3 and n < 100_000:
        n += 1
        term = term * u / float(n) ** m
        total += term
        if abs(term) < tol * max(abs(total), _TINY):
            below += 1
        else:
            below = 0
    return total


def kernel_section(m: int, w: complex, degree: int) -> TaylorCoeffs:
    """Coefficient view of the kernel at w: index n holds conj(w)^n/(n!)**m."""
    _require_level(m)
    wbar = complex(w).conjugate()
    cs = []
    p = 1.0 + 0.0j
    for n in range(degree + 1):
        if n > 0:
            p = p * wbar
        # Dividing by the exactly rounded weight (instead of multiplying by
        # exp(-log_weight)) makes the reproducing identity hold to a couple
        # of ulps per term: inner_product multiplies the same float back in.
        if log_weight(n, m) < 700.0:
            cs.append(p / weight(n, m))
        else:
            cs.append(p * math.exp(-log_weight(n, m)))
    return TaylorCoeffs(cs)


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
    u = complex(z) * complex(w).conjugate()
    upow = [u ** 0]
    for n in range(1, degree + 1):
        upow.append(upow[-1] * u)

    n_levels = max(40, int(math.ceil(math.log(1e-18) / math.log(eps))))
    lhs_terms = []
    for lv in range(1, n_levels + 1):
        partial = _fsum_complex(upow[n] * math.exp(-log_weight(n, lv))
                                for n in range(degree + 1))
        lhs_terms.append(eps ** lv * partial)
    lhs = _fsum_complex(lhs_terms)

    rhs_terms = []
    for n in range(degree + 1):
        fct = float(math.factorial(n)) if n < 171 else math.inf
        rhs_terms.append(upow[n] / (fct - eps))
    rhs = eps * _fsum_complex(rhs_terms)
    return lhs, rhs


def aggregate_kernels_exponential(eps: float, z: complex, w: complex,
                                  degree: int = 48) -> tuple[complex, complex]:
    """Exponentially weighted aggregation: weights eps^m/m!, coefficientwise
    resummation expm1(eps/n!)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    u = complex(z) * complex(w).conjugate()
    upow = [u ** 0]
    for n in range(1, degree + 1):
        upow.append(upow[-1] * u)

    lhs_terms = []
    lv = 0
    lw = 1.0
    while True:
        lv += 1
        lw = lw * eps / lv
        if lw < 1e-20 and lv > 4:
            break
        partial = _fsum_complex(upow[n] * math.exp(-log_weight(n, lv))
                                for n in range(degree + 1))
        lhs_terms.append(lw * partial)
    lhs = _fsum_complex(lhs_terms)

    rhs_terms = []
    for n in range(degree + 1):
        fct = float(math.factorial(n)) if n < 171 else math.inf
        rhs_terms.append(math.expm1(eps / fct) * upow[n])
    rhs = _fsum_complex(rhs_terms)
    return lhs, rhs
