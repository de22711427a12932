"""Bargmann-type transform between L2 of the line and the weighted scale.

The bridge is the Hermite basis with an alternating sign:

    eta_n(t) = (-1)**n * psi_n(t),

psi_n the usual orthonormal Hermite functions, evaluated by one streamed
three-term recurrence that holds two rows at a time.  hermite_eta_all
stacks the rows into a table, and the two series below read theirs from
one read-only table kept for the last node set read (see
:class:`_EtaReader`).  A function with Hermite coefficients (c_n) maps to
the series with Taylor coefficients

    f_n = c_n / (n!)**(m/2),

which converts the L2 norm into the level-m series norm term by term, so the
map is unitary by construction; the interesting checks are numerical (the
scale factors span hundreds of orders of magnitude) and analytic (the
integral kernel below reproduces the same map through actual quadrature).

The integral kernel at level m is

    h_m(z, t) = sum_n z**n / (n!)**(m/2) * eta_n(t).

At m = 1 the series has the classical Gaussian closed form
pi**(-1/4) * exp(-t*t/2 - sqrt(2)*t*z - z*z/2) under this sign convention;
:func:`classic_kernel_values` also reports the Gaussian variant
exp(2*t*z - t*t - z*z/2) that circulates for differently normalized
conventions, which does not match this one.  The series is the ground truth.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .coeffspace import (TaylorCoeffs, WeightOverflowError, _complex,
                         _fsum, _fsum_complex, _plain, _require_level,
                         _weight_table, _weighted_sq_terms)

_PI_QUARTER = math.pi ** -0.25
_TINY = 1e-300

# Uniform bound on sup_t |eta_n(t)| over all n, used in truncation estimates.
# The true supremum is attained at n = 0 and equals pi**(-1/4) ~ 0.7511; the
# per-n maxima decrease from there.  0.9 is a deliberately round safe cover;
# eta_sup_on_grid lets tests re-measure it.
HERMITE_SUP_BOUND = 0.9


def _eta_rows(t, nmax: int | None = None):
    """Yield eta_0(t), eta_1(t), ... through eta_nmax (no end if None).

    Holds only the last two rows.  Stable in the orthonormal scaling, every
    value O(1); with eta_{-1} = 0, row 1 subtracts an exact 0.0:

        eta_{k+1} = -sqrt(2/(k+1)) * t * eta_k - sqrt(k/(k+1)) * eta_{k-1}
    """
    if nmax is not None and nmax < 0:
        raise ValueError("nmax must be >= 0")
    t = np.asarray(t, float)
    prev, eta = 0.0, _PI_QUARTER * np.exp(-0.5 * t * t)
    for k in itertools.count() if nmax is None else range(nmax):
        yield eta
        prev, eta = eta, (-math.sqrt(2.0 / (k + 1)) * t * eta
                          - math.sqrt(k / (k + 1.0)) * prev)
    yield eta


# The slot: the rows eta_0 .. eta_(r-1) of the last array node set read as
# one read-only table, keyed by the set's shape and bytes (an array changed
# in place is a new key), of at most _BASIS_ROWS rows (the most
# transform_kernel reads) and _BASIS_BUDGET bytes with its key's nodes.
_BASIS_ROWS = 2001
_BASIS_BUDGET = 1 << 21
_BLOCK_BYTES = 1 << 18  # complex terms one block of a series forms at once
_slot: tuple = (None, None)  # (key, table)
_slot_lock = threading.Lock()


class _EtaReader:
    """eta_0, eta_1, ... at one node set, taken in consecutive blocks.

    An array set's block is a read-only slice of the slot's table.  A
    table too short, or another set's, is replaced within the caps by one
    of twice the rows (or as many as asked), filled afresh from eta_0.
    Past the caps the rows stream from :func:`_eta_rows`, restarted at
    eta_0; a single point's always do, so the points of
    classic_kernel_values leave the 96-node rule's table in the slot.
    Either way they are the rows of one recurrence, bit for bit.
    """

    def __init__(self, t):
        self.t = np.asarray(t, float)
        self.key = (self.t.shape, self.t.tobytes())
        self.taken = 0
        self.stream = None if self.t.ndim else _eta_rows(self.t)

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` rows, shape (count, *t.shape)."""
        global _slot
        lo, hi = self.taken, self.taken + count
        self.taken = hi
        if self.stream is None:
            with _slot_lock:
                key, table = _slot
            if key != self.key:
                table = np.empty((0,) + self.t.shape)
            if len(table) >= hi:
                return table[lo:hi]
            if hi <= _BASIS_ROWS and (hi + 1) * self.t.nbytes <= _BASIS_BUDGET:
                size = min(_BASIS_ROWS, _BASIS_BUDGET // max(self.t.nbytes, 1)
                           - 1, max(hi, 2 * len(table)))
                table = hermite_eta_all(size - 1, self.t)
                table.flags.writeable = False
                with _slot_lock:
                    _slot = self.key, table
                return table[lo:hi]
            self.stream = _eta_rows(self.t)
            for _ in range(lo):
                next(self.stream)
        out = np.empty((count,) + self.t.shape)
        for i in range(count):
            out[i] = next(self.stream)
        return out


def hermite_eta_all(nmax: int, t) -> np.ndarray:
    """eta_0 .. eta_nmax at t (scalar or array); shape (nmax+1, *t.shape)."""
    out = np.empty((max(nmax, -1) + 1,) + np.shape(t))
    for k, eta in enumerate(_eta_rows(t, nmax)):
        out[k] = eta
    return out


def hermite_eta(n: int, t):
    """eta_n at t: the last row of the recurrence, none of them stored."""
    return functools.reduce(lambda _, eta: eta, _eta_rows(t, n))


@functools.lru_cache(maxsize=None, typed=True)
def _gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """``hermgauss(order)``, computed once per order and shared read-only;
    the cache is typed, so 96.0 raises in ``hermgauss`` even once 96 is in."""
    nodes, weights = hermgauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _lifted_weights(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """w_j * exp(x_j**2), formed in the log domain: the product is O(1) for
    every node but the factors overflow separately at high rule orders."""
    return np.exp(np.log(weights) + nodes ** 2)


def eta_sup_on_grid(nmax: int) -> np.ndarray:
    """max of |eta_n| over 6001 points spanning [-30, 30], n = 0 .. nmax.

    The window covers the classical turning points +-sqrt(2n+1) for n up
    to about 400, beyond which the functions are exponentially small.
    """
    t = np.linspace(-30.0, 30.0, 6001)
    return np.array([np.abs(eta).max() for eta in _eta_rows(t, nmax)])


@dataclass(frozen=True, eq=False)
class HermiteEvaluation:
    """The eta basis tabulated on the Gauss-Hermite rule of order
    max_index + 1.

    values[n, j] = eta_n(nodes[j]) for n <= max_index.  Since each eta_n is
    exp(-t*t/2) times a degree-n polynomial, sums of products of two rows
    against weights * exp(nodes**2) integrate exactly whenever the combined
    degree stays under twice the rule order, which is what makes the
    discrete orthonormality check meaningful.  Order max_index + 1 is the
    least rule for which that holds; a larger one adds no accuracy.
    """

    max_index: int
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    @classmethod
    def build(cls, max_index: int) -> "HermiteEvaluation":
        if max_index < 0:
            raise ValueError("max_index must be >= 0")
        nodes, weights = _gauss_hermite(max_index + 1)
        return cls(max_index, nodes, weights,
                   hermite_eta_all(max_index, nodes))

    def gram(self) -> np.ndarray:
        """Discrete pairing matrix sum_j w_j exp(x_j^2) eta_i eta_k."""
        return (self.values * _lifted_weights(self.nodes, self.weights)
                ) @ self.values.T

    def orthonormality_deviation(self) -> float:
        """max |gram - identity|; near machine zero for an adequate rule."""
        g = self.gram()
        return float(np.abs(g - np.eye(self.max_index + 1)).max())


def _scales(m: int, size: int) -> list[float]:
    """(n!)**(-m/2) for n < size, from the weight table of coeffspace.

    With (n!)**m = mant * 2**exp and the odd bit of exp moved into the
    mantissa, the scale is 2**(-exp/2) / sqrt(mant): one rounding in the
    square root and one in the reciprocal, so scale**2 * (n!)**m stays
    within a few ulps of 1.  Forward and inverse transforms read the same
    list, so they share the identical scale bit for bit.  0.0 marks a scale
    below double range.
    """
    mant, exp = _weight_table(m, size)
    mant, exp = mant[:size], exp[:size]
    odd = exp & 1
    return np.ldexp(1.0 / np.sqrt(np.ldexp(mant, odd)),
                    (odd - exp) // 2).tolist()


def _scaled(coeffs, m: int, divide: bool) -> list:
    """coeffs times (or divided by) their scales; zeros stay exact zeros, and
    a scale below double range or a coefficient no double holds raises."""
    scales = _scales(m, len(coeffs))
    out = []
    for n, (c, s) in enumerate(zip(coeffs, scales)):
        if c == 0:
            out.append(0)
        elif s == 0.0:
            raise WeightOverflowError(n, m)
        else:
            try:
                out.append(c / s if divide else c * s)
            except OverflowError as exc:
                raise WeightOverflowError(n, m, cause="coefficient") from exc
    return out


def forward(hermite_coeffs, m: int) -> TaylorCoeffs:
    """Taylor coefficients of the transform of sum c_n eta_n."""
    _require_level(m)
    return TaylorCoeffs(_scaled(list(hermite_coeffs), m, divide=False))


def inverse(f: TaylorCoeffs, m: int) -> tuple:
    """Hermite coefficients recovering f; divides by the same stored scale
    used in :func:`forward`, so a round trip is exact up to one rounding."""
    _require_level(m)
    return tuple(_scaled(_plain(f.coeffs), m, divide=True))


def unitarity_gap(hermite_coeffs, m: int) -> dict:
    """Squared L2 norm of the input, level-m squared norm of the image, and
    their relative gap (0 for an exactly unitary map).

    A squared norm past double range is inf, and then so is the gap: two
    norms out of range leave no relative gap to measure.  An exact
    coefficient that no double holds raises WeightOverflowError.
    """
    try:
        l2 = _fsum([a * a for a in (abs(complex(c)) for c in hermite_coeffs)])
    except OverflowError:
        _complex(hermite_coeffs, m)  # names the first coefficient past range
        raise
    img = _fsum(_weighted_sq_terms(forward(hermite_coeffs, m).coeffs, m,
                                   strict=False))
    gap = (math.inf if math.isinf(l2) or math.isinf(img)
           else abs(img - l2) / max(l2, _TINY))
    return {"l2": l2, "image": img, "gap": gap}


def transform_kernel(m: int, z: complex, t):
    """h_m(z, t) = sum_n z**n (n!)**(-m/2) eta_n(t); t may be an array.

    Stops the same way the coefficient-side kernel does: after three
    consecutive terms fall below 1e-14 times the running sum.  The term size
    is the uniform bound |z|**n (n!)**(-m/2) * sup|eta|, stepped by |z|
    times the ratio of consecutive scales (|z|**n alone can overflow); the
    running sum is the largest partial-sum magnitude over the t batch
    (pointwise values can pass through zero; the batch maximum cannot
    collapse).  Where z**n leaves double range before its scale brings the
    term back (at m = 1 from about |z| = 11.6 on, near n = 286), the sum is
    lost: :class:`WeightOverflowError` names z**n and the first such n.
    Where the scale itself leaves double range first, it names the weight.

    The terms are formed a block at a time, the block's rows read through
    :class:`_EtaReader`.  The coefficients z**n (n!)**(-m/2) are
    stepped one by one in Python, as far as the term at which the stopping
    rule must fire; one multiply forms the block's terms and one
    accumulate adds them to the running sum strictly in sequence, so every
    partial sum is bit for bit the one a term-by-term loop makes.
    """
    _require_level(m)
    z = complex(z)
    zabs = max(abs(z), 1e-30)
    rows = _EtaReader(t)
    total = rows.take(1)[0].astype(complex)
    ref = max(float(np.abs(total).max()), _TINY)
    cap = max(1, _BLOCK_BYTES // (16 * total.size))
    zpow = 1.0 + 0.0j
    term_bound = HERMITE_SUP_BOUND
    scales = _scales(m, 64)
    below = n = 0
    while below < 3 and n < 2000:
        # the next block's coefficients, through the term at which the
        # stopping rule fires even if ref grows no further
        coefs, zpows, bounds = [], [], []
        ahead, bound, zp = below, term_bound, zpow
        while ahead < 3 and n + len(coefs) < 2000 and len(coefs) < cap:
            k = n + len(coefs) + 1
            if k == len(scales):
                scales = _scales(m, 2 * k)
            if scales[k] == 0.0:
                break
            zp = zp * z
            zpows.append(zp)
            coefs.append(zp * scales[k])
            bound = bound * zabs * (scales[k] / scales[k - 1])
            bounds.append(bound)
            ahead = ahead + 1 if bound < 1e-14 * ref else 0
        if not coefs:
            raise WeightOverflowError(n + 1, m)
        # row 0 the running sum, then the block's terms, summed in sequence
        sums = np.empty((len(coefs) + 1,) + total.shape, complex)
        sums[0] = total
        with np.errstate(invalid="ignore"):  # z**n past range: raised below
            np.multiply(np.array(coefs).reshape((-1,) + (1,) * total.ndim),
                        rows.take(len(coefs)), out=sums[1:])
        np.add.accumulate(sums, axis=0, out=sums)
        peaks = np.abs(sums[1:]).reshape(len(coefs), -1).max(axis=1)
        for i, peak in enumerate(peaks.tolist()):
            ref = max(ref, peak)
            below = below + 1 if bounds[i] < 1e-14 * ref else 0
            if below == 3:
                break
        n += i + 1
        total, zpow, term_bound = sums[i + 1].copy(), zpows[i], bounds[i]
    if not cmath.isfinite(zpow):
        n, zpow = 1, z
        while cmath.isfinite(zpow):
            n, zpow = n + 1, zpow * z
        raise WeightOverflowError(n, m, f"z**n (z={z!r})")
    return total if total.ndim else complex(total)


def transform_via_quadrature(hermite_coeffs, m: int, z: complex) -> complex:
    """Evaluate the transform at z as the integral of h_m(z, .) against the
    input function, by Gauss-Hermite quadrature of order 96.

    Both factors carry exp(-t*t/2), so against the exp(-t*t) Gauss weight
    the integrand is polynomial and the rule is exact once the order beats
    the truncation degrees.  Independent of the coefficient route up to
    quadrature error; used as a cross-check.  An exact coefficient that no
    double holds raises WeightOverflowError.
    """
    _require_level(m)
    nodes, weights = _gauss_hermite(96)
    try:
        coeffs = np.array([complex(c) for c in hermite_coeffs], complex)
    except OverflowError:
        _complex(hermite_coeffs, m)  # names the first coefficient past range
        raise
    # phi = 0 + c_0 eta_0 + c_1 eta_1 + ..., summed in sequence
    terms = np.zeros((len(coeffs) + 1, len(nodes)), complex)
    np.multiply(coeffs[:, None], _EtaReader(nodes).take(len(coeffs)),
                out=terms[1:])
    phi = np.add.accumulate(terms, axis=0, out=terms)[-1]
    hz = transform_kernel(m, z, nodes)
    return _fsum_complex(_lifted_weights(nodes, weights) * hz * phi)


def classic_kernel_values(z: complex, t: float) -> dict:
    """The level-1 kernel three ways at one point.

    series            direct summation of h_1(z, t)
    generating_form   pi**(-1/4) exp(-t*t/2 - sqrt(2) t z - z*z/2), the
                      Hermite generating function under this sign convention
    gaussian_variant  exp(2 t z - t*t - z*z/2), the form quoted for other
                      normalizations; retained to document the mismatch
    """
    z = complex(z)
    series = transform_kernel(1, z, float(t))
    generating = _PI_QUARTER * np.exp(-0.5 * t * t - math.sqrt(2.0) * t * z
                                      - 0.5 * z * z)
    variant = np.exp(2.0 * t * z - t * t - 0.5 * z * z)
    return {"series": complex(series),
            "generating_form": complex(generating),
            "gaussian_variant": complex(variant)}
