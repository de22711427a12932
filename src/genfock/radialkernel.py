"""Radial weight functions obtained by Mellin self-convolution.

The level-1 weight is exp(-x) on (0, inf).  Higher levels are defined by
iterating the multiplicative convolution (f * g)(x) = int f(x/t) g(t) dt/t,
which multiplies Mellin transforms, so the level-m weight has Mellin image
Gamma(s)**m and its n-th moment is (n!)**m.  Level 2 collapses to a modified
Bessel function, 2*K0(2*sqrt(x)), which provides an external cross-check.

Everything here works with log-values: the weights span hundreds of orders
of magnitude across the tabulated range (poly-log growth at 0, stretched
exponential decay exp(-m x**(1/m)) at infinity).

Evaluation routes, deliberately kept separate:

* a log-domain trapezoid engine for convolution integrals, whose scouting
  pass brackets the support and gives the peak width, then halves its step
  until two passes agree; it runs a vector of points as 2-D numpy passes
  over blocks of neighbouring points, and :func:`log_mellin_convolve` is its
  single-point entry.  Its grids are lattices u = j * step, so a block's
  points share the second factor's samples, one pass gives the first sum
  and its halving, and a table stores its values on the first lattices;
* chained tables built from that engine on one fixed grid (64 points per
  decade over [1e-30, 1e9], shared by every level), one batched engine call
  per level over the nodes at or above 1e-16, stored as log-log cubic
  Hermite interpolants with exact end models from the Mellin image
  (:class:`KernelTable`, :func:`build_table`); the nodes below 1e-16 take
  the small-argument model itself, exact there to double precision;
* direct (m-1)-dimensional tensor quadrature of the two integral
  representations (:func:`log_radial_weight_centered`,
  :func:`log_radial_weight_product`), practical for m <= 4, used to
  cross-check the chain.

Building, evaluating and integrating a table needs numpy and the standard
library alone: the interpolant takes its node slopes from local finite
differences (:func:`_local_cubic`), zeta(k) at integer k comes from
Euler-Maclaurin (:func:`_zeta_int`) and the incomplete gamma ratio at
integer order from its finite sum (:func:`small_x_moment_bound`).  scipy
enters only at :func:`bessel_reference_log`, a reference route, for
``k0e``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .coeffspace import WeightOverflowError, _fsum_complex, _require_level

_NEG_INF = float("-inf")


class QuadratureConvergenceError(ArithmeticError):
    """Halving refinement did not reach the requested relative agreement."""

    def __init__(self, achieved: float, rel_tol: float):
        super().__init__(
            f"quadrature refinement stalled at relative change {achieved:.3e} "
            f"(requested {rel_tol:.3e})")
        self.achieved = achieved
        self.rel_tol = rel_tol


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances of the log-trapezoid convolution engine.

    rel_tol          relative agreement demanded between successive halvings
    abs_tol          integrand samples below abs_tol * peak are dead tail
    max_refinements  halvings attempted before declaring non-convergence

    The defaults are what table chaining supports: every engine node of
    levels 2-24 accepts on its first halving, at a change of at most
    2.2e-12 up to level 14, 4.1e-11 at level 20 and 7.7e-11 at level 24
    (99% of nodes: under 2.1e-13, 9.7e-12 and 2.3e-11).  A row whose peak
    width is at least 3 * ``_TARGET_STEP`` thus sums at step 0.24, then
    0.12, and keeps the second sum.  The K_1 factor is analytic in a strip
    of half-width pi/2, so the trapezoid error at step h is about
    exp(-pi**2 / h) (Trefethen & Weideman, SIAM Review 56, 2014): 1e-18 at
    0.24, far under ``rel_tol``.

    The engine applies these per point, also when it runs many points in
    one batch: every point gets its own window growth, step and halvings,
    and leaves the refinement loop once its own halving agrees.  Its grids
    are lattices u = j * step, so points with equal steps share the second
    factor's samples; the first pass samples the lattice of half the first
    step for the sum and its first halving at once.  With
    ``max_refinements = 0`` it samples the first step alone and accepts none.
    """

    rel_tol: float = 3e-10
    abs_tol: float = 3e-20
    max_refinements: int = 4

    @property
    def tail_cut(self) -> float:
        return -math.log(self.abs_tol)


def _clean(arr: np.ndarray) -> np.ndarray:
    # +inf or nan in a log-integrand means a pathological callable; treat the
    # sample as dead rather than poisoning the sum.  In place: the engine's
    # sample matrices are its own, and the widest are about 1 MB
    np.copyto(arr, _NEG_INF, where=~(arr < np.inf))
    return arr


# Neighbouring nodes share one 2-D pass over the hull of their lattice
# windows; the windows mostly overlap, so little of each pass is padding.
_BLOCK = 64
# The engine's lattice, the same for every caller.  The scouting pass samples
# u = j * _COARSE_STEP to bracket the support and, by the parabola through
# its maximum and the two neighbours, to give the peak and its width; a
# window grows by _GROW steps, at most _MAX_EXPAND times while a tail is not
# dead yet.  A point's first trapezoid step is _TARGET_STEP * 2**-k with the
# smallest k >= 0 that is at most a third of its peak width (floored at
# 1e-5), and each halving raises k by one.
_COARSE_STEP = 0.25
_TARGET_STEP = 0.24
_MAX_EXPAND = 8
_GROW = math.ceil(4.0 / _COARSE_STEP)


def log_mellin_convolve(log_f, log_g, ln_x: float,
                        window: tuple[float, float] | None = None,
                        quad: QuadConfig = QuadConfig()) -> float:
    """log of (f * g)(x) for the multiplicative convolution, x = exp(ln_x).

    ``log_f`` and ``log_g`` are vectorized maps w -> log f(exp(w)); working
    with log-arguments avoids overflow at both ends.  In log coordinates the
    integral is  int exp( log_f(ln_x - u) + log_g(u) ) du.

    The integrand is assumed to decay on both sides (true whenever f and g
    decay at infinity and are at most poly-log at 0).  A coarse scan on the
    lattice u = j * _COARSE_STEP brackets the support, and the parabola
    through its maximum and the two neighbours gives the peak width sigma
    (none where a neighbour is dead: the step stays coarsest), so narrow
    saddles get a proportionally fine step _TARGET_STEP * 2**-k.  The
    trapezoid value is accepted once one halving reproduces it to
    ``rel_tol``; one pass over the lattice of step h/2 gives the sum at h
    and its first halving, and a later halving samples only the new
    midpoints: two passes a point, three if a second halving runs.  If
    ``max_refinements`` halvings never agree, QuadratureConvergenceError
    reports the last achieved relative change.  ``log_g`` may also be a
    :class:`KernelTable`.  This is the single-point entry of the batched
    engine that :func:`build_table` runs on whole levels.
    """
    if window is None:
        window = (ln_x - 10.0, 40.0)
    u_lo, u_hi = float(window[0]), float(window[1])
    if not u_lo < u_hi:
        raise ValueError("window must satisfy lo < hi")
    val, achieved = _log_conv(log_f, log_g, np.array([float(ln_x)]),
                              np.array([u_lo]), u_hi, quad)
    if not achieved[0] <= quad.rel_tol:
        raise QuadratureConvergenceError(float(achieved[0]), quad.rel_tol)
    return float(val[0])


def _log_conv(log_f, log_g, ln_x: np.ndarray, u_lo: np.ndarray,
              u_hi: float, quad: QuadConfig) -> tuple[np.ndarray, np.ndarray]:
    """The convolution engine over a vector of points, ``_BLOCK`` at a time.

    Row i integrates over the window (u_lo[i], u_hi) with the steps
    :func:`log_mellin_convolve` describes.  Its grids are lattices of
    multiples of its own step, which depends only on its own peak width,
    read off its own row of the scouting pass; in each pass ``log_g`` is
    evaluated once on the block's lattice indices of one step (or read from
    a table's stored values, :meth:`KernelTable.lattice_log`) and shared by
    the rows on that lattice, ``log_f`` once per sample.  A pass samples
    the hull of the block's windows and a row sums all of it, also the
    samples outside its own window.  Those lie in the row's dead tail: its
    window reaches past the outermost scout samples above peak - tail_cut
    on either side, and the integrand, log-concave for every rung
    K_1 * K_(m-1), only falls from there.  So a row feels its neighbours
    only through samples under ``abs_tol`` times its peak, and batched and
    single rows agree to rounding.  Returns the last trapezoid value of
    each row and the relative change its last halving achieved (inf if
    none ran).  A row whose change exceeds ``rel_tol`` did
    not converge, and the caller decides whether that is an error.
    """
    val = np.empty(len(ln_x))
    achieved = np.empty(len(ln_x))
    with np.errstate(all="ignore"):
        for i in range(0, len(ln_x), _BLOCK):
            blk = slice(i, i + _BLOCK)
            val[blk], achieved[blk] = _log_conv_block(
                log_f, log_g, ln_x[blk], u_lo[blk], u_hi, quad)
    return val, achieved


def _log_conv_block(log_f, log_g, ln_x, lo, u_hi, quad: QuadConfig):
    rows = np.arange(len(ln_x))
    parent = getattr(log_g, "lattice_log", None) or (lambda h, j: log_g(h * j))

    def on_lattice(x, h, j):
        """Integrand logs of rows x at u = j*h for one shared index vector
        j, the parent sampled once for all rows.  A row keeps the samples
        of the block's hull outside its own window: they lie in its dead
        tail (see :func:`_log_conv`)."""
        u = h * j
        return _clean(np.asarray(log_f((x[:, None] - u).ravel()), float)
                      .reshape(len(x), len(u))
                      + np.asarray(parent(h, j), float))

    # scouting pass on the lattice u = j * _COARSE_STEP, growing each row's
    # window until both of its tails die; a rescan repeats the rows that had
    # already settled, unchanged
    cs = _COARSE_STEP
    first = np.floor(lo / cs).astype(np.int64)
    last = np.maximum(math.ceil(u_hi / cs), first + 7)
    for _ in range(_MAX_EXPAND + 1):
        j0 = first.min()
        e = on_lattice(ln_x, cs, np.arange(j0, last.max() + 1))
        floor = e.max(axis=1) - quad.tail_cut
        grow_left = e[rows, first - j0] > floor
        grow_right = e[rows, last - j0] > floor
        if not (grow_left | grow_right).any():
            break
        first -= _GROW * grow_left
        last += _GROW * grow_right
    else:
        raise RuntimeError("integrand tails refuse to die; bad window or "
                           "non-decaying input")
    if (floor == _NEG_INF).any():
        raise ValueError("integrand is identically dead on the window")

    alive = e >= floor[:, None]
    a = cs * (j0 + np.maximum(alive.argmax(axis=1) - 2, first - j0))
    b = cs * (j0 + np.minimum(e.shape[1] + 1 - alive[:, ::-1].argmax(axis=1),
                              last - j0))
    # peak and curvature from the parabola through the scout's maximum and
    # its lattice neighbours: the log of the log-concave integrand is close
    # to a parabola at this scale, and the width only has to pick a power of
    # two.  A dead neighbour, or a second difference that is not finite and
    # negative, leaves curvature 0, and the halvings decide.
    k = np.minimum(np.maximum(e.argmax(axis=1), 1), e.shape[1] - 2)
    left, right = e[rows, k - 1], e[rows, k + 1]
    second = left - 2.0 * e[rows, k] + right
    bent = np.isfinite(second) & (second < 0.0)
    second = np.where(bent, second, -1.0)
    c0 = cs * (j0 + k + np.where(bent, 0.5 * (left - right) / second, 0.0))
    sigma = np.where(bent, cs / np.sqrt(-second), np.inf)
    reach = 10.0 * np.minimum(sigma, 1.0)
    a = np.minimum(a, c0 - reach)
    b = np.maximum(b, c0 + reach)
    # row step _TARGET_STEP * 2**-depth with the smallest depth >= 0 that
    # puts it at or below max(min(_TARGET_STEP, sigma/3), 1e-5); rows of one
    # depth share a lattice, and so the parent's samples
    mant, depth = np.frexp(_TARGET_STEP / np.maximum(
        np.minimum(_TARGET_STEP, sigma / 3.0), 1e-5))
    depth = np.maximum(depth - (mant == 0.5), 0)

    def lattice(first, last, odd):
        """The block's lattice indices over the rows' windows [first, last]
        (only the odd ones right after a halving doubled them)."""
        lo, hi = first.min(), last.max()
        if hi - lo >= 500_000 and (last - first).max() >= 500_000:
            raise RuntimeError("quadrature grid blew past the safety cap")
        return np.arange(lo + odd, hi + 1, 1 + odd)

    def refine(g, dg):
        """Trapezoid sums of the rows g on their own lattice windows, folded
        into a running (max, shifted sum, end weights) per row.  One pass
        over the lattice of half the first step gives the first sum (its
        even points) and the first halving (its odd points); each further
        halving samples only the new odd lattice points."""
        x = ln_x[g]
        h = math.ldexp(_TARGET_STEP, -int(dg))
        first = np.floor(a[g] / h).astype(np.int64)
        last = np.ceil(b[g] / h).astype(np.int64)
        fused = int(quad.max_refinements > 0)
        e = on_lattice(x, math.ldexp(h, -fused),
                       lattice(first << fused, last << fused, False))
        even = e[:, ::1 + fused]
        live = np.arange(len(x))
        top = even.max(axis=1)
        wts = np.exp(even - top[:, None])
        total = wts.sum(axis=1)
        ends = wts[live, first - first.min()] + wts[live, last - first.min()]
        val = top + np.log(h * (total - 0.5 * ends))
        out = np.empty(len(x))
        achieved = change = np.full(len(x), np.inf)
        for halving in range(quad.max_refinements):
            h *= 0.5
            first *= 2
            last *= 2
            e = (on_lattice(x, h, lattice(first, last, True)) if halving
                 else e[:, 1::2])
            peak = np.maximum(top, e.max(axis=1))
            rescale = np.exp(top - peak)
            total = total * rescale + np.exp(e - peak[:, None]).sum(axis=1)
            ends *= rescale
            top = peak
            finer = top + np.log(h * (total - 0.5 * ends))
            change = np.abs(np.expm1(np.minimum(finer - val, 700.0)))
            val = finer
            done = change <= quad.rel_tol
            if done.all():
                out[live], achieved[live] = val, change
                return out, achieved
            if done.any():
                out[live[done]], achieved[live[done]] = val[done], change[done]
                keep = ~done
                live, x, first, last = live[keep], x[keep], first[keep], last[keep]
                top, total, ends = top[keep], total[keep], ends[keep]
                val, change = val[keep], change[keep]
        out[live], achieved[live] = val, change
        return out, achieved

    dg = depth.min()
    if dg == depth.max():
        return refine(slice(None), dg)
    val = np.empty(len(rows))
    achieved = np.empty(len(rows))
    for dg in np.unique(depth):
        g = np.flatnonzero(depth == dg)
        val[g], achieved[g] = refine(g, dg)
    return val, achieved


# Below this the O(x) error of the residue model is under double precision,
# so the model gives a table its nodes there and continues it below the grid.
_RESIDUE_EXACT_X = 1e-16

# The tables' one configuration: the public domain [_X_MIN, _X_MAX], a grid
# uniform in log x at _POINTS_PER_DECADE whose first _MODEL_NODES nodes lie
# below _RESIDUE_EXACT_X and hold the residue model, and _TABLE_QUAD for the
# engine nodes.  Past either end of the grid the end models of KernelTable
# carry the weight, so a convolution stage may read its parent there.
_X_MIN, _X_MAX = 1e-30, 1e9
_POINTS_PER_DECADE = 64
_TABLE_QUAD = QuadConfig()
_S = np.linspace(math.log(_X_MIN), math.log(_X_MAX), int(math.ceil(
    (math.log(_X_MAX) - math.log(_X_MIN)) * _POINTS_PER_DECADE
    / math.log(10.0))) + 1)
_S.flags.writeable = False
_MODEL_NODES = int(np.searchsorted(_S, math.log(_RESIDUE_EXACT_X)))
# a lookup's interval is floor((w - _ORIGIN) * _INV_H); the origin sits
# 2**-20 steps below _S[0], so rounding never drops a node into the
# interval below it and the interpolant returns node values exactly
_H = (float(_S[-1]) - float(_S[0])) / (len(_S) - 1)
_ORIGIN = float(_S[0]) - _H * 2.0 ** -20
_INV_H = 1.0 / _H
_LAST = float(len(_S) - 2)


def _rung_window(ln_x):
    """The u-window (lo, hi) of the rung K_1 * parent at ln_x: K_1(x/t) is
    dead 8 log-units below ln_x, the parent (its large-argument model) 4
    above the top node for every node; the engine grows it where not."""
    return ln_x - 8.0, float(_S[-1]) + 4.0


# Every table stores its log values on the lattices u = h*j a rung over it
# samples first, the scout's and the depth-0 first pass's, for the j of the
# grid's rung windows grown as far as the scout grows them: u in [-109, 57].
_REACH = _MAX_EXPAND * _GROW * _COARSE_STEP
_STORED_J = {h: np.arange(math.floor((_rung_window(_S[0])[0] - _REACH) / h),
                          math.ceil((_rung_window(0.0)[1] + _REACH) / h) + 1)
             for h in (_COARSE_STEP, math.ldexp(_TARGET_STEP, -1))}


# B_2j / (2j)! for j = 1..6, the Euler-Maclaurin weights of _zeta_int
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
               -691 / 1307674368000)


def _zeta_int(k: int) -> float:
    """zeta(k) for integer k >= 2 by Euler-Maclaurin summation (DLMF 25.2.9):
    the terms n**-k for n < 16, the integral and half term at 16, and six
    Bernoulli corrections; the first omitted one is below 1e-18 at k = 2."""
    terms = [float(n) ** -k for n in range(1, 16)]
    terms += [16.0 ** (1 - k) / (k - 1), 0.5 * 16.0 ** -k]
    rising, power = float(k), 16.0 ** (-k - 1)
    for j, weight in enumerate(_EM_WEIGHTS):
        terms.append(weight * rising * power)
        rising *= (k + 2 * j + 1) * (k + 2 * j + 2)
        power /= 256.0
    return math.fsum(terms)


@functools.lru_cache(maxsize=None)
def _residue_coeffs(m: int) -> tuple[float, ...]:
    """e_j = [s^j] Gamma(1+s)**m for j < m, by exponentiating the series
    m ln Gamma(1+s) = -m gamma s + m sum_{k>=2} (-1)**k zeta(k) s**k / k
    (DLMF 5.7.3); ka[k-1] is k times its s**k coefficient."""
    ka = [-m * np.euler_gamma] + [m * (-1) ** k * _zeta_int(k)
                                  for k in range(2, m)]
    e = [1.0]
    for n in range(1, m):
        e.append(math.fsum(ka[k - 1] * e[n - k] for k in range(1, n + 1)) / n)
    return tuple(e)


def _log_residue(m: int, w):
    """log of the residue of Gamma(s)**m x**(-s) at s = 0, at log-arguments
    w: the polynomial sum_j e_j (-w)**(m-1-j)/(m-1-j)!, which is
    log K_m(exp(w)) up to O(exp(w)), under double precision below
    ``_RESIDUE_EXACT_X``."""
    poly = [e / math.factorial(m - 1 - j)
            for j, e in enumerate(_residue_coeffs(m))]
    return np.log(np.polyval(poly, -w))


def _log_k1(w):
    """log K_1(exp(w)) = -exp(w), vectorized over log-arguments; an array
    result is negated in place, with no second buffer."""
    out = np.exp(w)
    if type(out) is not np.ndarray:
        return -out
    return np.negative(out, out=out)


# 12 h times the slopes at the first three nodes from the first five values:
# the 5-point one-sided formulas at nodes 0 and 1, the central one at node 2
_END_STENCILS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                          [-3.0, -10.0, 18.0, -6.0, 1.0],
                          [1.0, -8.0, 0.0, 8.0, -1.0]])


def _local_cubic(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """The cubic Hermite interpolant through (s, y), s uniform, n >= 5 nodes.

    Its node slopes are fixed finite differences (B. Fornberg, Math. Comp.
    51, 1988), each exact on quartics: the 7-point central formula inside,
    the 5-point central one at the third node from either end and the
    5-point one-sided ones at the two outermost nodes.  So an interval
    depends only on the nodes within three of it.  Returns the rows s_i,
    c3, c2, c1, c0 of a (5, n-1) array, column i the cubic
    ((c3 t + c2) t + c1) t + c0 in t = w - s_i on interval i, and the slope
    at the last node.
    """
    n = len(s)
    if n < 5:
        raise ValueError("the local cubic needs at least 5 nodes")
    h = (s[-1] - s[0]) / (n - 1)
    k = np.empty(n)
    k[3:-3] = (45.0 * (y[4:-2] - y[2:-4]) - 9.0 * (y[5:-1] - y[1:-5])
               + (y[6:] - y[:-6])) / (60.0 * h)
    k[:3] = _END_STENCILS @ y[:5] / (12.0 * h)
    k[-3:] = (_END_STENCILS @ y[:-6:-1] / (-12.0 * h))[::-1]
    dx = np.diff(s)
    slope = np.diff(y) / dx
    t = (k[:-1] + k[1:] - 2.0 * slope) / dx
    coef = np.stack([s[:-1], t / dx, (slope - k[:-1]) / dx - t, k[:-1], y[:-1]])
    return coef, float(k[-1])


class KernelTable:
    """Log-log table of one radial weight with cubic Hermite evaluation.

    The interpolant (:func:`_local_cubic`) runs through logk + m*x**(1/m),
    which tends to a line in log x, and it follows a line exactly.  Above
    the grid the Meijer-G expansion c0 + (1-m)/(2m) log x + c1 x**(-1/m)
    takes over, matched in value and slope at the top node (J. L. Fields,
    Math. Comp. 26, 1972).  Below it the residue of Gamma(s)**m x**(-s) at
    s = 0 is exact up to O(x): sum_j e_j (-log x)**(m-1-j)/(m-1-j)!, with
    e_j = [s^j] Gamma(1+s)**m (Paris & Kaminski, Asymptotics and
    Mellin-Barnes Integrals, 2001).  ``s`` is the one uniform grid all
    tables share, so a lookup finds its interval by arithmetic.

    ``model_nodes`` counts the leading nodes that hold the residue model,
    those below 1e-16; the engine computed the others.
    ``worst_change`` is the largest relative change with which an engine
    node's last halving was accepted, and ``worst_node`` its index in
    ``s``.  An exact table (level 1) keeps 0, 0.0 and None.  Every table
    stores its log values on the lattices a rung over it samples first,
    read-only (:meth:`lattice_log`), about 2,000 values.
    """

    s = _S
    model_nodes: int = 0
    worst_change: float = 0.0
    worst_node: int | None = None

    def __init__(self, m: int, logk: np.ndarray):
        self.m = m
        self.logk = logk
        if m > 1:
            y = logk + m * np.exp(_S / m)
            self._coef, top_slope = _local_cubic(_S, y)
            s1, slope = float(_S[-1]), (1.0 - m) / (2.0 * m)
            c1 = -m * math.exp(s1 / m) * (top_slope - slope)
            c0 = float(y[-1]) - slope * s1 - c1 * math.exp(-s1 / m)
            self._top = (c0, slope, c1)
        self._stored = {h: (int(j[0]), self.log_eval_log_arg(h * j))
                        for h, j in _STORED_J.items()}
        for _, vals in self._stored.values():
            vals.flags.writeable = False

    def lattice_log(self, h: float, j: np.ndarray):
        """log_eval_log_arg(h * j) for a run j of consecutive indices, a
        read-only slice of the stored values where they hold the run.  (The
        engine's only strided runs, its later halvings, have finer steps.)"""
        start, vals = self._stored.get(h, (0, ()))
        i = int(j[0]) - start
        if i >= 0 and i + len(j) <= len(vals):
            return vals[i:i + len(j)]
        return self.log_eval_log_arg(h * j)

    def _spline(self, w):
        """The interpolant at w, continued by its end cubics past the
        grid; NaN passes (fmax/fmin send it to interval 0, so the cast
        stays quiet)."""
        i = np.fmin(np.fmax((w - _ORIGIN) * _INV_H, 0.0), _LAST)
        x, c3, c2, c1, c0 = self._coef.take(i.astype(np.intp), axis=1)
        t = w - x
        out = c3 * t
        out += c2
        out *= t
        out += c1
        out *= t
        out += c0
        return out

    def log_eval_log_arg(self, w):
        """log K_m(exp(w)); the end models take over below and above the
        grid.  Above it the model's Meijer-G part is written over the cubic
        before the stretched exponential m*exp(w/m), shared by every point,
        is subtracted once."""
        w = np.asarray(w, float)
        if self.m == 1:
            return _log_k1(w)
        out = np.asarray(self._spline(w))   # a 0-d w gives a scalar
        if w.max(initial=_NEG_INF) > self.s[-1]:
            above = w > self.s[-1]
            c0, slope, c1 = self._top
            wa = w[above]
            out[above] = c0 + slope * wa + c1 * np.exp(-wa / self.m)
        out -= self.m * np.exp(w / self.m)
        if w.min(initial=np.inf) < self.s[0]:
            below = w < self.s[0]
            out[below] = _log_residue(self.m, w[below])
        return out

    def log_eval(self, x):
        """log K_m(x) on the public domain [_X_MIN, _X_MAX]; NaN passes."""
        x = np.asarray(x, float)
        if (np.fmin.reduce(x, axis=None, initial=np.inf) < _X_MIN
                or np.fmax.reduce(x, axis=None, initial=_NEG_INF) > _X_MAX):
            raise ValueError(
                f"argument outside table domain [{_X_MIN:g}, {_X_MAX:g}]")
        if self.m == 1:
            return -x
        w = np.log(x)
        out = self._spline(w)
        out -= self.m * np.exp(w / self.m)
        return out

    def eval(self, x):
        return np.exp(self.log_eval(x))


_TABLE_CACHE: dict[int, KernelTable] = {}
_TABLE_LOCK = threading.Lock()


def build_table(m: int) -> KernelTable:
    """Build (or fetch from cache) the level-m table by chained convolution.

    Level 1 is exact.  Level m is K_1 * K_(m-1).  The ``model_nodes`` grid
    points below 1e-16 take the residue model of :class:`KernelTable`,
    exact there to double precision, where quadrature would cost the widest
    rows and come out less exact.  The rest are evaluated by one batched
    call of the quadrature engine, the parent entering through its cubic
    and end models.  A node short of ``rel_tol`` raises
    QuadratureConvergenceError with the worst change any node reached;
    otherwise that change and its node stay on the table.
    """
    _require_level(m)
    with _TABLE_LOCK:
        hit = _TABLE_CACHE.get(m)
    if hit is not None:
        return hit

    if m == 1:
        table = KernelTable(m, -np.exp(_S))
    else:
        s = _S[_MODEL_NODES:]
        logk, achieved = _log_conv(_log_k1, build_table(m - 1), s,
                                   *_rung_window(s), _TABLE_QUAD)
        worst = int(np.argmax(achieved))
        if not achieved[worst] <= _TABLE_QUAD.rel_tol:
            raise QuadratureConvergenceError(float(achieved[worst]),
                                             _TABLE_QUAD.rel_tol)
        table = KernelTable(m, np.concatenate(
            [_log_residue(m, _S[:_MODEL_NODES]), logk]))
        table.model_nodes = _MODEL_NODES
        table.worst_change = float(achieved[worst])
        table.worst_node = _MODEL_NODES + worst
    with _TABLE_LOCK:
        _TABLE_CACHE.setdefault(m, table)
    return table


def _log_rung(parent: KernelTable, ln_x: float, quad: QuadConfig) -> float:
    """log (K_1 * parent)(x) at x = exp(ln_x): one convolution rung, for
    x < exp(s[-1] + 12), about 1.6e14, where its window closes."""
    lo, hi = _rung_window(ln_x)
    if not lo < hi:
        raise ValueError(f"the convolution route needs 0 < x < "
                         f"{math.exp(hi + 8.0):.4g}, got {math.exp(ln_x):g}")
    return log_mellin_convolve(_log_k1, parent, ln_x, window=(lo, hi),
                               quad=quad)


def log_radial_weight(m: int, x):
    """log K_m(x) through the cached table (cubic between nodes)."""
    return build_table(m).log_eval(x)


def radial_weight(m: int, x):
    """K_m(x); underflows to 0.0 where the log value is below ~-745."""
    return np.exp(log_radial_weight(m, x))


def log_radial_weight_conv(m: int, x: float) -> float:
    """Pointwise log K_m(x) = log (K_1 * K_(m-1))(x) via the engine alone.

    For m = 2 the parent is the exact level-1 table, so the value depends
    on no interpolation; this is the route the Bessel cross-check runs on.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError("pointwise convolution route needs integer m >= 2")
    if x <= 0:
        raise ValueError("x must be positive")
    return _log_rung(build_table(m - 1), math.log(x), _TABLE_QUAD)


def _tensor_grid(m: int, x: float, tail_cut: float):
    """Common grid for the (m-1)-dimensional representations, step <= 0.2."""
    r = x ** (1.0 / m)
    sigma = 1.0 / math.sqrt(m * r)
    h = min(0.2, sigma / 3.0)
    half = max(math.log1p((tail_cut + 10.0) / r), 12.0 * sigma) + 2.0 * h
    n = int(math.ceil(2.0 * half / h)) + 1
    if n ** (m - 1) > 2e8:
        raise RuntimeError(f"tensor quadrature too large for m={m}, x={x:g}")
    t = np.linspace(-half, half, n)
    return t, t[1] - t[0], r


def _tensor_logsum(exponent_of_block, t: np.ndarray, dim: int) -> float:
    """log-sum-exp of a dim-dimensional tensor built in chunks along axis 0."""
    n = len(t)
    chunk = max(1, int(4e6 // n ** (dim - 1)))
    if dim == 1 or chunk >= n:  # one block holds the tensor: build it once
        e = exponent_of_block(t)
        m0 = float(np.max(e))
        return m0 + math.log(float(np.sum(np.exp(e - m0))))
    # two passes: max first, then the shifted sum, chunking the first axis
    m0 = _NEG_INF
    for i in range(0, n, chunk):
        m0 = max(m0, float(np.max(exponent_of_block(t[i:i + chunk]))))
    total = 0.0
    for i in range(0, n, chunk):
        total += float(np.sum(np.exp(exponent_of_block(t[i:i + chunk]) - m0)))
    return m0 + math.log(total)


def log_radial_weight_centered(m: int, x: float,
                               tail_cut: float = 45.0) -> float:
    """log K_m(x) from the centered representation

        K_m(x) = int over R^(m-1) of exp(-x**(1/m) * (sum_i exp(t_i)
                                        + exp(-sum_i t_i))) dt.

    Tensor trapezoid; cost grows with the (m-1)-th power of the grid size,
    so this is a cross-check tool for m <= 4, not a bulk evaluator.
    """
    _require_level(m)
    if x <= 0:
        raise ValueError("x must be positive")
    if m == 1:
        return -x
    t, h, r = _tensor_grid(m, x, tail_cut)
    dim = m - 1
    expt = np.exp(t)

    def block(t0: np.ndarray) -> np.ndarray:
        shape0 = (len(t0),) + (1,) * (dim - 1)
        g = np.exp(t0).reshape(shape0)
        tsum = t0.reshape(shape0)
        for ax in range(1, dim):
            shape = [1] * dim
            shape[ax] = len(t)
            g = g + expt.reshape(shape)
            tsum = tsum + t.reshape(shape)
        return -r * (g + np.exp(-tsum))

    return _tensor_logsum(block, t, dim) + dim * math.log(h)


def log_radial_weight_product(m: int, x: float,
                              tail_cut: float = 45.0) -> float:
    """log K_m(x) from the raw product representation

        K_m(x) = int over (0,inf)^(m-1) of exp(-sum_i x_i - x / prod_i x_i)
                 * prod_i dx_i / x_i,

    evaluated in log coordinates u_i = log x_i on a grid centered at
    log(x)/m per axis.  Same scaling caveats as the centered route.
    """
    _require_level(m)
    if x <= 0:
        raise ValueError("x must be positive")
    if m == 1:
        return -x
    t, h, _ = _tensor_grid(m, x, tail_cut)
    dim = m - 1
    c = math.log(x) / m
    u = t + c
    expu = np.exp(u)
    ln_x = math.log(x)

    def block(t0: np.ndarray) -> np.ndarray:
        u0 = t0 + c
        shape0 = (len(t0),) + (1,) * (dim - 1)
        s = np.exp(u0).reshape(shape0)
        usum = u0.reshape(shape0)
        for ax in range(1, dim):
            shape = [1] * dim
            shape[ax] = len(t)
            s = s + expu.reshape(shape)
            usum = usum + u.reshape(shape)
        with np.errstate(over="ignore"):
            return _clean(-s - np.exp(ln_x - usum))

    return _tensor_logsum(block, t, dim) + dim * math.log(h)


def mellin_step(parent: KernelTable, x: float,
                quad: QuadConfig = QuadConfig()) -> float:
    """(K_1 * parent)(x): one convolution rung, returned as a value.

    This is the recursion that climbs from the level of the ``parent``
    table to the next level.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    return math.exp(_log_rung(parent, math.log(x), quad))


def radial_weight_point(m: int, x: float) -> float:
    """One K_m value by the cheapest adequate route.

    m = 1 closed form; m = 2, 3 direct tensor quadrature of the centered
    representation (1-D / 2-D, no tables involved); m >= 4 through the
    chained tables, where the tensor route would cost too much.
    """
    _require_level(m)
    if m <= 3:
        return math.exp(log_radial_weight_centered(
            m, x, tail_cut=_TABLE_QUAD.tail_cut))
    return float(np.exp(log_radial_weight(m, x)))


def geometric_inner_product(f, g, m: int) -> complex:
    """The plane-integral inner product, reduced to radial moments.

    Angular integration kills all cross terms, leaving
    sum_n f_n conj(g_n) * (n-th moment of K_m); with exact moments this is
    the coefficient inner product, so the two must agree to quadrature
    accuracy.  Infrastructure for cross-checks, not a fast path.
    """
    terms = []
    for n in range(min(len(f.coeffs), len(g.coeffs))):
        prod = f.coeffs[n] * complex(g.coeffs[n]).conjugate()
        if prod == 0:
            continue
        terms.append(complex(prod) * moment(m, n))
    return _fsum_complex(terms)


def bessel_reference_log(x: float) -> float:
    """log of 2*K0(2*sqrt(x)), the closed form the level-2 weight must match."""
    if x <= 0:
        raise ValueError("x must be positive")
    from scipy.special import k0e
    z = 2.0 * math.sqrt(x)
    return math.log(2.0) + math.log(float(k0e(z))) - z


def moment(m: int, n: int) -> float:
    """int over (0,inf) of x**n K_m(x) dx, numerically; target value (n!)**m.

    Trapezoid over the table grid in log-x plus the residue model's
    integral below it (:func:`small_x_moment_bound`); none above ``_X_MAX``.
    A moment past double range raises :class:`WeightOverflowError`, as the
    weight (n!)**m it stands for does.
    """
    if n < 0:
        raise ValueError("moment order must be >= 0")
    table = build_table(m)
    s = table.s
    e = (n + 1) * s + table.logk
    top = float(e.max())
    w = np.exp(e - top)
    trap = float(w.sum()) - 0.5 * (float(w[0]) + float(w[-1]))
    try:
        grid = math.exp(top + math.log(float(s[1] - s[0]) * trap))
    except OverflowError as exc:
        raise WeightOverflowError(n, m) from exc
    return grid + small_x_moment_bound(m, n, math.exp(float(s[0])))


def small_x_moment_bound(m: int, n: int, x0: float) -> float:
    """Contribution of (0, x0) to the n-th moment: the residue model of
    :class:`KernelTable` integrated term by term, sum_j e_j
    Q(m-j, (n+1) L0) / (n+1)**(m-j), L0 = -log x0, with the regularized
    upper incomplete gamma at integer order Q(k, z) = e^-z sum_{i<k} z^i/i!.
    Its partial sums run up k = 1..m; e^-z enters as two factors e^(-z/2),
    so Q stays representable where e^-z alone would underflow."""
    if not 0.0 < x0 < 1.0:
        raise ValueError("the small-argument model needs 0 < x0 < 1")
    z = (n + 1) * -math.log(x0)
    half = math.exp(-0.5 * z)
    e = _residue_coeffs(m)
    term, partial, terms = half, 0.0, []
    for k in range(1, m + 1):
        partial += term
        terms.append(e[m - k] * (partial * half / (n + 1.0) ** k))
        term = term * z / k
    return math.fsum(terms)
