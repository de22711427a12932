"""The reference Cauchy products and path integral, shared by the tests
and ``scripts/bench_layers.py``'s ``dual`` and ``operators`` layers.

Each diagonal's live products (Python complex multiplication, both factors
non-zero) are summed with the package's ``_fsum``: ``math.fsum``, with its
intermediate-overflow fallback, the exact rational sum rounded once.  A
diagonal without a live product is the exact 0.  So each diagonal is its
correctly rounded sum, or the infinity or NaN of float arithmetic, which
is what the certified rounding must reproduce repr for repr.  The exact
product is the plain double loop that the int64 route must reproduce.

``cauchy_product`` and ``riemann_integral_product`` are the two public
routes as they were before a float product held its complex array: the
exact or the float reference product per pair, one result tuple each,
with the level and the typed error of an exact coefficient that no
double holds.
"""

from fractions import Fraction

import numpy as np

from genfock.coeffspace import WeightOverflowError, _complex, _fsum
from genfock.dualalgebra import DualSequence


def reference_product(ca, cb) -> list:
    out = []
    for d in range(len(ca) + len(cb) - 1):
        terms = [complex(ca[i] * cb[d - i])
                 for i in range(max(0, d - len(cb) + 1),
                                min(d, len(ca) - 1) + 1)
                 if ca[i] != 0 and cb[d - i] != 0]
        out.append(complex(_fsum([t.real for t in terms]),
                           _fsum([t.imag for t in terms])) if terms else 0)
    return out


def _exact(c) -> bool:
    return isinstance(c, (int, Fraction))


def reference_exact_product(ca, cb) -> list:
    """The exact product by a plain double loop in Python arithmetic.  A 0
    factor adds nothing, so a diagonal without a live product is the int
    0 whatever the factors' types."""
    out = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            if x != 0 and y != 0:
                out[i + j] += x * y
    return out


def reference_riemann(f_rows, g_rows, ts) -> list:
    """The trapezoidal integral of the node products of two coefficient
    paths on the grid ``ts``, in Python complex arithmetic, one
    coefficient and one interval at a time.  A node with an empty factor
    contributes zeros; a node whose coefficients are all int/Fraction
    takes its exact product, rounded to complex once per coefficient."""
    prods = []
    for f, g in zip(f_rows, g_rows):
        if not (f and g):
            prods.append([])
        elif all(map(_exact, f)) and all(map(_exact, g)):
            prods.append(reference_exact_product(f, g))
        else:
            prods.append(reference_product(f, g))
    width = max(map(len, prods))
    acc = [0.0j] * width
    for t0, t1, p0, p1 in zip(ts, ts[1:], prods, prods[1:]):
        half_h = 0.5 * (t1 - t0)
        for n in range(width):
            c0 = complex(p0[n]) if n < len(p0) else 0j
            c1 = complex(p1[n]) if n < len(p1) else 0j
            acc[n] += half_h * (c0 + c1)
    return acc


def _product(ca, cb, level: int) -> list:
    """The pair's product as the routes formed it: [] for an empty factor,
    exact for all-exact factors, else the float reference, a coefficient
    no double holds raising WeightOverflowError at its index, ca first."""
    if not (ca and cb):
        return []
    if all(map(_exact, ca)) and all(map(_exact, cb)):
        return reference_exact_product(ca, cb)
    for c in (ca, cb):
        for n, x in enumerate(c):
            try:
                complex(x)
            except OverflowError as exc:
                raise WeightOverflowError(n, level, cause="coefficient") \
                    from exc
    return reference_product(ca, cb)


def cauchy_product(a: DualSequence, b: DualSequence) -> DualSequence:
    level = max(a.level, b.level)
    return DualSequence(tuple(_product(a.coeffs, b.coeffs, level)), level)


def riemann_integral_product(f_path, g_path) -> DualSequence:
    """The trapezoidal integral of two valid paths (the grid checks are
    the package's), each node's product as :func:`cauchy_product` forms
    it, every node's factors checked before any exact product, and the
    rule applied in numpy as it was, the products converted row by row."""
    ts = [float(t) for t, _ in f_path]
    level = max(d.level for _, d in (*f_path, *g_path))
    prods = [_product(f.coeffs, g.coeffs, level)
             for (_, f), (_, g) in zip(f_path, g_path)]
    width = max(map(len, prods))
    rows = np.zeros((len(prods), width), complex)
    for row, pr in zip(rows, prods):
        row[:len(pr)] = _complex(pr, level)
    terms = np.zeros((len(ts), width, 2))  # row 0 is the starting 0
    with np.errstate(all="ignore"):
        r = (rows[:-1] + rows[1:]).view(float).reshape(len(ts) - 1, width, 2)
        half_h = 0.5 * np.diff(ts)[:, None, None]
        terms[1:] = half_h * r + np.array([-0.0, 0.0]) * r[..., ::-1]
        acc = np.add.accumulate(terms)[-1]
    return DualSequence(acc.view(complex).ravel().tolist(), level)
