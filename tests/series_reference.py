"""Term-by-term references for the series the package sums in blocks,
shared by the tests and ``scripts/bench_layers.py``'s ``bargmann`` layer.

Each is the package code as it was before the block sums, kept literally:
``transform_kernel`` adding one term per step over the streamed Hermite
rows, the phi loop of ``transform_via_quadrature``, and the Python loop of
complex products that formed the powers of ``kernel_section``.  The block
routes must match them bit for bit, values and raised errors alike.
"""

import cmath

import numpy as np

from genfock import bargmann
from genfock.coeffspace import (TaylorCoeffs, WeightOverflowError,
                                _fsum_complex, _weight_table)


def kernel_term_by_term(m, z, t, tol=1e-14):
    z = complex(z)
    zabs = max(abs(z), 1e-30)
    rows = bargmann._eta_rows(t, 2000)
    total = next(rows).astype(complex)
    zpow = 1.0 + 0.0j
    term_bound = bargmann.HERMITE_SUP_BOUND
    ref = max(float(np.abs(total).max()), 1e-300)
    scales = bargmann._scales(m, 64)
    below = 0
    for n, eta in enumerate(rows, 1):
        if n == len(scales):
            scales = bargmann._scales(m, 2 * n)
        if scales[n] == 0.0:
            raise WeightOverflowError(n, m)
        zpow = zpow * z
        total = total + zpow * scales[n] * eta
        ref = max(ref, float(np.abs(total).max()))
        term_bound = term_bound * zabs * (scales[n] / scales[n - 1])
        below = below + 1 if term_bound < tol * ref else 0
        if below == 3:
            break
    if not cmath.isfinite(zpow):
        n, zpow = 1, z
        while cmath.isfinite(zpow):
            n, zpow = n + 1, zpow * z
        raise WeightOverflowError(n, m, f"z**n (z={z!r})")
    return total if total.ndim else complex(total)


def quadrature_term_by_term(hermite_coeffs, m, z, order=96):
    nodes, weights = bargmann._gauss_hermite(order)
    phi = np.zeros_like(nodes, dtype=complex)
    for c, eta in zip(hermite_coeffs, bargmann._eta_rows(nodes)):
        phi += complex(c) * eta
    hz = kernel_term_by_term(m, z, nodes)
    return _fsum_complex(bargmann._lifted_weights(nodes, weights) * hz * phi)


def kernel_section_by_loop(m, w, degree):
    wbar = complex(w).conjugate()
    ps = []
    p = 1.0 + 0.0j
    for _ in range(degree + 1):
        ps.append(p)
        p = p * wbar
    p = np.array(ps, dtype=complex)
    mant, exp = _weight_table(m, degree + 1)
    mant, exp = mant[:degree + 1], -exp[:degree + 1]
    out = np.empty(degree + 1, dtype=complex)
    out.real = np.ldexp(p.real / mant, exp)
    out.imag = np.ldexp(p.imag / mant, exp)
    return TaylorCoeffs(out.tolist())
