"""The reference float Cauchy product, shared by the tests and
``scripts/bench_dual.py``.

Each diagonal's live products (Python complex multiplication, both factors
non-zero) are summed with the package's ``_fsum``: ``math.fsum``, with its
intermediate-overflow fallback, the exact rational sum rounded once.  A
diagonal without a live product is the exact 0.  So each diagonal is its
correctly rounded sum, or the infinity or NaN of float arithmetic, which
is what the certified rounding must reproduce repr for repr.
"""

from genfock.coeffspace import _fsum


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
