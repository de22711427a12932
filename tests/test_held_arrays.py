"""Float vectors that hold their complex array, against the tuple routes
(``coeffs_reference`` and ``dual_reference``).

``kernel_section`` and both products hold the array they compute; the
operator actions, ``add``, ``sub`` and ``scale`` read a held array as its
tuple of Python complex.  Each must give the tuple route's values bit for
bit (struct-packed complex128, so signed zeros and NaN bits count) and its
errors, on plain, norm-scaled, signed-zero, non-finite and subnormal
draws.  A held array is read-only, and reads like the tuple of its Python
complex values wherever a vector is read: equality, repr, JSON, coeff,
norms, inner products.  Where a tuple route's float result held the exact
int 0, a held array holds +0j, which prints as ``0j``.
"""

import json
import math
import struct
from fractions import Fraction

import coeffs_reference as ref
import dual_reference as dref
import numpy as np
import pytest
from coeffs_reference import coeff_bits

from genfock import coeffspace, dualalgebra, operators
from genfock.coeffspace import TaylorCoeffs, WeightOverflowError
from genfock.dualalgebra import DualSequence

INF, NAN = math.inf, math.nan


def _complex_array(re, im) -> np.ndarray:
    """re + im*1j part by part (1j * inf would make a NaN real part)."""
    out = np.empty(len(re), complex)
    out.real, out.imag = re, im
    return out


def _draws() -> dict:
    rng = np.random.default_rng(37)

    def normal(n):
        return _complex_array(rng.standard_normal(n), rng.standard_normal(n))

    def parts(values, n):
        pick = rng.choice(np.array(values + [1.5, -2.0, 0.25]), size=(2, n))
        return _complex_array(*pick)

    draws = {f"plain {n}": normal(n) for n in (1, 2, 7, 40, 201)}
    for m in (1, 2, 5):  # as perfbench/algebra.py's _scaled draws them
        s = np.exp([-0.5 * m * math.lgamma(k + 1) for k in range(301)])
        draws[f"norm-scaled m={m}"] = normal(301) * s
    draws["signed zeros"] = parts([0.0, -0.0], 40)
    draws["non-finite"] = parts([INF, -INF, NAN, 1e308, -1e308], 40)
    draws["subnormals"] = parts([5e-324, -5e-324, 2.0 ** -1060, 2.2e-308], 40)
    return draws


DRAWS = _draws()


def _held(c) -> TaylorCoeffs:
    """A vector holding a copy of ``c``, as a float route returns one."""
    return coeffspace._held(TaylorCoeffs, np.array(c, complex))


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return "raise", type(exc), str(exc)
    return "value", coeff_bits(out.coeffs)


def _value(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def _same(got, want):
    """got is want, but that a bare OverflowError of the tuple route is a
    WeightOverflowError now."""
    if want[:2] == ("raise", OverflowError):
        assert got[:2] == ("raise", WeightOverflowError)
    else:
        assert got == want


@pytest.mark.parametrize("kind", DRAWS)
def test_operators_on_a_held_array_are_the_tuple_routes(kind):
    c = DRAWS[kind]
    held, plain = _held(c), TaylorCoeffs(c.tolist())
    _same(_outcome(operators.raising, held), _outcome(ref.raising, plain))
    _same(_outcome(operators.lowering, held), _outcome(ref.lowering, plain))
    for m in (1, 2, 3, 5, 8, 130):
        _same(_outcome(operators.raising_adjoint, held, m),
              _outcome(ref.raising_adjoint, plain, m))
        _same(_outcome(operators.lowering_adjoint, held, m),
              _outcome(ref.lowering_adjoint, plain, m))
    # the actions return tuples, on a held array as on a tuple
    for v in (held, plain):
        assert isinstance(operators.raising_adjoint(v, 2).coeffs, tuple)


@pytest.mark.parametrize("kind", DRAWS)
def test_add_sub_scale_on_held_arrays_are_the_tuple_routes(kind):
    c = DRAWS[kind]
    other = DRAWS["plain 7"] if len(c) != 7 else DRAWS["plain 40"]
    for x, y in ((c, other), (other, c), (c, c)):
        for route, want in ((coeffspace.add, ref.add),
                            (coeffspace.sub, ref.sub)):
            _same(_outcome(route, _held(x), _held(y)),
                  _outcome(want, TaylorCoeffs(x.tolist()),
                           TaylorCoeffs(y.tolist())))
    for k in (3, -2.5, 1j, complex(-0.0, 2.0), complex(1e308, -1e-300),
              INF, NAN, -0.0, True, Fraction(1, 3), 10 ** 400):
        # an int no double holds raises as Python's int * complex does
        assert (_outcome(coeffspace.scale, k, _held(c))
                == _outcome(ref.scale, k, TaylorCoeffs(c.tolist())))


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_kernel_section_is_the_tuple_route(m):
    for w in (0.0, 0.5 - 0.25j, complex(-0.0, -1.0), 2.0, 30.0 - 1.0j,
              complex(INF), complex(NAN)):
        for degree in (0, 1, 30, 200):
            got = _outcome(coeffspace.kernel_section, m, w, degree)
            assert got == _outcome(ref.kernel_section, m, w, degree)


def _nan_blind(outcome):
    """An outcome with every NaN part one NaN: the products' references sum
    with fsum, whose NaN sign the certified kernel does not reproduce (the
    parent's products differed from them there too, which their repr hid)."""
    if outcome[0] != "value":
        return outcome
    nan = struct.pack("<d", NAN)
    return "value", [b"".join(nan if math.isnan(x) else struct.pack("<d", x)
                              for x in struct.unpack("<dd", v))
                     if isinstance(v, bytes) else v for v in outcome[1]]


@pytest.mark.parametrize("kind", DRAWS)
def test_products_are_the_tuple_routes(kind):
    c, other = DRAWS[kind].tolist(), DRAWS["plain 7"].tolist()
    for a, b in ((c, other), (other, c), (c, c[::-1])):
        pair = DualSequence(a, 2), DualSequence(b)
        assert _nan_blind(_outcome(dualalgebra.cauchy_product, *pair)) == (
            _nan_blind(_outcome(dref.cauchy_product, *pair)))
        # the product's held array fed back in, against its Python complex
        held = dualalgebra.cauchy_product(*pair)
        assert _nan_blind(_outcome(dualalgebra.cauchy_product, held,
                                   pair[1])) == _nan_blind(_outcome(
            dref.cauchy_product, DualSequence(held.coeffs.tolist(), 2),
            pair[1]))
    ts = [0.0, 0.25, 0.5, 1.0]
    with np.errstate(invalid="ignore", over="ignore"):
        rows = [np.array(c) * t for t in ts]
    for node in (lambda r: DualSequence(r.tolist(), 2),
                 lambda r: coeffspace._held(DualSequence, r, 2)):
        fp = [(t, node(r.copy())) for t, r in zip(ts, rows)]
        gp = [(t, DualSequence(other, 3)) for t in ts]
        tuple_fp = [(t, DualSequence(np.asarray(d.coeffs).tolist(), 2))
                    for t, d in fp]
        assert _nan_blind(_outcome(
            dualalgebra.riemann_integral_product, fp, gp)) == _nan_blind(
            _outcome(dref.riemann_integral_product, tuple_fp, gp))


def test_a_held_array_is_read_only():
    f = DualSequence([1.0 + 1j, 2.0, -3.5])
    path = dualalgebra.sample_path(lambda t: f, steps=2)
    held = [coeffspace.kernel_section(2, 0.5, 10),
            dualalgebra.cauchy_product(f, f),
            dualalgebra.riemann_integral_product(path, path)]
    for v in held:
        assert isinstance(v.coeffs, np.ndarray) and v.coeffs.dtype == complex
        with pytest.raises(ValueError):
            v.coeffs[0] = 1.0


@pytest.mark.parametrize("kind", DRAWS)
def test_a_held_array_reads_as_its_tuple(kind):
    c = DRAWS[kind]
    held, plain = _held(c), TaylorCoeffs(c.tolist())
    assert repr(held) == repr(plain)
    assert json.dumps(held.to_json_obj()) == json.dumps(plain.to_json_obj())
    assert held.degree == plain.degree
    assert coeff_bits(coeffspace._strip(held.coeffs)) == coeff_bits(
        coeffspace._strip(plain.coeffs))
    if not np.isnan(c).any():  # NaN != NaN, in a tuple as in an array
        assert held == plain and plain == held
        assert held.normalized() == plain.normalized()
    for n in (0, len(c) - 1, len(c) + 3):
        assert coeff_bits([held.coeff(n)]) == coeff_bits([plain.coeff(n)])
    assert isinstance(held.coeff(0), complex)  # np.complex128 subclasses it
    g = TaylorCoeffs(DRAWS["plain 40"].tolist())
    for m in (1, 2, 5):
        for fn, args, plain_args in (
                (coeffspace.inner_product, (held, g, m), (plain, g, m)),
                (coeffspace.inner_product, (g, held, m), (g, plain, m)),
                (coeffspace.inner_product, (held, held, m), (plain, plain, m)),
                (coeffspace.squared_norm, (held, m), (plain, m)),
                (operators.domain_functional, (held, m), (plain, m))):
            assert _value(fn, *args) == _value(fn, *plain_args)
    dual = DualSequence(c.tolist(), 3)
    held_dual = coeffspace._held(DualSequence, np.array(c), 3)
    assert (_value(dualalgebra.dual_norm, held_dual, 3)
            == _value(dualalgebra.dual_norm, dual, 3))
    assert (json.dumps(held_dual.to_json_obj())
            == json.dumps(dual.to_json_obj()))
    assert repr(held_dual) == repr(dual)


def test_held_results_print_their_exact_zeros_as_0j():
    # a float product's diagonal with no live product, and the padding of
    # a trimmed product, are +0j in the held array where the tuple routes
    # gave the int 0: equal values, a different repr
    zero, c = DualSequence([0.0] * 3), DualSequence([1.5, 2j])
    assert dualalgebra.cauchy_product(zero, c) == dref.cauchy_product(zero, c)
    assert repr(dualalgebra.cauchy_product(zero, c)) == (
        "DualSequence(coeffs=(0j, 0j, 0j, 0j), level=1)")
    assert repr(dref.cauchy_product(zero, c)) == (
        "DualSequence(coeffs=(0, 0, 0, 0), level=1)")
    # the operator actions read a held array as its tuple: raising's
    # leading coefficient stays the int 0
    section = coeffspace.kernel_section(1, 0.5, 2)
    assert repr(operators.raising(section)) == (
        "TaylorCoeffs([0, (1+0j), (0.5+0j), (0.125+0j)])")
