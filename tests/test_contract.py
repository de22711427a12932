"""The typed-error contract of the public coefficient, operator and dual
callables of ``genfock.__all__``.

Each callable is fed draws from its documented domain plus edge values:
bool, ``np.int64`` and float levels; 0, subnormals, 1e308, 10**400 and
Fractions as coefficients; empty and length-1 vectors; and vectors that
hold a float route's array, fed back in.  With warnings as errors, each
call returns a value or raises ValueError, OperatorConsistencyError or a
strict subclass of OverflowError (WeightOverflowError); a bare
OverflowError, or any other exception, fails.  The radial, Bargmann and
Stirling callables are left to a later test (see ROADMAP item 17).
"""

import warnings
from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import genfock
from genfock import coeffspace, dualalgebra, operators
from genfock.coeffspace import TaylorCoeffs, WeightOverflowError
from genfock.dualalgebra import DualSequence
from genfock.operators import OperatorConsistencyError

levels = st.one_of(st.integers(-2, 8), st.sampled_from(
    [True, False, np.int64(2), 2.0, 130]))
points = st.one_of(st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
                   st.sampled_from([0.0, 5e-324, complex(-0.0, -1.0)]))
coefficients = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308,
                     10 ** 400, -(10 ** 400), Fraction(1, 3), 1, -7, 1.5,
                     complex(1e308, -1e308), complex(-0.0, 5e-324)]),
    st.floats(-1e3, 1e3), st.integers(-10 ** 6, 10 ** 6),
    st.builds(Fraction, st.integers(-999, 999), st.integers(1, 50)),
    st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
plain = st.lists(coefficients, max_size=6)


@st.composite
def held(draw):
    """A kernel section's held array, or the tuple an operator action
    makes of one."""
    f = coeffspace.kernel_section(draw(st.integers(1, 4)), draw(points),
                                  draw(st.integers(0, 8)))
    step = draw(st.sampled_from(["none", "raise", "adjoint", "lower"]))
    if step == "raise":
        f = operators.raising(f)
    elif step == "adjoint":
        f = operators.raising_adjoint(f, draw(st.integers(1, 4)))
    elif step == "lower":
        f = operators.lowering_adjoint(f, draw(st.integers(1, 4)))
    return f


vectors = st.one_of(plain.map(TaylorCoeffs), held())


@st.composite
def duals(draw):
    """A dual vector of a drawn list, or of a held array (a product's)."""
    f, level = draw(vectors), draw(st.integers(1, 4))
    if isinstance(f.coeffs, np.ndarray):
        return coeffspace._held(DualSequence, f.coeffs, level)
    return DualSequence(f.coeffs, level)


@st.composite
def arguments(draw):
    """One draw of every argument the calls below take."""
    x = {name: draw(strategy) for name, strategy in (
        ("f", vectors), ("g", vectors), ("a", duals()), ("b", duals()),
        ("m", levels), ("q", levels), ("z", points), ("w", points),
        ("cs", plain), ("n", st.integers(0, 300)), ("k", st.integers(1, 6)),
        ("deg", st.integers(-2, 40)), ("word", st.text("ABSTX", max_size=4)),
        ("eps", st.sampled_from([0.0, 0.5, 1e-3, 1.0])),
        ("tol", st.sampled_from([1e-14, 0.0, -1.0, 5e-324])),
        ("steps", st.integers(1, 3)))}
    for name, ends in (("f_path", (x["a"], x["b"])),
                       ("g_path", (x["b"], x["a"]))):
        x[name] = [(i / x["steps"], ends[i % 2])
                   for i in range(x["steps"] + 1)]
    return x


CALLS = {
    "TaylorCoeffs": lambda x: TaylorCoeffs(x["cs"]),
    "DualSequence": lambda x: DualSequence(x["cs"], x["m"]),
    "eval_point": lambda x: coeffspace.eval_point(x["f"], x["z"]),
    "inner_product": lambda x: coeffspace.inner_product(x["f"], x["g"],
                                                        x["m"]),
    "squared_norm": lambda x: coeffspace.squared_norm(x["f"], x["m"]),
    "norm": lambda x: coeffspace.norm(x["g"], x["m"]),
    "weight": lambda x: coeffspace.weight(x["n"], x["m"]),
    "log_weight": lambda x: coeffspace.log_weight(x["n"], x["m"]),
    "kernel_eval": lambda x: coeffspace.kernel_eval(x["m"], x["z"], x["w"],
                                                    x["tol"]),
    "kernel_section": lambda x: coeffspace.kernel_section(x["m"], x["w"],
                                                          x["deg"]),
    "aggregate_kernels_geometric": lambda x:
        coeffspace.aggregate_kernels_geometric(x["eps"], x["z"], x["w"]),
    "aggregate_kernels_exponential": lambda x:
        coeffspace.aggregate_kernels_exponential(x["eps"], x["z"], x["w"]),
    "raising": lambda x: operators.raising(x["f"]),
    "lowering": lambda x: operators.lowering(x["f"]),
    "raising_adjoint": lambda x: operators.raising_adjoint(x["f"], x["m"]),
    "lowering_adjoint": lambda x: operators.lowering_adjoint(x["f"], x["m"]),
    "raising_adjoint_via_stirling": lambda x:
        operators.raising_adjoint_via_stirling(x["f"], x["k"]),
    "apply_word": lambda x: operators.apply_word(x["word"], x["f"], x["m"]),
    "commutator_apply": lambda x: operators.commutator_apply(x["f"],
                                                             x["k"]),
    "domain_functional": lambda x: operators.domain_functional(x["f"],
                                                               x["m"]),
    "norm_identity_report": lambda x: operators.norm_identity_report(
        x["g"], x["m"]),
    "cauchy_product": lambda x: dualalgebra.cauchy_product(x["a"], x["b"]),
    "dual_norm": lambda x: dualalgebra.dual_norm(x["a"], x["m"]),
    "pairing": lambda x: dualalgebra.pairing(x["f"], x["b"]),
    "vage_check": lambda x: dualalgebra.vage_check(x["a"], x["b"], x["m"],
                                                   x["q"]),
    "vage_constant": lambda x: dualalgebra.vage_constant(x["m"]),
    "riemann_integral_product": lambda x:
        dualalgebra.riemann_integral_product(x["f_path"], x["g_path"]),
}

# the public callables of these three modules, every one of them drawn
COVERED = {name for name in genfock.__all__
           if getattr(getattr(genfock, name), "__module__", "").rsplit(
               ".", 1)[-1] in ("coeffspace", "operators", "dualalgebra")
           and callable(getattr(genfock, name))
           and not (isinstance(getattr(genfock, name), type)
                    and issubclass(getattr(genfock, name), Exception))}


def test_every_covered_callable_is_drawn():
    assert COVERED == set(CALLS)


def _example(**given_values):
    """An explicit draw: plain small arguments, then the given ones."""
    one, two = DualSequence([1.0, 2j], 2), DualSequence([0.5], 3)
    x = {"f": TaylorCoeffs([1.0, -2.0]), "g": TaylorCoeffs([0.5j]),
         "a": one, "b": two, "m": 2, "q": 3, "z": 0.5, "w": 0.25j,
         "cs": [1, 2.5], "n": 3, "k": 2, "deg": 4, "word": "SAT",
         "eps": 0.5, "tol": 1e-14, "steps": 1,
         "f_path": [(0.0, one), (1.0, two)],
         "g_path": [(0.0, two), (1.0, one)]}
    return {**x, **given_values}


# the last bare OverflowErrors of the parent: Horner's float step meeting
# 10**400, and n**m past double range in both adjoints
@example(_example(f=TaylorCoeffs([10 ** 400, 1.0]), z=0.5))
@example(_example(f=TaylorCoeffs([0.0] * 400 + [1e-300]), m=120))
@example(_example(f=TaylorCoeffs([1.0] * 400), m=130))
@given(arguments())
def test_a_value_or_a_documented_typed_error(x):
    for name, call in CALLS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(x)
            except (ValueError, OperatorConsistencyError):
                pass
            except OverflowError as exc:
                assert type(exc) is not OverflowError, f"{name}: bare {exc}"
                assert isinstance(exc, WeightOverflowError), name
