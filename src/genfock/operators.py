"""Shift/derivative operator calculus on the weighted coefficient scale.

The two basic operators are multiplication by the variable (``raising``, a
coefficient shift up) and differentiation (``lowering``).  Their level-m
adjoints come out of the weighted inner product as pure coefficient
actions:

    (raising_adjoint f)_n  = (n+1)**m     * f_{n+1}
    (lowering_adjoint f)_n = f_{n-1} / n**(m-1)       (n >= 1)

so at level 1 they reduce to the classical pair.  The module keeps all
actions exact on int/Fraction input, which lets the combinatorial identity
checks run in integer arithmetic with no tolerance at all.  Both adjoints
read n**m from one cached row of ints per level, kept for the process and
replaced whole when it grows; the check routes (A, B, the ladder, the
expansions, ``number_power_direct``) never read it.

Each action works on the plain coefficient tuple and wraps only its result.
The normal-ordered routes share one lowering ladder: rung n is lowering**n f,
one ``lowering`` of rung n-1, and raising**n is a shift by n places.  The
Stirling-weighted terms add into one list, n increasing, with no closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat, starmap, zip_longest
from operator import mul, sub

from .coeffspace import (TaylorCoeffs, WeightOverflowError, _fsum,
                         _is_exact, _plain, _require_level,
                         _weighted_sq_terms, add, scale, squared_norm)
from .stirling import normal_order_coeffs, stirling_s2


class OperatorConsistencyError(RuntimeError):
    """Two supposedly equivalent operator routes disagreed."""


def _raise(cs: tuple, m: int = 1) -> tuple:
    return (0,) + cs if cs else cs


def _lower(cs: tuple, m: int = 1) -> tuple:
    return tuple(map(mul, range(1, len(cs)), cs[1:]))


_POWERS: dict[int, tuple] = {}  # level m -> (1**m, 2**m, ...)


def _powers(m: int, size: int) -> tuple:
    """Level m's row of ints, at least ``size`` long, grown by doubling."""
    row = _POWERS.get(m, ())
    if len(row) < size:
        row = _POWERS[m] = row + tuple(map(pow, range(
            len(row) + 1, max(size, 2 * len(row)) + 1), repeat(m)))
    return row


def _raise_adj(cs: tuple, m: int) -> tuple:
    try:
        return tuple(map(mul, _powers(m, len(cs) - 1), cs[1:]))
    except OverflowError as exc:  # Python's int * float, at the first such n
        n = next(n for n, (d, c) in enumerate(zip(_POWERS[m], cs[1:]), 1)
                 if d >= 2 ** 1024 - 2 ** 970 and not _is_exact(c))
        raise WeightOverflowError(n, m, cause=f"factor n**{m}") from exc


def _lower_adj(cs: tuple, m: int) -> tuple:
    try:
        return ((0,) if cs else ()) + tuple(
            c if d == 1 or c == 0 else Fraction(c, d) if _is_exact(c)
            else c / d for c, d in zip(cs, _powers(m - 1, len(cs))))
    except OverflowError as exc:  # a float divided by an int past range
        n = next(n for n, (d, c) in enumerate(zip(_POWERS[m - 1], cs), 1)
                 if d >= 2 ** 1024 - 2 ** 970 and c != 0 and not _is_exact(c))
        raise WeightOverflowError(n, m, cause=f"divisor n**{m - 1}") from exc


_LETTERS = {"A": _raise, "B": _lower, "S": _raise_adj, "T": _lower_adj}


def raising(f: TaylorCoeffs) -> TaylorCoeffs:
    """Multiplication by the variable: shifts every coefficient up one slot."""
    return TaylorCoeffs(_raise(_plain(f.coeffs)))


def lowering(f: TaylorCoeffs) -> TaylorCoeffs:
    """Differentiation: (lowering f)_n = (n+1) * f_{n+1}."""
    return TaylorCoeffs(_lower(_plain(f.coeffs)))


def raising_adjoint(f: TaylorCoeffs, m: int) -> TaylorCoeffs:
    """Adjoint of ``raising`` at level m: (n+1)**m * f_{n+1}.

    Equals the operator word (lowering . raising)**(m-1) . lowering read as a
    composition; see :func:`adjoint_word_check`.  An n**m past double range
    at a float coefficient raises WeightOverflowError naming n and m.
    """
    _require_level(m)
    return TaylorCoeffs(_raise_adj(_plain(f.coeffs), m))


def lowering_adjoint(f: TaylorCoeffs, m: int) -> TaylorCoeffs:
    """Adjoint of ``lowering`` at level m: shifts up and divides by n**(m-1).

    Exact input stays exact (Fractions appear when the division demands
    them); float/complex input is divided in the obvious way, and a divisor
    past double range raises WeightOverflowError naming n and m.
    """
    _require_level(m)
    return TaylorCoeffs(_lower_adj(_plain(f.coeffs), m))


def apply_word(word: str, f: TaylorCoeffs, m: int = 1) -> TaylorCoeffs:
    """Apply a word of operator letters to f, rightmost letter acting first.

    Letters (case-insensitive): ``A`` raising, ``B`` lowering, ``S`` the
    level-m adjoint of A, ``T`` the level-m adjoint of B.  So the word
    ``"BA"`` sends a monomial of degree n to (n+1) times itself, ``"AB"``
    to n times itself.  The level only matters for S and T.
    """
    _require_level(m)
    cs = _plain(f.coeffs)
    for ch in reversed(word.upper()):
        if ch not in _LETTERS:
            raise ValueError(f"unknown operator letter {ch!r} (use A, B, S, T)")
        cs = _LETTERS[ch](cs, m)
    return TaylorCoeffs(cs)


def number_power_direct(k: int, f: TaylorCoeffs) -> TaylorCoeffs:
    """(raising . lowering)**k applied literally, k compositions."""
    if k < 0:
        raise ValueError("power must be >= 0")
    cs = _plain(f.coeffs)
    for _ in range(k):
        cs = _raise(_lower(cs))
    return TaylorCoeffs(cs)


def _ladder_sum(cs: tuple, terms, out: list) -> list:
    """Add w * raising**n . lowering**n applied to cs into ``out`` for the
    terms (n, w) = (1, w_1), (2, w_2), ...: each rung of the ladder is one
    more lowering of the last, and raising**n is an offset of n."""
    rung = cs
    for n, w in terms:
        rung = _lower(rung)
        for i, c in enumerate(rung, n):
            out[i] += w * c
    return out


def number_power_normal_ordered(k: int, f: TaylorCoeffs) -> TaylorCoeffs:
    """(raising . lowering)**k via its normal-ordered expansion.

    Uses sum over n of S(k, n) * raising**n . lowering**n with Stirling
    numbers of the second kind; exact on exact input.
    """
    if k < 0:
        raise ValueError("power must be >= 0")
    if k == 0:
        return f
    cs = _plain(f.coeffs)
    out = [0] * len(cs) if len(cs) > 1 else []
    return TaylorCoeffs(_ladder_sum(cs, normal_order_coeffs(k), out))


def raising_adjoint_via_stirling(f: TaylorCoeffs, m: int) -> TaylorCoeffs:
    """The raising adjoint as lowering composed with the normal-ordered
    (m-1)-th power of the number operator; must agree with
    :func:`raising_adjoint` exactly."""
    _require_level(m)
    return lowering(number_power_normal_ordered(m - 1, f))


def commutator_raising(f: TaylorCoeffs, m: int) -> TaylorCoeffs:
    """[raising_adjoint, raising] f, computed from the coefficient actions."""
    _require_level(m)
    cs = _plain(f.coeffs)
    return TaylorCoeffs(starmap(sub, zip_longest(
        _raise_adj(_raise(cs), m), _raise(_raise_adj(cs, m)), fillvalue=0)))


def commutator_expansion_terms(m: int) -> list[tuple[int, int]]:
    """Weights of the normal-ordered form of [raising_adjoint, raising].

    Returns [(n, (n+1) * S(m, n+1)) for n = 1 .. m-1]; the identity term
    (weight 1) is implied.  Empty for m = 1, where the commutator is the
    identity.
    """
    _require_level(m)
    return [(n, (n + 1) * stirling_s2(m, n + 1)) for n in range(1, m)]


def commutator_via_expansion(f: TaylorCoeffs, m: int) -> TaylorCoeffs:
    """[raising_adjoint, raising] f through the Stirling expansion route."""
    terms = commutator_expansion_terms(m)
    if not terms:
        return f
    cs = _plain(f.coeffs)
    return TaylorCoeffs(_ladder_sum(cs, terms, list(cs)))


def commutator_apply(f: TaylorCoeffs, m: int) -> TaylorCoeffs:
    """[raising_adjoint, raising] f with a built-in consistency assertion.

    Runs both the direct route and the Stirling-expansion route.  Exact
    input demands exact agreement; float input is allowed rounding at
    relative 1e-12 per coefficient.  Disagreement raises
    :class:`OperatorConsistencyError` (it would mean the expansion weights
    are wrong, not that the input is bad).
    """
    direct = commutator_raising(f, m)
    expanded = commutator_via_expansion(f, m)
    ok = direct == expanded or not f.is_exact() and all(
        abs(complex(a) - complex(b)) <= 1e-12 * max(abs(complex(a)), 1e-300)
        for a, b in zip_longest(direct.coeffs, expanded.coeffs, fillvalue=0))
    if not ok:
        raise OperatorConsistencyError(
            f"commutator routes disagree at level m={m}")
    return direct


def weighted_moment(f: TaylorCoeffs, m: int, k: int) -> float:
    """Sum over n of |f_n|**2 * (n!)**m * n**k, correctly rounded over the
    terms of ``_weighted_sq_terms`` (weights from the exact table) by
    ``_fsum``: inf where in-range terms sum past double range."""
    _require_level(m)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"moment order must be an integer >= 0, got {k!r}")
    return _fsum(_weighted_sq_terms(f.coeffs, m, k))


def domain_functional(f: TaylorCoeffs, m: int) -> tuple[float, bool]:
    """Graph-norm style functional sum |f_n|^2 (n!)^m n^m and its finiteness.

    Truncated series are always in the operator domain; the bool mirrors the
    definition (and goes False only if the value leaves double range).
    """
    _require_level(m)
    val = _fsum(_weighted_sq_terms(f.coeffs, m, m, strict=False))
    return val, math.isfinite(val)


def shift_norm_decomposition(f: TaylorCoeffs, m: int) -> dict:
    """Both sides of the level-m norm identity for the shift.

    lhs  = ||raising f||^2
    rhs  = ||raising_adjoint f||^2 + ||f||^2
           + sum_{k=1}^{m-1} C(m, k) * weighted_moment(f, m, k)

    Returns the pieces of :func:`norm_identity_report`, named so callers
    can inspect where a mismatch lives.
    """
    lhs, (adj, base, *moments) = norm_identity_report(f, m)
    extra = _fsum(moments)
    return {"lhs": lhs, "adjoint": adj, "base": base, "extra": extra,
            "rhs": adj + base + extra}


def norm_identity_report(f: TaylorCoeffs, m: int) -> tuple[float, list[float]]:
    """(lhs, rhs_terms) for the shift norm identity.

    rhs_terms = [||raising_adjoint f||^2, ||f||^2,
                 C(m,1)*moment_1, ..., C(m,m-1)*moment_{m-1}];
    the identity asserts lhs == sum(rhs_terms).
    """
    _require_level(m)
    lhs = squared_norm(raising(f), m)
    terms = [squared_norm(raising_adjoint(f, m), m)]
    terms += [math.comb(m, k) * _fsum(row) for k, row in enumerate(
        _weighted_sq_terms(f.coeffs, m, range(m)))]  # C(m, 0) = 1 is exact
    return lhs, terms


def adjoint_word_check(m: int, degree: int) -> bool:
    """raising_adjoint == (lowering raising)^(m-1) lowering on monomials.

    Exact integer comparison for all monomial degrees up to ``degree``, at
    once on their sum: every letter moves each z^j by the same step, so
    distinct monomials never share a coefficient.  The direct action, the
    word read letter by letter and the Stirling route must all agree.
    """
    _require_level(m)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    f = TaylorCoeffs([1] * (degree + 1))
    return raising_adjoint(f, m) == apply_word(
        "BA" * (m - 1) + "B", f, m) == raising_adjoint_via_stirling(f, m)


def reordering_identity_check(n: int, degree: int) -> bool:
    """Exact check of the two basic reordering identities on monomials.

    lowering^n . raising          == raising . lowering^n + n lowering^(n-1)
    lowering . raising^n          == raising^n . lowering + n raising^(n-1)

    Both sides act on the sum of all monomials up to ``degree`` at once.
    """
    if n < 1 or degree < 0:
        raise ValueError("need n >= 1 and degree >= 0")
    f = TaylorCoeffs([1] * (degree + 1))
    return all(apply_word(lhs, f) == add(
        apply_word(rhs, f), scale(n, apply_word(tail, f)))
        for lhs, rhs, tail in (("B" * n + "A", "A" + "B" * n, "B" * (n - 1)),
                               ("B" + "A" * n, "A" * n + "B", "A" * (n - 1))))
