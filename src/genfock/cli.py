"""Command-line entry point.

One executable, thirteen subcommands, no state: tabular output (stirling,
kernel-table, moments) defaults to CSV, everything else to JSON with complex
numbers as [re, im] pairs.  Each subcommand accepts only the flags it reads.
Exit codes: 0 success, 1 a check failed, 2 bad usage or unreadable input
(also input whose result leaves double range: JSON output holds no inf or
NaN), 3 a typed numerical error (weight overflow, stalled quadrature,
operator routes disagreeing), reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import bargmann, coeffspace, dualalgebra, operators, radialkernel
from . import stirling as stirling_mod
from .coeffspace import (TaylorCoeffs, WeightOverflowError, _complex_pairs,
                         _finite_number)
from .dualalgebra import DualSequence
from .operators import OperatorConsistencyError
from .radialkernel import QuadratureConvergenceError
from .suites import (SUITE_NAMES, RunConfig, _operator_checks,
                     _product_inequality, _rand_coeffs, run_suite)

_MAX_RANDOM_DEGREE = 30
# acceptance criterion 01's moment tolerance: a larger printed rel_err fails
_MOMENT_TOL = 1e-6


def _complex_arg(text: str) -> complex:
    """Accept '1.5+2j' (Python literal) or '1.5,2' (re,im); finite only."""
    s = text.strip()
    try:
        z = complex(s)
    except ValueError:
        parts = s.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"cannot parse complex value {text!r}") from None
        z = complex(float(parts[0]), float(parts[1]))
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"complex value {text!r} is not "
                                         "finite")
    return z


def _degree_arg(text: str) -> int:
    """A random element's degree, from 0 up to _MAX_RANDOM_DEGREE."""
    degree = int(text)
    if degree < 0:
        raise argparse.ArgumentTypeError(f"degree {degree} is negative")
    if degree > _MAX_RANDOM_DEGREE:
        raise argparse.ArgumentTypeError(
            f"degree {degree} is above {_MAX_RANDOM_DEGREE}: a random element "
            f"with O(1) coefficients makes the reproducing identity "
            f"ill-conditioned beyond degree {_MAX_RANDOM_DEGREE}")
    return degree


def _tol_arg(text: str) -> float:
    """A tolerance: a positive finite number."""
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance {text!r} is not a positive finite number")
    return tol


def _modulus(z: complex) -> float:
    """|z|, or inf where it exceeds double range (``abs`` raises there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _pair(c) -> list[float]:
    c = complex(c)
    return [c.real, c.imag]


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(obj) -> str:
    """JSON text; a non-finite number raises ValueError, since JSON has no
    inf or NaN."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError("the result left double range, and JSON output "
                         "holds no inf or NaN") from None


def _json_checks(checks: list[dict]) -> list[dict]:
    """Check rows for a JSON report: a check that raised measured inf, which
    JSON cannot hold, so its measurement is written as null."""
    return [{**c, "measured": c["measured"]
             if math.isfinite(c["measured"]) else None} for c in checks]


def _csv_rows(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _shared_flags(sub: argparse.ArgumentParser, *, seed: bool = False,
                  tol: float | None = None, fmt: str | None = None) -> None:
    """--out, plus whichever of --seed, --tol, --format the handler reads;
    ``tol`` and ``fmt`` are the defaults."""
    if seed:
        sub.add_argument("--seed", type=int, default=2026,
                         help="seed for the randomized content")
    if tol is not None:
        sub.add_argument("--tol", type=_tol_arg, default=tol,
                         help="tolerance (default %(default)g)")
    if fmt:
        sub.add_argument("--format", choices=("json", "csv"), default=fmt)
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genfock",
        description="weighted power-series spaces: kernels, radial weights, "
                    "operator calculus, the Hermite transform, and the dual "
                    "convolution algebra")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("stirling", help="partition-count triangle")
    p.set_defaults(handler=_cmd_stirling)
    p.add_argument("--max-k", type=int, default=10)
    _shared_flags(p, fmt="csv")

    p = subs.add_parser("kernel-table", help="radial weight table")
    p.set_defaults(handler=_cmd_kernel_table)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--xmin", type=float, default=1e-3)
    p.add_argument("--xmax", type=float, default=10.0)
    p.add_argument("--points", type=int, default=41)
    _shared_flags(p, fmt="csv")

    p = subs.add_parser("moments", help="radial moments vs factorial powers")
    p.set_defaults(handler=_cmd_moments)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nmax", type=int, default=8)
    _shared_flags(p, fmt="csv")

    p = subs.add_parser("kernel-eval", help="two-point kernel value")
    p.set_defaults(handler=_cmd_kernel_eval)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", type=_complex_arg, required=True)
    p.add_argument("--w", type=_complex_arg, required=True)
    p.add_argument("--tol", type=_tol_arg, default=1e-14,
                   help="series stopping threshold: the sum stops once three "
                        "terms in a row fall below tol times the partial sum "
                        "(default %(default)g); not a bound on the error, "
                        "which cancellation can make far larger")
    _shared_flags(p)

    p = subs.add_parser("inner-product", help="weighted coefficient pairing")
    p.set_defaults(handler=_cmd_inner_product)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--f", required=True, help="element JSON ('-' for stdin)")
    p.add_argument("--g", required=True, help="element JSON ('-' for stdin)")
    _shared_flags(p)

    p = subs.add_parser("reproduce-check",
                        help="evaluation against a kernel section")
    p.set_defaults(handler=_cmd_reproduce_check)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--w", type=_complex_arg, required=True)
    p.add_argument("--in", dest="infile", default=None,
                   help="element JSON; omitted = seeded random element")
    p.add_argument("--degree", type=_degree_arg, default=_MAX_RANDOM_DEGREE,
                   help="degree of the random element (at most %(default)s)")
    _shared_flags(p, seed=True, tol=1e-12)

    p = subs.add_parser("op-apply", help="apply an operator word")
    p.set_defaults(handler=_cmd_op_apply)
    p.add_argument("--word", required=True,
                   help="letters A (raise), B (lower), S/T (their adjoints); "
                        "rightmost acts first")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--in", dest="infile", default=None,
                   help="element JSON; omitted = the monomial z")
    _shared_flags(p)

    p = subs.add_parser("verify-operators",
                        help="operator identity report at one level")
    p.set_defaults(handler=_cmd_verify_operators)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--deg", type=int, default=20)
    _shared_flags(p, seed=True, tol=1e-12)

    p = subs.add_parser("bargmann", help="Hermite-side transform")
    p.set_defaults(handler=_cmd_bargmann)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--direction", choices=("fwd", "inv"), required=True)
    p.add_argument("--in", dest="infile", required=True)
    _shared_flags(p)

    p = subs.add_parser("dual-norm", help="dual-scale norm of a sequence")
    p.set_defaults(handler=_cmd_dual_norm)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    _shared_flags(p)

    p = subs.add_parser("vage-check",
                        help="randomized product-inequality report")
    p.set_defaults(handler=_cmd_vage_check)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    _shared_flags(p, seed=True)

    p = subs.add_parser("integrate", help="trapezoidal path integral")
    p.set_defaults(handler=_cmd_integrate)
    p.add_argument("--f", required=True, help="path JSON ('-' for stdin)")
    p.add_argument("--g", required=True, help="path JSON")
    _shared_flags(p)

    p = subs.add_parser("verify", help="named invariant suites")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("suite", nargs="?", default="all",
                   choices=SUITE_NAMES + ("all",))
    p.add_argument("--m", type=int, default=4,
                   help="radial chain depth exercised by the kernels suite")
    _shared_flags(p, seed=True, fmt="json")

    return parser


def _element(path: str) -> TaylorCoeffs:
    return TaylorCoeffs.from_json_obj(_load_json(path))


def _path(path: str) -> list:
    rows = _load_json(path)
    if not (isinstance(rows, list) and all(
            isinstance(row, dict) and _finite_number(row.get("t"))
            for row in rows)):
        raise ValueError('a path is a JSON list of {"t": finite number, '
                         '"coeffs": [[re, im], ...]} objects')
    return [(float(row["t"]), DualSequence.from_json_obj(row)) for row in rows]


def _emit_tabular(args, obj: dict, rows) -> None:
    """The JSON document or the CSV rows, as --format asks."""
    _emit(_dump(obj) if args.format == "json" else _csv_rows(rows), args.out)


def _cmd_stirling(args) -> int:
    rows = [[k] + [stirling_mod.stirling_s2(k, n) for n in range(k + 1)]
            for k in range(args.max_k + 1)]
    _emit_tabular(args, {"max_k": args.max_k, "rows": [r[1:] for r in rows]},
                  rows)
    return 0


def _cmd_kernel_table(args) -> int:
    if args.points < 2 or not 0 < args.xmin < args.xmax < math.inf:
        raise ValueError("need 0 < xmin < xmax < inf and points >= 2")
    xs = np.geomspace(args.xmin, args.xmax, args.points)
    vals = radialkernel.radial_weight(args.m, xs).tolist()
    _emit_tabular(args, {"m": args.m, "x": list(map(float, xs)),
                         "values": vals},
                  [["x", "k_m"]] + [[repr(float(x)), repr(v)]
                                    for x, v in zip(xs, vals)])
    return 0


def _cmd_moments(args) -> int:
    rows = [["n", "computed", "exact", "rel_err"]]
    errs = []
    for n in range(args.nmax + 1):
        got = radialkernel.moment(args.m, n)
        want = coeffspace.weight(n, args.m)
        errs.append(abs(got - want) / want)
        rows.append([n, repr(got), repr(want), repr(errs[-1])])
    _emit_tabular(args, {"m": args.m, "rows": [dict(zip(rows[0], r))
                                               for r in rows[1:]]}, rows)
    return 0 if all(e <= _MOMENT_TOL for e in errs) else 1


def _cmd_kernel_eval(args) -> int:
    val = coeffspace.kernel_eval(args.m, args.z, args.w, args.tol)
    _emit(_dump({"m": args.m, "z": _pair(args.z), "w": _pair(args.w),
                 "value": _pair(val)}), args.out)
    return 0


def _cmd_inner_product(args) -> int:
    val = coeffspace.inner_product(_element(args.f), _element(args.g), args.m)
    _emit(_dump({"m": args.m, "value": _pair(val)}), args.out)
    return 0


def _cmd_reproduce_check(args) -> int:
    if args.infile:
        f = _element(args.infile)
    else:
        f = _rand_coeffs(np.random.default_rng(args.seed), args.degree)
    section = coeffspace.kernel_section(args.m, args.w, f.degree + 1)
    lhs = coeffspace.inner_product(f, section, args.m)
    rhs = coeffspace.eval_point(f, args.w)
    rel = float(_modulus(lhs - rhs)
                / max(_modulus(lhs), _modulus(rhs), 1e-300))
    ok = bool(rel <= args.tol)
    _emit(_dump({"m": args.m, "w": _pair(args.w), "paired": _pair(lhs),
                 "evaluated": _pair(rhs), "rel_err": rel, "tol": args.tol,
                 "ok": ok}), args.out)
    return 0 if ok else 1


def _cmd_op_apply(args) -> int:
    f = (_element(args.infile) if args.infile
         else TaylorCoeffs.monomial(1))
    result = operators.apply_word(args.word, f, args.m)
    _emit(_dump({"word": args.word, "m": args.m,
                 "input": f.to_json_obj(), "result": result.to_json_obj()}),
          args.out)
    return 0


def _cmd_verify_operators(args) -> int:
    checks = [asdict(c) for c in
              _operator_checks(args.m, args.deg, args.seed, args.tol)]
    report = {"m": args.m, "deg": args.deg, "seed": args.seed,
              "checks": _json_checks(checks),
              "passed": all(c["passed"] for c in checks)}
    _emit(_dump(report), args.out)
    return 0 if report["passed"] else 1


def _cmd_bargmann(args) -> int:
    obj = _load_json(args.infile)
    if args.direction == "fwd":
        image = bargmann.forward(_complex_pairs(obj, "hermite_coeffs"),
                                 args.m)
        _emit(_dump({"m": args.m, "direction": "fwd",
                     "coeffs": [_pair(c) for c in image.coeffs]}), args.out)
    else:
        back = bargmann.inverse(TaylorCoeffs.from_json_obj(obj), args.m)
        _emit(_dump({"m": args.m, "direction": "inv",
                     "hermite_coeffs": [_pair(c) for c in back]}), args.out)
    return 0


def _cmd_dual_norm(args) -> int:
    b = DualSequence.from_json_obj(_load_json(args.infile))
    sq, underflowed = dualalgebra.dual_sq_norm_flagged(b, args.m)
    _emit(_dump({"m": args.m, "norm": math.sqrt(sq),
                 "underflowed": underflowed}), args.out)
    return 0


def _cmd_vage_check(args) -> int:
    if args.q < args.p + 1 or args.p < 1:
        raise ValueError("need q >= p + 1 >= 2")
    if args.trials < 1:
        raise ValueError("need trials >= 1")
    violations, worst_ratio = _product_inequality(
        np.random.default_rng(args.seed), args.trials, args.q - args.p, args.p)
    report = {"p": args.p, "q": args.q, "trials": args.trials,
              "seed": args.seed,
              "constant": dualalgebra.vage_constant(args.q - args.p),
              "worst_ratio": worst_ratio, "violations": violations,
              "holds": violations == 0}
    _emit(_dump(report), args.out)
    return 0 if violations == 0 else 1


def _cmd_integrate(args) -> int:
    result = dualalgebra.riemann_integral_product(_path(args.f),
                                                  _path(args.g))
    _emit(_dump({"result": result.to_json_obj()}), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(RunConfig(seed=args.seed, kernel_level=args.m),
                       args.suite)
    _emit_tabular(args, {**report, "checks": _json_checks(report["checks"])},
                  [["name", "passed", "measured", "tolerance", "detail"]]
                  + [[c["name"], c["passed"], repr(c["measured"]),
                      repr(c["tolerance"]), c["detail"]]
                     for c in report["checks"]])
    return 0 if report["passed"] else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, called once: building the thirteen subparsers
    costs more than most of the work they dispatch."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (WeightOverflowError, QuadratureConvergenceError,
            OperatorConsistencyError) as exc:
        print(f"genfock: numerical error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"genfock: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
