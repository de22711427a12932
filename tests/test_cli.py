"""Command-line surface: every subcommand, exit codes, determinism.

Element and path inputs are JSON files ('-' reads stdin); tabular commands
print CSV unless asked for JSON.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genfock
from genfock import cli, operators, radialkernel
from genfock.cli import main
from genfock.operators import OperatorConsistencyError
from genfock.radialkernel import QuadratureConvergenceError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def jfile(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# -------------------------------------------------------------- subcommands


def test_stirling_json(capsys):
    code, obj = run_json(capsys, "stirling", "--max-k", "4", "--format", "json")
    assert code == 0
    assert obj["rows"][4] == [0, 1, 7, 6, 1]


def test_stirling_csv_is_default(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out = run(capsys, "stirling", "--max-k", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[3].split(",")[1:] == ["0", "1", "3", "1"]


def test_kernel_table(capsys):
    code, obj = run_json(capsys, "kernel-table", "--m", "2", "--xmin", "0.5",
                         "--xmax", "2.0", "--points", "3", "--format", "json")
    assert code == 0
    assert len(obj["values"]) == 3
    # middle point x = 1: the closed form 2*K0(2)
    assert obj["x"][1] == pytest.approx(1.0, rel=1e-12)
    assert obj["values"][1] == pytest.approx(0.2277877454990668, rel=1e-8)


@pytest.mark.parametrize("m", range(1, 7))
def test_kernel_table_is_the_pointwise_table_bitwise(capsys, m):
    # the grid is evaluated in one array call, each value the scalar one's
    code, obj = run_json(capsys, "kernel-table", "--m", str(m), "--xmin",
                         "1e-30", "--xmax", "1e9", "--points", "41",
                         "--format", "json")
    assert code == 0
    assert obj["values"] == [float(radialkernel.radial_weight(m, x))
                             for x in obj["x"]]


def test_kernel_table_level_6(capsys):
    code, obj = run_json(capsys, "kernel-table", "--m", "6", "--points", "3",
                         "--format", "json")
    assert code == 0
    assert all(v > 0.0 for v in obj["values"])


def test_kernel_table_level_20(capsys):
    code, obj = run_json(capsys, "kernel-table", "--m", "20", "--points", "3",
                         "--format", "json")
    assert code == 0
    assert all(v > 0.0 for v in obj["values"])


def test_moments_report(capsys):
    code, obj = run_json(capsys, "moments", "--m", "2", "--nmax", "3",
                         "--format", "json")
    assert code == 0
    rels = [float(r["rel_err"]) for r in obj["rows"]]
    assert max(rels) < 1e-6
    assert float(obj["rows"][3]["exact"]) == 36.0


def test_kernel_eval_complex_argument_forms(capsys):
    code, obj = run_json(capsys, "kernel-eval", "--m", "1", "--z", "1", "--w", "1")
    assert code == 0
    assert obj["value"][0] == pytest.approx(math.e, rel=1e-13, abs=0)
    code, obj2 = run_json(capsys, "kernel-eval", "--m", "2", "--z", "0.5+0.5j",
                          "--w", "0.5,0.5")
    assert code == 0
    # (0.5+0.5i) * conj(0.5+0.5i) is real, so the kernel value is real
    assert abs(obj2["value"][1]) < 1e-15


def test_inner_product_from_files(capsys, tmp_path):
    f = jfile(tmp_path, "f.json", {"coeffs": [[1, 0], [2, 0], [3, 0]]})
    g = jfile(tmp_path, "g.json", {"coeffs": [[5, 0], [1, 0], [1, 0]]})
    code, obj = run_json(capsys, "inner-product", "--m", "2", "--f", f, "--g", g)
    assert code == 0
    assert obj["value"] == [19.0, 0.0]


def test_inner_product_from_stdin(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"coeffs": [[1, 0], [1, 0]]})))
    g = jfile(tmp_path, "g.json", {"coeffs": [[0, 0], [2, 0]]})
    code, obj = run_json(capsys, "inner-product", "--m", "1", "--f", "-", "--g", g)
    assert code == 0
    assert obj["value"] == [2.0, 0.0]


def test_reproduce_check_random_element(capsys):
    code, obj = run_json(capsys, "reproduce-check", "--m", "3", "--w",
                         "1.5-0.5j", "--seed", "5")
    assert code == 0
    assert obj["ok"] is True
    assert obj["rel_err"] <= 1e-12


def test_reproduce_check_explicit_element(capsys, tmp_path):
    f = jfile(tmp_path, "f.json", {"coeffs": [[2, 0], [0, 0], [3, 0]]})
    code, obj = run_json(capsys, "reproduce-check", "--m", "2", "--w", "0.5",
                         "--in", f)
    assert code == 0
    assert obj["evaluated"][0] == pytest.approx(2.75, rel=1e-14, abs=0)


def test_reproduce_check_degree_above_cap_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["reproduce-check", "--m", "2", "--w", "0.5", "--degree", "31"])
    assert info.value.code == 2
    assert "ill-conditioned beyond degree 30" in capsys.readouterr().err


def test_op_apply_word(capsys, tmp_path):
    f = jfile(tmp_path, "f.json", {"coeffs": [[0, 0], [0, 0], [1, 0]]})
    code, obj = run_json(capsys, "op-apply", "--word", "BA", "--m", "1",
                         "--in", f)
    assert code == 0
    # BA on z^2 gives 3 z^2
    assert obj["result"]["coeffs"][2] == [3.0, 0.0]


def test_op_apply_defaults_to_basis_monomial(capsys):
    code, obj = run_json(capsys, "op-apply", "--word", "A")
    assert code == 0
    assert obj["result"]["coeffs"][2] == [1.0, 0.0]


def test_verify_operators_report(capsys):
    code, obj = run_json(capsys, "verify-operators", "--m", "3", "--deg", "12")
    assert code == 0
    assert obj["passed"] is True
    assert len(obj["checks"]) == 5


def test_bargmann_round_trip(capsys, tmp_path):
    fwd_in = jfile(tmp_path, "h.json",
                   {"hermite_coeffs": [[1, 0], [0, 1], [0.5, 0]]})
    code, obj = run_json(capsys, "bargmann", "--m", "2", "--direction", "fwd",
                         "--in", fwd_in)
    assert code == 0
    inv_in = jfile(tmp_path, "f.json", {"coeffs": obj["coeffs"]})
    code, back = run_json(capsys, "bargmann", "--m", "2", "--direction", "inv",
                          "--in", inv_in)
    assert code == 0
    got = [complex(re, im) for re, im in back["hermite_coeffs"]]
    assert got == pytest.approx([1, 1j, 0.5], rel=1e-14, abs=0)


def test_dual_norm(capsys, tmp_path):
    b = jfile(tmp_path, "b.json",
              {"coeffs": [[0, 0], [0, 0], [0, 0], [1, 0]], "level": 1})
    code, obj = run_json(capsys, "dual-norm", "--m", "1", "--in", b)
    assert code == 0
    assert obj["norm"] == pytest.approx(math.sqrt(6.0), rel=1e-14, abs=0)
    assert obj["underflowed"] is False


def test_vage_check_report(capsys):
    code, obj = run_json(capsys, "vage-check", "--p", "1", "--q", "2",
                         "--trials", "200", "--seed", "3")
    assert code == 0
    assert obj["violations"] == 0
    assert obj["constant"] == pytest.approx(math.sqrt(math.e), rel=1e-12)
    assert obj["worst_ratio"] <= 1.0


def test_integrate_linear_paths(capsys, tmp_path):
    # f(t) = (t,), g(t) = (1,): integral of t over [0,1] is 1/2 exactly
    # (trapezoid is exact on a linear integrand)
    steps = 4
    f = jfile(tmp_path, "f.json", [{"t": i / steps, "coeffs": [[i / steps, 0]]}
                                   for i in range(steps + 1)])
    g = jfile(tmp_path, "g.json", [{"t": i / steps, "coeffs": [[1, 0]]}
                                   for i in range(steps + 1)])
    code, obj = run_json(capsys, "integrate", "--f", f, "--g", g)
    assert code == 0
    assert obj["result"]["coeffs"][0] == [0.5, 0.0]


def test_verify_single_suite(capsys):
    code, obj = run_json(capsys, "verify", "stirling", "--seed", "7")
    assert code == 0
    assert obj["passed"] is True
    assert obj["n_passed"] == obj["n_checks"]


def test_verify_csv_format(capsys):
    code, out = run(capsys, "verify", "stirling", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:2] == ["name", "passed"]


# ------------------------------------------------------------ import path

# Runs in a fresh interpreter: which modules a cold process loads is the
# point, and this test process has scipy loaded already.
_ISOLATION_SCRIPT = """
import contextlib, io, json, sys
import genfock, genfock.cli
from genfock.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

codes = []
for argv in (["verify", "stirling"], ["verify", "operators"],
             ["verify", "bargmann"], ["verify", "dual"],
             ["kernel-table", "--m", "5", "--points", "9"],
             ["moments", "--m", "5", "--nmax", "8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["verify", "kernels"]))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "after_kernels": bool(scipy_modules())}))
"""


def test_non_radial_entry_points_do_not_load_scipy():
    # neither do the radial tables and moments: only the Bessel reference
    # that the kernels suite checks level 2 against needs scipy
    src = str(Path(genfock.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _ISOLATION_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 7
    assert report["loaded"] == []
    # k0e is what brings scipy in, so the probe can see it
    assert report["after_kernels"]


# --------------------------------------------------------------- exit codes


def test_verify_forced_convergence_failure(capsys):
    # level 38 is the first whose table build stalls
    code, obj = run_json(capsys, "verify", "kernels", "--m", "38",
                         "--seed", "1")
    assert code == 1
    failed = [c for c in obj["checks"] if not c["passed"]]
    assert any("converge" in c["name"] for c in failed)
    assert any("QuadratureConvergenceError" in c["detail"] for c in failed)


def test_verify_convergence_row_reports_the_tables_worst_change(capsys):
    code, obj = run_json(capsys, "verify", "kernels", "--m", "8")
    assert code == 0
    row, = [c for c in obj["checks"] if "converge" in c["name"]]
    assert row["name"] == "radial convolution converges at level 8"
    assert 0.0 < row["measured"] <= row["tolerance"] == 3e-10
    assert f"node {radialkernel.build_table(8).worst_node} " in row["detail"]
    assert obj["config"] == {"seed": 2026, "kernel_level": 8}


@pytest.mark.parametrize("flag", [["--tol", "1e-9"],
                                  ["--max-refinements", "2"]])
def test_verify_takes_no_quadrature_flags(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["verify", "kernels"] + flag)
    assert info.value.code == 2


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["kernel-eval", "--m", "1", "--z", "1"])  # --w missing
    assert info.value.code == 2


def test_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_missing_input_file_exits_two(capsys, tmp_path):
    code = main(["inner-product", "--m", "1", "--f",
                 str(tmp_path / "absent.json"), "--g",
                 str(tmp_path / "absent.json")])
    assert code == 2


def test_broken_json_file_exits_two(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{broken")
    code = main(["dual-norm", "--m", "1", "--in", str(p)])
    assert code == 2


def test_bad_complex_literal_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["kernel-eval", "--m", "1", "--z", "zz", "--w", "1"])
    assert info.value.code == 2


def test_vage_check_rejects_equal_levels(capsys):
    code = main(["vage-check", "--p", "2", "--q", "2"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["kernel-eval", "--m", "1", "--z", "1", "--w", "1", "--format", "csv"],
    ["verify", "stirling", "--degree", "8"],
    ["integrate", "--f", "-", "--g", "-", "--seed", "1"],
])
def test_flags_a_subcommand_does_not_read_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    "kernel-eval --m 1 --z 1 --w 1 --tol nan",
    "kernel-eval --m 1 --z nan --w 1",
    "kernel-eval --m 1 --z 1 --w 1,inf",
    "reproduce-check --m 1 --w 0.5 --degree -1",
    "reproduce-check --m 1 --w 0.5 --tol 0",
    "verify-operators --tol -1",
    "verify operators --tol inf",
])
def test_values_past_a_flag_range_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def numerical_error_line(capsys, name):
    err = capsys.readouterr().err
    assert err.startswith("genfock: numerical error: " + name)
    assert err.count("\n") == 1


def test_weight_overflow_exits_three(capsys, tmp_path):
    f = jfile(tmp_path, "f.json", {"coeffs": [[0, 0], [0, 0], [1e300, 0]]})
    assert main(["inner-product", "--m", "2", "--f", f, "--g", f]) == 3
    numerical_error_line(capsys, "WeightOverflowError")


def test_term_overflow_names_the_term(capsys, tmp_path):
    # the weight 0! ** 1 is 1; the product of the coefficients overflows
    f = jfile(tmp_path, "f.json", {"coeffs": [[1.7e308, 1.7e308]]})
    assert main(["inner-product", "--m", "1", "--f", f, "--g", f]) == 3
    err = capsys.readouterr().err
    assert "WeightOverflowError: term at index n=0 (level m=1)" in err
    assert "weight (n!)^m exceeds" not in err


def test_stalled_quadrature_exits_three(capsys, monkeypatch):
    def stall(m, x):
        raise QuadratureConvergenceError(3.06e-10, 3e-10)

    monkeypatch.setattr(radialkernel, "radial_weight", stall)
    assert main(["kernel-table", "--m", "6"]) == 3
    numerical_error_line(capsys, "QuadratureConvergenceError")


def test_first_level_that_stalls_exits_three(capsys):
    # levels up to 37 build; at 38 a node's last halving changes by 1.07e-9
    assert main(["kernel-table", "--m", "37", "--points", "3"]) == 0
    capsys.readouterr()
    assert main(["kernel-table", "--m", "38", "--points", "3"]) == 3
    numerical_error_line(capsys, "QuadratureConvergenceError")


@pytest.mark.parametrize("argv", [["kernel-table", "--m", "1100", "--points",
                                   "3"], ["moments", "--m", "1100"]])
def test_levels_past_the_recursion_limit_stall_at_38(capsys, argv):
    # the missing levels are built bottom up, not by one call per level on
    # the stack, so the build reaches level 38 and stops there
    assert main(argv) == 3
    numerical_error_line(capsys, "QuadratureConvergenceError")


def test_operator_disagreement_exits_three(capsys, monkeypatch):
    def disagree(word, f, m):
        raise OperatorConsistencyError("routes disagree")

    monkeypatch.setattr(operators, "apply_word", disagree)
    assert main(["op-apply", "--word", "S", "--m", "2"]) == 3
    numerical_error_line(capsys, "OperatorConsistencyError")


# -------------------------------------------------------------- determinism


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "dual", "--seed", "42", "--out", str(a)]) == 0
    assert main(["verify", "dual", "--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        first = run(capsys, "verify", "bargmann", "--seed", "3")
        second = run(capsys, "verify", "bargmann", "--seed", "3")
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert first == second
    assert first[0] == 0


def test_seed_changes_random_content(capsys):
    _, one = run(capsys, "vage-check", "--p", "1", "--q", "3", "--trials",
                 "50", "--seed", "1")
    _, two = run(capsys, "vage-check", "--p", "1", "--q", "3", "--trials",
                 "50", "--seed", "2")
    assert json.loads(one)["worst_ratio"] != json.loads(two)["worst_ratio"]


# ---------------------------------------------------------------- contract

# Files the contract cases name in braces; "bad" is valid JSON of the wrong
# shape for an element, a Hermite coefficient list and a path alike, and the
# other bad* files go wrong one level further in.
_CONTRACT_FILES = {
    "bad": [1, 2, 3],
    "badpairs": {"coeffs": [1, 2]},
    "badlevel": {"coeffs": [[1, 0]], "level": [1]},
    "badt": [{"t": [0], "coeffs": [[1, 0]]}, {"t": 1, "coeffs": [[1, 0]]}],
    "elem": {"coeffs": [[1, 0], [0.5, 0.25]]},
    "herm": {"hermite_coeffs": [[1, 0], [0, 1]]},
    "path": [{"t": 0, "coeffs": [[1, 0]]}, {"t": 1, "coeffs": [[0, 1]]}],
    # numbers no double holds: written as NaN, Infinity and 401 digits
    "nan": {"coeffs": [[math.nan, 0]]},
    "inf": {"coeffs": [[math.inf, 0], [1, 0]]},
    "hugeint": {"coeffs": [[10 ** 400, 0]]},
    "huget": [{"t": 0, "coeffs": [[1, 0]]}, {"t": 10 ** 400, "coeffs": []}],
    # finite input whose result, a sum of finite terms, leaves double range
    "sumover": {"coeffs": [[1.3e154, 0], [1.3e154, 0]]},
    "nearmax": {"coeffs": [[1.7e308, 1.7e308], [1e308, -1e308]]},
    "nearmax1": {"coeffs": [[1.7e308, 1.7e308]]},
    "sumoverpath": [{"t": t, "coeffs": [[1e154, 0]] * 3} for t in (0, 1)],
}


@pytest.mark.parametrize("code,argv", [
    # malformed input is a usage error
    (2, "inner-product --m 1 --f {bad} --g {elem}"),
    (2, "dual-norm --m 1 --in {bad}"),
    (2, "bargmann --m 1 --direction fwd --in {bad}"),
    (2, "bargmann --m 1 --direction inv --in {bad}"),
    (2, "integrate --f {bad} --g {path}"),
    (2, "op-apply --word A --in {bad}"),
    (2, "reproduce-check --m 1 --w 0.5 --in {bad}"),
    (2, "inner-product --m 1 --f {elem} --g {badpairs}"),
    (2, "dual-norm --m 1 --in {badlevel}"),
    (2, "integrate --f {path} --g {badt}"),
    (2, "vage-check --p 1 --q 2 --trials 0"),
    (2, "vage-check --p 1 --q 2 --trials -5"),
    (2, "dual-norm --m 1 --in {nan}"),
    (2, "dual-norm --m 1 --in {inf}"),
    (2, "dual-norm --m 1 --in {hugeint}"),
    (2, "inner-product --m 1 --f {hugeint} --g {elem}"),
    (2, "bargmann --m 1 --direction inv --in {inf}"),
    (2, "integrate --f {huget} --g {path}"),
    (2, "kernel-table --m 2 --xmin nan --points 3"),
    (2, "kernel-table --m 2 --xmax inf --points 3"),
    # a result JSON cannot hold is an error line, not "Infinity"
    (2, "dual-norm --m 1 --in {sumover}"),
    (2, "inner-product --m 1 --f {sumover} --g {sumover}"),
    (2, "reproduce-check --m 1 --w 0.5 --in {nearmax}"),
    (2, "integrate --f {sumoverpath} --g {sumoverpath}"),
    (2, "kernel-eval --m 1 --z 1e3 --w 1"),
    # a moment that misses (n!)**m by more than 1e-6 fails the check
    (1, "moments --m 10 --nmax 28"),
    # a moment, or the (n!)**m it is checked against, past double range
    (3, "moments --m 1 --nmax 200"),
    (3, "moments --m 2 --nmax 120"),
    (3, "moments --m 3 --nmax 80"),
    (3, "moments --m 10 --nmax 29"),
    # one valid call per subcommand
    (0, "stirling --max-k 3"),
    (0, "kernel-table --m 2 --points 3"),
    (0, "moments --m 5 --nmax 8"),
    (0, "kernel-eval --m 1 --z 1 --w 0.5"),
    (0, "inner-product --m 1 --f {elem} --g {elem}"),
    (0, "reproduce-check --m 1 --w 0.5 --in {elem}"),
    (0, "op-apply --word A --in {elem}"),
    (0, "verify-operators --m 2 --deg 8"),
    (0, "bargmann --m 1 --direction fwd --in {herm}"),
    (0, "bargmann --m 1 --direction inv --in {elem}"),
    (0, "dual-norm --m 1 --in {elem}"),
    (0, "vage-check --p 1 --q 2 --trials 1"),
    (0, "integrate --f {path} --g {path}"),
    (0, "verify stirling"),
    # n**m past double range (an OverflowError traceback once)
    (0, "kernel-eval --m 1000 --z 1 --w 1"),
    # values whose modulus, not their parts, leaves double range
    (0, "reproduce-check --m 1 --w 0.5 --in {nearmax1}"),
])
def test_documented_exit_code_and_no_traceback(capsys, tmp_path, code, argv):
    files = {key: jfile(tmp_path, key + ".json", obj)
             for key, obj in _CONTRACT_FILES.items()}
    assert main([a.format(**files) for a in argv.split()]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["dual-norm", "--m", "1", "--in", str(deep)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_non_finite_json_output_is_refused(capsys, tmp_path):
    f = jfile(tmp_path, "f.json", {"coeffs": [[1e200, 0]]})
    assert main(["dual-norm", "--m", "1", "--in", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "double range" in captured.err


@pytest.mark.parametrize("argv, obj", [
    ("inner-product --m 1 --f {x} --g {x}",
     {"coeffs": [[True, False], [1, 0]]}),
    ("dual-norm --m 1 --in {x}", {"coeffs": [[1, 0], [1, 0]], "level": True}),
    ("integrate --f {x} --g {x}",
     [{"t": 0, "coeffs": [[1, 0]]}, {"t": True, "coeffs": [[1, 0]]}]),
])
def test_json_booleans_are_not_numbers(capsys, tmp_path, argv, obj):
    # bool is an int in Python, but JSON true/false is not a number
    x = jfile(tmp_path, "x.json", obj)
    assert main(argv.format(x=x).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


# Arbitrary JSON for the file-reading subcommands: nesting, NaN, infinities,
# numbers past double range, strings, and the keys the readers look for.
_KEYS = st.sampled_from(["coeffs", "level", "hermite_coeffs", "t"])
_LEAVES = (st.none() | st.booleans() | st.text(max_size=3)
           | st.integers(-3, 3) | st.sampled_from([10 ** 400, -10 ** 309])
           | st.floats()
           | st.sampled_from([1e200, -1e300, 1.3e154, 1.7e308, 5e-324]))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_KEYS | st.text(max_size=2), inner,
                                     max_size=4)),
    max_leaves=12)
_PAIRS = st.lists(st.lists(_LEAVES, min_size=2, max_size=2), max_size=4)
_ELEMENTS = (_JSON
             | st.fixed_dictionaries({"coeffs": _PAIRS},
                                     optional={"level": _LEAVES})
             | st.fixed_dictionaries({"hermite_coeffs": _PAIRS})
             | st.lists(st.fixed_dictionaries({"t": _LEAVES,
                                               "coeffs": _PAIRS}),
                        max_size=3))
_FILE_COMMANDS = [
    "inner-product --m {m} --f {a} --g {b}",
    "dual-norm --m {m} --in {a}",
    "bargmann --m {m} --direction fwd --in {a}",
    "bargmann --m {m} --direction inv --in {a}",
    "integrate --f {a} --g {b}",
    "op-apply --word {word} --m {m} --in {a}",
    "reproduce-check --m {m} --w 0.5 --in {a}",
]


@pytest.fixture(scope="module")
def drive_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("drive")


@settings(max_examples=30)
@given(_ELEMENTS, _ELEMENTS, st.integers(1, 3),
       st.text(alphabet="ABST", min_size=1, max_size=3))
def test_malformed_element_files_exit_cleanly(drive_dir, a, b, m, word):
    files = {"a": drive_dir / "a.json", "b": drive_dir / "b.json"}
    for key, obj in (("a", a), ("b", b)):
        files[key].write_text(json.dumps(obj))
    for command in _FILE_COMMANDS:
        argv = command.format(m=m, word=word, **files).split()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv


# Every subcommand over its flags.  Each flag is a pair: a strategy for
# values inside its documented range or on its edges, and values just past
# it (levels >= 1, tolerances positive and finite, degrees 0..30, trials
# >= 1, q >= p + 1 >= 2, 0 < xmin < xmax, points >= 2, finite complex
# arguments, seeds >= 0, the listed choices).  Radial levels stay at 5 or
# below and sizes stay small, so the drive runs in Tier-1.
_LEVEL = (st.integers(1, 6) | st.sampled_from([40, 1000]), [0, -1])
_RADIAL_LEVEL = (st.integers(1, 5), [0, -1])
_TOL = (st.sampled_from(["1e-12", "1e-300", "0.5", "1e300"]),
        ["0", "-1e-9", "nan", "inf", "tol"])
_COMPLEX = (st.sampled_from(["0", "1", "-2.5", "0.5+0.5j", "1.5,-2", "3j",
                             "1e3", "1e200"]),
            ["nan", "1,inf", "1,2,3", "z"])
_SEED = (st.integers(0, 3), [-1])
_XMIN = (st.sampled_from(["1e-30", "1e-3", "0.5"]),
         ["-1", "0", "1e-31", "20", "nan"])
_XMAX = (st.sampled_from(["1", "10", "1e9"]), ["1e-4", "1.1e9", "inf", "nan"])
_FORMAT = (st.sampled_from(["csv", "json"]), ["xml"])


def _file(*names):
    return st.sampled_from(["{%s}" % name for name in names]), []


@st.composite
def _call(draw, command, **flags):
    """argv for one subcommand.  At most one flag takes a value past its
    range, so a rejection is the rejection of that value; half the calls
    take none.  The flag named ``suite`` is positional."""
    past = draw(st.sampled_from(
        [None] * len(flags) + [key for key, pair in flags.items() if pair[1]]))
    argv = [command]
    for key, (inside, beyond) in flags.items():
        value = str(draw(st.sampled_from(beyond) if key == past else inside))
        argv += ([value] if key == "suite"
                 else ["--" + key.replace("_", "-"), value])
    return argv


_FLAG_CALLS = st.one_of(
    _call("stirling", max_k=(st.integers(0, 25), [-1]), format=_FORMAT),
    _call("kernel-table", m=_RADIAL_LEVEL, xmin=_XMIN, xmax=_XMAX,
          points=(st.integers(2, 4), [1, 0]), format=_FORMAT),
    _call("moments", m=_RADIAL_LEVEL,
          nmax=(st.integers(0, 12) | st.sampled_from([60, 200]), [-1]),
          format=_FORMAT),
    _call("kernel-eval", m=_LEVEL, z=_COMPLEX, w=_COMPLEX, tol=_TOL),
    _call("inner-product", m=_LEVEL, f=_file("elem"),
          g=_file("elem", "nearmax1")),
    _call("reproduce-check", m=_LEVEL, w=_COMPLEX,
          degree=(st.integers(0, 30), [-1, 31]), seed=_SEED, tol=_TOL),
    _call("op-apply", word=(st.text("ABST", min_size=1, max_size=4),
                            ["X", "AXB"]), m=_LEVEL),
    _call("verify-operators", m=(st.integers(1, 8), [0, -1]),
          deg=(st.integers(1, 20), [0, -1]), seed=_SEED, tol=_TOL),
    _call("bargmann", m=_LEVEL,
          direction=(st.sampled_from(["fwd", "inv"]), ["both"]),
          **{"in": _file("herm", "elem")}),
    _call("dual-norm", m=_LEVEL, **{"in": _file("elem")}),
    _call("vage-check", p=(st.integers(1, 4), [0, -1]),
          q=(st.integers(2, 6), [1, 0]), trials=(st.integers(1, 20), [0, -1]),
          seed=_SEED),
    _call("integrate", f=_file("path"), g=_file("path")),
    _call("verify", suite=(st.sampled_from(["stirling", "operators",
                                            "bargmann", "dual", "kernels"]),
                           ["none"]),
          m=_RADIAL_LEVEL, seed=_SEED, format=_FORMAT),
)


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    files = {}
    for key in ("elem", "herm", "path", "nearmax1"):
        files[key] = root / (key + ".json")
        files[key].write_text(json.dumps(_CONTRACT_FILES[key]))
    return files


@settings(max_examples=120)
@given(_FLAG_CALLS)
def test_flags_over_their_ranges_exit_cleanly(flag_files, argv):
    argv = [a.format(**flag_files) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
