"""Named invariant suites: structure, determinism, failure routing."""

import json

import pytest

from genfock.suites import SUITE_NAMES, RunConfig, run_suite


def test_default_config_is_valid():
    cfg = RunConfig()
    assert cfg.seed == 2026


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(kernel_level=0)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(RunConfig(), "spectral")


def test_single_suite_report_shape():
    rep = run_suite(RunConfig(seed=5), "stirling")
    assert rep["suite"] == "stirling"
    assert rep["n_checks"] == len(rep["checks"])
    assert rep["n_passed"] == sum(c["passed"] for c in rep["checks"])
    for c in rep["checks"]:
        assert set(c) >= {"name", "passed", "measured", "tolerance", "detail"}


def test_all_suites_pass_and_preserve_order():
    rep = run_suite(RunConfig(seed=5), "all")
    assert rep["passed"] is True
    assert rep["n_passed"] == rep["n_checks"] == len(rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert len(set(names)) == len(names)  # check names are unique


def test_reports_are_deterministic():
    a = run_suite(RunConfig(seed=42), "all")
    b = run_suite(RunConfig(seed=42), "all")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_exceptions_become_named_failures():
    # level 38 is the first whose table build stalls, so the convolution
    # check raises there; the guard must convert that into a failed check,
    # not a crash
    cfg = RunConfig(seed=1, kernel_level=38)
    rep = run_suite(cfg, "kernels")
    assert rep["passed"] is False
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert any("QuadratureConvergenceError" in c["detail"] for c in failed)
    # the error message carries the achieved-vs-requested diagnostic
    assert any("stalled" in c["detail"] for c in failed)
    assert [c["name"] for c in failed] == [
        "radial convolution converges at level 38"]


def test_suite_names_cover_modules():
    assert SUITE_NAMES == ("stirling", "kernels", "operators", "bargmann",
                           "dual")
