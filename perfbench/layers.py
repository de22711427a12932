"""Per-layer metrics folded from a traced run's span summary.

Every traced run reports every per-layer metric.  A metric whose spans
did not occur in that workload reads 0.0 and is listed under
``absent_layer_metrics`` in the details line.  Times and counts are per
traced batch unless the name says otherwise; level builds happen once,
in set-up, and are reported as such.
"""

from __future__ import annotations

from spans import merge

LAYER_NAMES = ("cli", "suites", "radialkernel", "coeffspace", "operators",
               "stirling", "bargmann", "dualalgebra")
# the suites the algebra workload runs through the CLI; the kernels suite
# would build radial tables there
SUITES = ("stirling", "operators", "bargmann", "dual")
GRID_M = (1, 2, 5)
GRID_D = (40, 200, 1000)

# accuracy metrics the workload fills in; everything else comes from spans
ACCURACY = (
    [f"radialkernel.max_rel_err.m{m}" for m in range(2, 6)]
    + ["radialkernel.moment_max_rel_err",
       "coeffspace.inner_product_max_rel_err",
       "coeffspace.squared_norm_max_rel_err"])


def _rows(summary: dict, fn: str, match=None):
    for k, row in summary.items():
        label, _, key = k.partition("|")
        if label == fn and (match is None or match(key)):
            yield row


def _mean_us(summary: dict, fn: str, match=None) -> float | None:
    calls = total = 0
    for row in _rows(summary, fn, match):
        calls += row[0]
        total += row[1]
    return total / calls * 1e6 if calls else None


def _total_s(summary: dict, fn: str, match=None) -> float | None:
    rows = list(_rows(summary, fn, match))
    return sum(r[1] for r in rows) if rows else None


def _near(key: str, kind: str, m: int, d: int) -> bool:
    """inner_product keys are 'kind.mM.dD'; accept D within 2 of d, so both
    sides of an adjoint pairing (lengths deg+1 and deg) land in one cell."""
    parts = key.split(".")
    if len(parts) != 3 or parts[0] != kind or parts[1] != f"m{m}":
        return False
    return abs(int(parts[2][1:]) - d) <= 2


def _near_sq(key: str, m: int, d: int) -> bool:
    parts = key.split(".")
    return parts[0] == f"m{m}" and abs(int(parts[1][1:]) - d) <= 2


def fold(summary: dict, units: int, accuracy: dict, overhead_frac: float,
         once: dict | None = None) -> tuple[dict, list[str]]:
    """(metric name -> value, names of metrics with no spans).

    ``summary`` covers the traced units; ``once`` covers traced set-up,
    which only the level-build and convolution-node metrics draw on.
    """
    vals: dict[str, float | None] = {}
    units = max(units, 1)
    builds = merge([summary, once or {}])

    for m in range(2, 6):
        built = _total_s(builds, "radialkernel.build_table",
                         lambda k, m=m: k == f"m{m}")
        nested = _total_s(builds, "radialkernel.build_table.nested",
                          lambda k, m=m: k == f"m{m}") or 0.0
        vals[f"radialkernel.level{m}_build_s"] = (
            None if built is None else built - nested)
    vals["radialkernel.conv_node_us"] = _mean_us(
        builds, "radialkernel.log_mellin_convolve")
    vals["radialkernel.radial_weight_batch_us"] = _mean_us(
        summary, "radialkernel.radial_weight", lambda k: k.endswith(".n256"))
    vals["radialkernel.moment_us"] = _mean_us(summary, "radialkernel.moment")
    for m in range(2, 6):
        vals[f"radialkernel.radial_weight_point_us.m{m}"] = _mean_us(
            summary, "radialkernel.radial_weight_point",
            lambda k, m=m: k == f"m{m}")

    for m in GRID_M:
        for d in GRID_D:
            vals[f"coeffspace.inner_product_us.m{m}.d{d}"] = _mean_us(
                summary, "coeffspace.inner_product",
                lambda k, m=m, d=d: _near(k, "float", m, d))
    for m in GRID_M:
        for d in GRID_D:
            vals[f"coeffspace.squared_norm_us.m{m}.d{d}"] = _mean_us(
                summary, "coeffspace.squared_norm",
                lambda k, m=m, d=d: _near_sq(k, m, d))
    vals["coeffspace.kernel_section_us"] = _mean_us(
        summary, "coeffspace.kernel_section")
    vals["coeffspace.kernel_eval_us"] = _mean_us(
        summary, "coeffspace.kernel_eval")
    vals["coeffspace.inner_product_fraction_us"] = _mean_us(
        summary, "coeffspace.inner_product",
        lambda k: k.startswith("fraction."))

    vals["operators.commutator_apply_us"] = _mean_us(
        summary, "operators.commutator_apply")
    vals["operators.number_power_normal_ordered_us"] = _mean_us(
        summary, "operators.number_power_normal_ordered")
    vals["operators.norm_identity_report_us"] = _mean_us(
        summary, "operators.norm_identity_report")
    vals["stirling.verify_normal_ordering_us"] = _mean_us(
        summary, "stirling.verify_normal_ordering")
    vals["dualalgebra.cauchy_product_int_us"] = _mean_us(
        summary, "dualalgebra.cauchy_product", lambda k: k.startswith("int."))
    for n in (20, 200):
        vals[f"dualalgebra.cauchy_product_us.n{n}"] = _mean_us(
            summary, "dualalgebra.cauchy_product",
            lambda k, n=n: k == f"float.n{n}")
    vals["dualalgebra.vage_check_us"] = _mean_us(
        summary, "dualalgebra.vage_check")
    vals["dualalgebra.riemann_integral_product_us"] = _mean_us(
        summary, "dualalgebra.riemann_integral_product")
    for fn in ("transform_kernel", "transform_via_quadrature",
               "unitarity_gap"):
        vals[f"bargmann.{fn}_us"] = _mean_us(summary, f"bargmann.{fn}")

    for suite in SUITES:
        total = _total_s(summary, "suites.run_suite",
                         lambda k, s=suite: k == s)
        vals[f"suites.{suite}_s"] = None if total is None else total / units

    for layer in LAYER_NAMES:
        rows = [row for k, row in summary.items()
                if k.startswith(layer + ".")
                and not k.startswith("radialkernel.build_table.nested")]
        vals[f"{layer}.self_s"] = sum(r[2] for r in rows) / units
        vals[f"{layer}.calls"] = sum(r[0] for r in rows) / units
        vals[f"{layer}.failed"] = sum(r[3] for r in rows) / units

    for name in ACCURACY:
        vals[name] = accuracy.get(name)
    vals["trace.overhead_frac"] = overhead_frac

    absent = sorted(k for k, v in vals.items() if v is None)
    return {k: (0.0 if v is None else float(v)) for k, v in vals.items()}, absent
