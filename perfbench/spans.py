"""In-memory span tracing around the package's public entry points.

Nothing under ``src/`` is touched.  :meth:`Tracer.install` rebinds each
listed function, in every ``genfock`` module namespace that holds that
function object (``operators`` and ``dualalgebra`` import names such as
``inner_product`` directly), to a wrapper that records one span per call:
name, key, start, end, parent span and request id.  Spans stay in memory
until :meth:`Tracer.summary` folds them, after the timed work.

Per-term helpers (``log_weight``, ``weight``, ``stirling_s2``, ``raising``,
``lowering``, spline evaluation) are left alone: their call counts would
make the tracing cost dominate.  Stdlib only.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# Public entry points per layer; the layer is the genfock module name.
LAYERS = {
    "cli": ("main",),
    "suites": ("run_suite",),
    "radialkernel": (
        "build_table", "log_mellin_convolve", "log_radial_weight",
        "radial_weight", "log_radial_weight_conv",
        "log_radial_weight_centered", "log_radial_weight_product",
        "mellin_step", "radial_weight_point", "geometric_inner_product",
        "bessel_reference_log", "moment"),
    "coeffspace": (
        "inner_product", "squared_norm", "norm", "eval_point", "kernel_eval",
        "kernel_section", "aggregate_kernels_geometric",
        "aggregate_kernels_exponential"),
    "operators": (
        "raising_adjoint", "lowering_adjoint", "apply_word",
        "number_power_direct", "number_power_normal_ordered",
        "raising_adjoint_via_stirling", "commutator_raising",
        "commutator_via_expansion", "commutator_apply", "weighted_moment",
        "domain_functional", "shift_norm_decomposition",
        "norm_identity_report", "adjoint_word_check",
        "reordering_identity_check"),
    "stirling": ("normal_order_coeffs", "verify_normal_ordering"),
    "bargmann": (
        "hermite_eta_all", "forward", "inverse", "unitarity_gap",
        "transform_kernel", "transform_via_quadrature",
        "classic_kernel_values", "eta_sup_on_grid"),
    "dualalgebra": (
        "dual_sq_norm_flagged", "dual_norm", "pairing", "cauchy_product",
        "vage_constant", "vage_check", "riemann_integral_product",
        "sample_path", "dual_distance", "refinement_order"),
}


def _kind(coeffs) -> str:
    """'fraction', 'int' or 'float' after the first coefficient."""
    if not coeffs:
        return "float"
    c = coeffs[0]
    if isinstance(c, Fraction):
        return "fraction"
    if isinstance(c, int):
        return "int"
    return "float"


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape:
        n *= d
    return n


# Span keys: the argument properties the per-layer metrics are cut by.
KEYS = {
    "build_table": lambda a, k: f"m{a[0]}",
    "radial_weight": lambda a, k: f"m{a[0]}.n{_size(a[1])}",
    "radial_weight_point": lambda a, k: f"m{a[0]}",
    "log_radial_weight_conv": lambda a, k: f"m{a[0]}",
    "moment": lambda a, k: f"m{a[0]}",
    "inner_product": lambda a, k: (
        f"{_kind(a[0].coeffs)}.m{a[2]}."
        f"d{min(len(a[0].coeffs), len(a[1].coeffs)) - 1}"),
    "squared_norm": lambda a, k: f"m{a[1]}.d{len(a[0].coeffs) - 1}",
    "cauchy_product": lambda a, k: (
        f"{_kind(a[0].coeffs)}.n{max(len(a[0].coeffs), len(a[1].coeffs))}"),
    "run_suite": lambda a, k: str(a[1]),
}


class Tracer:
    """Span recorder; install around traced work, remove after it."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        key_of = KEYS.get(name)
        clock = time.perf_counter
        label = f"{layer}.{name}"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                key = ""
                if key_of is not None:
                    try:
                        key = key_of(args, kwargs)
                    except Exception:  # an odd call must not change results
                        key = "?"
                spans[idx] = (label, key, t0, t1, parent, self.request,
                              failed)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "genfock" or name.startswith("genfock."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"genfock.{layer}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Fold spans into {"layer.fn|key": [calls, total_s, self_s, failed]}.

        Self time is a span's duration minus the durations of its direct
        children, so summing self time over a layer counts each interval
        once, in the innermost span that covers it.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        out: dict[str, list] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            label, key, t0, t1, _parent, _req, failed = span
            row = out.setdefault(f"{label}|{key}", [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child_time[i]
            row[3] += int(failed)
        # build_table recursion: a level's own cost excludes its parent level
        for i, span in enumerate(self.spans):
            if span is None or span[0] != "radialkernel.build_table":
                continue
            p = span[4]
            if p >= 0 and self.spans[p] is not None \
                    and self.spans[p][0] == "radialkernel.build_table":
                row = out.setdefault(
                    f"radialkernel.build_table.nested|{self.spans[p][1]}",
                    [0, 0.0, 0.0, 0])
                row[0] += 1
                row[1] += span[3] - span[2]
        return out


def merge(summaries: list[dict]) -> dict:
    out: dict[str, list] = {}
    for s in summaries:
        for k, row in s.items():
            acc = out.setdefault(k, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
    return out
