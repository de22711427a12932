"""Weighted power-series spaces with factorial-power norms.

The package covers five connected pieces: the coefficient spaces and their
reproducing kernels, the radial weight functions realizing the same norms as
plane integrals, the raising/lowering operator calculus with its
partition-count combinatorics, a Hermite-basis transform from the line, and
the dual convolution algebra with its submultiplicativity constant.
"""

from .bargmann import (HermiteEvaluation, classic_kernel_values, forward,
                       hermite_eta, hermite_eta_all, inverse,
                       transform_kernel, transform_via_quadrature,
                       unitarity_gap)
from .coeffspace import (TaylorCoeffs, WeightOverflowError,
                         aggregate_kernels_exponential,
                         aggregate_kernels_geometric, eval_point,
                         inner_product, kernel_eval, kernel_section,
                         log_weight, norm, squared_norm, weight)
from .dualalgebra import (DualSequence, cauchy_product, dual_norm, pairing,
                          riemann_integral_product, vage_check, vage_constant)
from .operators import (OperatorConsistencyError, apply_word,
                        commutator_apply, domain_functional, lowering,
                        lowering_adjoint, norm_identity_report, raising,
                        raising_adjoint, raising_adjoint_via_stirling)
from .radialkernel import (KernelTable, QuadratureConvergenceError,
                           build_table, moment, radial_weight,
                           radial_weight_point)
from .stirling import normal_order_coeffs, stirling_s2
from .suites import RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
