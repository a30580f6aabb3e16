"""Equivariant functions and rational differential operators.

Exact computer algebra over cyclotomic fields for the Schwarzian/D-operator
duality, phi-operators over finite Moebius groups, modular q-series
equivariants, dynamics of equivariant rational maps, and the
non-commutative matrix-valued generalization.
"""

# the one version string: report.VERSION and the package metadata read it
__version__ = "1.0.0"

from .cyclotomic import (Cyclo, DEFAULT_ORDER, imag_unit, rational, sqrt2,
                         sqrt3, sqrt5, zeta)
from .divisors import (Divisor, Place, pole_divisor,
                       quadratic_differential_poles,
                       quadratic_differential_zeros, ramification_divisor,
                       zero_divisor)
from .dynamics import (CxMap, CycleReport, NonConvergenceError, cycle_report,
                       iteration_map, poly_roots)
from .lift import LiftSeries, legendrian_lift_series
from .moebius import (ConfigError, GroupConfig, InvariantForm, Moebius,
                      compose_after, cross_ratio, equivariance_check,
                      equivariance_residual, form_character,
                      form_invariance_check, is_equivariant,
                      load_group_config, moebius_apply)
from .ncalg import (GenMoebius, MatFn, NCExpr, NCPoly, Theorem2Operator,
                    deform_family, gen_moebius_apply, nc_d_operator,
                    nc_derive, nc_eval, nc_phi_deform, q_compose_step,
                    s_poly, theorem2_substitute)
from .operators import (FormCoeff, d_operator, dd_deformation_h,
                        deform_corollary, klein_vector_field,
                        period_residues, phi_biweight, phi_operator,
                        pre_schwarzian, rankin_cohen, schwarzian)
from .parsing import (cyclo_literal, parse_cyclo, parse_poly, parse_ratfn,
                      poly_literal, ratfn_literal)
from .poly import Poly
from .qseries import (QSeries, delta_series, eisenstein, eta, eta_product,
                      hauptmodul, heins_value, j_relation_data, j_series,
                      ramanujan_check, rogers_ramanujan, rr_equals_j5,
                      series_eval, verify_j_relation)
from .ratfn import RatFn
from .report import Report, emit_report, run_suite
