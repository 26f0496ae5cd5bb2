"""Bounds and numerical experiments for composition operators acting on
the Hilbert space of square-summable Dirichlet series.

The package has three legs:

* closed-form machinery — zeta values and derivatives, power means of
  linear prime polynomials, composition-norm series with certified
  truncation tails (`zeta`, `dseries`, `affine`);
* operator bounds — truncated composition matrices with per-column
  defect certificates, reproducing-kernel quotients, adjoint suprema,
  and the assembled lower/upper bound suites (`opnorm`);
* sampling — character draws on the infinite polytorus, boundary level
  sets, ergodic line averages, and inner-factor symbols (`torus`),
  plus the unit-disc transference checks (`disc`).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .affine import (
    AffineSymbol,
    PolynomialSymbol,
    annulus_radii,
    bvn_decompose,
    comp_bruteforce_norm_sq,
    comp_norm_sq,
    effective_constant,
    h2k_means,
    hq_dominance,
    in_gordon_hedenmalm,
    majorizes,
    xi,
)
from .disc import (
    LittlewoodCheck,
    PowerSeries,
    ShapiroCheck,
    compose_truncated,
    composition_matrix,
    littlewood_check,
    mobius_comp_norm_sq,
    psi_matrix,
    psi_z2z,
    shapiro_bound_check,
)
from .dseries import (
    DirichletPoly,
    carlson_mean,
    evaluate,
    h2_norm_sq,
)
from .errors import InequalityViolation, NonConvergence
from .fixtures import (
    Fixture,
    fixtures,
    get_fixture,
    poly_level_measure,
    poly_shapiro_closed_form,
    single_prime_symbol,
)
from .opnorm import (
    BoundEntry,
    BoundReport,
    KernelQuotientReport,
    PhiAlphaSymbol,
    TruncatedOperator,
    adjoint_bound_2s,
    adjoint_bound_general,
    bound_suite,
    build_matrix,
    kernel_quotient,
    kernel_quotient_report,
    phi_alpha_adjoint_sup,
    phi_alpha_kernel_ratio_sq,
    sigma_max_series,
    sigma_max_sq,
    suite_for_phi_alpha,
)
from .primes import first_primes, primes_up_to
from .torus import (
    InnerSymbolParams,
    MeasureResult,
    SamplePlan,
    curve_trace,
    ergodic_measure,
    inner_boundary_modulus,
    inner_truncation_bound,
    mc_comp_norm_sq,
    measure_E_delta,
    mobius_symbol_value,
    shapiro_constant,
)
from .zeta import alpha0, dkzeta_sandwich, riemann_sum_bounds, zeta, zeta_deriv

__all__ = [
    "__version__",
    # affine
    "AffineSymbol", "PolynomialSymbol", "annulus_radii",
    "bvn_decompose", "comp_bruteforce_norm_sq", "comp_norm_sq",
    "effective_constant", "h2k_means", "hq_dominance", "in_gordon_hedenmalm",
    "majorizes", "xi",
    # disc
    "LittlewoodCheck", "PowerSeries", "ShapiroCheck", "compose_truncated",
    "composition_matrix", "littlewood_check", "mobius_comp_norm_sq", "psi_matrix", "psi_z2z",
    "shapiro_bound_check",
    # dseries
    "DirichletPoly", "carlson_mean", "evaluate", "h2_norm_sq",
    # errors
    "InequalityViolation",
    "NonConvergence",
    # fixtures
    "Fixture", "fixtures", "get_fixture", "poly_level_measure",
    "poly_shapiro_closed_form", "single_prime_symbol",
    # opnorm
    "BoundEntry", "BoundReport", "KernelQuotientReport", "PhiAlphaSymbol",
    "TruncatedOperator", "adjoint_bound_2s", "adjoint_bound_general",
    "bound_suite", "build_matrix", "kernel_quotient", "kernel_quotient_report",
    "phi_alpha_adjoint_sup", "phi_alpha_kernel_ratio_sq", "sigma_max_series",
    "sigma_max_sq", "suite_for_phi_alpha",
    # primes
    "first_primes", "primes_up_to",
    # torus
    "InnerSymbolParams", "MeasureResult", "SamplePlan", "curve_trace",
    "ergodic_measure", "inner_boundary_modulus", "inner_truncation_bound",
    "mc_comp_norm_sq", "measure_E_delta", "mobius_symbol_value",
    "shapiro_constant",
    # zeta
    "alpha0", "dkzeta_sandwich", "riemann_sum_bounds", "zeta", "zeta_deriv",
]
