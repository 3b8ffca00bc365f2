"""Exact fractional Brownian simulation, controlled rough paths, and
Monte Carlo verification of three-regime power-variation limit theorems."""

__version__ = "0.1.0"

from .fbm import (
    FbmPath,
    FbmSpec,
    fbm_covariance,
    fgn_autocovariance,
    increments,
    path_from_csv,
    path_to_csv,
    power_increment,
    rng_for_spec,
    sample_fbm,
)
from .hermite import (
    AbsPowerFamily,
    TruncationSpec,
    abs_power_deriv,
    abs_power_hermite_coeff,
    asymptotic_variance,
    build_hermite_model,
    gaussian_abs_moment,
    hermite,
    hermite_coeffs_numeric,
)
from .controlled import (
    ControlledPath,
    FunctionFamily,
    additivity_defect,
    check_controlled,
    compose,
    controlled_from_field,
    discrete_integral,
    discrete_integral_increment,
    field_iterate_polynomials,
    pair_increment,
    remainder,
    remainder_decomposition_residual,
    rough_integral,
    solve_rde,
    subsample_controlled,
)
from .stats import (
    REGIME_CRITICAL,
    REGIME_DEGENERATE,
    REGIME_MIXED,
    RegimeError,
    StatConfig,
    classify_regime,
    integrate_grid,
    limit_cond_std,
    limit_drift,
    power_variation,
    pvar_statistic,
    rate_exponent,
    riemann_correction_sum,
    riemann_error,
    weighted_increment_sum,
    weighted_pvar_sum,
)
from .processes import build_controlled_process
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    JointCheckReport,
    RateFitResult,
    ScalingFitResult,
    UnsupportedRangeError,
    build_replica_path,
    collect_rows,
    ks_statistic,
    rate_fit,
    run_regime_check,
    scaling_exponent_check,
    stable_joint_check,
    validate_p_range,
)

