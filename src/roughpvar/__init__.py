"""Exact fractional Brownian simulation, controlled rough paths, and
Monte Carlo verification of three-regime power-variation limit theorems."""

__version__ = "0.1.0"

from .fbm import (
    FbmPath,
    FbmSpec,
    fbm_covariance,
    fgn_autocovariance,
    sample_fbm,
)
from .hermite import (
    asymptotic_variance,
    gaussian_abs_moment,
    hermite,
    hermite_coeffs_numeric,
)
from .controlled import (
    ControlledPath,
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
    pvar_statistic,
    rate_exponent,
    riemann_correction_sum,
    weighted_increment_sum,
)
from .processes import build_controlled_process
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    RateFitConfig,
    ScalingConfig,
    UnsupportedRangeError,
    build_replica_path,
    collect_rows,
    ks_statistic,
    rate_fit,
    run_regime_check,
    scaling_exponent_check,
    validate_p_range,
)

