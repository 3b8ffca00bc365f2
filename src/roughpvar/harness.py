"""Monte Carlo harness for the three-regime power-variation limit theorem.

Experiments draw replicated driver paths at each resolution in a grid,
evaluate the centered statistic together with its per-path limit
ingredients, and aggregate into regime-specific diagnostics: KS distances
against the standard normal for the distributional regimes, location/MSE
tracking of the probability limit in the degenerate regime, rate fits of
the error decay, two-way scaling-exponent fits for windowed weighted sums,
and a binned joint-stability check.

Replica streams are derived from the master seed through SeedSequence spawn
keys indexed by (resolution, replica), so results are bit-identical for a
fixed config regardless of worker count or scheduling order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .controlled import ControlledPath
from .fbm import FbmSpec, sample_fbm
from .hermite import hermite
from .processes import PROCESS_TAGS, build_controlled_process, default_fine_factor
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
    weighted_increment_sum,
)

WORKERS_ENV = "ROUGHPVAR_WORKERS"

# Theorem coverage of the power exponent per regime: every p >= the regime
# threshold plus the listed isolated even values.
_P_RANGES = {
    REGIME_MIXED: (3.0, (2.0,)),
    REGIME_CRITICAL: (5.0, (2.0, 4.0)),
    REGIME_DEGENERATE: (5.0, (2.0, 4.0)),
}


class UnsupportedRangeError(ValueError):
    """Raised when (regime, p) falls outside the theorem's coverage."""


def validate_p_range(hurst: float, p: float) -> None:
    """Reject exponents outside the regime's guaranteed range."""
    regime = classify_regime(hurst)
    threshold, isolated = _P_RANGES[regime]
    if p + 1e-12 >= threshold:
        return
    if any(abs(p - v) <= 1e-12 for v in isolated):
        return
    raise UnsupportedRangeError(
        f"p={p} is not covered in the {regime} regime (needs p >= {threshold} "
        f"or p in {set(isolated)}); pass force=True to run unguaranteed"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment.

    ``fine_factor=None`` resolves to the process's default fine factor
    (:func:`~roughpvar.processes.default_fine_factor`). ``force=True`` runs
    (regime, p) combinations outside the guaranteed range and stamps outputs
    as unguaranteed.
    """

    hurst: float
    p: float
    process: str = "fbm"
    n_grid: tuple[int, ...] = (256, 512, 1024)
    replicas: int = 200
    master_seed: int = 0
    t: float = 1.0
    fine_factor: int | None = None
    quadrature: str = "trapezoid"
    force: bool = False
    process_params: dict = field(default_factory=dict)
    ks_threshold: float | None = None
    median_tol: float = 0.08
    experiment_id: str = ""

    def __post_init__(self) -> None:
        if self.process not in PROCESS_TAGS:
            raise ValueError(f"unknown process {self.process!r}; known: {PROCESS_TAGS}")
        if len(self.n_grid) < 1 or any(n < 2 for n in self.n_grid):
            raise ValueError("n_grid must list resolutions >= 2")
        if len(set(self.n_grid)) != len(self.n_grid):
            raise ValueError("n_grid entries must be distinct")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        validate_master_seed(self.master_seed)
        if self.fine_factor is not None and self.fine_factor < 1:
            raise ValueError("fine_factor must be >= 1")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        classify_regime(self.hurst)
        StatConfig(p=self.p, t=self.t, quadrature=self.quadrature)

    @property
    def regime(self) -> str:
        return classify_regime(self.hurst)

    @property
    def resolved_fine_factor(self) -> int:
        if self.fine_factor is not None:
            return self.fine_factor
        return default_fine_factor(self.process)

    @property
    def resolved_ks_threshold(self) -> float:
        if self.ks_threshold is not None:
            return self.ks_threshold
        return 0.07 if self.regime == REGIME_CRITICAL else 0.05

    def resolved_id(self) -> str:
        if self.experiment_id:
            return self.experiment_id
        tag = f"{self.process}-p{_fmt_num(self.p)}-h{_fmt_num(self.hurst)}-{self.regime}"
        try:
            validate_p_range(self.hurst, self.p)
        except UnsupportedRangeError:
            tag += "-unguaranteed"
        return tag


def validate_master_seed(master_seed: int) -> None:
    """Reject a negative master seed, which no replica stream can take."""
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")


def _fmt_num(x: float) -> str:
    return f"{x:g}".replace(".", "_")


def replica_rng(master_seed: int, n: int, replica: int) -> np.random.Generator:
    """Philox stream of one (resolution, replica) pair under a master seed."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(int(n), int(replica)))
    return np.random.Generator(np.random.Philox(seq))


def build_replica_path(cfg: ExperimentConfig, n: int, replica: int) -> ControlledPath:
    """Construct the controlled process for one (resolution, replica) pair."""
    factor = cfg.resolved_fine_factor
    spec = FbmSpec(hurst=cfg.hurst, n=n * factor)
    x_fine = sample_fbm(spec, replica_rng(cfg.master_seed, n, replica))
    return build_controlled_process(cfg.process, x_fine, factor, cfg.process_params)


def _replica_row(cfg: ExperimentConfig, n: int, replica: int) -> tuple:
    cp = build_replica_path(cfg, n, replica)
    stat = pvar_statistic(cp, StatConfig(p=cfg.p, t=cfg.t, quadrature=cfg.quadrature))
    regime = cfg.regime

    drift = 0.0
    cond = math.nan
    if regime in (REGIME_CRITICAL, REGIME_DEGENERATE):
        drift = limit_drift(cp, cfg.p, cfg.t, cfg.quadrature)
    if regime in (REGIME_MIXED, REGIME_CRITICAL):
        cond = limit_cond_std(cp, cfg.p, cfg.hurst, cfg.t, cfg.quadrature)

    if regime == REGIME_MIXED:
        z = math.sqrt(n) * stat / cond if cond > 0.0 else math.nan
        center = 0.0
    elif regime == REGIME_CRITICAL:
        z = (math.sqrt(n) * stat - drift) / cond if cond > 0.0 else math.nan
        center = drift / math.sqrt(n)
    else:
        z = float(n) ** (2.0 * cfg.hurst) * stat - drift
        center = drift * float(n) ** (-2.0 * cfg.hurst)

    quad_cp = cp.quadrature_path()
    x_values = quad_cp.x.values
    x_end = float(x_values[-1])
    x_integral = integrate_grid(x_values, 1.0 / quad_cp.n, "trapezoid")
    return (
        float(n),
        float(replica),
        stat,
        drift,
        cond,
        z,
        x_end,
        x_integral,
        center,
    )


def resolve_workers(workers: int | None) -> int:
    """Worker count: ``workers``, else the environment's, else 1."""
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


def _parallel_starmap(fn: Callable, tasks: list[tuple], workers: int | None) -> list:
    count = resolve_workers(workers)
    if count == 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    chunk = max(1, len(tasks) // (count * 8))
    with ProcessPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=chunk))


def collect_rows(cfg: ExperimentConfig, workers: int | None = None) -> np.ndarray:
    """Rows for every (n, replica) pair, ordered n-major then replica."""
    tasks = [(cfg, n, r) for n in cfg.n_grid for r in range(cfg.replicas)]
    rows = _parallel_starmap(_replica_row, tasks, workers)
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# KS distance


def ks_statistic(sample: np.ndarray, cdf: Callable) -> float:
    """Kolmogorov-Smirnov sup distance of a sample against a reference CDF."""
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("need a nonempty sample")
    ordered = np.sort(sample)
    ref = np.asarray(cdf(ordered), dtype=float)
    grid = np.arange(1, sample.size + 1) / sample.size
    d_plus = np.max(grid - ref)
    d_minus = np.max(ref - (grid - 1.0 / sample.size))
    return float(max(d_plus, d_minus))


# ---------------------------------------------------------------------------
# regime check


@dataclass(frozen=True)
class ExperimentResult:
    """Rows plus per-resolution summary of one regime-check run."""

    config: ExperimentConfig
    rows: np.ndarray
    summary: tuple
    slope: float
    slope_se: float
    passed: bool

    def results_csv(self) -> str:
        return rows_to_csv(self.config.resolved_id(), self.rows)

    def summary_csv(self) -> str:
        lines = ["experiment_id,n,median_err,ks,slope,slope_se,pass"]
        exp_id = self.config.resolved_id()
        for entry in self.summary:
            lines.append(
                f"{exp_id},{entry['n']},{_fmt_float(entry['median_err'])},"
                f"{_fmt_float(entry['ks'])},{_fmt_float(self.slope)},"
                f"{_fmt_float(self.slope_se)},{int(entry['pass'])}"
            )
        return "\n".join(lines) + "\n"


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def log_log_csv(points) -> str:
    """``log_n,log_err`` lines of the (n, err) pairs with a positive error."""
    lines = ["log_n,log_err"]
    for n, err in points:
        if err > 0.0:
            lines.append(f"{_fmt_float(math.log(n))},{_fmt_float(math.log(err))}")
    return "\n".join(lines) + "\n"


def rows_to_csv(exp_id: str, rows: np.ndarray) -> str:
    lines = ["experiment_id,n,replica,stat,drift,cond_std,z"]
    for row in rows:
        lines.append(
            f"{exp_id},{int(row[0])},{int(row[1])},"
            f"{_fmt_float(row[2])},{_fmt_float(row[3])},"
            f"{_fmt_float(row[4])},{_fmt_float(row[5])}"
        )
    return "\n".join(lines) + "\n"


def _median_errors(
    cfg: ExperimentConfig, rows: np.ndarray, location_column: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-resolution deviation of the statistic from its limit proxy.

    Distributional regimes report the spread median |stat - center|, of
    order n**(-1/2). The degenerate regime reports the location error
    |median(rows[:, location_column])|: the regime summary reads z (column
    5), the distance of the median rescaled statistic from the drift
    constant it converges to; the rate fit reads the uncentered stat
    (column 2), which converges to zero at rate n**(-2H), and whose signed
    median suppresses the faster-decaying Gaussian fluctuation mode around
    it.
    """
    med_errs = np.empty(len(cfg.n_grid))
    for i, n in enumerate(cfg.n_grid):
        sel = rows[:, 0] == n
        if cfg.regime == REGIME_DEGENERATE:
            med_errs[i] = abs(float(np.median(rows[sel, location_column])))
        else:
            err = rows[sel, 2] - rows[sel, 8]
            med_errs[i] = float(np.median(np.abs(err)))
    return np.array(cfg.n_grid, dtype=float), med_errs


def _log_slope(ns: np.ndarray, errs: np.ndarray) -> tuple[float, float]:
    mask = errs > 0.0
    if mask.sum() < 2:
        return math.nan, math.nan
    x = np.log(ns[mask])
    y = np.log(errs[mask])
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    slope = float(coeffs[0])
    dof = mask.sum() - 2
    if dof <= 0 or len(residuals) == 0:
        return slope, math.nan
    sigma_sq_hat = float(residuals[0]) / dof
    se = math.sqrt(sigma_sq_hat / float(np.sum((x - x.mean()) ** 2)))
    return slope, se


def run_regime_check(
    cfg: ExperimentConfig, workers: int | None = None
) -> ExperimentResult:
    """Monte Carlo check of the limit theorem in the config's regime.

    Distributional regimes (Hurst >= 1/4): per-resolution KS distance of the
    normalized statistic against N(0,1); passes when the largest resolution
    is below the threshold. Degenerate regime (Hurst < 1/4): per-resolution
    signed-median error against the drift proxy; passes when the largest
    resolution is within the tolerance and the medians are nonincreasing in
    resolution with at most one inversion.
    """
    if not cfg.force:
        validate_p_range(cfg.hurst, cfg.p)
    rows = collect_rows(cfg, workers)
    ns, med_errs = _median_errors(cfg, rows, 5)
    slope, slope_se = _log_slope(ns, med_errs)

    summary = []
    for i, n in enumerate(cfg.n_grid):
        sel = rows[:, 0] == n
        if cfg.regime == REGIME_DEGENERATE:
            ks = math.nan
            ok = med_errs[i] <= cfg.median_tol
        else:
            z = rows[sel, 5]
            z = z[np.isfinite(z)]
            ks = ks_statistic(z, ndtr) if z.size else math.nan
            ok = bool(ks < cfg.resolved_ks_threshold)
        summary.append(
            {"n": int(n), "median_err": float(med_errs[i]), "ks": ks, "pass": ok}
        )

    order = np.argsort(ns)
    passed = bool(summary[int(order[-1])]["pass"])
    if cfg.regime == REGIME_DEGENERATE and len(ns) >= 2:
        seq = med_errs[order]
        inversions = int(np.sum(np.diff(seq) > 0.0))
        passed = passed and inversions <= 1
    return ExperimentResult(
        config=cfg,
        rows=rows,
        summary=tuple(summary),
        slope=slope,
        slope_se=slope_se,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# rate fit


@dataclass(frozen=True)
class RateFitResult:
    """OLS fit of log median error against log resolution."""

    config: ExperimentConfig
    n_grid: tuple
    errors: np.ndarray
    slope: float
    slope_se: float
    target: float
    tol: float
    passed: bool


def validate_rate_grid(n_grid: Sequence[int]) -> None:
    """Reject a rate fit over fewer than two resolutions."""
    if len(n_grid) < 2:
        raise ValueError("rate fits need at least two resolutions")


def rate_fit(
    cfg: ExperimentConfig,
    workers: int | None = None,
    tol: float = 0.1,
) -> RateFitResult:
    """Fit the convergence-rate exponent of the statistic's error decay.

    The error is measured against the regime's own limit (zero / scaled
    drift) and compared to the theoretical exponent: -1/2 in the
    distributional regimes, -2H in the degenerate one.
    """
    if not cfg.force:
        validate_p_range(cfg.hurst, cfg.p)
    validate_rate_grid(cfg.n_grid)
    rows = collect_rows(cfg, workers)
    ns, errs = _median_errors(cfg, rows, 2)
    target = -rate_exponent(cfg.hurst)
    slope, slope_se = _log_slope(ns, errs)
    passed = bool(abs(slope - target) <= tol)
    return RateFitResult(
        config=cfg,
        n_grid=tuple(int(n) for n in ns),
        errors=errs,
        slope=slope,
        slope_se=slope_se,
        target=target,
        tol=tol,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# two-way scaling fit


@dataclass(frozen=True)
class ScalingFitResult:
    """Two-way OLS of log L1 norms over resolutions and window lengths."""

    n_exponent: float
    delta_exponent: float
    n_se: float
    delta_se: float
    table: tuple

    def csv(self) -> str:
        lines = ["n,delta,l1_norm"]
        for n, delta, l1 in self.table:
            lines.append(f"{int(n)},{_fmt_float(delta)},{_fmt_float(l1)}")
        return "\n".join(lines) + "\n"


def _scaling_row(
    cfg: ExperimentConfig,
    rank_or_f,
    n: int,
    replica: int,
    delta_grid: tuple,
    start: float,
) -> list:
    f = _resolve_functional(rank_or_f)
    cp = build_replica_path(cfg, n, replica)
    weight = cp.level(0)
    return [
        abs(weighted_increment_sum(cp.x, f, weight, start, start + delta))
        for delta in delta_grid
    ]


def _resolve_functional(rank_or_f):
    if isinstance(rank_or_f, (int, np.integer)):
        rank = int(rank_or_f)
        return lambda u: hermite(rank, u)
    if callable(rank_or_f):
        return rank_or_f
    raise TypeError("pass a Hermite rank (int) or a vectorized callable")


def validate_scaling_inputs(
    n_grid: Sequence[int], rank_or_f, delta_grid: Sequence[float], start: float
) -> None:
    """Reject a scaling fit short of grid points, with a window outside
    [0, 1], or with a Hermite rank below 1."""
    if len(delta_grid) < 2 or len(n_grid) < 2:
        raise ValueError("need at least two resolutions and two window lengths")
    if any(d <= 0 for d in delta_grid) or start < 0 or start + max(delta_grid) > 1.0:
        raise ValueError("windows must lie inside [0, 1]")
    if isinstance(rank_or_f, (int, np.integer)) and int(rank_or_f) < 1:
        raise ValueError("Hermite rank must be >= 1")


def scaling_exponent_check(
    cfg: ExperimentConfig,
    rank_or_f,
    delta_grid: Sequence[float],
    start: float = 0.25,
    workers: int | None = None,
) -> ScalingFitResult:
    """Fit joint (resolution, window) scaling exponents of windowed sums.

    For each resolution and each window [start, start + delta) the empirical
    L1 norm of the weighted functional sum is averaged over replicas; a
    two-way regression of its log on (log n, log delta) returns both
    exponents. Integer input selects the Hermite polynomial of that rank as
    the functional; callables must accept arrays (and be top-level functions
    when run with multiple workers).
    """
    delta_grid = tuple(float(d) for d in delta_grid)
    validate_scaling_inputs(cfg.n_grid, rank_or_f, delta_grid, start)

    # The windowed sums read the coarse driver only, so no fine grid is drawn.
    cfg = replace(cfg, fine_factor=1)
    tasks = [
        (cfg, rank_or_f, n, r, delta_grid, start)
        for n in cfg.n_grid
        for r in range(cfg.replicas)
    ]
    values = np.array(_parallel_starmap(_scaling_row, tasks, workers), dtype=float)
    values = values.reshape(len(cfg.n_grid), cfg.replicas, len(delta_grid))
    l1 = values.mean(axis=1)

    rows = []
    design = []
    response = []
    for i, n in enumerate(cfg.n_grid):
        for j, delta in enumerate(delta_grid):
            rows.append((n, delta, float(l1[i, j])))
            design.append([math.log(n), math.log(delta), 1.0])
            response.append(math.log(l1[i, j]))
    design_arr = np.array(design)
    response_arr = np.array(response)
    coeffs, residuals, *_ = np.linalg.lstsq(design_arr, response_arr, rcond=None)
    dof = len(response) - 3
    if dof > 0 and len(residuals) > 0:
        cov = float(residuals[0]) / dof * np.linalg.inv(design_arr.T @ design_arr)
        ses = np.sqrt(np.diag(cov))
    else:
        ses = np.full(3, math.nan)
    return ScalingFitResult(
        n_exponent=float(coeffs[0]),
        delta_exponent=float(coeffs[1]),
        n_se=float(ses[0]),
        delta_se=float(ses[1]),
        table=tuple(rows),
    )


# ---------------------------------------------------------------------------
# joint stability check


@dataclass(frozen=True)
class JointCheckReport:
    """Independence diagnostics of the normalized statistic from its driver."""

    corr_endpoint: float
    corr_integral: float
    corr_threshold: float
    bin_ks: np.ndarray
    bin_threshold: float
    excluded: int
    passed: bool


def stable_joint_check(
    cfg: ExperimentConfig, workers: int | None = None, bins: int = 5
) -> JointCheckReport:
    """Check that the normalized fluctuation decouples from the driver.

    Uses the largest resolution in the grid. The normalized statistic must
    be uncorrelated with the driver endpoint and its time integral (within
    3 / sqrt(replicas)) and its law must stay standard normal within each
    driver-endpoint quantile bin (KS below 2.72 / sqrt(bin size), twice the
    asymptotic 95% band). Replicas whose conditional scale degenerates to
    zero are excluded and reported.
    """
    if cfg.replicas < 1000:
        raise ValueError("joint checks need at least 1000 replicas")
    if cfg.regime == REGIME_DEGENERATE:
        raise RegimeError("joint checks apply to the distributional regimes only")
    if bins < 2:
        raise ValueError("need at least two bins")
    n_top = max(cfg.n_grid)
    sub = replace(cfg, n_grid=(n_top,))
    rows = collect_rows(sub, workers)

    cond = rows[:, 4]
    good = cond > 1e-12 * float(np.nanmedian(cond))
    excluded = int(np.sum(~good))
    z = rows[good, 5]
    x_end = rows[good, 6]
    x_int = rows[good, 7]
    m = z.size
    corr_threshold = 3.0 / math.sqrt(m)
    corr_end = float(abs(np.corrcoef(z, x_end)[0, 1]))
    corr_int = float(abs(np.corrcoef(z, x_int)[0, 1]))

    order = np.argsort(x_end)
    edges = np.linspace(0, m, bins + 1).astype(int)
    bin_ks = np.empty(bins)
    bin_sizes = np.diff(edges)
    for b in range(bins):
        members = order[edges[b] : edges[b + 1]]
        bin_ks[b] = ks_statistic(z[members], ndtr)
    bin_threshold = 2.72 / math.sqrt(float(np.min(bin_sizes)))
    passed = (
        corr_end < corr_threshold
        and corr_int < corr_threshold
        and bool(np.all(bin_ks < bin_threshold))
    )
    return JointCheckReport(
        corr_endpoint=corr_end,
        corr_integral=corr_int,
        corr_threshold=corr_threshold,
        bin_ks=bin_ks,
        bin_threshold=bin_threshold,
        excluded=excluded,
        passed=passed,
    )
