"""Monte Carlo harness for the three-regime power-variation limit theorem.

Experiments draw replicated driver paths at each resolution in a grid,
evaluate the centered statistic together with its per-path limit
ingredients, and aggregate into regime-specific diagnostics: KS distances
against the standard normal for the distributional regimes, location/MSE
tracking of the probability limit in the degenerate regime, rate fits of
the error decay, and two-way scaling-exponent fits for windowed weighted
sums.

Replica streams are derived from the master seed through SeedSequence spawn
keys indexed by (resolution, replica), so results are bit-identical for a
fixed config regardless of worker count or scheduling order. Workers are
forked directly (``os.fork``, one pipe each, round-robin shares of the
tasks): a run with workers imports no process pool and needs a platform
that has ``os.fork``. An
``ExperimentConfig`` resolves its ``auto`` (``None``) values and refuses what
the theorem does not cover when it is constructed; the checks take it as is.
The two fits wrap it the same way: ``RateFitConfig`` owns the rate fit's
grid refusal and tolerance, ``ScalingConfig`` the scaling fit's grid, window
and rank refusals, its exponent targets and its tolerance, and each fit's
result carries its targets and verdict. :func:`collect_rows` draws the rows
of a config; the regime check and the rate fit are pure functions of those
rows, so one table can feed both. The checks return rows, summaries and fits
as numbers; the CLI formats every output file.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, ClassVar, NoReturn

import numpy as np

from .controlled import ControlledPath
from .fbm import DomainError, FbmSpec, RunError, check_integer, check_number, sample_fbm
from .hermite import hermite, ndtr
from .processes import (
    build_controlled_process,
    default_fine_factor,
    first_zero_level,
    resolve_process_params,
)
from .stats import (
    REGIME_CRITICAL,
    REGIME_DEGENERATE,
    REGIME_MIXED,
    StatConfig,
    _snap_count,
    _window_cells,
    classify_regime,
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


def validate_p_range(hurst: float, p: float) -> None:
    """Reject exponents outside the regime's guaranteed range."""
    regime = classify_regime(hurst)
    threshold, isolated = _P_RANGES[regime]
    if p + 1e-12 >= threshold:
        return
    if any(abs(p - v) <= 1e-12 for v in isolated):
        return
    raise DomainError(
        f"p={p} is not covered in the {regime} regime (needs p >= {threshold} "
        f"or p in {set(isolated)}); pass force=True to run unguaranteed"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment, resolved and refused
    at construction: ``fine_factor=None`` (the CLI's ``auto``) becomes the
    process's default fine factor, ``ks_threshold=None`` the regime's KS
    threshold (0.07 at the critical index, 0.05 otherwise), and
    ``process_params`` a dict of the config's own holding ``ell`` and the
    options :func:`~roughpvar.processes.resolve_process_params` returns, so
    a later change to the caller's dict does not reach it. ``replace`` keeps
    the resolved fine factor and KS threshold: the copy of an ``fbm`` config
    with ``process="sq"`` keeps fine factor 1, and that of a mixed config
    with a critical ``hurst`` keeps 0.05. Refused: what the resolver
    refuses (an unknown process, an ``ell`` below 2, an unknown key, a
    ``y0`` or coefficient that is not a finite number), a resolution,
    replica count, seed or fine factor that is not an integer, a hurst, p,
    t, KS threshold or median tolerance that is not a number (as
    :func:`~roughpvar.fbm.check_integer` and
    :func:`~roughpvar.fbm.check_number` decide: a bool is neither), a p
    that is not finite, NaN included, and a (regime, p) outside the
    guaranteed range unless ``force=True``, which runs it and stamps
    outputs as unguaranteed. A p below 2 is refused at and below the
    critical index even then: the drift there needs phi'' of ``|y|**p``. A
    KS threshold outside (0, 1] and a median tolerance below 0 are refused,
    NaN included, and so are a resolution with no whole cell below ``t``,
    where every statistic is 0, a ``force`` that is not a bool, and an
    ``experiment_id`` that is not a string or would break the CSV rows it
    starts.
    """

    hurst: float
    p: float
    process: str = "fbm"
    n_grid: tuple[int, ...] = (256, 512, 1024)
    replicas: int = 200
    master_seed: int = 0
    t: float = 1.0
    fine_factor: int | None = None
    force: bool = False
    process_params: dict = field(default_factory=dict)
    ks_threshold: float | None = None
    median_tol: float = 0.08
    experiment_id: str = ""

    def __post_init__(self) -> None:
        ell, params = resolve_process_params(self.process, self.process_params)
        object.__setattr__(self, "process_params", {"ell": ell, **params})
        n_grid = tuple(check_integer("n_grid entry", n) for n in self.n_grid)
        check_integer("replicas", self.replicas, 1)
        check_integer("master_seed", self.master_seed, 0)
        if self.fine_factor is not None:
            check_integer("fine_factor", self.fine_factor, 1)
        if not isinstance(self.force, (bool, np.bool_)):
            raise DomainError(f"force must be a bool, got {self.force!r}")
        if not isinstance(self.experiment_id, str):
            raise DomainError(f"experiment_id must be a string, got {self.experiment_id!r}")
        if len(n_grid) < 1 or any(n < 2 for n in n_grid):
            raise DomainError("n_grid must list resolutions >= 2")
        if len(set(n_grid)) != len(n_grid):
            raise DomainError("n_grid entries must be distinct")
        object.__setattr__(self, "n_grid", n_grid)
        check_number("hurst", self.hurst)
        regime = classify_regime(self.hurst)
        # checks that p and t are numbers, p finite and >= 1, t in (0, 1]
        StatConfig(p=self.p, t=self.t)
        empty = [n for n in self.n_grid if _snap_count(self.t, n) == 0]
        if empty:
            raise DomainError(f"t={self.t} holds no whole grid cell at n={empty}")
        if regime != REGIME_MIXED and self.p < 2.0:
            raise DomainError(
                f"p={self.p} is refused in the {regime} regime, even with force: "
                "its drift needs phi'' of |y|**p, which is unbounded at 0 for p < 2"
            )
        if not self.force:
            validate_p_range(self.hurst, self.p)
        if self.fine_factor is None:
            object.__setattr__(self, "fine_factor", default_fine_factor(self.process))
        if self.ks_threshold is None:
            threshold = 0.07 if regime == REGIME_CRITICAL else 0.05
            object.__setattr__(self, "ks_threshold", threshold)
        check_number("ks_threshold", self.ks_threshold)
        check_number("median_tol", self.median_tol)
        if not 0.0 < self.ks_threshold <= 1.0:
            raise DomainError(f"ks_threshold must lie in (0, 1], got {self.ks_threshold}")
        if not self.median_tol >= 0.0:
            raise DomainError(f"median_tol must be >= 0, got {self.median_tol}")
        if any(c in self.experiment_id for c in ',"\r\n'):
            raise DomainError(
                f"experiment_id must hold no comma, quote or line break: {self.experiment_id!r}"
            )

    @property
    def regime(self) -> str:
        return classify_regime(self.hurst)

    def resolved_id(self) -> str:
        if self.experiment_id:
            return self.experiment_id
        tag = f"{self.process}-p{_fmt_num(self.p)}-h{_fmt_num(self.hurst)}-{self.regime}"
        try:
            validate_p_range(self.hurst, self.p)
        except DomainError:
            tag += "-unguaranteed"
        return tag


def _fmt_num(x: float) -> str:
    return f"{x:g}".replace(".", "_")


def replica_rng(master_seed: int, n: int, replica: int) -> np.random.Generator:
    """Philox stream of one (resolution, replica) pair under a master seed."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(int(n), int(replica)))
    return np.random.Generator(np.random.Philox(seq))


def build_replica_path(cfg: ExperimentConfig, n: int, replica: int) -> ControlledPath:
    """Construct the controlled process for one (resolution, replica) pair."""
    factor = cfg.fine_factor
    spec = FbmSpec(hurst=cfg.hurst, n=n * factor)
    x_fine = sample_fbm(spec, replica_rng(cfg.master_seed, n, replica))
    return build_controlled_process(cfg.process, x_fine, factor, cfg.process_params)


def _replica_row(cfg: ExperimentConfig, n: int, replica: int) -> tuple:
    """``(n, replica, stat, drift, cond_std, z)``, the columns of results.csv."""
    cp = build_replica_path(cfg, n, replica)
    stat = pvar_statistic(cp, StatConfig(p=cfg.p, t=cfg.t))
    regime = cfg.regime

    drift = 0.0 if regime == REGIME_MIXED else limit_drift(cp, cfg.p, cfg.t)
    if regime == REGIME_DEGENERATE:
        z = float(n) ** (2.0 * cfg.hurst) * stat - drift
        return (float(n), float(replica), stat, drift, math.nan, z)
    # Mixed and critical; the mixed drift is 0.0, and x - 0.0 is x bit for bit.
    cond = limit_cond_std(cp, cfg.p, cfg.hurst, cfg.t)
    z = (math.sqrt(n) * stat - drift) / cond if cond > 0.0 else math.nan
    return (float(n), float(replica), stat, drift, cond, z)


def resolve_workers(workers: int | None) -> int:
    """Worker count, an integer >= 1: ``workers``, else the environment's, else 1.

    Workers are forked, so a count above 1 is refused where ``os.fork``
    does not exist.
    """
    if workers is None:
        text = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(text)
        except ValueError:
            raise DomainError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None
    count = check_integer("worker count", workers, 1)
    if count > 1 and not hasattr(os, "fork"):
        raise DomainError(
            f"{count} workers need os.fork, which {sys.platform} lacks; use 1 worker"
        )
    return count


def collect_rows(
    cfg: ExperimentConfig, workers: int | None = None, row: Callable = _replica_row
) -> np.ndarray:
    """``row(cfg, n, replica)`` for every (n, replica) pair, ordered n-major
    then replica: the one loop over replicas, serial or on forked workers.

    With ``count`` workers, worker ``w`` computes every ``count``-th task
    from the ``w``-th, so each gets each resolution's replicas evenly (to
    one). A worker's rows, or the exception it raised, come back pickled
    through a pipe; the first exception in worker order is raised here with
    its class, and a worker that ended without a result raises
    :class:`RunError`. Every worker is reaped before this returns or raises.
    """
    tasks = [(cfg, n, r) for n in cfg.n_grid for r in range(cfg.replicas)]
    # Every worker gets a share, so never more workers than there are tasks.
    count = min(resolve_workers(workers), len(tasks))
    if count <= 1:
        return np.array([row(*task) for task in tasks], dtype=float)
    # Forked workers inherit what the parent has imported. Every row draws
    # with numpy.random (which loads OpenSSL through secrets) and numpy.fft,
    # so importing both here spares each worker the memory of its own copy.
    import numpy.fft
    import numpy.random

    pids, pipes, payloads = [], [], []
    try:
        for w in range(count):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(row, tasks[w::count], write_end)
            finally:
                # Closed before the next fork: a later worker holding it
                # would keep this pipe from ever reaching EOF.
                os.close(write_end)
            pids.append(pid)
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        if len(payloads) < count:
            # Interrupted here: stop the workers, whose results nobody reads.
            # Only this path needs signal, which costs a run 0.1 MB of RSS.
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]

    rows = [None] * len(tasks)
    for w, (payload, status) in enumerate(zip(payloads, statuses)):
        if status != 0:
            raise RunError(
                f"replica worker {w} ended without a result, "
                f"exit status {os.waitstatus_to_exitcode(status)}"
            )
        share, trace = pickle.loads(payload)
        if trace:
            raise share from RuntimeError(f"raised in replica worker {w}:\n{trace}")
        rows[w::count] = share
    return np.array(rows, dtype=float)


def _run_share(row: Callable, share: list, write_end: int) -> NoReturn:
    """Body of a forked worker: ``row`` over its share of tasks, then
    ``(rows, "")``, or ``(exception, traceback text)``, pickled to
    ``write_end``. It leaves through ``os._exit``, status 0 once the
    whole result is written, so it never returns into the caller's stack
    or flushes the stdio buffers it inherited; an interrupt or exit ends
    it without a result."""
    status = 1
    try:
        try:
            result = ([row(*task) for task in share], "")
        except Exception as exc:
            import traceback

            result = (exc, "".join(traceback.format_exception(exc)))
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# KS distance


def ks_statistic(sample: np.ndarray, cdf: Callable) -> float:
    """Kolmogorov-Smirnov sup distance of a sample against a reference CDF."""
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise DomainError("need a nonempty sample")
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
    """Per-resolution summary of one regime check, with its verdict."""

    summary: tuple
    slope: float
    slope_se: float
    passed: bool


def _median_errors(
    cfg: ExperimentConfig, rows: np.ndarray, location_column: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-resolution deviation of the statistic from its limit proxy.

    Distributional regimes report the spread median |stat - center|, of
    order n**(-1/2), where the center is drift / sqrt(n): zero in the mixed
    regime, whose drift is 0. The degenerate regime reports the location error
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
            med_errs[i] = abs(_median(rows[sel, location_column]))
        else:
            err = rows[sel, 2] - rows[sel, 3] / math.sqrt(n)
            med_errs[i] = _median(np.abs(err))
    return np.array(cfg.n_grid, dtype=float), med_errs


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-D float array, NaN if any value is.

    np.median imports numpy.ma on first use, which nothing else in a run
    needs. The middle one or two values are averaged by np.mean, as
    np.median averages them, so the bits agree.
    """
    ordered = np.sort(values)
    if math.isnan(ordered[-1]):
        return math.nan
    mid = ordered.size // 2
    return float(np.mean(ordered[mid - 1 + ordered.size % 2 : mid + 1]))


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


def run_regime_check(cfg: ExperimentConfig, rows: np.ndarray) -> ExperimentResult:
    """Check of the limit theorem in the config's regime on its rows, as
    :func:`collect_rows` returns them.

    Distributional regimes (Hurst >= 1/4): per-resolution KS distance of the
    normalized statistic against N(0,1); passes when the largest resolution
    is below the threshold. Degenerate regime (Hurst < 1/4): per-resolution
    signed-median error against the drift proxy; passes when the largest
    resolution is within the tolerance and the medians are nonincreasing in
    resolution with at most one inversion. Each summary entry counts the
    replicas whose z is not finite (``nonfinite``); the distributional
    regimes leave them out of the KS test.
    """
    ns, med_errs = _median_errors(cfg, rows, 5)
    slope, slope_se = _log_slope(ns, med_errs)

    summary = []
    for i, n in enumerate(cfg.n_grid):
        z = rows[rows[:, 0] == n, 5]
        finite = np.isfinite(z)
        if cfg.regime == REGIME_DEGENERATE:
            ks = math.nan
            ok = bool(med_errs[i] <= cfg.median_tol)
        else:
            ks = ks_statistic(z[finite], ndtr) if finite.any() else math.nan
            ok = bool(ks < cfg.ks_threshold)
        entry = {"n": int(n), "median_err": float(med_errs[i]), "ks": ks, "pass": ok}
        entry["nonfinite"] = int(z.size - np.count_nonzero(finite))
        summary.append(entry)

    order = np.argsort(ns)
    passed = bool(summary[int(order[-1])]["pass"])
    if cfg.regime == REGIME_DEGENERATE and len(ns) >= 2:
        seq = med_errs[order]
        inversions = int(np.sum(np.diff(seq) > 0.0))
        passed = passed and inversions <= 1
    return ExperimentResult(
        summary=tuple(summary),
        slope=slope,
        slope_se=slope_se,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# rate fit


@dataclass(frozen=True)
class RateFitConfig:
    """A rate fit over an experiment's resolution grid, refused at
    construction when the grid has fewer than two resolutions or ``tol``
    (the largest accepted distance of the slope from its target) is not a
    number, is below 0 or is NaN."""

    experiment: ExperimentConfig
    tol: float = 0.1

    def __post_init__(self) -> None:
        check_number("tol", self.tol)
        if len(self.experiment.n_grid) < 2:
            raise DomainError("rate fits need at least two resolutions")
        if not self.tol >= 0.0:
            raise DomainError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class RateFitResult:
    """OLS fit of log median error against log resolution, with its verdict."""

    errors: np.ndarray
    slope: float
    slope_se: float
    target: float
    passed: bool


def rate_fit(rcfg: RateFitConfig, rows: np.ndarray) -> RateFitResult:
    """Fit the convergence-rate exponent of the statistic's error decay on
    the experiment's rows, as :func:`collect_rows` returns them.

    The error is measured against the regime's own limit (zero / scaled
    drift) and compared to the theoretical exponent: -1/2 in the
    distributional regimes, -2H in the degenerate one.
    """
    cfg = rcfg.experiment
    ns, errs = _median_errors(cfg, rows, 2)
    target = -rate_exponent(cfg.hurst)
    slope, slope_se = _log_slope(ns, errs)
    return RateFitResult(
        errors=errs,
        slope=slope,
        slope_se=slope_se,
        target=target,
        passed=bool(abs(slope - target) <= rcfg.tol),
    )


# ---------------------------------------------------------------------------
# two-way scaling fit


@dataclass(frozen=True)
class ScalingConfig:
    """A two-way scaling fit of windowed Hermite sums, refused at construction.

    Refused: a Hermite rank that is not an integer or is below 1, a start
    or window length that is not a number (as
    :func:`~roughpvar.fbm.check_integer` and
    :func:`~roughpvar.fbm.check_number` decide: a bool is neither), fewer
    than two resolutions or two window lengths, a window [start, start +
    delta) outside [0, 1] (NaN included) or holding no increment at some
    resolution (every sum there is 0), two window lengths that hold the same
    increments at every resolution (a repeated length among them: both give
    the same sums, so the fit has no window axis), and a degenerate fit (rank * H < 1/2)
    whose closed-form weight has an identically zero rank-th level: ``fbm``
    at rank >= 2, ``sq`` at rank >= 3, ``cube`` at rank >= 4. There the
    limit integral is 0 and neither exponent target is established.
    """

    experiment: ExperimentConfig
    rank: int = 1
    delta_grid: tuple[float, ...] = (0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5)
    start: float = 0.25

    # Largest accepted distance of each fitted exponent from its target.
    TOL: ClassVar[float] = 0.15

    def __post_init__(self) -> None:
        rank = check_integer("Hermite rank", self.rank, 1)
        check_number("start", self.start)
        for delta in self.delta_grid:
            check_number("delta_grid entry", delta)
        deltas = tuple(float(d) for d in self.delta_grid)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "delta_grid", deltas)
        if len(deltas) < 2 or len(self.experiment.n_grid) < 2:
            raise DomainError("need at least two resolutions and two window lengths")
        # written so that a NaN window fails it
        if not (all(d > 0.0 for d in deltas) and 0.0 <= self.start
                and self.start + max(deltas) <= 1.0):
            raise DomainError("windows must lie inside [0, 1]")
        n_grid = self.experiment.n_grid
        windows = [
            tuple(_window_cells(self.start, self.start + delta, n) for n in n_grid)
            for delta in deltas
        ]
        empty = [
            (n, delta) for i, n in enumerate(n_grid)
            for delta, cells in zip(deltas, windows) if not cells[i]
        ]
        if empty:
            raise DomainError(
                f"windows from start={self.start} hold no increment at (n, delta) = {empty}"
            )
        if len(set(windows)) != len(windows):
            raise DomainError("delta_grid entries must be distinct")
        process, hurst = self.experiment.process, self.experiment.hurst
        zero_from = first_zero_level(process)
        if zero_from is not None and rank >= zero_from and rank * hurst < 0.5:
            raise DomainError(
                f"no scaling target is established for process {process!r} at rank "
                f"{rank} and hurst {hurst}: its level {rank} is identically zero "
                "and rank * hurst < 1/2"
            )

    @property
    def target(self) -> float:
        """Resolution-axis exponent target.

        Below rank * H = 1/2 the windowed Hermite sum is degenerate:
        n**(rank H - 1) times it converges to (-1/2)**rank times the window
        integral of the weight's rank-th derivative level, so it grows like
        n**(1 - rank H). Otherwise the central limit square root takes over.
        """
        product = self.rank * self.experiment.hurst
        return 1.0 - product if product < 0.5 else 0.5

    @property
    def window_target(self) -> float:
        """Window-length exponent target: 1 in the degenerate regime, else 1/2.

        The degenerate limit is a time integral over the window, so it grows
        like delta. For the ``fbm`` weight at rank 1 the sum telescopes to
        n**H ((x_t**2 - x_s**2) - sum (delta x_k)**2) / 2, about
        -(delta / 2) n**(1 - H).
        """
        return 1.0 if self.rank * self.experiment.hurst < 0.5 else 0.5


@dataclass(frozen=True)
class ScalingFitResult:
    """Two-way OLS of log L1 norms over resolutions and window lengths; it
    passes when both exponents lie within ``ScalingConfig.TOL`` of the targets."""

    n_exponent: float
    delta_exponent: float
    n_se: float
    delta_se: float
    table: tuple
    target: float
    window_target: float
    passed: bool


def _scaling_row(scfg: ScalingConfig, cfg: ExperimentConfig, n: int, replica: int) -> list:
    cp = build_replica_path(cfg, n, replica)
    weight, f, start = cp.level(0), partial(hermite, scfg.rank), scfg.start
    return [
        abs(weighted_increment_sum(cp.x, f, weight, start, start + delta))
        for delta in scfg.delta_grid
    ]


def scaling_exponent_check(
    scfg: ScalingConfig, workers: int | None = None
) -> ScalingFitResult:
    """Fit joint (resolution, window) scaling exponents of windowed sums.

    For each resolution and each window [start, start + delta) the empirical
    L1 norm of the weighted Hermite sum of the config's rank is averaged
    over replicas; a two-way regression of its log on (log n, log delta)
    returns both exponents.
    """
    cfg = scfg.experiment
    # The windowed sums read the coarse driver only, so no fine grid is drawn.
    values = collect_rows(replace(cfg, fine_factor=1), workers, partial(_scaling_row, scfg))
    values = values.reshape(len(cfg.n_grid), cfg.replicas, len(scfg.delta_grid))
    return _scaling_fit(scfg, values.mean(axis=1))


def _scaling_fit(scfg: ScalingConfig, l1: np.ndarray) -> ScalingFitResult:
    """Regress log ``l1`` (one row per resolution, one column per window)
    on (log n, log delta) and judge the exponents against the targets."""
    rows, design, response = [], [], []
    for i, n in enumerate(scfg.experiment.n_grid):
        for j, delta in enumerate(scfg.delta_grid):
            rows.append((n, delta, float(l1[i, j])))
            design.append([math.log(n), math.log(delta), 1.0])
            response.append(math.log(l1[i, j]))
    design_arr = np.array(design)
    response_arr = np.array(response)
    coeffs, residuals, *_ = np.linalg.lstsq(design_arr, response_arr, rcond=None)
    # ScalingConfig's grids give at least 4 rows of rank 3, so dof >= 1.
    dof = len(response) - 3
    cov = float(residuals[0]) / dof * np.linalg.inv(design_arr.T @ design_arr)
    ses = np.sqrt(np.diag(cov))
    n_exponent, delta_exponent = float(coeffs[0]), float(coeffs[1])
    passed = (
        abs(n_exponent - scfg.target) <= scfg.TOL
        and abs(delta_exponent - scfg.window_target) <= scfg.TOL
    )
    return ScalingFitResult(
        n_exponent=n_exponent,
        delta_exponent=delta_exponent,
        n_se=float(ses[0]),
        delta_se=float(ses[1]),
        table=tuple(rows),
        target=scfg.target,
        window_target=scfg.window_target,
        passed=passed,
    )
