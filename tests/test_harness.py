"""Tests for the Monte Carlo experiment harness.

Covers:
1. The Kolmogorov-Smirnov sup distance against the scipy oracle and against
   hand-computed degenerate samples; the harness's reference CDF, the
   package's port of ``scipy.special.ndtr``, gives the same bits as that
   function and as ``scipy.stats.norm.cdf``.
2. Guaranteed-range validation of the power exponent per regime.
3. ExperimentConfig validation (a bool count refused), resolved defaults,
   and identifier format; a p below 2 refused where the drift enters, even
   when forced.
4. Replica path construction: determinism, stream separation, fine wiring.
5. Row collection: ordering, determinism, serial/parallel bit equality, a
   pool no larger than the task count, per-regime column arithmetic, replica
   independence, a row's independence of the grid that collected it, and
   the pinned bits of one row per regime and process, and of two custom-rde
   rows.
6. The summary/rate error metrics and the log-log slope fit on synthetic
   rows with hand-computed medians; the metrics' median against np.median
   bit for bit.
7. Regime checks in the mixed and degenerate regimes with calibrated seeds,
   the degenerate verdict on given rows, Python bool verdicts in every
   regime, plus the force bypass for unguaranteed exponents.
8. Rate fits: a calibrated Monte Carlo run plus exact deterministic decays
   from a drift-only differential equation.
9. Two-way scaling fits: the config's refusals and exponent targets, exact
    exponent recovery of the regression on an exact power-law table, and
    the coarse driver the windowed sums read.
"""

import concurrent.futures
import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import kstest, norm, uniform

from roughpvar import (
    ExperimentConfig,
    ExperimentResult,
    FbmSpec,
    RateFitConfig,
    ScalingConfig,
    UnsupportedRangeError,
    build_controlled_process,
    build_replica_path,
    collect_rows,
    hermite,
    ks_statistic,
    limit_cond_std,
    rate_fit,
    run_regime_check,
    sample_fbm,
    scaling_exponent_check,
    validate_p_range,
    weighted_increment_sum,
)
from roughpvar.harness import (
    WORKERS_ENV,
    _log_slope,
    _median,
    _median_errors,
    _replica_row,
    _scaling_fit,
    replica_rng,
)
from roughpvar.harness import ndtr as package_ndtr
from streams import philox

# ---------------------------------------------------------------------------
# shared helpers


# Drift-only differential equation dy = 1 dt + 0 dx: the solution y = t is
# deterministic, so every replica statistic is an exact power of the
# resolution and rate fits recover their slopes to machine precision.
_PURE_DRIFT = {"ell": 4, "y0": 0.0, "drift_coeffs": (1.0,), "field_coeffs": (0.0,)}


@lru_cache(maxsize=1)
def _mixed_result() -> ExperimentResult:
    """Calibrated mixed-regime check shared by the regime-check tests."""
    cfg = ExperimentConfig(
        hurst=0.5, p=2.0, n_grid=(256, 512), replicas=600, master_seed=11
    )
    return run_regime_check(cfg, collect_rows(cfg))


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance


class TestKsStatistic:
    """Sup distance between the empirical CDF and a reference CDF."""

    def test_matches_scipy_on_normal_sample(self):
        sample = philox(42).normal(size=2000)
        mine = ks_statistic(sample, norm.cdf)
        ref = kstest(sample, "norm").statistic
        print(f"normal sample: mine={mine:.12f} scipy={ref:.12f}")
        assert abs(mine - ref) < 1e-15, f"KS mismatch: {mine} vs scipy {ref}"

    def test_matches_scipy_on_uniform_sample(self):
        sample = philox(43).uniform(size=777)
        mine = ks_statistic(sample, uniform.cdf)
        ref = kstest(sample, "uniform").statistic
        assert abs(mine - ref) < 1e-15, f"KS mismatch: {mine} vs scipy {ref}"

    def test_constant_sample(self):
        # All observations at c: the empirical CDF jumps 0 -> 1 at c, so the
        # sup distance is max(F(c), 1 - F(c)).
        c = 1.0
        expected = max(norm.cdf(c), 1.0 - norm.cdf(c))
        value = ks_statistic(np.full(5, c), norm.cdf)
        assert value == pytest.approx(expected, rel=1e-14), (
            f"constant sample: {value} != {expected}"
        )

    def test_single_sample_at_median(self):
        # One observation at the median: D+ = 1 - 1/2, D- = 1/2 - 0.
        assert ks_statistic(np.array([0.0]), norm.cdf) == pytest.approx(0.5)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_statistic(np.array([]), norm.cdf)

    @settings(max_examples=200, deadline=None)
    @given(
        sample=st.lists(
            st.one_of(
                st.floats(-40.0, 40.0),  # where the CDF is not yet 0 or 1
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_ndtr_matches_norm_cdf_bit_for_bit(self, sample):
        # The harness takes its reference CDF from the package's port of
        # scipy's ndtr, the function that norm.cdf evaluates for the
        # standard normal; the KS distance must not change by a single bit.
        values = np.array(sample)
        assert np.array_equal(ndtr(values), norm.cdf(values))
        assert ks_statistic(values, ndtr) == ks_statistic(values, norm.cdf)
        ported = package_ndtr(values)
        assert ported.tobytes() == ndtr(values).tobytes()
        assert ported.tobytes() == norm.cdf(values).tobytes()
        assert ks_statistic(values, package_ndtr) == ks_statistic(values, norm.cdf)


# ---------------------------------------------------------------------------
# guaranteed exponent ranges


class TestValidatePRange:
    """Coverage of the power exponent by regime."""

    @pytest.mark.parametrize(
        "hurst, p",
        [
            (0.35, 2.0),
            (0.35, 3.0),
            (0.35, 3.0 - 5e-13),
            (0.35, 7.5),
            (0.25, 2.0),
            (0.25, 4.0),
            (0.25, 5.0),
            (0.25, 6.5),
            (0.15, 2.0),
            (0.15, 4.0),
            (0.15, 5.0),
        ],
    )
    def test_accepts_guaranteed_pairs(self, hurst, p):
        validate_p_range(hurst, p)

    @pytest.mark.parametrize(
        "hurst, p",
        [
            (0.35, 1.0),
            (0.35, 2.5),
            (0.25, 3.0),
            (0.25, 4.5),
            (0.15, 3.0),
            (0.15, 4.7),
        ],
    )
    def test_rejects_uncovered_pairs(self, hurst, p):
        with pytest.raises(UnsupportedRangeError):
            validate_p_range(hurst, p)

    def test_rejection_message_mentions_force(self):
        with pytest.raises(UnsupportedRangeError, match="force=True"):
            validate_p_range(0.35, 2.5)

    def test_error_is_a_value_error(self):
        assert issubclass(UnsupportedRangeError, ValueError)


# ---------------------------------------------------------------------------
# experiment configuration


class TestExperimentConfig:
    """Validation and resolved defaults of the experiment description."""

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"process": "ou"}, "unknown process"),
            ({"n_grid": ()}, "resolutions"),
            ({"n_grid": (1, 64)}, "resolutions"),
            ({"n_grid": (64, 64)}, "distinct"),
            ({"replicas": 0}, "replicas"),
            ({"master_seed": -1}, "master_seed"),
            ({"hurst": 0.8}, "covers hurst"),
            ({"p": 0.5}, "p must be >= 1"),
            ({"p": math.inf}, "finite"),
            ({"fine_factor": 0}, "fine_factor must be >= 1"),
            ({"process_params": {"ell": 1}}, "at least two levels"),
            ({"p": 2.5}, "force=True"),
            ({"ks_threshold": math.nan}, "ks_threshold"),
            ({"ks_threshold": 1.5}, "ks_threshold"),
            ({"median_tol": -1.0}, "median_tol"),
            ({"median_tol": math.nan}, "median_tol"),
            # t below one cell at every resolution: every statistic would be 0
            ({"t": 0.001, "n_grid": (256, 512)}, r"no whole grid cell at n=\[256, 512\]"),
            # NaN passes a plain p < 1 test, so force must not let it through
            ({"p": math.nan, "force": True}, "finite"),
            ({"process": "custom-rde", "process_params": {"y0": math.nan}}, "y0 must be finite"),
            ({"process": "custom-rde", "process_params": {"field_coeffs": (0.0, math.inf)}},
             "field_coeffs must be finite"),
            ({"process": "sq", "process_params": {"y0": 1.0}}, "'y0' only applies"),
            ({"process": "custom-rde", "process_params": {"field_coeffs": []}},
             "field_coeffs must be a nonempty 1-d sequence"),
            ({"process": "custom-rde", "process_params": {"drift_coeffs": ()}},
             "drift_coeffs must be a nonempty 1-d sequence"),
            # the id starts every CSV row, so it must hold no field or line break
            ({"experiment_id": "a,b"}, "experiment_id"),
            ({"experiment_id": 'a"b'}, "experiment_id"),
            ({"experiment_id": "a\rb"}, "experiment_id"),
            ({"experiment_id": "a\nb"}, "experiment_id"),
            ({"process_params": {"ell": 2.7}}, "ell must be an integer"),
            ({"process": "custom-rde", "process_params": {"y0": [1.0, 2.0]}},
             "y0 must be one number"),
            # entries that are not numbers raised TypeError from np.isfinite
            ({"process": "custom-rde", "process_params": {"field_coeffs": ["a"]}},
             "field_coeffs must hold numbers"),
            ({"process": "custom-rde", "process_params": {"field_coeffs": [None]}},
             "field_coeffs must hold numbers"),
            ({"process": "custom-rde", "process_params": {"field_coeffs": [1.0, "x"]}},
             "field_coeffs must hold numbers"),
            ({"process": "custom-rde", "process_params": {"drift_coeffs": ["a"]}},
             "drift_coeffs must hold numbers"),
            ({"process": "custom-rde", "process_params": {"drift_coeffs": [None]}},
             "drift_coeffs must hold numbers"),
            ({"process": "custom-rde", "process_params": {"drift_coeffs": [1.0, "x"]}},
             "drift_coeffs must hold numbers"),
            # sizes and seeds that are not integers: n = 64.5 ran at 64
            ({"n_grid": (64.5,)}, "n_grid entry must be an integer"),
            ({"n_grid": (64, 128.0)}, "n_grid entry must be an integer"),
            ({"replicas": 2.5}, "replicas must be an integer"),
            ({"master_seed": 1.5}, "master_seed must be an integer"),
            ({"fine_factor": 2.5}, "fine_factor must be an integer"),
            # an id that is not a string failed on `in`; a truthy force was force
            ({"experiment_id": 5}, "experiment_id must be a string"),
            ({"force": "no"}, "force must be a bool"),
            ({"force": 1}, "force must be a bool"),
            ({"force": None}, "force must be a bool"),
            ({"process": "custom-rde", "process_params": {"y1": 1.0}},
             r"unknown parameters for process 'custom-rde': \['y1'\]"),
            # bool is a numbers.Integral, but no count
            ({"replicas": True}, "replicas must be an integer, got True"),
            ({"master_seed": True}, "master_seed must be an integer, got True"),
            ({"fine_factor": True}, "fine_factor must be an integer, got True"),
            ({"n_grid": (64, False)}, "n_grid entry must be an integer, got False"),
            # and a bool passes every check of a real setting as 0 or 1
            ({"p": True}, "p must be a number, got True"),
            ({"t": True}, "t must be a number, got True"),
            ({"ks_threshold": True}, "ks_threshold must be a number, got True"),
            ({"ks_threshold": np.True_}, "ks_threshold must be a number, got np.True_"),
            ({"median_tol": True}, "median_tol must be a number, got True"),
            ({"process": "custom-rde", "process_params": {"y0": True}},
             "y0 must be a number, got True"),
            ({"process": "custom-rde", "process_params": {"field_coeffs": (False, True)}},
             "field_coeffs entry must be a number, got False"),
            ({"process": "custom-rde", "process_params": {"drift_coeffs": (0.5, True)}},
             "drift_coeffs entry must be a number, got True"),
            # a string or None where a number is meant raised TypeError
            ({"p": "2"}, "p must be a number, got '2'"),
            ({"hurst": "0.3"}, "hurst must be a number, got '0.3'"),
            ({"t": "1"}, "t must be a number, got '1'"),
            ({"median_tol": "0"}, "median_tol must be a number, got '0'"),
            ({"ks_threshold": "0.1"}, "ks_threshold must be a number, got '0.1'"),
            ({"p": None}, "p must be a number, got None"),
        ],
    )
    def test_validation_errors(self, overrides, match):
        kwargs = {"hurst": 0.35, "p": 2.0}
        kwargs.update(overrides)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("hurst", [0.25, 0.15])
    def test_p_below_two_refused_where_the_drift_enters(self, hurst, force):
        # the drift reads phi'' of |y|**p, unbounded at 0 for p < 2
        with pytest.raises(ValueError, match="even with force"):
            ExperimentConfig(hurst=hurst, p=1.5, process="sq", force=force)
        ExperimentConfig(hurst=0.35, p=1.5, process="sq", force=True)

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(hurst=0.35, p=2.0, n_grid=(np.int64(64),), replicas=np.int32(2),
                               master_seed=np.uint8(1), fine_factor=np.int64(2))
        assert cfg.n_grid == (64,) and type(cfg.n_grid[0]) is int

    def test_numpy_bool_force_accepted(self):
        cfg = ExperimentConfig(hurst=0.35, p=2.5, force=np.bool_(True))
        assert cfg.resolved_id().endswith("-unguaranteed")

    def test_config_is_immutable(self):
        cfg = ExperimentConfig(hurst=0.35, p=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.p = 3.0

    @pytest.mark.parametrize(
        "process, given, resolved",
        [
            ("sq", {"ell": 3}, {"ell": 3}),
            ("fbm", {}, {"ell": 6}),
            ("custom-rde", {"ell": 3, "y0": 2.0},
             {"ell": 3, "y0": 2.0, "drift_coeffs": None, "field_coeffs": (0.0, 1.0)}),
            ("custom-rde", {"ell": 3, "drift_coeffs": [0.5], "field_coeffs": [0.0, 1.0]},
             {"ell": 3, "y0": 1.0, "drift_coeffs": (0.5,), "field_coeffs": (0.0, 1.0)}),
        ],
    )
    def test_process_params_are_the_configs_own(self, process, given, resolved):
        # The config keeps the resolver's result in a dict of its own, with
        # its coefficient lists as tuples, so a later change to the caller's
        # dict or lists changes neither it nor its rows.
        cfg = ExperimentConfig(hurst=0.35, p=2.0, process=process, n_grid=(16,), replicas=2,
                               fine_factor=2, process_params=given)
        assert cfg.process_params == resolved
        rows = collect_rows(cfg)
        for value in given.values():
            if isinstance(value, list):
                value[-1] = math.nan
        given["ell"] = 1
        given["y1"] = 0.0
        assert cfg.process_params == resolved
        assert collect_rows(cfg).tobytes() == rows.tobytes()

    @pytest.mark.parametrize(
        "hurst, regime",
        [(0.35, "mixed-gaussian"), (0.25, "critical"), (0.15, "degenerate")],
    )
    def test_regime_property(self, hurst, regime):
        assert ExperimentConfig(hurst=hurst, p=2.0).regime == regime

    def test_resolved_fine_factor(self):
        assert ExperimentConfig(hurst=0.35, p=2.0).fine_factor == 1
        assert ExperimentConfig(hurst=0.35, p=2.0, process="sq").fine_factor == 16
        assert ExperimentConfig(hurst=0.35, p=2.0, process="sq", fine_factor=4).fine_factor == 4

    def test_resolved_ks_threshold(self):
        assert ExperimentConfig(hurst=0.35, p=2.0).ks_threshold == 0.05
        assert ExperimentConfig(hurst=0.25, p=2.0).ks_threshold == 0.07
        assert ExperimentConfig(hurst=0.25, p=2.0, ks_threshold=0.03).ks_threshold == 0.03

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            ({"hurst": 0.35, "p": 2.0}, "fbm-p2-h0_35-mixed-gaussian"),
            ({"hurst": 0.25, "p": 4.0, "process": "sq"}, "sq-p4-h0_25-critical"),
            ({"hurst": 0.15, "p": 5.0, "process": "cube"}, "cube-p5-h0_15-degenerate"),
            (
                {"hurst": 0.35, "p": 2.5, "force": True},
                "fbm-p2_5-h0_35-mixed-gaussian-unguaranteed",
            ),
        ],
    )
    def test_resolved_id_format(self, kwargs, expected):
        cfg = ExperimentConfig(**kwargs)
        assert cfg.resolved_id() == expected, (
            f"resolved id {cfg.resolved_id()!r} != {expected!r}"
        )

    def test_explicit_experiment_id_wins(self):
        cfg = ExperimentConfig(hurst=0.35, p=2.0, experiment_id="pilot-7")
        assert cfg.resolved_id() == "pilot-7"


# ---------------------------------------------------------------------------
# replica path construction


class TestBuildReplicaPath:
    """Deterministic per-replica construction of the controlled process."""

    def test_same_replica_is_reproducible(self):
        cfg = ExperimentConfig(hurst=0.35, p=3.0, n_grid=(64,), replicas=2)
        a = build_replica_path(cfg, 64, 0)
        b = build_replica_path(cfg, 64, 0)
        assert np.array_equal(a.level(0), b.level(0))
        assert np.array_equal(a.x.values, b.x.values)

    def test_distinct_replicas_differ(self):
        cfg = ExperimentConfig(hurst=0.35, p=3.0, n_grid=(64,), replicas=2)
        a = build_replica_path(cfg, 64, 0)
        b = build_replica_path(cfg, 64, 1)
        assert not np.array_equal(a.x.values, b.x.values)

    def test_distinct_master_seeds_differ(self):
        cfg0 = ExperimentConfig(hurst=0.35, p=3.0, n_grid=(64,), master_seed=0)
        cfg1 = ExperimentConfig(hurst=0.35, p=3.0, n_grid=(64,), master_seed=1)
        a = build_replica_path(cfg0, 64, 0)
        b = build_replica_path(cfg1, 64, 0)
        assert not np.array_equal(a.x.values, b.x.values)

    def test_fine_resolution_wiring(self):
        cfg = ExperimentConfig(hurst=0.35, p=3.0, process="sq", n_grid=(64,))
        cp = build_replica_path(cfg, 64, 0)
        assert cp.n == 64, f"coarse resolution {cp.n} != 64"
        assert cp.quadrature_path().n == 64 * 16, "default fine factor should be 16"
        cfg2 = ExperimentConfig(
            hurst=0.35, p=3.0, process="sq", n_grid=(64,), fine_factor=2
        )
        assert build_replica_path(cfg2, 64, 0).quadrature_path().n == 128


# ---------------------------------------------------------------------------
# row collection


class TestCollectRows:
    """Replica rows: layout, determinism, parallel equality, arithmetic."""

    def test_shape_and_ordering(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64, 128), replicas=5)
        rows = collect_rows(cfg)
        assert rows.shape == (10, 6), f"unexpected shape {rows.shape}"
        assert np.array_equal(rows[:, 0], np.repeat([64.0, 128.0], 5))
        assert np.array_equal(rows[:, 1], np.tile(np.arange(5.0), 2))

    def test_repeat_run_is_bit_identical(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=4, master_seed=5)
        assert np.array_equal(collect_rows(cfg), collect_rows(cfg))

    def test_parallel_matches_serial_exactly(self):
        cfg = ExperimentConfig(hurst=0.35, p=3.0, n_grid=(64, 128), replicas=6, master_seed=7)
        serial = collect_rows(cfg, workers=1)
        parallel = collect_rows(cfg, workers=2)
        assert np.array_equal(serial, parallel), "worker count changed the rows"

    def test_worker_count_from_environment(self, monkeypatch):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=4, master_seed=5)
        serial = collect_rows(cfg, workers=1)
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert np.array_equal(serial, collect_rows(cfg))

    def test_pool_size_is_capped_at_the_task_count(self, monkeypatch):
        # A pool forks all its workers up front, so it must ask for no more
        # than there are tasks. The stand-in records the size it was asked
        # for and maps serially, so no process starts.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        for n_grid, replicas, workers, size in (((64,), 3, 64, 3), ((64, 128), 80, 2, 2)):
            cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=n_grid, replicas=replicas)
            rows = collect_rows(cfg, workers=workers)
            assert sizes.pop() == size
            assert np.array_equal(rows, collect_rows(cfg, workers=1))
        # the scaling check draws through the same pool: 2 resolutions x 1 replica
        cfg = ExperimentConfig(hurst=0.4, p=2.0, n_grid=(32, 64), replicas=1)
        scfg = ScalingConfig(cfg, 1, (0.25, 0.5), 0.25)
        result = scaling_exponent_check(scfg, workers=64)
        assert sizes.pop() == 2
        assert repr(result) == repr(scaling_exponent_check(scfg, workers=1))
        assert sizes == []

    @pytest.mark.parametrize("hurst, process", [(0.4, "fbm"), (0.25, "sq"), (0.15, "sq")])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_depends_only_on_config_resolution_and_replica(self, hurst, process, workers):
        # The checks may share one table: the rows of (n,) with R replicas
        # are the (n, replica < R) slice of a larger grid, bit for bit.
        small = ExperimentConfig(
            hurst=hurst, p=2.0, process=process, n_grid=(64,), replicas=3, master_seed=7
        )
        large = dataclasses.replace(small, n_grid=(32, 64, 128), replicas=5)
        rows = collect_rows(large, workers=workers)
        keep = (rows[:, 0] == 64) & (rows[:, 1] < 3)
        assert rows[keep].tobytes() == collect_rows(small, workers=1).tobytes()

    def test_invalid_worker_count_rejected(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=2)
        with pytest.raises(ValueError, match="worker count"):
            collect_rows(cfg, workers=0)

    @pytest.mark.parametrize("workers", [2.5, 1.5, True, np.True_])
    def test_worker_count_must_be_an_integer(self, workers):
        # A float raised TypeError from the pool; True ran as 1 worker.
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=4)
        with pytest.raises(ValueError, match=f"worker count must be an integer, got {workers!r}"):
            collect_rows(cfg, workers=workers)

    def test_mixed_regime_row_arithmetic(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=4, master_seed=3)
        for row in collect_rows(cfg):
            n, replica, stat, drift, cond, z = row
            assert drift == 0.0
            assert cond > 0.0
            cp = build_replica_path(cfg, int(n), int(replica))
            assert cond == limit_cond_std(cp, 2.0), "cond_std is the path's limit_cond_std"
            expected = math.sqrt(n) * stat / cond
            assert z == pytest.approx(expected, rel=1e-12), (
                f"mixed z {z} != sqrt(n) stat / cond = {expected}"
            )

    def test_critical_regime_row_arithmetic(self):
        cfg = ExperimentConfig(
            hurst=0.25, p=2.0, process="sq", n_grid=(64,), replicas=3,
            master_seed=4, fine_factor=4,
        )
        rows = collect_rows(cfg)
        for row in rows:
            n, _, stat, drift, cond, z = row
            assert cond > 0.0 and drift != 0.0
            assert drift == pytest.approx(-0.25, rel=1e-12), "sq drift at p = 2 is -t/4"
            assert z * cond + drift == pytest.approx(math.sqrt(n) * stat, rel=1e-12)
        # The spread metric centers the statistic at drift / sqrt(n).
        center = rows[:, 3] / math.sqrt(64)
        _, errs = _median_errors(cfg, rows, 5)
        assert errs[0] == float(np.median(np.abs(rows[:, 2] - center)))

    def test_degenerate_regime_row_arithmetic(self):
        cfg = ExperimentConfig(
            hurst=0.15, p=2.0, process="sq", n_grid=(64,), replicas=3,
            master_seed=4, fine_factor=4,
        )
        for row in collect_rows(cfg):
            n, _, stat, drift, cond, z = row
            assert math.isnan(cond), "degenerate rows have no conditional scale"
            assert drift == pytest.approx(-0.25, rel=1e-12), "sq drift at p = 2 is -t/4"
            assert z == pytest.approx(n ** 0.3 * stat - drift, rel=1e-12)

    # Replica 0 at n = 64 and master seed 0, one row per regime and process;
    # each value's float.hex(). Only a change that is meant to move the
    # numbers may change these.
    @pytest.mark.parametrize(
        "process, hurst, p, fine_factor, columns",
        [
            ("fbm", 0.4, 2.0, None,
             ["0x1.a083ccd571868p-3", "0x0.0p+0", "0x1.70fef4a7d0bd6p+0",
              "0x1.20f7a901960b1p+0"]),
            ("sq", 0.25, 2.0, None,
             ["0x1.8a9d3351d3340p-5", "-0x1.0000000000000p-2", "0x1.11e870c307af8p+0",
              "0x1.3009e2b931a00p-1"]),
            ("sq", 0.25, 4.0, None,
             ["-0x1.4b7ff4e11a1c0p-5", "-0x1.2ca10c6a6ad8dp+1", "0x1.400e15ba4e109p+3",
              "0x1.9ea2a2d20c934p-3"]),
            ("cube", 0.25, 2.0, None,
             ["-0x1.c951d45abeea8p-7", "-0x1.0b39d225b44eep-3", "0x1.782b117fc23a3p-2",
              "0x1.a3ef8eb0ec3a7p-5"]),
            ("sq", 0.15, 2.0, None,
             ["-0x1.8239859b723ccp-4", "-0x1.0000000000000p-2", "nan",
              "-0x1.40e999cad9d8cp-4"]),
            ("exp-rde", 0.15, 2.0, 4,
             ["-0x1.4eb1b3a9c5c18p+1", "-0x1.d488f8b3c4295p+0", "nan",
              "-0x1.d19a43c1c131fp+2"]),
        ],
    )
    def test_pinned_row_bits(self, process, hurst, p, fine_factor, columns):
        cfg = ExperimentConfig(
            hurst=hurst, p=p, process=process, n_grid=(64,), replicas=1,
            fine_factor=fine_factor,
        )
        row = _replica_row(cfg, 64, 0)
        want = ["0x1.0000000000000p+6", "0x0.0p+0", *columns]  # n, replica
        assert [value.hex() for value in row] == want

    # The same pins for the RDE solve, at ell 6 from y0 = 1: dy = y dx in the
    # critical regime and dy = (0.5 + y) dx in the mixed one.
    @pytest.mark.parametrize(
        "hurst, field, columns",
        [
            (0.25, (0.0, 1.0),
             ["-0x1.2789f13c4db20p+0", "-0x1.9a524cdbeabd4p+0", "0x1.8feb841cfb181p+3",
              "-0x1.38b36957e921bp-1"]),
            (0.35, (0.5, 1.0),
             ["-0x1.887788bdba200p-1", "0x0.0p+0", "0x1.5412db7fd23aap+4",
              "-0x1.2770c4e410a29p-2"]),
        ],
    )
    def test_pinned_custom_rde_row_bits(self, hurst, field, columns):
        cfg = ExperimentConfig(
            hurst=hurst, p=2.0, process="custom-rde", n_grid=(64,), replicas=1,
            fine_factor=4, process_params={"ell": 6, "field_coeffs": field},
        )
        row = _replica_row(cfg, 64, 0)
        want = ["0x1.0000000000000p+6", "0x0.0p+0", *columns]  # n, replica
        assert [value.hex() for value in row] == want

    def test_replica_statistics_uncorrelated(self):
        # Lag-1 sample autocorrelation of an iid sequence of length M has
        # standard error ~ 1/sqrt(M); three of those is the usual gate.
        replicas = 200
        cfg = ExperimentConfig(
            hurst=0.35, p=3.0, n_grid=(256,), replicas=replicas, master_seed=7
        )
        stats = collect_rows(cfg)[:, 2]
        r1 = float(np.corrcoef(stats[:-1], stats[1:])[0, 1])
        bound = 3.0 / math.sqrt(replicas)
        print(f"lag-1 autocorrelation {r1:+.4f}, bound {bound:.4f}")
        assert abs(r1) < bound, f"replica streams look dependent: r1={r1}"


# ---------------------------------------------------------------------------
# error metrics on synthetic rows


def _synthetic_rows(entries):
    """Rows with only the columns the error metrics read filled in; the
    distributional center is given through drift = center * sqrt(n)."""
    rows = np.zeros((len(entries), 6))
    for i, (n, stat, z, center) in enumerate(entries):
        rows[i, 0] = n
        rows[i, 1] = i
        rows[i, 2] = stat
        rows[i, 3] = center * math.sqrt(n)
        rows[i, 5] = z
    return rows


class TestErrorMetrics:
    """Hand-checked summary/rate error metrics and the log-log slope."""

    def test_distributional_metric_is_median_spread(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(4, 8), replicas=3)
        rows = _synthetic_rows(
            [
                (4, 1.0, 0.0, 0.5),
                (4, 2.0, 0.0, 0.5),
                (4, 4.0, 0.0, 0.5),
                (8, 0.1, 0.0, 0.2),
                (8, 0.2, 0.0, 0.2),
                (8, 0.3, 0.0, 0.2),
            ]
        )
        # |stat - center|: {0.5, 1.5, 3.5} -> 1.5 and {0.1, 0.0, 0.1} -> 0.1,
        # whichever location column the summary (5) or the rate fit (2) passes.
        for column in (5, 2):
            ns, errs = _median_errors(cfg, rows, column)
            assert np.array_equal(ns, [4.0, 8.0])
            assert errs == pytest.approx([1.5, 0.1], abs=1e-15), f"column {column}"

    def test_degenerate_metrics_split(self):
        cfg = ExperimentConfig(
            hurst=0.15, p=2.0, process="sq", n_grid=(4, 8), replicas=3
        )
        rows = _synthetic_rows(
            [
                (4, 0.5, 0.3, 0.0),
                (4, -0.2, -0.5, 0.0),
                (4, 0.1, 0.2, 0.0),
                (8, 0.04, 0.1, 0.0),
                (8, 0.02, 0.05, 0.0),
                (8, -0.06, -0.3, 0.0),
            ]
        )
        # Summary reads |median(z)| = {0.2, 0.05}; the rate metric reads the
        # uncentered |median(stat)| = {0.1, 0.02}.
        _, summary = _median_errors(cfg, rows, 5)
        _, rate = _median_errors(cfg, rows, 2)
        assert summary == pytest.approx([0.2, 0.05], abs=1e-15)
        assert rate == pytest.approx([0.1, 0.02], abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True)),
            min_size=1,
            max_size=60,
        )
    )
    def test_median_is_np_median_bit_for_bit(self, values):
        # the error metrics' median, NaN payloads aside
        values = np.array(values)
        # the midpoint of two values near the float maximum overflows in both
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.median(values))
            got = _median(values)
        assert (math.isnan(got) and math.isnan(expected)) or got.hex() == expected.hex()

    def test_log_slope_recovers_exact_power_law(self):
        ns = np.array([4.0, 8.0, 16.0, 32.0])
        slope, se = _log_slope(ns, 1.0 / ns)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert se < 1e-8, f"exact power law should have no residual, se={se}"

    def test_log_slope_masks_zero_errors(self):
        slope, se = _log_slope(np.array([4.0, 8.0, 16.0]), np.array([0.5, 0.0, 0.125]))
        # Only (4, 0.5) and (16, 0.125) survive: slope log(1/4)/log(4) = -1.
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert math.isnan(se), "two points leave no residual degrees of freedom"

    def test_log_slope_needs_two_positive_errors(self):
        slope, se = _log_slope(np.array([4.0, 8.0]), np.array([0.5, 0.0]))
        assert math.isnan(slope) and math.isnan(se)


# ---------------------------------------------------------------------------
# regime checks


class TestRunRegimeCheck:
    """End-to-end Monte Carlo regime checks at calibrated seeds."""

    def test_mixed_regime_passes(self):
        result = _mixed_result()
        for entry in result.summary:
            print(
                f"n={entry['n']}: ks={entry['ks']:.5f} "
                f"median_err={entry['median_err']:.6f} pass={entry['pass']}"
            )
        assert result.passed, "calibrated mixed-regime check should pass"
        for entry in result.summary:
            assert entry["pass"], f"n={entry['n']} exceeded the KS threshold"
            assert entry["ks"] < 0.05
        # Median spread decays roughly like n^(-1/2).
        assert abs(result.slope + 0.5) < 0.2, f"slope {result.slope} far from -1/2"

    def test_repeat_run_is_bit_identical(self):
        cfg = ExperimentConfig(
            hurst=0.5, p=2.0, n_grid=(256, 512), replicas=600, master_seed=11
        )
        # repr, so that the NaN slope_se of a two-point fit compares equal
        assert repr(run_regime_check(cfg, collect_rows(cfg))) == repr(_mixed_result())

    def test_degenerate_regime_summary(self):
        cfg = ExperimentConfig(
            hurst=0.15, p=2.0, process="sq", n_grid=(128, 256), replicas=40,
            master_seed=9, fine_factor=4,
        )
        rows = collect_rows(cfg)
        result = run_regime_check(cfg, rows)
        meds = []
        for entry in result.summary:
            sel = rows[:, 0] == entry["n"]
            recomputed = abs(float(np.median(rows[sel, 5])))
            assert math.isnan(entry["ks"]), "degenerate regime reports no KS"
            assert entry["median_err"] == recomputed, (
                "summary metric should be |median(z)|"
            )
            meds.append(entry["median_err"])
        print(f"degenerate medians: {meds}")
        assert result.passed, f"calibrated degenerate check should pass: {meds}"
        assert meds[1] < meds[0], "median error should shrink with resolution"

    @pytest.mark.parametrize(
        "medians, passed",
        [
            ([0.3, -0.1, 0.2, -0.05], True),  # one inversion, last within 0.08
            ([0.1, 0.2, 0.05, 0.07], False),  # two inversions
            ([0.3, 0.2, 0.1, 0.09], False),  # last past 0.08
        ],
    )
    def test_degenerate_verdict_on_given_rows(self, medians, passed):
        # The check summarizes the rows it is given: one replica per
        # resolution makes each |median z| the row's |z|.
        cfg = ExperimentConfig(
            hurst=0.15, p=2.0, process="sq", n_grid=(4, 8, 16, 32), replicas=1
        )
        rows = _synthetic_rows([(n, 0.0, z, 0.0) for n, z in zip(cfg.n_grid, medians)])
        result = run_regime_check(cfg, rows)
        assert [entry["median_err"] for entry in result.summary] == np.abs(medians).tolist()
        assert result.passed is passed

    @pytest.mark.parametrize("hurst", [0.4, 0.25, 0.15])
    def test_verdicts_are_bools(self, hurst):
        # a caller that tests a verdict with `is True` must get the same
        # answer in every regime, so each verdict is a Python bool
        cfg = ExperimentConfig(hurst=hurst, p=2.0, process="sq", n_grid=(4, 8), replicas=2)
        rows = _synthetic_rows([(n, 0.01, z, 0.0) for n in cfg.n_grid for z in (0.01, -0.02)])
        result = run_regime_check(cfg, rows)
        assert [type(entry["pass"]) for entry in result.summary] == [bool, bool]
        assert type(result.passed) is bool

    def test_uncovered_exponent_rejected(self):
        # Refused when the config is built, before any replica is drawn.
        with pytest.raises(UnsupportedRangeError):
            ExperimentConfig(hurst=0.35, p=2.5, n_grid=(64,), replicas=5)

    def test_force_runs_and_marks_unguaranteed(self):
        cfg = ExperimentConfig(
            hurst=0.35, p=2.5, n_grid=(64,), replicas=10, master_seed=1, force=True
        )
        result = run_regime_check(cfg, collect_rows(cfg))
        assert cfg.resolved_id().endswith("-unguaranteed")
        assert len(result.summary) == 1
        assert isinstance(result.passed, bool)


# ---------------------------------------------------------------------------
# rate fits


class TestRateFit:
    """Convergence-rate fits: Monte Carlo and exact deterministic decays."""

    def test_mixed_regime_rate(self):
        cfg = ExperimentConfig(
            hurst=0.5, p=2.0, n_grid=(256, 512, 1024), replicas=200, master_seed=5
        )
        result = rate_fit(RateFitConfig(cfg), collect_rows(cfg))
        print(
            f"mixed rate: slope={result.slope:.4f} (se {result.slope_se:.4f}), "
            f"target {result.target}"
        )
        assert result.target == pytest.approx(-0.5)
        assert result.passed, f"slope {result.slope} misses -1/2 by more than 0.1"
        assert abs(result.slope + 0.5) <= 0.1

    def test_mixed_fit_is_exact_on_drift_only_equation(self):
        # y = t exactly, so |delta y|^2 sums to 1/n and the statistic equals
        # n^(2H-2) = n^(-1) at hurst 1/2 with a zero compensator. The mixed
        # regime centers at 0, so the errors are exactly 1/n; the slope -1
        # misses the theorem rate -1/2 and the fit fails.
        cfg = ExperimentConfig(
            hurst=0.5, p=2.0, process="custom-rde", n_grid=(64, 128, 256),
            replicas=3, master_seed=0, fine_factor=1,
            process_params=dict(_PURE_DRIFT),
        )
        result = rate_fit(RateFitConfig(cfg), collect_rows(cfg, workers=1))
        assert result.target == -0.5
        assert not result.passed
        expected = [1.0 / n for n in (64, 128, 256)]
        assert result.errors == pytest.approx(expected, rel=1e-12), (
            f"errors {result.errors} != {expected}"
        )
        assert result.slope == pytest.approx(-1.0, abs=1e-9)
        assert result.slope_se < 1e-10

    def test_degenerate_fit_uses_uncentered_median(self):
        # Same deterministic statistic at hurst 0.2: n^(2H-2) = n^(-1.6)
        # decays much faster than the theorem rate n^(-0.4), so the target
        # comparison must fail while the fitted slope stays exact.
        hurst = 0.2
        cfg = ExperimentConfig(
            hurst=hurst, p=2.0, process="custom-rde", n_grid=(64, 128, 256),
            replicas=3, master_seed=0, fine_factor=1,
            process_params=dict(_PURE_DRIFT),
        )
        result = rate_fit(RateFitConfig(cfg), collect_rows(cfg))
        expected = [n ** (2.0 * hurst - 2.0) for n in (64, 128, 256)]
        assert result.errors == pytest.approx(expected, rel=1e-10)
        assert result.slope == pytest.approx(2.0 * hurst - 2.0, abs=1e-9)
        assert result.target == pytest.approx(-2.0 * hurst)
        assert not result.passed

    def test_needs_two_resolutions(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=5)
        with pytest.raises(ValueError, match="two resolutions"):
            RateFitConfig(cfg)

    @pytest.mark.parametrize("tol", [math.nan, -0.1, True, "x", None])
    def test_tol_must_be_nonnegative(self, tol):
        # True passed as 1, wider than any target distance; a string or None
        # raised TypeError
        match = "tol must be >= 0" if isinstance(tol, float) else f"tol must be a number, got {tol!r}"
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64, 128), replicas=5)
        with pytest.raises(ValueError, match=match):
            RateFitConfig(cfg, tol)

    def test_uncovered_exponent_rejected(self):
        # Refused when the config is built, before any replica is drawn.
        with pytest.raises(UnsupportedRangeError):
            RateFitConfig(ExperimentConfig(hurst=0.35, p=2.5, n_grid=(64, 128), replicas=5))


# ---------------------------------------------------------------------------
# two-way scaling fits


class TestScalingConfig:
    """Refusals and exponent targets of a two-way scaling fit."""

    @pytest.mark.parametrize(
        "hurst, rank, expected",
        [
            (0.2, 1, 0.8),
            (0.2, 2, 0.6),
            (0.25, 2, 0.5),
            (0.4, 3, 0.5),
            (0.5, 2, 0.5),
        ],
    )
    def test_scaling_target(self, hurst, rank, expected):
        # The cube weight has no zero level below rank 4, so none is refused.
        # Below the boundary the L1 norm grows like n^(1 - rank H) along the
        # resolution axis, above it the central limit square root takes over.
        scfg = ScalingConfig(ExperimentConfig(hurst=hurst, p=2.0, process="cube"), rank,
                             (0.125, 0.25), 0.25)
        assert scfg.target == pytest.approx(expected)

    @pytest.mark.parametrize(
        "hurst, rank, expected",
        [
            (0.2, 1, 1.0),
            (0.25, 2, 0.5),
            (0.4, 3, 0.5),
        ],
    )
    def test_window_target(self, hurst, rank, expected):
        # Below the boundary the limit is a time integral over the window, so
        # the L1 norm grows like delta; above it like the square root of delta.
        scfg = ScalingConfig(ExperimentConfig(hurst=hurst, p=2.0, process="cube"), rank,
                             (0.125, 0.25), 0.25)
        assert scfg.window_target == pytest.approx(expected)

    def test_window_without_an_increment_is_refused(self):
        # [0.25, 0.2578125) holds no increment at n = 64 and one at n = 128:
        # every windowed sum at n = 64 would be 0, and its log -inf
        cfg = ExperimentConfig(hurst=0.4, p=2.0, n_grid=(64, 128), replicas=2)
        with pytest.raises(ValueError, match=r"\(n, delta\) = \[\(64, 0.0078125\)\]"):
            ScalingConfig(cfg, 1, (0.0078125, 0.25), 0.25)
        ScalingConfig(dataclasses.replace(cfg, n_grid=(128, 256)), 1, (0.0078125, 0.25), 0.25)


def _power_law_fit(hurst=0.5, rank=1):
    """The fit of an exact table L1 = 2 n delta, what a weight frozen at 2
    gives with the unit functional: both exponents are exactly 1."""
    cfg = ExperimentConfig(hurst=hurst, p=2.0, n_grid=(64, 128), replicas=2)
    scfg = ScalingConfig(cfg, rank, (0.125, 0.25), 0.25)
    l1 = 2.0 * np.outer(cfg.n_grid, scfg.delta_grid)
    return _scaling_fit(scfg, l1)


class TestScalingExponentCheck:
    """Joint (resolution, window) scaling of weighted functional sums."""

    def test_exact_exponents_on_constant_weight(self):
        result = _power_law_fit()
        assert result.n_exponent == pytest.approx(1.0, abs=1e-9)
        assert result.delta_exponent == pytest.approx(1.0, abs=1e-9)
        expected = {(64, 0.125): 16.0, (64, 0.25): 32.0, (128, 0.125): 32.0, (128, 0.25): 64.0}
        for n, delta, l1 in result.table:
            assert l1 == expected[(n, delta)], f"l1({n}, {delta}) = {l1}"
        # targets (1/2, 1/2) at rank * H = 1/2: exponents (1, 1) miss both
        assert (result.target, result.window_target) == (0.5, 0.5)
        assert not result.passed

    def test_verdict_within_tolerance(self):
        # rank 1 at H = 0.3 targets (0.7, 1): 1 is within 0.15 of the window
        # target only; rank 1 at H = 0.05 targets (0.95, 1), within both.
        assert not _power_law_fit(hurst=0.3, rank=1).passed
        assert _power_law_fit(hurst=0.05, rank=1).passed

    def test_hermite_rank_smoke_is_deterministic(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64, 128), replicas=30, master_seed=3)
        scfg = ScalingConfig(cfg, 2, (0.125, 0.25), 0.25)
        first = scaling_exponent_check(scfg)
        second = scaling_exponent_check(scfg)
        assert first.table == second.table
        assert first.n_exponent == second.n_exponent
        print(f"rank-2 smoke exponents: n {first.n_exponent:.3f}, delta {first.delta_exponent:.3f}")
        assert np.isfinite(first.n_exponent) and np.isfinite(first.delta_exponent)

    def test_sq_rows_use_the_coarse_driver(self):
        # The windowed sums read the coarse driver only: an sq config, whose
        # default fine factor is 16, draws the same paths as at factor 1.
        cfg = ExperimentConfig(
            hurst=0.4, p=2.0, process="sq", n_grid=(32, 64), replicas=3, master_seed=5
        )
        deltas = (0.25, 0.5)
        result = scaling_exponent_check(ScalingConfig(cfg, 3, deltas, 0.25), workers=1)
        values = np.empty((2, 3, 2))
        for i, n in enumerate(cfg.n_grid):
            for r in range(cfg.replicas):
                x = sample_fbm(FbmSpec(hurst=0.4, n=n), replica_rng(5, n, r))
                weight = build_controlled_process("sq", x, 1).level(0)
                for j, delta in enumerate(deltas):
                    total = weighted_increment_sum(
                        x, lambda u: hermite(3, u), weight, 0.25, 0.25 + delta
                    )
                    values[i, r, j] = abs(total)
        l1 = values.mean(axis=1)
        expected = [(n, d, float(l1[i, j])) for i, n in enumerate(cfg.n_grid)
                    for j, d in enumerate(deltas)]
        assert result.table == tuple(expected)

    def test_worker_count_keeps_every_bit(self):
        # Rows are drawn per (n, replica) and averaged in collect_rows order,
        # so a pool gives the serial exponents, standard errors and table.
        cfg = ExperimentConfig(
            hurst=0.4, p=2.0, process="sq", n_grid=(32, 64), replicas=6, master_seed=5
        )
        scfg = ScalingConfig(cfg, 3, (0.25, 0.5), 0.25)
        serial, pooled = (scaling_exponent_check(scfg, workers=w) for w in (1, 2))
        assert repr(pooled) == repr(serial)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"delta_grid": (0.25,)}, "two resolutions and two window"),
            ({"delta_grid": (0.25, 0.9)}, "inside"),
            ({"delta_grid": (0.125, 0.25), "start": -0.1}, "inside"),
            ({"delta_grid": (0.125, 0.25), "rank": 0}, "rank"),
            ({"delta_grid": (math.nan, 0.25)}, "inside"),
            ({"delta_grid": (0.125, 0.25), "start": math.nan}, "inside"),
            ({"delta_grid": (0.125, 0.25), "hurst": 0.15, "process": "fbm"}, "no scaling target"),
            ({"delta_grid": (0.125, 0.25), "hurst": 0.15, "process": "sq", "rank": 3},
             "no scaling target"),
            ({"delta_grid": (0.25, 0.25)}, "distinct"),
            ({"delta_grid": (0.25, 0.25000000000000006)}, "distinct"),
            ({"delta_grid": (0.125, 0.25), "start": False}, "start must be a number, got False"),
            ({"delta_grid": (0.125, True)}, "delta_grid entry must be a number, got True"),
        ],
    )
    def test_input_validation(self, kwargs, match):
        args = {"hurst": 0.5, "process": "fbm", "rank": 2, "start": 0.25, **kwargs}
        cfg = ExperimentConfig(hurst=args["hurst"], p=2.0, process=args["process"],
                               n_grid=(64, 128), replicas=2)
        with pytest.raises(ValueError, match=match):
            ScalingConfig(cfg, args["rank"], args["delta_grid"], args["start"])

    @pytest.mark.parametrize("rank", ["He2", 2.5, 2.0, True])
    def test_rank_must_be_an_integer(self, rank):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64, 128), replicas=2)
        with pytest.raises(ValueError, match=f"rank must be an integer, got {rank!r}"):
            ScalingConfig(cfg, rank, (0.125, 0.25), 0.25)
