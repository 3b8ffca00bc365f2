"""Tests for the Monte Carlo experiment harness.

Covers:
1. The Kolmogorov-Smirnov sup distance against the scipy oracle and against
   hand-computed degenerate samples; the harness's reference CDF
   ``scipy.special.ndtr`` gives the same bits as ``scipy.stats.norm.cdf``.
2. Guaranteed-range validation of the power exponent per regime.
3. ExperimentConfig validation, resolved defaults, and identifier format.
4. Replica path construction: determinism, stream separation, fine wiring.
5. Row collection: ordering, determinism, serial/parallel bit equality,
   per-regime column arithmetic, and replica independence.
6. The summary/rate error metrics and the log-log slope fit on synthetic
   rows with hand-computed medians.
7. Regime checks in the mixed and degenerate regimes with calibrated seeds,
   plus the force bypass for unguaranteed exponents.
8. CSV output formats (17 significant digit round trips).
9. Rate fits: a calibrated Monte Carlo run plus exact deterministic decays
   from a drift-only differential equation.
10. Two-way scaling fits: exact exponent recovery on a constant process and
    input validation.
11. The joint stability check (decoupling of the normalized statistic from
    its driver) with a calibrated seed.
"""

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
    JointCheckReport,
    RateFitResult,
    RegimeError,
    ScalingFitResult,
    UnsupportedRangeError,
    build_controlled_process,
    build_replica_path,
    collect_rows,
    hermite,
    integrate_grid,
    ks_statistic,
    limit_cond_std,
    rate_fit,
    run_regime_check,
    sample_fbm,
    scaling_exponent_check,
    stable_joint_check,
    validate_p_range,
    weighted_increment_sum,
)
from roughpvar.harness import (
    WORKERS_ENV,
    _log_slope,
    _median_errors,
    log_log_csv,
    replica_rng,
    rows_to_csv,
)

# ---------------------------------------------------------------------------
# shared helpers


def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _ones(u):
    return np.ones_like(u)


# Drift-only differential equation dy = 1 dt + 0 dx: the solution y = t is
# deterministic, so every replica statistic is an exact power of the
# resolution and rate fits recover their slopes to machine precision.
_PURE_DRIFT = {"ell": 4, "y0": 0.0, "drift_coeffs": (1.0,), "field_coeffs": (0.0,)}

# Zero-field equation with no drift: y stays at y0 exactly, giving constant
# weights for the exact two-way scaling fit.
_CONSTANT_PROCESS = {"ell": 2, "y0": 2.0, "field_coeffs": (0.0,)}


@lru_cache(maxsize=1)
def _mixed_result() -> ExperimentResult:
    """Calibrated mixed-regime check shared by the format tests."""
    cfg = ExperimentConfig(
        hurst=0.5, p=2.0, n_grid=(256, 512), replicas=600, master_seed=11
    )
    return run_regime_check(cfg)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance


class TestKsStatistic:
    """Sup distance between the empirical CDF and a reference CDF."""

    def test_matches_scipy_on_normal_sample(self):
        sample = _philox(42).normal(size=2000)
        mine = ks_statistic(sample, norm.cdf)
        ref = kstest(sample, "norm").statistic
        print(f"normal sample: mine={mine:.12f} scipy={ref:.12f}")
        assert abs(mine - ref) < 1e-15, f"KS mismatch: {mine} vs scipy {ref}"

    def test_matches_scipy_on_uniform_sample(self):
        sample = _philox(43).uniform(size=777)
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
        # The harness takes its reference CDF from ndtr, the function that
        # norm.cdf evaluates for the standard normal; the KS distance must
        # not change by a single bit.
        values = np.array(sample)
        assert np.array_equal(ndtr(values), norm.cdf(values))
        assert ks_statistic(values, ndtr) == ks_statistic(values, norm.cdf)


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
            ({"quadrature": "simpson"}, "unknown quadrature"),
            ({"fine_factor": 0}, "fine_factor must be >= 1"),
        ],
    )
    def test_validation_errors(self, overrides, match):
        kwargs = {"hurst": 0.35, "p": 2.0}
        kwargs.update(overrides)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**kwargs)

    def test_config_is_immutable(self):
        cfg = ExperimentConfig(hurst=0.35, p=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.p = 3.0

    @pytest.mark.parametrize(
        "hurst, regime",
        [(0.35, "mixed-gaussian"), (0.25, "critical"), (0.15, "degenerate")],
    )
    def test_regime_property(self, hurst, regime):
        assert ExperimentConfig(hurst=hurst, p=2.0).regime == regime

    def test_resolved_fine_factor(self):
        assert ExperimentConfig(hurst=0.35, p=2.0).resolved_fine_factor == 1
        assert (
            ExperimentConfig(hurst=0.35, p=2.0, process="sq").resolved_fine_factor
            == 16
        )
        assert (
            ExperimentConfig(
                hurst=0.35, p=2.0, process="sq", fine_factor=4
            ).resolved_fine_factor
            == 4
        )

    def test_resolved_ks_threshold(self):
        assert ExperimentConfig(hurst=0.35, p=2.0).resolved_ks_threshold == 0.05
        assert ExperimentConfig(hurst=0.25, p=2.0).resolved_ks_threshold == 0.07
        assert (
            ExperimentConfig(hurst=0.25, p=2.0, ks_threshold=0.03).resolved_ks_threshold
            == 0.03
        )

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
        assert rows.shape == (10, 9), f"unexpected shape {rows.shape}"
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

    def test_invalid_worker_count_rejected(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=2)
        with pytest.raises(ValueError, match="worker count"):
            collect_rows(cfg, workers=0)

    def test_mixed_regime_row_arithmetic(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=4, master_seed=3)
        for row in collect_rows(cfg):
            n, replica, stat, drift, cond, z, _, _, center = row
            assert drift == 0.0 and center == 0.0
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
        for row in collect_rows(cfg):
            n, _, stat, drift, cond, z, _, _, center = row
            assert cond > 0.0 and drift != 0.0
            assert drift == pytest.approx(-0.25, rel=1e-12), "sq drift at p = 2 is -t/4"
            assert z * cond + drift == pytest.approx(math.sqrt(n) * stat, rel=1e-12)
            assert center == pytest.approx(drift / math.sqrt(n), rel=1e-15)

    def test_degenerate_regime_row_arithmetic(self):
        cfg = ExperimentConfig(
            hurst=0.15, p=2.0, process="sq", n_grid=(64,), replicas=3,
            master_seed=4, fine_factor=4,
        )
        for row in collect_rows(cfg):
            n, _, stat, drift, cond, z, _, _, center = row
            assert math.isnan(cond), "degenerate rows have no conditional scale"
            assert drift == pytest.approx(-0.25, rel=1e-12), "sq drift at p = 2 is -t/4"
            assert z == pytest.approx(n ** 0.3 * stat - drift, rel=1e-12)
            assert center == pytest.approx(drift * n ** -0.3, rel=1e-12)

    def test_driver_summary_columns(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=2, master_seed=3)
        rows = collect_rows(cfg)
        for replica in range(2):
            quad = build_replica_path(cfg, 64, replica).quadrature_path()
            assert rows[replica, 6] == quad.x.values[-1], "x_end mismatch"
            expected = integrate_grid(quad.x.values, 1.0 / quad.n, "trapezoid")
            assert rows[replica, 7] == expected, "x_integral mismatch"

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
    """Rows with only the columns the error metrics read filled in."""
    rows = np.zeros((len(entries), 9))
    for i, (n, stat, z, center) in enumerate(entries):
        rows[i, 0] = n
        rows[i, 1] = i
        rows[i, 2] = stat
        rows[i, 5] = z
        rows[i, 8] = center
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
        assert np.array_equal(_mixed_result().rows, run_regime_check(cfg).rows)

    def test_degenerate_regime_summary(self):
        cfg = ExperimentConfig(
            hurst=0.15, p=2.0, process="sq", n_grid=(128, 256), replicas=40,
            master_seed=9, fine_factor=4,
        )
        result = run_regime_check(cfg)
        meds = []
        for entry in result.summary:
            sel = result.rows[:, 0] == entry["n"]
            recomputed = abs(float(np.median(result.rows[sel, 5])))
            assert math.isnan(entry["ks"]), "degenerate regime reports no KS"
            assert entry["median_err"] == recomputed, (
                "summary metric should be |median(z)|"
            )
            meds.append(entry["median_err"])
        print(f"degenerate medians: {meds}")
        assert result.passed, f"calibrated degenerate check should pass: {meds}"
        assert meds[1] < meds[0], "median error should shrink with resolution"

    def test_uncovered_exponent_rejected(self):
        cfg = ExperimentConfig(hurst=0.35, p=2.5, n_grid=(64,), replicas=5)
        with pytest.raises(UnsupportedRangeError):
            run_regime_check(cfg)

    def test_force_runs_and_marks_unguaranteed(self):
        cfg = ExperimentConfig(
            hurst=0.35, p=2.5, n_grid=(64,), replicas=10, master_seed=1, force=True
        )
        result = run_regime_check(cfg)
        assert result.config.resolved_id().endswith("-unguaranteed")
        assert len(result.summary) == 1
        assert isinstance(result.passed, bool)


# ---------------------------------------------------------------------------
# CSV formats


class TestCsvOutputs:
    """Result serialization with 17 significant digit round trips."""

    def test_rows_csv_round_trip(self):
        result = _mixed_result()
        lines = result.results_csv().splitlines()
        assert lines[0] == "experiment_id,n,replica,stat,drift,cond_std,z"
        assert len(lines) == 1 + result.rows.shape[0]
        first = lines[1].split(",")
        assert first[0] == "fbm-p2-h0_5-mixed-gaussian"
        assert first[1] == "256" and first[2] == "0"
        for text, value in zip(first[3:], result.rows[0, 2:6]):
            assert float(text) == value, f"field {text} does not round trip"

    def test_rows_to_csv_formats_integers(self):
        rows = np.array([[64.0, 3.0, 0.1, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0]])
        lines = rows_to_csv("demo", rows).splitlines()
        assert lines[1].startswith("demo,64,3,"), f"bad row line {lines[1]!r}"

    def test_summary_csv_layout(self):
        result = _mixed_result()
        lines = result.summary_csv().splitlines()
        assert lines[0] == "experiment_id,n,median_err,ks,slope,slope_se,pass"
        assert len(lines) == 3
        for line, n in zip(lines[1:], (256, 512)):
            fields = line.split(",")
            assert fields[0] == "fbm-p2-h0_5-mixed-gaussian"
            assert int(fields[1]) == n
            assert fields[6] == "1", "calibrated run should pass at every n"
            assert float(fields[4]) == result.slope

    def test_plot_data_csv_is_log_log(self):
        result = _mixed_result()
        points = ((entry["n"], entry["median_err"]) for entry in result.summary)
        lines = log_log_csv(points).splitlines()
        assert lines[0] == "log_n,log_err"
        assert len(lines) == 3
        log_n, log_err = (float(v) for v in lines[1].split(","))
        assert log_n == pytest.approx(math.log(256), rel=1e-15)
        assert log_err == pytest.approx(
            math.log(result.summary[0]["median_err"]), rel=1e-15
        )


# ---------------------------------------------------------------------------
# rate fits


class TestRateFit:
    """Convergence-rate fits: Monte Carlo and exact deterministic decays."""

    def test_mixed_regime_rate(self):
        cfg = ExperimentConfig(
            hurst=0.5, p=2.0, n_grid=(256, 512, 1024), replicas=200, master_seed=5
        )
        result = rate_fit(cfg)
        print(
            f"mixed rate: slope={result.slope:.4f} (se {result.slope_se:.4f}), "
            f"target {result.target}"
        )
        assert result.target == pytest.approx(-0.5)
        assert result.passed, f"slope {result.slope} misses -1/2 by more than 0.1"
        assert abs(result.slope + 0.5) <= 0.1
        lines = log_log_csv(zip(result.n_grid, result.errors)).splitlines()
        assert lines[0] == "log_n,log_err" and len(lines) == 4

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
        result = rate_fit(cfg, workers=1)
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
        result = rate_fit(cfg)
        expected = [n ** (2.0 * hurst - 2.0) for n in (64, 128, 256)]
        assert result.errors == pytest.approx(expected, rel=1e-10)
        assert result.slope == pytest.approx(2.0 * hurst - 2.0, abs=1e-9)
        assert result.target == pytest.approx(-2.0 * hurst)
        assert not result.passed

    def test_needs_two_resolutions(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=5)
        with pytest.raises(ValueError, match="two resolutions"):
            rate_fit(cfg)

    def test_uncovered_exponent_rejected(self):
        cfg = ExperimentConfig(hurst=0.35, p=2.5, n_grid=(64, 128), replicas=5)
        with pytest.raises(UnsupportedRangeError):
            rate_fit(cfg)


# ---------------------------------------------------------------------------
# two-way scaling fits


class TestScalingExponentCheck:
    """Joint (resolution, window) scaling of weighted functional sums."""

    def test_exact_exponents_on_constant_weight(self):
        # With y frozen at 2 and the unit functional, every windowed sum is
        # exactly 2 * n * delta, so both exponents are exactly one.
        cfg = ExperimentConfig(
            hurst=0.5, p=2.0, process="custom-rde", n_grid=(64, 128),
            replicas=2, master_seed=0, fine_factor=1,
            process_params=dict(_CONSTANT_PROCESS),
        )
        result = scaling_exponent_check(cfg, _ones, (0.125, 0.25), start=0.25, workers=1)
        assert result.n_exponent == pytest.approx(1.0, abs=1e-9)
        assert result.delta_exponent == pytest.approx(1.0, abs=1e-9)
        expected = {(64, 0.125): 16.0, (64, 0.25): 32.0, (128, 0.125): 32.0, (128, 0.25): 64.0}
        for n, delta, l1 in result.table:
            assert l1 == expected[(n, delta)], f"l1({n}, {delta}) = {l1}"

    def test_csv_layout(self):
        cfg = ExperimentConfig(
            hurst=0.5, p=2.0, process="custom-rde", n_grid=(64, 128),
            replicas=2, master_seed=0, fine_factor=1,
            process_params=dict(_CONSTANT_PROCESS),
        )
        result = scaling_exponent_check(cfg, _ones, (0.125, 0.25), start=0.25, workers=1)
        lines = result.csv().splitlines()
        assert lines[0] == "n,delta,l1_norm"
        assert lines[1] == "64,0.125,16"
        assert len(lines) == 5

    def test_hermite_rank_smoke_is_deterministic(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64, 128), replicas=30, master_seed=3)
        first = scaling_exponent_check(cfg, 2, (0.125, 0.25), start=0.25)
        second = scaling_exponent_check(cfg, 2, (0.125, 0.25), start=0.25)
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
        result = scaling_exponent_check(cfg, 3, deltas, start=0.25, workers=1)
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

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"delta_grid": (0.25,)}, "two resolutions and two window"),
            ({"delta_grid": (0.25, 0.9)}, "inside"),
            ({"delta_grid": (0.125, 0.25), "start": -0.1}, "inside"),
            ({"delta_grid": (0.125, 0.25), "rank_or_f": 0}, "rank"),
        ],
    )
    def test_input_validation(self, kwargs, match):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64, 128), replicas=2)
        args = {"rank_or_f": 2, "start": 0.25}
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            scaling_exponent_check(cfg, args["rank_or_f"], args["delta_grid"], start=args["start"])

    def test_functional_must_be_rank_or_callable(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64, 128), replicas=2)
        with pytest.raises(TypeError, match="vectorized callable"):
            scaling_exponent_check(cfg, "He2", (0.125, 0.25), start=0.25, workers=1)


# ---------------------------------------------------------------------------
# joint stability check


class TestStableJointCheck:
    """Decoupling of the normalized statistic from its own driver."""

    def test_driver_decoupling_at_calibrated_seed(self):
        cfg = ExperimentConfig(
            hurst=0.5, p=2.0, n_grid=(1024,), replicas=2000, master_seed=2024
        )
        report = stable_joint_check(cfg)
        print(
            f"corr(endpoint)={report.corr_endpoint:.4f} "
            f"corr(integral)={report.corr_integral:.4f} "
            f"(threshold {report.corr_threshold:.4f}); "
            f"max bin KS={float(np.max(report.bin_ks)):.4f} "
            f"(threshold {report.bin_threshold:.4f})"
        )
        assert isinstance(report, JointCheckReport)
        assert report.passed, "calibrated joint check should pass"
        assert report.excluded == 0
        assert report.corr_threshold == pytest.approx(3.0 / math.sqrt(2000))
        assert report.bin_ks.shape == (5,)
        assert report.bin_threshold == pytest.approx(2.72 / math.sqrt(400))
        assert report.corr_endpoint < 0.05 and report.corr_integral < 0.05

    def test_needs_enough_replicas(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=500)
        with pytest.raises(ValueError, match="at least 1000"):
            stable_joint_check(cfg)

    def test_degenerate_regime_rejected(self):
        cfg = ExperimentConfig(hurst=0.2, p=2.0, n_grid=(64,), replicas=1000)
        with pytest.raises(RegimeError, match="distributional"):
            stable_joint_check(cfg)

    def test_needs_two_bins(self):
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64,), replicas=1000)
        with pytest.raises(ValueError, match="two bins"):
            stable_joint_check(cfg, bins=1)
