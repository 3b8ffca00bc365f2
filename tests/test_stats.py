"""Tests for power-variation statistics and the limit-theorem ingredients.

Covers:
  1. Regime classification and rate exponents over the admissible range.
  2. Grid quadrature by the trapezoid rule.
  3. The centered statistic (exact centering in expectation when the
     integrand is the driver itself).
  4. Drift functional: exact zero for the driver, closed forms for the
     running square and cube processes, the missing-level warning and its
     silence where the dropped level has a zero coefficient.
  5. Conditional standard deviation.
  6. Weighted increment sums (with the exact telescoping of the first
     Hermite sum on the driver and the variance of the second at H = 1/2)
     and the Riemann correction sums.
"""

import math
import warnings

import numpy as np
import pytest

from roughpvar import (
    REGIME_CRITICAL,
    REGIME_DEGENERATE,
    REGIME_MIXED,
    ControlledPath,
    DomainError,
    FbmPath,
    FbmSpec,
    StatConfig,
    build_controlled_process,
    classify_regime,
    hermite,
    integrate_grid,
    limit_cond_std,
    limit_drift,
    pvar_statistic,
    rate_exponent,
    riemann_correction_sum,
    sample_fbm,
    subsample_controlled,
    weighted_increment_sum,
)
from streams import philox


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("hurst", "regime"),
    [
        (0.15, REGIME_DEGENERATE),
        (0.2, REGIME_DEGENERATE),
        (0.25, REGIME_CRITICAL),
        (0.25 + 5e-13, REGIME_CRITICAL),
        (0.3, REGIME_MIXED),
        (0.5, REGIME_MIXED),
    ],
)
def test_classify_regime(hurst, regime):
    assert classify_regime(hurst) == regime


def test_classify_regime_domain():
    for bad in (0.0, -0.1, 0.51, 0.75):
        with pytest.raises(ValueError):
            classify_regime(bad)


@pytest.mark.parametrize(
    ("hurst", "expo"),
    [(0.5, 0.5), (0.35, 0.5), (0.3, 0.5), (0.25, 0.5), (0.2, 0.4), (0.15, 0.3)],
)
def test_rate_exponent(hurst, expo):
    assert rate_exponent(hurst) == pytest.approx(expo, abs=1e-12)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


class TestIntegrateGrid:
    """Uniform-grid quadrature by the trapezoid rule."""

    def test_trapezoid_exact_on_linear(self):
        t = np.linspace(0.0, 1.0, 33)
        got = integrate_grid(2.0 * t + 1.0, 1.0 / 32.0)
        assert got == pytest.approx(2.0, rel=1e-14)

    def test_degenerate_grids(self):
        assert integrate_grid(np.array([4.0]), 0.1) == 0.0
        with pytest.raises(ValueError):
            integrate_grid(np.empty(0), 0.1)


# ---------------------------------------------------------------------------
# the centered statistic
# ---------------------------------------------------------------------------


class TestPvarStatistic:
    """Centered statistic U_n = normalized sum minus compensator."""

    def test_driver_statistic_is_exactly_centered(self):
        # for y = x the sum part has expectation E|N|^p at every n, matching
        # the compensator exactly; the Monte Carlo mean must sit at 0
        rng = philox(505)
        spec = FbmSpec(hurst=0.35, n=256)
        cfg = StatConfig(p=2.0)
        stats = np.empty(10000)
        for r in range(10000):
            x = sample_fbm(spec, rng)
            cp = build_controlled_process("fbm", x, params={"ell": 2})
            stats[r] = pvar_statistic(cp, cfg)
        mean = float(np.mean(stats))
        se = float(np.std(stats)) / math.sqrt(len(stats))
        print(f"  MC mean {mean:.2e}, se {se:.2e}")
        assert abs(mean) < 4.0 * se

    def test_manual_evaluation_with_snapping(self):
        xf = sample_fbm(FbmSpec(hurst=0.35, n=64 * 4), philox(40))
        cp = build_controlled_process("sq", xf, fine_factor=4)
        cfg = StatConfig(p=2.0, t=0.5, fine_factor=4)
        got = pvar_statistic(cp, cfg)
        n = 64
        dy = np.diff(cp.level(0)[: n // 2 + 1])
        sum_part = n ** (2.0 * 0.35 - 1.0) * float(np.sum(dy * dy))
        fine_grid = np.abs(xf.values[: n // 2 * 4 + 1]) ** 2
        comp = integrate_grid(fine_grid, 1.0 / (n * 4))
        assert got == pytest.approx(sum_part - comp, rel=1e-12)

    def test_compensator_converges_in_the_fine_factor(self):
        # one driver at fine factor 64, and the same driver on every 4th
        # node at fine factor 16: the coarse paths agree, so the two
        # statistics differ only by the compensator's quadrature error
        x64 = sample_fbm(FbmSpec(hurst=0.35, n=1024 * 64), philox(508))
        x16 = FbmPath(spec=FbmSpec(hurst=0.35, n=1024 * 16), values=x64.values[::4])
        cfg = StatConfig(p=2.0)
        a = pvar_statistic(build_controlled_process("sq", x16, fine_factor=16), cfg)
        b = pvar_statistic(build_controlled_process("sq", x64, fine_factor=64), cfg)
        print(f"  fine factor 16 against 64: {abs(a - b):.2e}")
        assert abs(a - b) < 5e-3

    def test_stat_config_validation(self):
        with pytest.raises(ValueError):
            StatConfig(p=0.5)
        with pytest.raises(ValueError):
            StatConfig(p=2.0, t=0.0)
        for p in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                StatConfig(p=p)
        with pytest.raises(ValueError):
            StatConfig(p=2.0, fine_factor=0)


# ---------------------------------------------------------------------------
# drift functional
# ---------------------------------------------------------------------------


class TestLimitDrift:
    """Second-order drift of the critical and degenerate regimes."""

    def test_driver_has_zero_drift(self):
        x = sample_fbm(FbmSpec(hurst=0.25, n=256), philox(41))
        cp = build_controlled_process("fbm", x, params={"ell": 4})
        assert limit_drift(cp, 2.0) == 0.0

    def test_square_quadratic_drift_is_minus_quarter_t(self):
        # y' = x, y'' = 1, y''' = 0 and phi'' = 2: the functional collapses
        # to -(1/8) * 2 * t = -t/4, independent of the path
        xf = sample_fbm(FbmSpec(hurst=0.25, n=64 * 16), philox(42))
        cp = build_controlled_process("sq", xf, fine_factor=16, params={"ell": 4})
        assert limit_drift(cp, 2.0) == pytest.approx(-0.25, rel=1e-12)
        # t snaps down to the coarse grid: 44 of 64 cells
        assert limit_drift(cp, 2.0, t=0.7) == pytest.approx(-44.0 / 64.0 / 4.0, rel=1e-12)
        with pytest.raises(ValueError, match="t must lie in"):
            limit_drift(cp, 2.0, t=1.5)

    def test_cube_quadratic_drift_tracks_the_path(self):
        # y' = x^2/2, y'' = x, y''' = 1, p = 2: drift = -(1/4) int x^2 du
        xf = sample_fbm(FbmSpec(hurst=0.25, n=64 * 16), philox(43))
        cp = build_controlled_process("cube", xf, fine_factor=16)
        expected = -0.25 * integrate_grid(xf.values**2, 1.0 / xf.n)
        assert limit_drift(cp, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_cube_quartic_drift_combines_both_terms(self):
        # p = 4: phi''(x^2/2) x^2 = 3 x^6 and phi'(x^2/2) = x^6/2, so
        # -(3/8) * 3 + (2 * 3/24) * (1/2) = -1 times int x^6 du
        xf = sample_fbm(FbmSpec(hurst=0.25, n=64 * 16), philox(44))
        cp = build_controlled_process("cube", xf, fine_factor=16)
        expected = -integrate_grid(xf.values**6, 1.0 / xf.n)
        assert limit_drift(cp, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_missing_levels_warn(self):
        x = sample_fbm(FbmSpec(hurst=0.25, n=64), philox(45))
        cp = build_controlled_process("fbm", x, params={"ell": 2})
        with pytest.warns(RuntimeWarning, match="levels"):
            got = limit_drift(cp, 2.0)
        assert got == 0.0

    def test_missing_third_level_warns_only_where_it_counts(self):
        # Level 3 enters with coefficient (p - 2) E|N|^p / 24: dropping it
        # changes nothing at p = 2 and is worth a warning at p = 4.
        x = sample_fbm(FbmSpec(hurst=0.25, n=64), philox(45))
        cp = build_controlled_process("sq", x, params={"ell": 3})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert limit_drift(cp, 2.0) == limit_drift(
                build_controlled_process("sq", x, params={"ell": 4}), 2.0
            )
        with pytest.warns(RuntimeWarning, match="path has 3 levels"):
            limit_drift(cp, 4.0)
        with pytest.warns(RuntimeWarning, match="path has 2 levels"):
            limit_drift(build_controlled_process("sq", x, params={"ell": 2}), 2.0)


# ---------------------------------------------------------------------------
# conditional standard deviation
# ---------------------------------------------------------------------------


class TestLimitCondStd:
    """Mixed-regime conditional scale."""

    def test_driver_at_half(self):
        x = sample_fbm(FbmSpec(hurst=0.5, n=128), philox(46))
        cp = build_controlled_process("fbm", x)
        assert limit_cond_std(cp, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert limit_cond_std(cp, 2.0, t=0.25) == pytest.approx(
            math.sqrt(2.0) * 0.5, abs=1e-8
        )

    def test_zero_derivative_gives_zero(self):
        x = sample_fbm(FbmSpec(hurst=0.4, n=64), philox(47))
        ones = np.ones_like(x.values)
        cp = ControlledPath(x, [ones, np.zeros_like(ones)])
        assert limit_cond_std(cp, 2.0) == 0.0

    def test_square_process_scale(self):
        from roughpvar import asymptotic_variance

        xf = sample_fbm(FbmSpec(hurst=0.35, n=64 * 16), philox(48))
        cp = build_controlled_process("sq", xf, fine_factor=16)
        expected = math.sqrt(asymptotic_variance(2.0, 0.35)) * math.sqrt(
            integrate_grid(np.abs(xf.values) ** 4, 1.0 / xf.n)
        )
        assert limit_cond_std(cp, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_regime_rejected(self):
        x = sample_fbm(FbmSpec(hurst=0.2, n=64), philox(49))
        cp = build_controlled_process("fbm", x)
        with pytest.raises(DomainError):
            limit_cond_std(cp, 2.0)
        # explicit override beats the path's own index
        assert limit_cond_std(cp, 2.0, hurst=0.3) > 0.0
        with pytest.raises(ValueError, match="first derivative level"):
            limit_cond_std(ControlledPath(x, [x.values]), 2.0, hurst=0.3)


# ---------------------------------------------------------------------------
# weighted sums
# ---------------------------------------------------------------------------


class TestWeightedIncrementSum:
    """sum_k weight_k f(n^H delta x_k) over grid windows."""

    def test_unit_functional_counts_cells(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64), philox(53))
        ones = np.ones_like(x.values)
        count = lambda u: np.ones_like(u)
        assert weighted_increment_sum(x, count, ones) == pytest.approx(64.0, abs=0.0)
        assert weighted_increment_sum(x, count, ones, 0.25, 0.75) == pytest.approx(
            32.0, abs=0.0
        )
        assert weighted_increment_sum(x, count, ones, 0.5, 0.5) == 0.0

    def test_second_hermite_is_centered_at_half(self):
        # f = He_2: with independent increments each term has mean zero
        rng = philox(507)
        spec = FbmSpec(hurst=0.5, n=256)
        ones = np.ones(257)
        vals = np.empty(2000)
        for r in range(2000):
            x = sample_fbm(spec, rng)
            vals[r] = weighted_increment_sum(x, lambda u: u * u - 1.0, ones)
        mean = float(np.mean(vals))
        se = float(np.std(vals)) / math.sqrt(len(vals))
        # Var(He_2(N)) = 2, so n^{-1/2} times the sum has variance 2
        var = float(np.var(vals)) / 256.0
        print(f"  He_2 sum: mean {mean:.3f}, se {se:.3f}, normalized variance {var:.4f}")
        assert abs(mean) < 3.0 * se
        assert var == pytest.approx(2.0, rel=0.1)

    def test_weight_shape_validation(self):
        x = sample_fbm(FbmSpec(hurst=0.35, n=64), philox(53))
        with pytest.raises(ValueError):
            weighted_increment_sum(x, np.abs, np.ones(64))  # needs 65 nodes

    def test_first_hermite_on_driver_telescopes(self):
        # sum_k x_k dx_k = (x_t^2 - x_s^2) / 2 - sum_k dx_k^2 / 2 exactly
        rng = philox(509)
        for case in range(20):
            hurst = float(rng.uniform(0.05, 0.5))
            n = int(rng.choice([64, 256, 1024, 4096]))
            lo, hi = sorted(int(k) for k in rng.choice(n + 1, size=2, replace=False))
            x = sample_fbm(FbmSpec(hurst=hurst, n=n), rng)
            v = x.values
            got = weighted_increment_sum(x, lambda u: hermite(1, u), v, lo / n, hi / n)
            squares = float(np.sum(np.diff(v[lo : hi + 1]) ** 2))
            scale = n**hurst * (v[hi] ** 2 + v[lo] ** 2 + squares) / 2.0
            want = n**hurst * ((v[hi] ** 2 - v[lo] ** 2) / 2.0 - squares / 2.0)
            assert abs(got - want) <= 1e-12 * scale, (case, hurst, n, lo, hi)


class TestRiemannCorrectionSum:
    """Weighted local driver-integral corrections."""

    def test_centered_for_constant_weight(self):
        # each correction integrates x_u - x_{t_k}, which has mean zero
        rng = philox(509)
        vals = np.empty(400)
        for r in range(400):
            xf = sample_fbm(FbmSpec(hurst=0.3, n=256 * 16), rng)
            ones = np.ones_like(xf.values)
            fine_cp = ControlledPath(xf, [ones, np.zeros_like(ones)])
            vals[r] = riemann_correction_sum(subsample_controlled(fine_cp, 16))
        mean = float(np.mean(vals))
        se = float(np.std(vals)) / math.sqrt(len(vals))
        print(f"  correction sum: mean {mean:.2e}, se {se:.2e}")
        assert abs(mean) < 4.0 * se

    def test_rules_agree_to_quadrature_accuracy(self):
        # the midpoint sum against the per-fine-cell trapezoid rule
        xf = sample_fbm(FbmSpec(hurst=0.3, n=128 * 16), philox(57))
        cp = build_controlled_process("fbm", xf, fine_factor=16)
        a = riemann_correction_sum(cp)
        v, h = xf.values, 1.0 / xf.n
        cells = (0.5 * h * (v[:-1] + v[1:])).reshape(128, 16).sum(axis=1)
        b = float(np.sum(cp.level(0)[:-1] * (cells - cp.x.values[:-1] / 128)))
        print(f"  midpoint {a:.4e}, trapezoid {b:.4e}")
        assert a == pytest.approx(b, rel=0.15)
        assert np.sign(a) == np.sign(b)

    def test_odd_fine_factor_refused(self):
        # an odd factor has no fine-grid midpoints; no fine companion is factor 1
        for factor in (3, 1):
            xf = sample_fbm(FbmSpec(hurst=0.3, n=64 * factor), philox(58))
            cp = build_controlled_process("fbm", xf, fine_factor=factor)
            with pytest.raises(ValueError, match=f"even fine factor, got {factor}"):
                riemann_correction_sum(cp)

    def test_zero_window(self):
        x = sample_fbm(FbmSpec(hurst=0.3, n=64), philox(58))
        cp = build_controlled_process("fbm", x)
        assert riemann_correction_sum(cp, t=0.0) == 0.0
