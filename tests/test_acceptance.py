"""End-to-end acceptance checks for the rough power-variation toolkit.

One test per acceptance criterion, each printing a single
``criterion N: PASS/FAIL`` line before its assertions, so a verbose run
doubles as an acceptance report. Covered:

  1. Closed-form constants: absolute Gaussian moments, the limit variance
     at the independent-increment point, and the weights (2q)! c_q**2 that
     the limit variance sums, against (2q)! c_q**2 from a Gauss-Hermite
     quadrature oracle (even p) and an adaptive-quadrature oracle (p = 3).
  2. The three-point remainder decomposition of controlled paths holds to
     machine precision on random time triples for the registry processes.
  3. Construction oracles: the compensated integral of x dx reproduces
     x**2 / 2 exactly, and the one-step scheme for dy = y dx converges to
     exp(x) at the expected per-doubling sup-error rate.
  4. Degenerate regime: the rescaled statistic concentrates at its limit,
     with per-resolution medians shrinking as n grows.
  5. Mixed-Gaussian regime: the normalized statistic is asymptotically
     standard normal with the predicted limit variance.
  6. Critical regime: the drift-corrected statistic passes its KS gate.
  7. Fitted error-decay exponents match -1/2 in the distributional regimes
     and -2H in the degenerate one.
  8. The midpoint Riemann-correction sum rescaled by n**(2H) matches its
     closed-form limit -1/(2(2H + 1)).
  9. The sign-weighted increment sum rescaled by n**(H-1) matches its
     weighted-limit value.
 10. Joint (resolution, window-length) scaling of windowed Hermite sums:
     the rank-3 functional matches the square-root prediction 1/2 on both
     axes. The degenerate rank-1 sum matches 1 - rank * H on the
     resolution axis and 1 on the window axis: for the driver weight it
     telescopes to n**H (x_t**2 - x_s**2) / 2 - (n**H / 2) sum dx_k**2,
     and the second term is about -(delta / 2) n**(1 - H).
 11. The batch CLI is bit-deterministic: fresh reruns, manifest replays,
     and different worker counts reproduce every output byte for byte.

Monte Carlo checks pin a master seed and quote the frozen statistic values
they reproduce; tolerances are the acceptance gates, not tuned to the run.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy.integrate
from scipy.stats import norm

import roughpvar
from roughpvar import (
    ControlledPath,
    ExperimentConfig,
    FbmPath,
    FbmSpec,
    RateFitConfig,
    ScalingConfig,
    asymptotic_variance,
    build_controlled_process,
    build_replica_path,
    collect_rows,
    gaussian_abs_moment,
    hermite,
    hermite_coeffs_numeric,
    ks_statistic,
    rate_fit,
    remainder_decomposition_residual,
    riemann_correction_sum,
    rough_integral,
    run_regime_check,
    sample_fbm,
    scaling_exponent_check,
    solve_rde,
    subsample_controlled,
    weighted_increment_sum,
)
from roughpvar.hermite import variance_weights
from streams import philox

MASTER_SEED = 2024


def _report(label, ok, detail):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _signed_cube(u):
    return np.abs(u) ** 3 * np.sign(u)


# ---------------------------------------------------------------------------
# 1. closed-form constants
# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_constants():
    checks = {
        "abs moment p=2": abs(gaussian_abs_moment(2.0) - 1.0) <= 1e-12,
        "abs moment p=4": abs(gaussian_abs_moment(4.0) - 3.0) <= 1e-12 * 3.0,
        "variance at independence": abs(asymptotic_variance(2.0, 0.5) - 2.0) <= 1e-8,
    }
    # the weights (2q)! c_q^2 that the limit variance sums, against an
    # independent quadrature route. Gauss-Hermite is exact on polynomials,
    # so even powers admit a tight bound: each weight within 1e-10 relative,
    # and past the series' end (q > p / 2) the coefficient within 1e-10 of 0
    for p in (2.0, 4.0):
        numeric = hermite_coeffs_numeric(lambda u, p=p: np.abs(u) ** p, 8)
        weights = variance_weights(p, 4)
        for q in (1, 2, 3, 4):
            if q <= p / 2.0:
                oracle = math.factorial(2 * q) * numeric[2 * q] ** 2
                good = q <= len(weights) and abs(weights[q - 1] - oracle) <= 1e-10 * oracle
            else:
                good = q > len(weights) and abs(numeric[2 * q]) <= 1e-10
            checks[f"weight p={p} q={q}"] = good
    # p = 3 has a kink at 0, so its oracle is adaptive quadrature on the
    # half line: |c_q| from the weight within 1e-8 relative (1e-12 absolute)
    # of the quadrature's, whose error bound must be below 1e-10
    weights = variance_weights(3.0, 4)
    for q in (1, 2, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            val, err = scipy.integrate.quad(
                lambda x, q=q: 2.0 * x**3 * hermite(2 * q, x) * math.exp(-0.5 * x * x)
                / math.sqrt(2.0 * math.pi),
                0.0,
                np.inf,
                epsabs=1e-13,
                epsrel=1e-13,
            )
        oracle = abs(val) / math.factorial(2 * q)
        coeff = math.sqrt(weights[q - 1] / math.factorial(2 * q))
        checks[f"weight p=3.0 q={q}"] = (
            err / math.factorial(2 * q) < 1e-10
            and abs(coeff - oracle) <= max(1e-8 * oracle, 1e-12)
        )
    ok = all(checks.values())
    _report(1, ok, f"{sum(checks.values())}/{len(checks)} constant identities")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"constant identities failed: {failed}"


# ---------------------------------------------------------------------------
# 2. remainder decomposition identity
# ---------------------------------------------------------------------------


def _ingredient_scale(cp, idx):
    """Sum of the magnitudes of every term entering the decomposition.

    Remainders of polynomial level tuples vanish identically, so the noise
    floor must be measured against the raw expansion ingredients (level
    values times increment powers), not against the remainders themselves.
    """
    x = cp.x.values
    s_i, u_i, t_i = idx[:, 0], idx[:, 1], idx[:, 2]
    levels = [cp.level(m) for m in range(cp.ell)]
    scale = (
        np.abs(levels[0][t_i] - levels[0][s_i])
        + np.abs(levels[0][u_i] - levels[0][s_i])
        + np.abs(levels[0][t_i] - levels[0][u_i])
    )
    dx_su = np.abs(x[u_i] - x[s_i])
    dx_ut = np.abs(x[t_i] - x[u_i])
    dx_st = np.abs(x[t_i] - x[s_i])
    for m in range(1, cp.ell):
        fac = math.factorial(m)
        scale = scale + np.abs(levels[m][s_i]) * (dx_su**m + dx_st**m) / fac
        scale = scale + np.abs(levels[m][u_i]) * dx_ut**m / fac
    return scale


def test_criterion_02_remainder_decomposition():
    combos = (("fbm", 2, 0.45, 101), ("sq", 3, 0.3, 102), ("exp-rde", 6, 0.35, 103))
    n = 512
    worst = 0.0
    for tag, ell, hurst, seed in combos:
        rng = philox(seed)
        x = sample_fbm(FbmSpec(hurst=hurst, n=n), rng)
        cp = build_controlled_process(tag, x, params={"ell": ell})
        idx = rng.integers(0, n + 1, size=(1000, 3))
        idx.sort(axis=1)
        s, u, t = idx[:, 0] / n, idx[:, 1] / n, idx[:, 2] / n
        residual = remainder_decomposition_residual(cp, s, u, t)
        scale = _ingredient_scale(cp, idx)
        ratio = np.max(np.abs(residual) / np.maximum(scale, 1e-300))
        print(f"  {tag} ell={ell} hurst={hurst}: worst residual/scale {ratio:.2e}")
        worst = max(worst, ratio)
    ok = worst <= 1e-12
    _report(2, ok, f"worst residual/scale {worst:.2e} over 3000 triples")
    assert ok, f"decomposition residual {worst:.2e} above 1e-12 * ingredient scale"


# ---------------------------------------------------------------------------
# 3. construction oracles
# ---------------------------------------------------------------------------


def test_criterion_03_construction_oracles():
    base = 256
    factors = (2, 4, 8, 16)
    paths = 40
    seed = 1234
    integral_sup = 0.0
    median_ratios = {}
    for hurst, ell in ((0.35, 6), (0.5, 4)):
        ratios = []
        for rep in range(paths):
            rng = philox(seed, spawn_key=(rep,))
            x16 = sample_fbm(FbmSpec(hurst=hurst, n=base * 16), rng)
            truth = np.exp(x16.values[::16])
            errs = []
            for factor in factors:
                step = 16 // factor
                x_f = FbmPath(
                    FbmSpec(hurst=hurst, n=base * factor),
                    x16.values[::step],
                )
                # solver half: one-step scheme for dy = y dx against exp(x)
                sol = subsample_controlled(
                    solve_rde(None, [0.0, 1.0], 1.0, x_f, ell=ell), factor
                )
                errs.append(np.max(np.abs(sol.level(0) - truth)))
                # integral half: the compensated sum of x dx telescopes to
                # x**2 / 2 exactly, at every refinement
                ones = np.ones(x_f.n + 1)
                z = ControlledPath(x_f, [x_f.values, ones])
                integ = subsample_controlled(rough_integral(z, x_f), factor)
                exact = x_f.values[::factor] ** 2 / 2.0
                integral_sup = max(integral_sup, np.max(np.abs(integ.level(0) - exact)))
            errs = np.array(errs)
            ratios.append(errs[:-1] / errs[1:])
        median_ratios[hurst] = np.median(np.array(ratios), axis=0)

    # frozen medians at seed 1234: hurst 0.35 -> [2.42, 2.06, 2.12],
    # hurst 0.5 -> [2.05, 1.99, 1.99]; the gate is the [1.5, 4] band
    ratio_ok = all(
        np.all((med >= 1.5) & (med <= 4.0)) for med in median_ratios.values()
    )
    integral_ok = integral_sup < 1e-10
    ok = ratio_ok and integral_ok
    detail = ", ".join(
        f"hurst {h}: medians {np.round(med, 3)}" for h, med in median_ratios.items()
    )
    _report(3, ok, f"integral sup err {integral_sup:.2e}; {detail}")
    assert integral_ok, f"compensated integral of x dx off by {integral_sup:.2e}"
    assert ratio_ok, f"per-doubling sup-error medians outside [1.5, 4]: {median_ratios}"


# ---------------------------------------------------------------------------
# 4. degenerate regime concentration
# ---------------------------------------------------------------------------


def test_criterion_04_degenerate_concentration():
    cfg = ExperimentConfig(
        hurst=0.15,
        p=2.0,
        process="sq",
        n_grid=(1024, 4096, 16384),
        replicas=200,
        master_seed=MASTER_SEED,
        median_tol=0.08,
    )
    result = run_regime_check(cfg)
    meds = np.array([entry["median_err"] for entry in result.summary])
    # frozen medians at seed 2024: [0.0505, 0.0053, 0.0045]
    pinned = np.allclose(meds, [0.0505, 0.0053, 0.0045], atol=2e-3)
    shrinking = bool(np.all(np.diff(meds) < 0.0))
    ok = result.passed and shrinking and pinned
    _report(4, ok, f"medians {np.round(meds, 4)}, final tol 0.08")
    assert result.passed, f"degenerate regime check failed: medians {meds}"
    assert shrinking, f"medians do not shrink with n: {meds}"
    assert pinned, f"medians drifted from frozen values: {meds}"


# ---------------------------------------------------------------------------
# 5. mixed-Gaussian limit
# ---------------------------------------------------------------------------


def test_criterion_05_mixed_gaussian_clt():
    # frozen at seed 2024, n = 4096, 2000 replicas:
    #   hurst 0.4 -> KS 0.0145, variance ratio 1.022
    #   hurst 0.5 -> KS 0.0158, variance ratio 1.020
    results = {}
    for hurst in (0.4, 0.5):
        cfg = ExperimentConfig(
            hurst=hurst,
            p=2.0,
            process="fbm",
            n_grid=(4096,),
            replicas=2000,
            master_seed=MASTER_SEED,
        )
        rows = collect_rows(cfg)
        ks = ks_statistic(rows[:, 5], norm.cdf)
        scaled_var = np.var(np.sqrt(4096) * rows[:, 2], ddof=1)
        ratio = scaled_var / asymptotic_variance(2.0, hurst)
        results[hurst] = (ks, ratio)
        print(f"  hurst {hurst}: KS {ks:.4f}, variance ratio {ratio:.4f}")
    ok = all(ks < 0.05 and abs(ratio - 1.0) < 0.10 for ks, ratio in results.values())
    _report(5, ok, "; ".join(
        f"hurst {h}: KS {ks:.4f}, var ratio {ratio:.3f}" for h, (ks, ratio) in results.items()
    ))
    for hurst, (ks, ratio) in results.items():
        assert ks < 0.05, f"hurst {hurst}: KS {ks:.4f} fails the 0.05 normality gate"
        assert abs(ratio - 1.0) < 0.10, (
            f"hurst {hurst}: scaled variance off predicted limit by {ratio - 1.0:+.3f}"
        )


# ---------------------------------------------------------------------------
# 6. critical regime
# ---------------------------------------------------------------------------


def test_criterion_06_critical_ks_gate():
    cfg = ExperimentConfig(
        hurst=0.25,
        p=2.0,
        process="sq",
        n_grid=(8192,),
        replicas=1000,
        master_seed=MASTER_SEED,
    )
    result = run_regime_check(cfg)
    ks = result.summary[-1]["ks"]
    # frozen KS at seed 2024: 0.0276, against the 0.07 critical threshold
    pinned = abs(ks - 0.0276) <= 5e-3
    ok = result.passed and ks < 0.07 and pinned
    _report(6, ok, f"KS {ks:.4f} against threshold 0.07")
    assert result.passed and ks < 0.07, f"critical regime KS gate failed: {ks:.4f}"
    assert pinned, f"critical KS drifted from frozen value 0.0276: {ks:.4f}"


# ---------------------------------------------------------------------------
# 7. error-decay rates
# ---------------------------------------------------------------------------


def test_criterion_07_error_decay_rates():
    n_grid = (512, 1024, 2048, 4096, 8192, 16384)
    # frozen slopes at seed 2024: mixed -0.5113 (target -0.5),
    # degenerate -0.3416 (target -2H = -0.3); the gate is +-0.1
    mixed = rate_fit(RateFitConfig(
        ExperimentConfig(
            hurst=0.4, p=2.0, process="fbm", n_grid=n_grid,
            replicas=500, master_seed=MASTER_SEED,
        )
    ))
    degen = rate_fit(RateFitConfig(
        ExperimentConfig(
            hurst=0.15, p=2.0, process="sq", n_grid=n_grid,
            replicas=500, master_seed=MASTER_SEED,
        )
    ))
    print(f"  mixed: slope {mixed.slope:.4f} (se {mixed.slope_se:.4f}) target {mixed.target}")
    print(f"  degenerate: slope {degen.slope:.4f} (se {degen.slope_se:.4f}) target {degen.target}")
    pinned = abs(mixed.slope - (-0.5113)) <= 0.02 and abs(degen.slope - (-0.3416)) <= 0.02
    ok = mixed.passed and degen.passed and pinned
    _report(7, ok, f"slopes {mixed.slope:.4f} vs -0.5, {degen.slope:.4f} vs -0.3")
    assert mixed.passed, f"mixed-regime slope {mixed.slope:.4f} misses {mixed.target} +- 0.1"
    assert degen.passed, f"degenerate slope {degen.slope:.4f} misses {degen.target} +- 0.1"
    assert pinned, (
        f"slopes drifted from frozen values: {mixed.slope:.4f}, {degen.slope:.4f}"
    )


# ---------------------------------------------------------------------------
# 8. Riemann-correction limit
# ---------------------------------------------------------------------------


def test_criterion_08_riemann_correction_limit():
    hurst = 0.3
    n = 16384
    cfg = ExperimentConfig(
        hurst=hurst,
        p=2.0,
        process="fbm",
        fine_factor=16,
        n_grid=(n,),
        replicas=500,
        master_seed=MASTER_SEED,
        process_params={"ell": 2},
    )
    values = np.array([
        riemann_correction_sum(build_replica_path(cfg, n, rep)) for rep in range(500)
    ])
    med = float(np.median(n ** (2 * hurst) * values))
    target = -1.0 / (2.0 * (2.0 * hurst + 1.0))
    rel = abs(med - target) / abs(target)
    # frozen median at seed 2024: -0.30818 against the limit -0.3125
    ok = rel < 0.10
    _report(8, ok, f"median {med:.5f} vs limit {target:.5f}, rel err {rel:.3f}")
    assert ok, f"scaled correction sum median {med:.5f} is {rel:.1%} from {target:.5f}"


# ---------------------------------------------------------------------------
# 9. sign-weighted increment limit
# ---------------------------------------------------------------------------


def test_criterion_09_sign_weighted_limit():
    hurst = 0.2
    n = 16384
    sums = []
    for rep in range(500):
        rng = philox(MASTER_SEED, spawn_key=(n, rep))
        x = sample_fbm(FbmSpec(hurst=hurst, n=n), rng)
        sums.append(weighted_increment_sum(x, _signed_cube, x.values, 0.0, 1.0))
    med = float(np.median(n ** (hurst - 1.0) * np.array(sums)))
    target = -1.5
    rel = abs(med - target) / abs(target)
    # frozen median at seed 2024: -1.50051
    ok = rel < 0.10
    _report(9, ok, f"median {med:.5f} vs limit {target}, rel err {rel:.3f}")
    assert ok, f"scaled sign-weighted sum median {med:.5f} is {rel:.1%} from {target}"


# ---------------------------------------------------------------------------
# 10. joint scaling exponents
# ---------------------------------------------------------------------------

_SCALING_DELTAS = tuple(2.0 ** (-k) for k in range(6, 0, -1))
_SCALING_GRID = (2048, 4096, 8192, 16384)


def _scaling_config(hurst, rank):
    experiment = ExperimentConfig(
        hurst=hurst,
        p=2.0,
        process="fbm",
        n_grid=_SCALING_GRID,
        replicas=500,
        master_seed=MASTER_SEED,
    )
    return ScalingConfig(experiment, rank, _SCALING_DELTAS, 0.25)


def test_criterion_10_scaling_rank3():
    # rank * hurst = 1.2 saturates the prediction at the square-root value 0.5
    result = scaling_exponent_check(_scaling_config(0.4, 3))
    target = 0.5
    n_ok = abs(result.n_exponent - target) <= 0.15
    d_ok = abs(result.delta_exponent - target) <= 0.15
    ok = n_ok and d_ok
    # frozen at seed 2024: n exponent 0.490, window exponent 0.610
    _report(
        "10 (rank 3)", ok,
        f"n exponent {result.n_exponent:.3f}, window exponent "
        f"{result.delta_exponent:.3f}, target {target} +- 0.15",
    )
    assert n_ok, f"resolution exponent {result.n_exponent:.4f} misses {target} +- 0.15"
    assert d_ok, f"window-length exponent {result.delta_exponent:.4f} misses {target} +- 0.15"


def test_criterion_10_scaling_rank1():
    # rank * hurst = 0.2 < 1/2 is the degenerate regime: n**(H - 1) times the
    # windowed sum converges to -1/2 times the window integral of the weight's
    # first derivative level, so the sum grows like n**(1 - H) delta. For the
    # fbm weight y = x the sum telescopes exactly,
    #   sum_k x_k n**H dx_k = n**H (x_t**2 - x_s**2) / 2 - (n**H / 2) sum_k dx_k**2,
    # and E dx_k**2 = n**(-2H) makes the second term -(delta / 2) n**(1 - H):
    # exponents (1 - H, 1) = (0.8, 1). Losing that Ito-type correction would
    # leave the first term alone, with exponents (H, H), and fail both axes.
    result = scaling_exponent_check(_scaling_config(0.2, 1))
    target = 1.0 - 1 * 0.2
    window_target = 1.0
    n_ok = abs(result.n_exponent - target) <= 0.15
    d_ok = abs(result.delta_exponent - window_target) <= 0.15
    ok = n_ok and d_ok
    # frozen at seed 2024: n exponent 0.8016, window exponent 1.0003
    _report(
        "10 (rank 1)", ok,
        f"n exponent {result.n_exponent:.3f} vs {target}, window exponent "
        f"{result.delta_exponent:.3f} vs {window_target}, +- 0.15",
    )
    assert n_ok, f"resolution exponent {result.n_exponent:.4f} misses {target} +- 0.15"
    assert d_ok, (
        f"window-length exponent {result.delta_exponent:.4f} misses "
        f"{window_target} +- 0.15"
    )


# ---------------------------------------------------------------------------
# 11. CLI determinism
# ---------------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    cfg_file = tmp_path / "experiment.cfg"
    cfg_file.write_text(
        "process=fbm\nhurst=0.5\np=2\nn=64,128\nreplicas=40\nseed=3\n"
    )

    def run(out_dir, config, extra=()):
        cmd = [
            sys.executable, "-m", "roughpvar.cli", "limit-check",
            "--config", str(config), "--out", str(out_dir), *extra,
        ]
        # the CLI process imports the package under test, wherever pytest found it
        paths = (str(Path(roughpvar.__file__).parents[1]), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        # 40 replicas at n = 128 miss the KS gate: the check runs and fails
        assert proc.returncode == 1, f"unexpected exit {proc.returncode}: {proc.stderr}"
        assert proc.stdout.rstrip().endswith("-> FAIL"), proc.stdout
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        return proc.returncode, files

    rc_a, files_a = run(tmp_path / "a", cfg_file)
    rc_b, files_b = run(tmp_path / "b", cfg_file)
    rc_c, files_c = run(tmp_path / "c", (tmp_path / "a") / "manifest.json")
    rc_d, files_d = run(tmp_path / "d", cfg_file, extra=("--workers", "2"))

    same_rc = rc_a == rc_b == rc_c == rc_d
    rerun_ok = files_a == files_b
    replay_ok = files_a == files_c
    workers_ok = files_a == files_d
    ok = same_rc and rerun_ok and replay_ok and workers_ok
    _report(
        11, ok,
        f"{len(files_a)} files, exit {rc_a}; rerun/replay/worker runs byte-identical: "
        f"{rerun_ok}/{replay_ok}/{workers_ok}",
    )
    assert same_rc, f"exit codes diverged: {rc_a}, {rc_b}, {rc_c}, {rc_d}"
    assert rerun_ok, "fresh rerun changed at least one output file"
    assert replay_ok, "manifest replay changed at least one output file"
    assert workers_ok, "worker count changed at least one output file"
