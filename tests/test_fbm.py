"""Tests for exact fractional Brownian simulation and its covariance layer.

Covers:
  1. Covariance / autocovariance closed forms against hand-evaluated values.
  2. Numerical stability of the autocovariance at huge lags, plus the
     telescoping truncated-sum identity.
  3. Distributional checks of sampled paths: increment variance,
     whiteness at hurst = 1/2, and the full empirical covariance matrix.
  4. Determinism, method forcing, the derived-stream layout, and the size
     cap of the dense Cholesky oracle.
  5. The per-(n, H) spectrum cache: draws bit-identical to the uncached
     formula, one entry per Hurst value, read-only entries.
  6. The CSV dump round trip.
"""

import math

import numpy as np
import pytest

from roughpvar import (
    FbmSpec,
    fbm_covariance,
    fgn_autocovariance,
    path_from_csv,
    path_to_csv,
    rng_for_spec,
    sample_fbm,
)
from roughpvar import fbm
from roughpvar.fbm import _circulant_eigenvalues


# ---------------------------------------------------------------------------
# covariance closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_covariance_variance_at_one(hurst):
    assert fbm_covariance(1.0, 1.0, hurst) == pytest.approx(1.0, abs=1e-15)


def test_covariance_brownian_case_is_min():
    assert fbm_covariance(0.5, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert fbm_covariance(0.3, 0.2, 0.5) == pytest.approx(0.2, abs=1e-15)


def test_covariance_quarter_example():
    # 0.5 * (0.25^0.5 + 1 - 0.75^0.5) evaluated by hand
    expected = 0.5 * (0.5 + 1.0 - math.sqrt(0.75))
    assert fbm_covariance(0.25, 1.0, 0.25) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.316987, abs=5e-7)


def test_covariance_symmetry_and_domain():
    assert fbm_covariance(0.3, 0.8, 0.35) == pytest.approx(
        fbm_covariance(0.8, 0.3, 0.35), abs=0.0
    )
    with pytest.raises(ValueError):
        fbm_covariance(0.5, 0.5, 1.2)


def test_autocovariance_known_values():
    assert fgn_autocovariance(0, 0.3) == pytest.approx(1.0, abs=0.0)
    assert fgn_autocovariance(1, 0.5) == pytest.approx(0.0, abs=1e-15)
    expected = 2.0 ** (-0.4) - 1.0
    assert fgn_autocovariance(1, 0.3) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-0.242142, abs=5e-7)


def test_autocovariance_even_symmetry():
    lags = np.array([1, 2, 17, 1000, 10**6])
    for hurst in (0.2, 0.45, 0.7):
        pos = fgn_autocovariance(lags, hurst)
        neg = fgn_autocovariance(-lags, hurst)
        assert np.array_equal(pos, neg), f"asymmetry at hurst={hurst}"


def test_autocovariance_stable_at_large_lags():
    # naive float evaluation of 0.5*((k+1)^2H + (k-1)^2H - 2 k^2H) is pure
    # cancellation noise past k ~ 1e6; the series form H(2H-1) k^{2H-2}
    # (relative correction O(k^-2)) is the reference at these lags
    hurst = 0.3
    k = np.array([10**4, 10**5, 10**6, 10**7], dtype=float)
    got = fgn_autocovariance(k, hurst)
    lead = hurst * (2 * hurst - 1) * k ** (2 * hurst - 2)
    rel = np.abs(got - lead) / np.abs(lead)
    print(f"  relative gap to series form: {rel}")
    assert np.all(rel < 1e-6), rel
    assert np.all(got < 0.0), "negatively correlated for hurst < 1/2"

    naive = 0.5 * ((k + 1) ** (2 * hurst) + (k - 1) ** (2 * hurst) - 2 * k ** (2 * hurst))
    naive_rel = abs(naive[-1] - lead[-1]) / abs(lead[-1])
    print(f"  naive form relative error at k=1e7: {naive_rel:.2e}")
    assert naive_rel > 1e-3, "lag too small to distinguish the two forms"


def test_truncated_sum_telescopes():
    # sum_{|k| <= K} rho(k) = (K+1)^{2H} - K^{2H}, which for hurst < 1/2
    # decreases in K and vanishes in the limit
    hurst = 0.3
    for cutoff in (10, 1000, 10**5):
        lags = np.arange(1, cutoff + 1)
        total = 1.0 + 2.0 * fgn_autocovariance(lags, hurst).sum()
        expected = (cutoff + 1) ** (2 * hurst) - cutoff ** (2 * hurst)
        assert total == pytest.approx(expected, rel=1e-8, abs=1e-12), cutoff


def test_truncated_sum_small_at_ten_million():
    hurst = 0.3
    lags = np.arange(1, 10**7 + 1)
    total = abs(1.0 + 2.0 * fgn_autocovariance(lags, hurst).sum())
    smaller = abs(1.0 + 2.0 * fgn_autocovariance(lags[: 10**6], hurst).sum())
    print(f"  |truncated sum| at K=1e7: {total:.3e}, at K=1e6: {smaller:.3e}")
    assert total < 2e-3
    assert total < smaller, "should decrease with the cutoff"


# ---------------------------------------------------------------------------
# sampling law
# ---------------------------------------------------------------------------


def test_sample_determinism():
    spec = FbmSpec(hurst=0.3, n=128, seed=12)
    a = sample_fbm(spec)
    b = sample_fbm(spec)
    assert np.array_equal(a.values, b.values)
    c = sample_fbm(FbmSpec(hurst=0.3, n=128, seed=13))
    assert not np.array_equal(a.values, c.values)


def test_path_invariants():
    path = sample_fbm(FbmSpec(hurst=0.7, n=64, seed=5))
    assert path.values[0] == 0.0
    assert len(path.values) == 65
    assert not path.values.flags.writeable


@pytest.mark.parametrize("hurst", [0.15, 0.3, 0.5, 0.8])
def test_increment_variance_matches_self_similarity(hurst):
    n, replicas = 16, 10**4
    spec = FbmSpec(hurst=hurst, n=n, seed=303)
    rng = rng_for_spec(spec)
    acc = np.zeros(n)
    for _ in range(replicas):
        acc += np.diff(sample_fbm(spec, rng).values) ** 2
    emp = acc / replicas
    target = float(n) ** (-2 * hurst)
    # chi-squared standard error of a variance estimate
    se = target * math.sqrt(2.0 / replicas)
    worst = np.max(np.abs(emp - target))
    print(f"  hurst={hurst}: worst |emp - n^-2H| = {worst:.2e}, 3se = {3 * se:.2e}")
    assert worst < 3 * se


def test_half_hurst_increments_are_white():
    n, replicas = 1024, 50
    spec = FbmSpec(hurst=0.5, n=n, seed=7)
    rng = rng_for_spec(spec)
    acfs = []
    for _ in range(replicas):
        d = np.diff(sample_fbm(spec, rng).values)
        d = d - d.mean()
        acfs.append(float(np.dot(d[:-1], d[1:]) / np.dot(d, d)))
    mean_acf = abs(float(np.mean(acfs)))
    print(f"  mean lag-1 acf over {replicas} paths: {mean_acf:.4f}")
    assert mean_acf < 3.0 / math.sqrt(n)


def test_empirical_covariance_matrix():
    # full Gaussian law check at n=64 over 2e4 replicas, entrywise 4 SE
    hurst, n, replicas = 0.35, 64, 2 * 10**4
    spec = FbmSpec(hurst=hurst, n=n, seed=42)
    rng = rng_for_spec(spec)
    paths = np.empty((replicas, n))
    for r in range(replicas):
        paths[r] = sample_fbm(spec, rng).values[1:]
    emp = paths.T @ paths / replicas
    times = np.arange(1, n + 1) / n
    s, t = np.meshgrid(times, times, indexing="ij")
    theory = fbm_covariance(s, t, hurst)
    # SE of a Gaussian cross moment: sqrt((C_ss C_tt + C_st^2)/M)
    se = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / replicas)
    violations = int(np.sum(np.abs(emp - theory) > 4 * se))
    print(f"  entries beyond 4se: {violations} of {n * n}")
    assert violations == 0


def test_cholesky_refuses_n_above_4096():
    # The dense covariance takes 8 n**2 bytes; the cap keeps it at 128 MiB.
    # Only the specs are built here: nothing is factored.
    assert FbmSpec(hurst=0.3, n=4096, method="cholesky").n == 4096
    with pytest.raises(ValueError, match="n <= 4096"):
        FbmSpec(hurst=0.3, n=4097, method="cholesky")
    assert FbmSpec(hurst=0.3, n=4097, method="circulant-embedding").n == 4097


def test_cholesky_and_circulant_agree_in_law():
    hurst, n, replicas = 0.3, 32, 10**4
    var_by_method = {}
    for method in ("cholesky", "circulant-embedding"):
        spec = FbmSpec(hurst=hurst, n=n, seed=99, method=method)
        rng = rng_for_spec(spec)
        ends = [sample_fbm(spec, rng).values[-1] for _ in range(replicas)]
        var_by_method[method] = float(np.var(ends))
    for method, var in var_by_method.items():
        se = math.sqrt(2.0 / replicas)
        assert abs(var - 1.0) < 4 * se, f"{method}: terminal var {var:.4f}"


@pytest.mark.parametrize("method", ["auto", "circulant-embedding"])
def test_indefinite_embedding_raises(monkeypatch, method):
    # No Cholesky fallback: an indefinite embedding is an error under auto.
    monkeypatch.setattr(fbm, "_circulant_eigenvalues", lambda n, hurst: None)
    with pytest.raises(RuntimeError, match="not nonnegative definite"):
        sample_fbm(FbmSpec(hurst=0.3, n=32, method=method))


@pytest.mark.parametrize("method", ["auto", "circulant-embedding"])
def test_indefinite_embedding_raises_after_a_cached_draw(monkeypatch, method):
    # A draw at (32, 0.3) fills the spectrum cache first; the replaced
    # eigenvalue function must still take effect, on every call.
    spec = FbmSpec(hurst=0.3, n=32, method=method)
    sample_fbm(spec)
    monkeypatch.setattr(fbm, "_circulant_eigenvalues", lambda n, hurst: None)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="not nonnegative definite"):
            sample_fbm(spec)


def test_circulant_eigenvalues_nonnegative_across_hurst():
    for hurst in (0.1, 0.25, 0.5, 0.75, 0.9):
        lam = _circulant_eigenvalues(256, hurst)
        assert lam is not None, f"embedding failed at hurst={hurst}"
        assert np.all(lam >= 0.0)


def test_derived_streams_differ_by_spawn_key():
    base = 77
    streams = []
    for key in ((64, 0), (64, 1), (128, 0)):
        seq = np.random.SeedSequence(base, spawn_key=key)
        rng = np.random.Generator(np.random.Philox(seq))
        streams.append(sample_fbm(FbmSpec(hurst=0.4, n=64, seed=base), rng).values)
    assert not np.array_equal(streams[0], streams[1])
    assert not np.array_equal(streams[0], streams[2])


# ---------------------------------------------------------------------------
# the per-(n, H) spectrum cache
# ---------------------------------------------------------------------------


def _reference_fgn(n, hurst, rng):
    """The per-draw circulant formula as it was before the spectrum cache."""
    lam = _circulant_eigenvalues(n, hurst)
    z = rng.standard_normal(2 * n)
    half = np.empty(n + 1, dtype=complex)
    half[0] = np.sqrt(lam[0]) * z[0]
    half[n] = np.sqrt(lam[n]) * z[1]
    if n > 1:
        k = np.arange(1, n)
        half[1:n] = np.sqrt(0.5 * lam[1:n]) * (z[2 * k] + 1j * z[2 * k + 1])
    g = np.fft.irfft(half, 2 * n) * np.sqrt(2 * n)
    return g[:n]


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4096])
@pytest.mark.parametrize("hurst", [0.05, 0.25, 0.5, 0.7])
def test_cached_draw_matches_reference_formula_bit_for_bit(n, hurst):
    fbm._draw_scale.cache_clear()
    for replica, expect_hits in enumerate((0, 1)):
        seq = np.random.SeedSequence(11, spawn_key=(n, replica))
        want = _reference_fgn(n, hurst, np.random.Generator(np.random.Philox(seq)))
        got = fbm._fgn_circulant(n, hurst, np.random.Generator(np.random.Philox(seq)))
        info = fbm._draw_scale.cache_info()
        assert (info.misses, info.hits) == (1, expect_hits)
        assert got.tobytes() == want.tobytes(), f"replica {replica}"


def test_hurst_values_at_one_n_never_share_an_entry():
    fbm._draw_scale.cache_clear()
    hursts = (0.3, np.nextafter(0.3, 1.0), 0.4)
    scales = [fbm._draw_scale(_circulant_eigenvalues, 64, hurst) for hurst in hursts]
    assert fbm._draw_scale.cache_info().misses == len(hursts)
    assert len({id(scale) for scale in scales}) == len(hursts)
    assert not np.array_equal(scales[0], scales[2])


def test_cached_scale_is_read_only():
    scale = fbm._draw_scale(_circulant_eigenvalues, 64, 0.3)
    assert not scale.flags.writeable
    with pytest.raises(ValueError):
        scale[0] = 0.0


# ---------------------------------------------------------------------------
# CSV dump
# ---------------------------------------------------------------------------


def test_csv_round_trip():
    spec = FbmSpec(hurst=0.45, n=37, seed=8)
    path = sample_fbm(spec)
    text = path_to_csv(path)
    assert text.splitlines()[0] == "t,x"
    back = path_from_csv(text, spec)
    assert np.array_equal(back.values, path.values), "17g round trip must be exact"
