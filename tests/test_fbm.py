"""Tests for exact fractional Brownian simulation and its covariance layer.

Covers:
  1. Covariance / autocovariance closed forms against hand-evaluated values.
  2. Numerical stability of the autocovariance at huge lags, the
     telescoping truncated-sum identity, and blockwise evaluation: any
     split of the lags gives the same bits as one call.
  3. Distributional checks of sampled paths: increment variance,
     whiteness at hurst = 1/2, and the full empirical covariance matrix.
  4. Determinism, method forcing, the derived-stream layout, and the size
     cap of the dense Cholesky oracle.
  5. The per-(n, H) spectrum cache: draws bit-identical to the uncached
     formula, one entry per Hurst value, read-only entries, frozen bits
     of the draw scale, and its peak memory.
  6. Spec and path refusals: a size that is not an integer >= 1, a Hurst
     index that is not a number, an unknown method, a malformed value
     array; and the two checkers every config's refusals go through.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpvar import (
    FbmPath,
    FbmSpec,
    fbm_covariance,
    fgn_autocovariance,
    sample_fbm,
)
from roughpvar import fbm
from roughpvar.fbm import RunError, _circulant_eigenvalues, check_integer, check_number
from streams import philox


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
    with pytest.raises(ValueError, match="nonnegative"):
        fbm_covariance(-0.1, 0.5, 0.35)


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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 3),
    cols=st.integers(1, fbm._LAG_BLOCK),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
    hurst=st.floats(0.01, 0.99),
)
def test_autocovariance_split_matches_one_call_bit_for_bit(seed, rows, cols, cuts, hurst):
    # every step is elementwise, so evaluating in blocks of _LAG_BLOCK lags
    # must give the bits of any other split: up to 3 blocks, negative and
    # fractional lags, |k| <= 1 (the direct branch) next to huge lags
    rng = np.random.default_rng(seed)
    size = rows * cols
    lags = rng.integers(-(10**7), 10**7, size=size).astype(float)
    near = rng.random(size) < 0.2
    lags[near] = rng.uniform(-2.0, 2.0, size=int(near.sum()))
    whole = fgn_autocovariance(lags, hurst)
    bounds = sorted({0, size, *(int(c * size) for c in cuts)})
    parts = [fgn_autocovariance(lags[a:b], hurst) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    grid = fgn_autocovariance(lags.reshape(rows, cols), hurst)
    assert grid.shape == (rows, cols)
    assert grid.tobytes() == whole.tobytes()
    assert fgn_autocovariance(lags[-1], hurst).hex() == float(whole[-1]).hex()


# ---------------------------------------------------------------------------
# sampling law
# ---------------------------------------------------------------------------


def test_sample_determinism():
    spec = FbmSpec(hurst=0.3, n=128)
    a = sample_fbm(spec, philox(12))
    b = sample_fbm(spec, philox(12))
    assert np.array_equal(a.values, b.values)
    c = sample_fbm(spec, philox(13))
    assert not np.array_equal(a.values, c.values)


def test_path_invariants():
    path = sample_fbm(FbmSpec(hurst=0.7, n=64), philox(5))
    assert path.values[0] == 0.0
    assert len(path.values) == 65
    assert not path.values.flags.writeable


@pytest.mark.parametrize("hurst", [0.15, 0.3, 0.5, 0.8])
def test_increment_variance_matches_self_similarity(hurst):
    n, replicas = 16, 10**4
    spec = FbmSpec(hurst=hurst, n=n)
    rng = philox(303)
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
    spec = FbmSpec(hurst=0.5, n=n)
    rng = philox(7)
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
    spec = FbmSpec(hurst=hurst, n=n)
    rng = philox(42)
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
    assert FbmSpec(hurst=0.3, n=4097, method="auto").n == 4097


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: FbmSpec(hurst=0.3, n=0), "n must be >= 1"),
        (lambda: FbmSpec(hurst=0.3, n=64.5), "n must be an integer"),
        (lambda: FbmSpec(hurst=0.3, n=True), "n must be an integer, got True"),
        (lambda: FbmSpec(hurst=0.3, n=8, method="fft"), "method must be one of"),
        (lambda: FbmPath(FbmSpec(hurst=0.3, n=8), np.zeros(8)), r"shape \(9,\)"),
        (lambda: FbmPath(FbmSpec(hurst=0.3, n=8), np.ones(9)), "start at zero"),
        # a hurst that is not a number raised TypeError from the range check
        (lambda: FbmSpec(hurst=None, n=8), "hurst must be a number, got None"),
        (lambda: FbmSpec(hurst="0.3", n=8), "hurst must be a number, got '0.3'"),
    ],
    ids=["n-below-1", "n-not-integer", "n-bool", "unknown-method", "wrong-shape",
         "nonzero-start", "hurst-none", "hurst-string"],
)
def test_malformed_spec_or_path_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize(
    "check, value, outcome",
    [
        (check_integer, 3, 3),
        (check_integer, np.int64(3), 3),
        (check_integer, 1, 1),
        (check_integer, 0, "x must be >= 1"),
        (check_integer, True, "x must be an integer, got True"),
        (check_integer, np.True_, "x must be an integer, got np.True_"),
        (check_integer, 2.5, "x must be an integer, got 2.5"),
        (check_integer, "2", "x must be an integer, got '2'"),
        (check_integer, None, "x must be an integer, got None"),
        (check_number, 2, None),
        (check_number, 2.5, None),
        (check_number, np.float64(2.5), None),
        (check_number, True, "x must be a number, got True"),
        (check_number, np.False_, "x must be a number, got np.False_"),
        (check_number, "2", "x must be a number, got '2'"),
        (check_number, None, "x must be a number, got None"),
        (check_number, [1.0], r"x must be a number, got \[1.0\]"),
    ],
    ids=["int-int", "int-np-int64", "int-at-minimum", "int-below-minimum", "int-bool",
         "int-np-bool", "int-float", "int-string", "int-none", "number-int", "number-float",
         "number-np-float64", "number-bool", "number-np-bool", "number-string",
         "number-none", "number-list"],
)
def test_setting_checkers(check, value, outcome):
    # The one decision of what an integer or a number is: no bool is either.
    # check_integer returns a plain int; check_number returns nothing.
    args = ("x", value, 1) if check is check_integer else ("x", value)
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=f"^{outcome}$"):
            check(*args)
    else:
        result = check(*args)
        assert result == outcome and type(result) is type(outcome)


def test_numpy_integer_size_accepted():
    assert FbmSpec(hurst=0.3, n=np.int64(64)).n == 64


def test_cholesky_and_circulant_agree_in_law():
    hurst, n, replicas = 0.3, 32, 10**4
    var_by_method = {}
    for method in ("cholesky", "auto"):
        spec = FbmSpec(hurst=hurst, n=n, method=method)
        rng = philox(99)
        ends = [sample_fbm(spec, rng).values[-1] for _ in range(replicas)]
        var_by_method[method] = float(np.var(ends))
    for method, var in var_by_method.items():
        se = math.sqrt(2.0 / replicas)
        assert abs(var - 1.0) < 4 * se, f"{method}: terminal var {var:.4f}"


def test_indefinite_embedding_raises(monkeypatch):
    # No Cholesky fallback: an indefinite embedding is an error under auto.
    # The row 1, -0.9, -0.9, ... has first eigenvalue 1 - 0.9 (2n - 1) < 0,
    # so the spectrum's own check fires.
    def indefinite_autocovariance(k, hurst):
        return np.where(np.asarray(k) == 0.0, 1.0, -0.9)

    monkeypatch.setattr(fbm, "fgn_autocovariance", indefinite_autocovariance)
    fbm._draw_scale.cache_clear()
    with pytest.raises(RunError, match="not nonnegative definite"):
        sample_fbm(FbmSpec(hurst=0.3, n=32, method="auto"), philox(0))


def test_indefinite_embedding_raises_after_a_cached_draw(monkeypatch):
    # A draw at (32, 0.3) fills the spectrum cache first; the replaced
    # eigenvalue function must still take effect, on every call.
    spec = FbmSpec(hurst=0.3, n=32, method="auto")
    sample_fbm(spec, philox(0))
    calls = []

    def indefinite(n, hurst):
        calls.append((n, hurst))
        raise RunError("circulant embedding is not nonnegative definite")

    monkeypatch.setattr(fbm, "_circulant_eigenvalues", indefinite)
    for _ in range(2):
        with pytest.raises(RunError, match="not nonnegative definite"):
            sample_fbm(spec, philox(0))
    assert calls == [(32, 0.3), (32, 0.3)]


def test_circulant_eigenvalues_nonnegative_across_hurst():
    for hurst in (0.1, 0.25, 0.5, 0.75, 0.9):
        lam = _circulant_eigenvalues(256, hurst)
        assert np.all(lam >= 0.0)


def test_derived_streams_differ_by_spawn_key():
    base = 77
    streams = []
    for key in ((64, 0), (64, 1), (128, 0)):
        streams.append(sample_fbm(FbmSpec(hurst=0.4, n=64), philox(base, key)).values)
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
        want = _reference_fgn(n, hurst, philox(11, (n, replica)))
        got = fbm._fgn_circulant(n, hurst, philox(11, (n, replica)))
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


def test_spectrum_frozen_bits():
    # one sha256 over the draw scale at 28 (n, H), odd and even n around a
    # block boundary among them: building the spectrum in other steps must
    # not move a single bit
    digest = hashlib.sha256()
    for n in (1, 2, 3, 32767, 32768, 32769, 262144):
        for hurst in (0.1, 0.25, 0.4, 0.7):
            scale = fbm._draw_scale.__wrapped__(_circulant_eigenvalues, n, hurst)
            digest.update(scale.tobytes())
    assert digest.hexdigest() == "f1bd419c7b9d39e991154b644cd5250764969e28a8189cdb82b528c78d45fc63"


def test_draw_scale_peak_memory():
    # uncached: the 2n embedding row next to the n + 1 complex eigenvalues
    # is the peak, 32 (n + 1) bytes; 2 MiB covers the autocovariance blocks
    n = 2**20
    tracemalloc.start()
    try:
        fbm._draw_scale.__wrapped__(_circulant_eigenvalues, n, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"  peak {peak / 2**20:.1f} MiB at n = {n}")
    assert peak <= 32 * (n + 1) + 2 * 2**20
