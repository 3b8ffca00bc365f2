"""Exact simulation of fractional Brownian motion on uniform grids.

Sampling goes through a circulant embedding of the stationary increment
sequence, which reproduces the target covariance exactly (no spectral
truncation). The embedding of fractional Gaussian noise was found
nonnegative definite for every H in 0.01..0.99 and n up to 65,536, so an
indefinite one raises instead of falling back: dense Cholesky at the fine
sizes in use would not fit in memory (8 n**2 bytes, 512 GiB at n = 262,144).
The dense Cholesky factorization stays available as ``method='cholesky'``,
an independent oracle for n up to 4096, where the covariance and its factor
take 128 MiB each.

Each process computes the embedding spectrum, in the scaled form a draw
uses, once per (n, H) and reuses it for every later draw. The cache keeps
the 8 most recent entries, read-only, and the drawn values are bit for bit
those of the per-draw computation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

Method = Literal["auto", "circulant-embedding", "cholesky"]

_METHODS = ("auto", "circulant-embedding", "cholesky")

# Largest n that method='cholesky' accepts: its dense covariance and factor
# take 8 n**2 bytes each.
_CHOLESKY_MAX_N = 4096

# Relative tolerance for clamping tiny negative embedding eigenvalues that are
# pure roundoff; anything more negative means the embedding genuinely failed.
_EIGEN_CLAMP_REL = 1e-12


def fbm_covariance(s: float, t: float, hurst: float) -> float:
    """Covariance E[x_s x_t] of fractional Brownian motion.

    Parameters
    ----------
    s, t : float or array_like
        Nonnegative time points; arrays broadcast against each other.
    hurst : float
        Self-similarity index, in (0, 1).

    Returns
    -------
    float or ndarray
        ``0.5 * (s**(2H) + t**(2H) - |t - s|**(2H))``.
    """
    _check_hurst(hurst)
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(s_arr < 0) or np.any(t_arr < 0):
        raise ValueError("time points must be nonnegative")
    h2 = 2.0 * hurst
    out = 0.5 * (s_arr**h2 + t_arr**h2 - np.abs(t_arr - s_arr) ** h2)
    return float(out) if out.ndim == 0 else out


def fgn_autocovariance(k, hurst: float):
    """Autocovariance of unit-variance fractional Gaussian noise at lag ``k``.

    Evaluates ``0.5 * (|k+1|**(2H) + |k-1|**(2H) - 2|k|**(2H))`` in a form
    that stays accurate at large lags: the naive second difference loses
    roughly ``log10(k**2)`` digits to cancellation, so for ``|k| >= 2`` the
    function factors out ``|k|**(2H)`` and uses expm1/log1p.

    Accepts scalars or arrays; lags may be negative (the function is even).
    """
    _check_hurst(hurst)
    k_arr = np.abs(np.asarray(k, dtype=float))
    scalar = k_arr.ndim == 0
    k_arr = np.atleast_1d(k_arr)
    h2 = 2.0 * hurst
    out = np.empty_like(k_arr)

    small = k_arr <= 1.0
    ks = k_arr[small]
    out[small] = 0.5 * ((ks + 1.0) ** h2 + np.abs(ks - 1.0) ** h2 - 2.0 * ks**h2)

    big = ~small
    kb = k_arr[big]
    plus = np.expm1(h2 * np.log1p(1.0 / kb))
    minus = np.expm1(h2 * np.log1p(-1.0 / kb))
    out[big] = 0.5 * kb**h2 * (plus + minus)

    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class FbmSpec:
    """Configuration for one fractional Brownian path on [0, 1].

    Attributes
    ----------
    hurst : float
        Self-similarity index, in (0, 1).
    n : int
        Number of grid cells; the path is returned at t_k = k / n.
    seed : int
        Seed used when no generator is supplied to :func:`sample_fbm`.
    method : str
        One of ``auto`` (the circulant embedding), ``circulant-embedding``,
        ``cholesky`` (n up to 4096 only).
    """

    hurst: float
    n: int
    seed: int = 0
    method: Method = "auto"

    def __post_init__(self) -> None:
        _check_hurst(self.hurst)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.method == "cholesky" and self.n > _CHOLESKY_MAX_N:
            raise ValueError(
                f"method='cholesky' needs n <= {_CHOLESKY_MAX_N}, got {self.n}: "
                "its dense covariance takes 8 n**2 bytes"
            )


@dataclass(frozen=True)
class FbmPath:
    """A sampled path: values[k] = x_{k/n}, with values[0] = 0."""

    spec: FbmSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.spec.n + 1,):
            raise ValueError(
                f"values must have shape ({self.spec.n + 1},), got {values.shape}"
            )
        if values[0] != 0.0:
            raise ValueError("paths start at zero: values[0] must be 0.0")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def hurst(self) -> float:
        return self.spec.hurst

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.spec.n + 1) / self.spec.n


def rng_for_spec(spec: FbmSpec) -> np.random.Generator:
    """Default generator for a spec: counter-based, so streams derived from
    distinct seeds never overlap."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))


def sample_fbm(spec: FbmSpec, rng: np.random.Generator | None = None) -> FbmPath:
    """Draw one exact fractional Brownian path at resolution ``spec.n``.

    The increments are unit-variance fractional Gaussian noise scaled by
    ``n**-hurst`` (self-similarity on the unit interval). ``method='auto'``
    and ``circulant-embedding`` both use the circulant embedding and raise
    :class:`RuntimeError` if it is not nonnegative definite; ``cholesky``
    factors the dense covariance.
    """
    if rng is None:
        rng = rng_for_spec(spec)
    n = spec.n

    if spec.method == "cholesky":
        noise = _fgn_cholesky(n, spec.hurst, rng)
    else:
        noise = _fgn_circulant(n, spec.hurst, rng)
        if noise is None:
            raise RuntimeError(
                "circulant embedding is not nonnegative definite for "
                f"(hurst={spec.hurst}, n={n}); use method='cholesky'"
            )

    values = np.empty(n + 1)
    values[0] = 0.0
    np.cumsum(noise, out=values[1:])
    values[1:] *= float(n) ** (-spec.hurst)
    return FbmPath(spec=spec, values=values)


def _time_to_index(t, n: int):
    """Map grid times to indices, rejecting off-grid points."""
    idx = np.asarray(t, dtype=float) * n
    rounded = np.rint(idx)
    if np.any(np.abs(idx - rounded) > 1e-9 * max(n, 1)):
        raise ValueError(f"time {t!r} does not lie on the grid with n={n}")
    if np.any(rounded < 0) or np.any(rounded > n):
        raise ValueError(f"time {t!r} outside [0, 1]")
    out = rounded.astype(int)
    return int(out) if out.ndim == 0 else out


def _circulant_eigenvalues(n: int, hurst: float) -> np.ndarray | None:
    """Eigenvalues of the 2n circulant embedding, or None if indefinite."""
    lags = fgn_autocovariance(np.arange(n + 1), hurst)
    row = np.concatenate([lags, lags[-2:0:-1]])
    lam = np.fft.rfft(row).real
    floor = -_EIGEN_CLAMP_REL * lam.max()
    if lam.min() < floor:
        return None
    return np.clip(lam, 0.0, None)


@functools.lru_cache(maxsize=8)
def _draw_scale(eigenvalues: Callable, n: int, hurst: float) -> np.ndarray | None:
    """Per-draw scale of the 2n circulant embedding, or None if indefinite.

    With ``lam = eigenvalues(n, hurst)``, entries 0 and n are ``sqrt(lam[0])``
    and ``sqrt(lam[n])``, and entry k in 1..n-1 is ``sqrt(0.5 * lam[k])``.
    Each process keeps the last 8 results (about 2 MB each at n = 262,144),
    read-only. The eigenvalue function is part of the key, so replacing
    :func:`_circulant_eigenvalues` never serves an entry it did not compute.
    """
    lam = eigenvalues(n, hurst)
    if lam is None:
        return None
    scale = np.empty(n + 1)
    scale[0] = np.sqrt(lam[0])
    scale[n] = np.sqrt(lam[n])
    scale[1:n] = np.sqrt(0.5 * lam[1:n])
    scale.setflags(write=False)
    return scale


def _fgn_circulant(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray | None:
    """Unit fractional Gaussian noise of length n, or None on embedding failure.

    Uses 2n standard normal draws regardless of n, which keeps the draw
    pattern stable for stream-derivation purposes: z[0] and z[1] feed the
    real frequencies 0 and n, and the pair (z[2k], z[2k+1]) is the k-th
    complex normal.
    """
    scale = _draw_scale(_circulant_eigenvalues, n, hurst)
    if scale is None:
        return None
    z = rng.standard_normal(2 * n)
    half = np.empty(n + 1, dtype=complex)
    half[0] = scale[0] * z[0]
    half[n] = scale[n] * z[1]
    np.multiply(scale[1:n], z.view(complex)[1:], out=half[1:n])
    g = np.fft.irfft(half, 2 * n)
    g *= np.sqrt(2 * n)
    return g[:n]


def _fgn_cholesky(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    # Imported here, the only place that needs scipy.linalg, so a run that
    # never asks for the dense oracle does not load it.
    from scipy.linalg import cholesky, toeplitz

    cov = toeplitz(fgn_autocovariance(np.arange(n), hurst))
    lower = cholesky(cov, lower=True)
    return lower @ rng.standard_normal(n)


def _check_hurst(hurst: float) -> None:
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst index must lie in (0, 1), got {hurst}")


def path_to_csv(path: FbmPath) -> str:
    """Dump a path as CSV with header ``t,x``, 17 significant digits."""
    lines = ["t,x"]
    n = path.n
    for i, value in enumerate(path.values):
        lines.append(f"{i / n:.17g},{value:.17g}")
    return "\n".join(lines) + "\n"


def path_from_csv(text: str, spec: FbmSpec) -> FbmPath:
    """Rebuild a path from a ``t,x`` dump produced by :func:`path_to_csv`."""
    rows = text.strip().splitlines()
    if rows[0] != "t,x":
        raise ValueError("expected a 't,x' header")
    values = np.array([float(row.split(",")[1]) for row in rows[1:]])
    return FbmPath(spec, values)
