"""Exact simulation of fractional Brownian motion on uniform grids.

Sampling goes through a circulant embedding of the stationary increment
sequence, which reproduces the target covariance exactly (no spectral
truncation). The embedding of fractional Gaussian noise was found
nonnegative definite for every H in 0.01..0.99 and n up to 65,536, so an
indefinite one raises where its spectrum is computed instead of falling
back: dense Cholesky at the fine sizes in use would not fit in memory
(8 n**2 bytes, 512 GiB at n = 262,144). The dense Cholesky factorization
stays available as ``method='cholesky'``, an independent oracle for n up
to 4096, where the covariance and its factor take 128 MiB each.

One function, :func:`fgn_autocovariance`, evaluates the fGn
autocovariance: for σ², for the Cholesky oracle and for the spectrum. Each
process computes the embedding spectrum, in the scaled form a draw uses,
once per (n, H) and reuses it for every later draw. The cache keeps the 8
most recent entries, read-only, and the drawn values are bit for bit those
of the per-draw computation. The computation asks for the lags one block of
at most 2**15 at a time, so no lag array of the full length exists, writes
them into the 2n embedding row, mirrors the row in place and frees it after
the FFT, so it peaks at 32 n bytes: the row and the complex eigenvalues,
which are then clipped and scaled without a temporary (32.1 MiB traced at
n = 2**20).

:func:`check_integer` and :func:`check_number` check every config's
integer and numeric settings: the one place that decides what counts as an
integer or a number (a bool is neither).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

Method = Literal["auto", "cholesky"]

_METHODS = ("auto", "cholesky")

# Largest n that method='cholesky' accepts: its dense covariance and factor
# take 8 n**2 bytes each.
_CHOLESKY_MAX_N = 4096

# Lags per autocovariance call of the spectrum: each float64 temporary of a
# block takes 256 KB, so the temporaries stay in L2.
_LAG_BLOCK = 2**15

# Relative tolerance for clamping tiny negative embedding eigenvalues that are
# pure roundoff; anything more negative means the embedding genuinely failed.
_EIGEN_CLAMP_REL = 1e-12


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a plain int. Refuses a bool (numpy's too), which every
    count would read as 0 or 1, any other value that is not an integer, and
    one below ``minimum``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def check_number(name: str, value, refusal: str | None = None) -> None:
    """Refuse a bool (numpy's too), which every numeric check would read as
    0 or 1, and any other value that is not a real number, with ``refusal``
    as the message for the latter when it is given."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, numbers.Real):
        raise ValueError(refusal or f"{name} must be a number, got {value!r}")


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

    Accepts scalars or arrays of any shape; lags may be negative (the
    function is even). Every step is elementwise, so any split of the input
    gives the bits of one call on all of it; its temporaries are a few
    arrays of the input's size.
    """
    _check_hurst(hurst)
    k_abs = np.abs(np.asarray(k, dtype=float))
    out = np.empty(k_abs.shape)
    h2 = 2.0 * hurst
    small = k_abs <= 1.0
    ks = k_abs[small]
    out[small] = 0.5 * ((ks + 1.0) ** h2 + np.abs(ks - 1.0) ** h2 - 2.0 * ks**h2)
    big = ~small
    kb = k_abs[big]
    plus = np.expm1(h2 * np.log1p(1.0 / kb))
    minus = np.expm1(h2 * np.log1p(-1.0 / kb))
    out[big] = 0.5 * kb**h2 * (plus + minus)
    return float(out) if out.ndim == 0 else out


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
        Not read (``harness.replica_rng`` derives every replica stream);
        kept because the benchmark script passes it.
    method : str
        ``auto`` (the circulant embedding) or ``cholesky`` (n up to 4096
        only).
    """

    hurst: float
    n: int
    seed: int = 0
    method: Method = "auto"

    def __post_init__(self) -> None:
        _check_hurst(self.hurst)
        check_integer("n", self.n, 1)
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

    @classmethod
    def _adopt(cls, spec: FbmSpec, values: np.ndarray) -> "FbmPath":
        """Wrap a fresh array that nothing else references, without the
        copy the constructor makes; it becomes read-only."""
        values.setflags(write=False)
        path = cls.__new__(cls)
        object.__setattr__(path, "spec", spec)
        object.__setattr__(path, "values", values)
        return path

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def hurst(self) -> float:
        return self.spec.hurst

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.spec.n + 1) / self.spec.n


def sample_fbm(spec: FbmSpec, rng: np.random.Generator) -> FbmPath:
    """Draw one exact fractional Brownian path at resolution ``spec.n`` from ``rng``.

    The increments are unit-variance fractional Gaussian noise scaled by
    ``n**-hurst`` (self-similarity on the unit interval). ``method='auto'``
    uses the circulant embedding and raises :class:`RuntimeError` if it is
    not nonnegative definite; ``cholesky`` factors the dense covariance.
    """
    n = spec.n

    if spec.method == "cholesky":
        noise = _fgn_cholesky(n, spec.hurst, rng)
    else:
        noise = _fgn_circulant(n, spec.hurst, rng)

    values = np.empty(n + 1)
    values[0] = 0.0
    np.cumsum(noise, out=values[1:])
    values[1:] *= float(n) ** (-spec.hurst)
    return FbmPath._adopt(spec, values)


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


def _circulant_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """Eigenvalues of the 2n circulant embedding; :class:`RuntimeError` if
    it is not nonnegative definite.

    The result is the real part of the ``rfft`` output, a strided view.
    """
    row = np.empty(2 * n)
    for start in range(0, n + 1, _LAG_BLOCK):
        stop = min(start + _LAG_BLOCK, n + 1)
        row[start:stop] = fgn_autocovariance(np.arange(start, stop, dtype=float), hurst)
    row[n + 1 :] = row[n - 1 : 0 : -1]
    lam = np.fft.rfft(row).real
    # The row is spent; the peak is the row and the complex spectrum.
    del row
    floor = -_EIGEN_CLAMP_REL * lam.max()
    if lam.min() < floor:
        raise RuntimeError(
            "circulant embedding is not nonnegative definite for "
            f"(hurst={hurst}, n={n}); use method='cholesky'"
        )
    return np.clip(lam, 0.0, None, out=lam)


@functools.lru_cache(maxsize=8)
def _draw_scale(eigenvalues: Callable, n: int, hurst: float) -> np.ndarray:
    """Per-draw scale of the 2n circulant embedding.

    With ``lam = eigenvalues(n, hurst)``, entries 0 and n are ``sqrt(lam[0])``
    and ``sqrt(lam[n])``, and entry k in 1..n-1 is ``sqrt(0.5 * lam[k])``.
    Each process keeps the last 8 results (about 2 MB each at n = 262,144),
    read-only. The eigenvalue function is part of the key, so replacing
    :func:`_circulant_eigenvalues` never serves an entry it did not compute.
    """
    lam = eigenvalues(n, hurst)
    scale = np.empty(n + 1)
    scale[0] = np.sqrt(lam[0])
    scale[n] = np.sqrt(lam[n])
    inner = scale[1:n]
    np.multiply(lam[1:n], 0.5, out=inner)
    np.sqrt(inner, out=inner)
    scale.setflags(write=False)
    return scale


def _fgn_circulant(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Unit fractional Gaussian noise of length n.

    Uses 2n standard normal draws regardless of n, which keeps the draw
    pattern stable for stream-derivation purposes: z[0] and z[1] feed the
    real frequencies 0 and n, and the pair (z[2k], z[2k+1]) is the k-th
    complex normal.
    """
    scale = _draw_scale(_circulant_eigenvalues, n, hurst)
    z = rng.standard_normal(2 * n)
    half = np.empty(n + 1, dtype=complex)
    half[0] = scale[0] * z[0]
    half[n] = scale[n] * z[1]
    np.multiply(scale[1:n], z.view(complex)[1:], out=half[1:n])
    # The normals are spent once the half spectrum holds them.
    g = np.fft.irfft(half, 2 * n, out=z)[:n]
    g *= np.sqrt(2 * n)
    return g


def _fgn_cholesky(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    # Imported here, the only place that needs scipy.linalg, so a run that
    # never asks for the dense oracle does not load it.
    from scipy.linalg import cholesky, toeplitz

    cov = toeplitz(fgn_autocovariance(np.arange(n), hurst))
    lower = cholesky(cov, lower=True)
    return lower @ rng.standard_normal(n)


def _check_hurst(hurst: float) -> None:
    check_number("hurst", hurst)
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst index must lie in (0, 1), got {hurst}")
