"""Hermite-expansion constants for absolute-power functionals of Gaussians.

Everything here is deterministic scalar machinery: probabilists' Hermite
polynomials, absolute moments of the standard normal, the even Hermite
coefficients of ``|x|**p``, the asymptotic variance of centered power
variation over correlated Gaussian increments, and the derivative family of
``|x|**p``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import gamma

from .fbm import fgn_autocovariance

_INTEGER_TOL = 1e-12


def hermite(q: int, x):
    """Probabilists' Hermite polynomial of degree ``q`` evaluated at ``x``.

    Uses the three-term recurrence He_{k+1} = x He_k - k He_{k-1}; accepts
    scalars or arrays.
    """
    if q < 0:
        raise ValueError("polynomial degree must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    prev = np.ones_like(x_arr)
    if q == 0:
        return float(prev) if x_arr.ndim == 0 else prev
    cur = x_arr.copy()
    for k in range(1, q):
        prev, cur = cur, x_arr * cur - k * prev
    return float(cur) if x_arr.ndim == 0 else cur


def gaussian_abs_moment(p: float) -> float:
    """Absolute moment E|N(0,1)|**p = 2**(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    if p <= -1.0:
        raise ValueError(f"absolute moment requires p > -1, got {p}")
    return 2.0 ** (p / 2.0) * gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def abs_power_hermite_coeff(p: float, q: int) -> float:
    """Hermite coefficient of ``|x|**p`` at even degree ``2q``.

    The expansion of ``|x|**p`` over probabilists' Hermite polynomials has
    only even terms; this evaluates the closed form

        coeff = E|N|**p * p (p-2) (p-4) ... (p - 2q + 2) / (2q)!

    which equals the projection E[|N|**p He_{2q}(N)] / (2q)! but, unlike the
    alternating-sum expression for that projection, does not cancel, so it
    stays accurate for large q. For even integer p the product hits an exact
    zero once 2q exceeds p, matching the finite polynomial expansion.
    """
    if q < 0:
        raise ValueError("coefficient index must be nonnegative")
    if q == 0:
        return gaussian_abs_moment(p)
    coeff = gaussian_abs_moment(p)
    for i in range(q):
        coeff *= p - 2.0 * i
    return coeff / math.factorial(2 * q)


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation orders for the asymptotic variance series.

    Attributes
    ----------
    hermite_terms : int
        Number of even Hermite terms kept (the series index runs up to this).
    lag_cutoff : int
        Largest increment-autocovariance lag included in each lag sum.
    """

    hermite_terms: int = 40
    lag_cutoff: int = 10**6

    def __post_init__(self) -> None:
        if self.hermite_terms < 1:
            raise ValueError("hermite_terms must be >= 1")
        if self.lag_cutoff < 1:
            raise ValueError("lag_cutoff must be >= 1")


def asymptotic_variance(
    p: float, hurst: float, truncation: TruncationSpec | None = None
) -> float:
    """Limit variance of centered, normalized power variation.

    Evaluates ``sum_{q>=1} (2q)! coeff_q^2 * sum_{|k| <= K} rho(k)**(2q)``
    with ``rho`` the unit-variance increment autocovariance for the given
    Hurst index and ``coeff_q`` the even Hermite coefficients of ``|x|**p``.
    Both truncations are estimated for their leftover mass; a warning is
    issued if the combined tail estimate exceeds 1e-6 of the value.

    At ``hurst = 1/2`` the increments are independent, every lag sum
    collapses to 1, and the series sums to Var(|N|**p) exactly.

    One evaluation holds two ``lag_cutoff``-length arrays, ``rho**2`` and
    its running power (16 MB at the default 10**6 lags), plus the blocks of
    :func:`~roughpvar.fbm.fgn_autocovariance`. For even integer p the
    series ends after ``p / 2`` lag passes. Results are cached per process,
    keyed by ``(p, hurst)`` and the truncation orders.
    """
    if truncation is None:
        truncation = TruncationSpec()
    return _asymptotic_variance_cached(
        float(p), float(hurst), truncation.hermite_terms, truncation.lag_cutoff
    )


def validate_variance_domain(p: float, hurst: float) -> None:
    """Reject (p, hurst) outside the domain of the asymptotic variance series."""
    if p < 1.0:
        raise ValueError(f"power variation exponent must satisfy p >= 1, got {p}")
    if not 0.0 < hurst < 0.75:
        raise ValueError(
            f"variance series converges only for hurst in (0, 3/4), got {hurst}"
        )


@lru_cache(maxsize=128)
def _asymptotic_variance_cached(p: float, hurst: float, terms: int, cutoff: int) -> float:
    validate_variance_domain(p, hurst)
    rho_sq = fgn_autocovariance(np.arange(1.0, cutoff + 1.0), hurst)
    rho_sq *= rho_sq
    # The q = 1 power, rho^2 itself; these two arrays are all the lag pass
    # holds.
    power = rho_sq.copy()

    total = 0.0
    kept = 0.0
    lag_tail = 0.0
    # (2q)! coeff_q^2 = moment^2 * (prod_{i<q} (p - 2i))^2 / (2q)!; built
    # iteratively so neither factor overflows on its own.
    weight = gaussian_abs_moment(p) ** 2
    for q in range(1, terms + 1):
        weight *= (p - 2.0 * (q - 1)) ** 2
        weight /= (2.0 * q - 1.0) * (2.0 * q)
        if weight == 0.0:
            # Even p: the series has ended, and a zero term adds nothing.
            break
        if q > 1:
            power *= rho_sq
        lag_sum = 1.0 + 2.0 * float(power.sum())
        kept += weight
        total += weight * lag_sum
        lag_tail += weight * _lag_tail_estimate(hurst, q, cutoff)

    # The weights sum to Var|N|**p (Parseval), so the dropped ones sum to
    # what the kept ones leave of it. Lag sums fall in q because |rho| <= 1,
    # so the dropped terms lie between that mass and that mass times the
    # last lag sum; the upper end is the estimate.
    dropped = gaussian_abs_moment(2.0 * p) - gaussian_abs_moment(p) ** 2 - kept
    tail = lag_tail + max(dropped, 0.0) * lag_sum
    if total > 0.0 and tail > 1e-6 * total:
        warnings.warn(
            f"asymptotic variance truncation tail ~{tail:.3g} exceeds 1e-6 of "
            f"the value {total:.6g}; increase the truncation orders",
            RuntimeWarning,
            stacklevel=3,
        )
    return total


def _lag_tail_estimate(hurst: float, q: int, cutoff: int) -> float:
    """Integral estimate of the lag mass beyond the cutoff for one series term.

    Uses the power-law regime rho(k) ~ H(2H-1) k^(2H-2); exact enough for a
    warning threshold.
    """
    if hurst == 0.5:
        return 0.0
    amp = abs(hurst * (2.0 * hurst - 1.0))
    decay = 2.0 * q * (2.0 - 2.0 * hurst) - 1.0
    if decay <= 0.0:
        return math.inf
    return 2.0 * amp ** (2 * q) * cutoff ** (-decay) / decay


def hermite_coeffs_numeric(f, order: int, nodes: int | None = None) -> np.ndarray:
    """Hermite coefficients of ``f`` against N(0,1) by Gauss-Hermite quadrature.

    Returns ``E[f(N) He_q(N)] / q!`` for q = 0..order. This is the
    independent projection route used to cross-check the closed forms; it
    makes no assumption about the parity or smoothness of ``f`` beyond
    integrability. The node count defaults to max(160, 4 * order); passing
    fewer than 4 * order nodes is rejected.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if nodes is None:
        nodes = max(160, 4 * order)
    if nodes < 4 * order and order > 0:
        raise ValueError(f"need at least {4 * order} quadrature nodes, got {nodes}")
    x_phys, w_phys = hermgauss(nodes)
    # Physicists' weight exp(-x^2): substitute u = sqrt(2) x to integrate
    # against the standard normal density.
    u = x_phys * math.sqrt(2.0)
    weights = w_phys / math.sqrt(math.pi)
    fu = np.asarray(f(u), dtype=float)
    out = np.empty(order + 1)
    for q in range(order + 1):
        out[q] = float(np.sum(weights * fu * hermite(q, u))) / math.factorial(q)
    return out


@dataclass(frozen=True)
class AbsPowerFamily:
    """Derivative family of ``|x|**p``.

    For even integer p the function is the plain polynomial ``x**p`` and every
    derivative order is defined (identically zero beyond order p). For other
    p only orders up to floor(p) stay locally bounded and higher orders are
    rejected. For odd integer p the order-p derivative at 0 is taken to be 0
    (the convention ``sign(0) = 0``), the symmetric choice for the jump
    there; callers integrate the family against densities, where the single
    point carries no mass.
    """

    p: float

    def __post_init__(self) -> None:
        if self.p < 1.0:
            raise ValueError(f"absolute-power family requires p >= 1, got {self.p}")

    @property
    def is_even_integer(self) -> bool:
        return _is_integer(self.p) and int(round(self.p)) % 2 == 0

    def eval(self, j: int, x):
        if j < 0:
            raise ValueError("derivative order must be nonnegative")
        if not self.is_even_integer and j > math.floor(self.p):
            raise ValueError(
                f"derivative order {j} exceeds floor(p) = {math.floor(self.p)} "
                f"for non-even p = {self.p}"
            )
        x_arr = np.asarray(x, dtype=float)
        k_j = _falling_factorial(self.p, j)
        if self.is_even_integer:
            p_int = int(round(self.p))
            if j > p_int:
                out = np.zeros_like(x_arr)
            else:
                out = k_j * x_arr ** (p_int - j)
        else:
            out = k_j * np.abs(x_arr) ** (self.p - j) * np.sign(x_arr) ** j
        return float(out) if x_arr.ndim == 0 else out


def _falling_factorial(p: float, j: int) -> float:
    out = 1.0
    for m in range(j):
        out *= p - m
    return out


def _is_integer(p: float) -> bool:
    return abs(p - round(p)) < _INTEGER_TOL
