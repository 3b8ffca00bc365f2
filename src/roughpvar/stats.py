"""Power-variation statistics and limit-theorem ingredients.

The central object is the centered statistic

    sum-part    n**(p*H - 1) * sum_{t_k < t} |delta y_k|**p
    compensator E|N|**p * integral_0^t |y'_u|**p du

whose fluctuations obey a three-regime limit theorem in the Hurst index:
mixed Gaussian above 1/4, mixed Gaussian plus a deterministic-variance drift
at 1/4, and a pure probability-limit drift below 1/4. The drift and
conditional standard deviation functionals are quadratures of derivative
levels over the fine grid carried by the controlled path; the drift reads
the first two derivatives of ``phi = |.|**p``, and the conditional standard
deviation the cached asymptotic variance from :mod:`roughpvar.hermite` at
its default truncation. Every grid integral here is a trapezoid sum, except
the Riemann correction's inner driver integrals, which take the midpoint
rule on the fine grid and so need an even fine factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .controlled import ControlledPath
from .fbm import DomainError, FbmPath, check_number
from .hermite import asymptotic_variance, gaussian_abs_moment

REGIME_MIXED = "mixed-gaussian"
REGIME_CRITICAL = "critical"
REGIME_DEGENERATE = "degenerate"

_CRITICAL_TOL = 1e-12


@dataclass(frozen=True)
class StatConfig:
    """How to evaluate the centered statistic.

    Attributes
    ----------
    p : float
        Power-variation exponent, finite and >= 1.
    t : float
        Endpoint in (0, 1]; snapped down to the grid.
    fine_factor : int
        Not read: the quadrature uses the fine companion the path carries.
    """

    p: float
    t: float = 1.0
    fine_factor: int = 16

    def __post_init__(self) -> None:
        check_number("p", self.p)
        check_number("t", self.t)
        # written so that a NaN p fails it
        if not 1.0 <= self.p < math.inf:
            raise DomainError(f"p must be >= 1 and finite, got {self.p}")
        if not 0.0 < self.t <= 1.0:
            raise DomainError(f"t must lie in (0, 1], got {self.t}")
        if self.fine_factor < 1:
            raise DomainError("fine_factor must be >= 1")


def classify_regime(hurst: float) -> str:
    """Regime of the limit theorem as a function of the Hurst index."""
    if not 0.0 < hurst <= 0.5:
        raise DomainError(f"the limit theorem covers hurst in (0, 1/2], got {hurst}")
    if abs(hurst - 0.25) <= _CRITICAL_TOL:
        return REGIME_CRITICAL
    return REGIME_MIXED if hurst > 0.25 else REGIME_DEGENERATE


def rate_exponent(hurst: float) -> float:
    """Convergence-rate exponent: 1/2 at and above the critical index, else 2H."""
    regime = classify_regime(hurst)
    if regime == REGIME_DEGENERATE:
        return 2.0 * hurst
    return 0.5


def _snap_count(t: float, n: int) -> int:
    """Number of whole grid cells below t (t snapped down to the grid)."""
    if not 0.0 <= t <= 1.0 + 1e-12:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return min(int(math.floor(t * n + 1e-9)), n)


def _window_cells(s: float, t: float, n: int) -> range:
    """Indices of the increments of an n-cell grid that start in [s, t)."""
    return range(int(math.ceil(s * n - 1e-9)), _snap_count(t, n))


def integrate_grid(values: np.ndarray, step: float) -> float:
    """Integrate node samples over a uniform grid by the trapezoid rule."""
    values = np.asarray(values, dtype=float)
    cells = len(values) - 1
    if cells < 0:
        raise DomainError("need at least one node")
    if cells == 0:
        return 0.0
    return float(step * (values.sum() - 0.5 * (values[0] + values[-1])))


def _fine_grid(cp: ControlledPath, t: float) -> tuple[ControlledPath, int, float]:
    """Finest available path, its cell count below t (snapped down on the
    coarse grid), and its step."""
    factor = cp.fine_factor
    return cp.quadrature_path(), _snap_count(t, cp.n) * factor, 1.0 / (cp.n * factor)


def _compensator(cp: ControlledPath, p: float, t: float) -> float:
    """Integral of |y'|**p over [0, t_snapped] on the finest available grid."""
    if cp.ell < 2:
        raise DomainError("the compensator needs the first derivative level")
    quad_cp, mf, step = _fine_grid(cp, t)
    yprime = quad_cp.level(1)[: mf + 1]
    return integrate_grid(np.abs(yprime) ** p, step)


def pvar_statistic(cp: ControlledPath, cfg: StatConfig) -> float:
    """Centered power-variation statistic of a controlled path.

    The sum part uses the coarse grid and is scaled by the driver's Hurst
    index; the compensator integrates the first derivative level over the
    fine companion (when present) by the trapezoid rule. Exactly centered in
    expectation when the path is the driver itself.
    """
    n = cp.n
    hurst = cp.x.hurst
    m = _snap_count(cfg.t, n)
    dy = np.diff(cp.levels[0][: m + 1]) if m > 0 else np.empty(0)
    sum_part = float(n ** (cfg.p * hurst - 1.0) * np.sum(np.abs(dy) ** cfg.p))
    compensator = _compensator(cp, cfg.p, cfg.t)
    return sum_part - gaussian_abs_moment(cfg.p) * compensator


def _abs_power_derivatives(p: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi'(y) and phi''(y) for phi = |.|**p, p >= 2.

    For even integer p, phi is the polynomial y**p. Otherwise phi'' carries
    sign(y)**2, which is 0 at y = 0 where |y|**(p - 2) is too; below p = 2
    phi'' is unbounded at 0, and such a p is refused.
    """
    # written so that a NaN p fails it
    if not 2.0 <= p < math.inf:
        raise DomainError(f"the drift needs phi'' of |y|**p: p must be >= 2 and finite, got {p}")
    if p % 2.0 == 0.0:
        p_int = int(p)
        return p * y ** (p_int - 1), p * (p - 1.0) * y ** (p_int - 2)
    sign = np.sign(y)
    return (
        p * np.abs(y) ** (p - 1.0) * sign,
        p * (p - 1.0) * np.abs(y) ** (p - 2.0) * sign**2,
    )


def limit_drift(cp: ControlledPath, p: float, t: float = 1.0) -> float:
    """Drift functional of the critical and degenerate regimes.

    Evaluates

        -(E|N|**p / 8) int_0^t phi''(y') (y'')^2 du
        + ((p - 2) E|N|**p / 24) int_0^t phi'(y') y''' du

    over the fine grid, with phi the p-th absolute power. Missing derivative
    levels beyond the declared order are treated as zero, with a warning
    when one enters with a nonzero coefficient (level 3 drops out at
    p = 2); a level that stores no row enters as its constant.
    """
    if cp.ell < 3 or (cp.ell == 3 and p != 2.0):
        warnings.warn(
            f"drift functional uses levels up to order 3; path has {cp.ell} "
            "levels, missing ones are taken as zero",
            RuntimeWarning,
            stacklevel=2,
        )
    quad_cp, mf, step = _fine_grid(cp, t)

    def level_or_zero(i: int):
        """Level i up to t; a constant level as a scalar, 0 past ``ell``."""
        value = quad_cp.level_value(i) if i < cp.ell else 0.0
        return value[: mf + 1] if np.ndim(value) else value

    # The first level sets the integrands' shape, even when it is constant.
    yp = np.broadcast_to(level_or_zero(1), mf + 1)
    ypp = level_or_zero(2)
    yppp = level_or_zero(3)
    dphi, d2phi = _abs_power_derivatives(p, yp)
    moment = gaussian_abs_moment(p)
    # ypp * ypp, not ypp**2: numpy squares a row as x * x, but a constant
    # level is a Python float, whose ** calls C's pow, off by an ulp at times.
    first = integrate_grid(d2phi * (ypp * ypp), step)
    second = integrate_grid(dphi * yppp, step)
    return -moment / 8.0 * first + (p - 2.0) * moment / 24.0 * second


def limit_cond_std(
    cp: ControlledPath, p: float, hurst: float | None = None, t: float = 1.0
) -> float:
    """Conditional standard deviation of the mixed Gaussian limit.

    ``sigma(p, H) * sqrt(int_0^t |y'_u|**(2p) du)`` with sigma the square
    root of the asymptotic variance series and H the driver's Hurst index
    unless ``hurst`` is given. Raises :class:`DomainError` below the
    critical index, where the limit is not distributional.
    """
    if hurst is None:
        hurst = cp.x.hurst
    if classify_regime(hurst) == REGIME_DEGENERATE:
        raise DomainError(
            f"no conditional std below the critical index (hurst={hurst})"
        )
    scale = _compensator(cp, 2.0 * p, t)
    return math.sqrt(asymptotic_variance(p, hurst)) * math.sqrt(scale)


def weighted_increment_sum(
    x: FbmPath, f: Callable, weight_values: np.ndarray, s: float = 0.0, t: float = 1.0
) -> float:
    """Weighted sum of a functional of normalized driver increments.

    Computes sum_{s <= t_k < t} weight[k] * f(n**H delta x_k). The weight
    array is indexed on the driver grid; ``f`` must accept arrays. An empty
    window gives 0.
    """
    weight_values = np.asarray(weight_values, dtype=float)
    if weight_values.shape != (x.n + 1,):
        raise DomainError(
            f"weight must be sampled on the driver grid, expected {x.n + 1} "
            f"nodes, got {weight_values.shape}"
        )
    n = x.n
    cells = _window_cells(s, t, n)
    if not cells:
        return 0.0
    window = slice(cells.start, cells.stop)
    scaled = float(n) ** x.hurst * np.diff(x.values)[window]
    return float(np.sum(weight_values[window] * np.asarray(f(scaled), dtype=float)))


def riemann_correction_sum(cp: ControlledPath, t: float = 1.0) -> float:
    """Weighted sum of local driver-integral corrections.

    Computes sum_{t_k < t} y_{t_k} * int_{t_k}^{t_{k+1}} (x_u - x_{t_k}) du
    with the inner integral evaluated on the fine grid by the midpoint rule.
    Refuses an odd fine factor, which has no fine-grid midpoints; a path
    without a fine companion has factor 1. An empty window gives 0.
    """
    n = cp.n
    m = _snap_count(t, n)
    if m == 0:
        return 0.0
    if cp.fine_factor % 2:
        raise DomainError(
            f"the midpoint rule needs an even fine factor, got {cp.fine_factor}"
        )
    quad_cp, mf, hf = _fine_grid(cp, t)
    mids = quad_cp.x.values[1:mf:2].reshape(m, cp.fine_factor // 2)
    cell_integrals = 2.0 * hf * mids.sum(axis=1)
    corrections = cell_integrals - cp.x.values[:m] / n
    return float(np.sum(cp.level(0)[:m] * corrections))
