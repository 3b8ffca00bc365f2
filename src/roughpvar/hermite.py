"""Hermite-expansion constants for absolute-power functionals of Gaussians.

Everything here is deterministic scalar machinery: probabilists' Hermite
polynomials, absolute moments of the standard normal, the weights
``(2q)! c_q**2`` that the even Hermite coefficients ``c_q`` of ``|x|**p``
give the asymptotic variance, that variance over correlated Gaussian
increments, and a Gauss-Hermite projection that tests check the weights
against. The variance σ²(p, H) is one cached function whose two truncation
orders are keyword arguments, defaulting to ``HERMITE_TERMS`` and
``LAG_CUTOFF``; the CLI's ``constants`` defaults read the same constants.

The standard normal CDF ``ndtr`` and Gamma up to 33 are pure-Python ports of
the Cephes code that ``scipy.special`` runs (Moshier, *Methods and Programs
for Mathematical Functions*, 1989): its tables and order of operations give
scipy's bits without importing scipy. Gamma above 33 imports scipy's own.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .fbm import check_integer, check_number, fgn_autocovariance

# Default truncation orders of the asymptotic variance: Hermite terms kept,
# and the largest lag in each lag sum.
HERMITE_TERMS = 40
LAG_CUTOFF = 10**6

# Lags per leaf of the σ² lag sums: two 64 KB arrays, each under glibc's
# default 128 KiB mmap threshold.
_SUM_LEAF = 2**13

# Cephes tables, highest power first. A table whose leading coefficient is 1
# holds it explicitly: 1.0 * x is exact, so Cephes' p1evl is _polevl.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: float, coeffs) -> float:
    """Horner's rule in Cephes' order of operations."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _erf(x: float) -> float:
    """Error function for |x| < 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _ndtr(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    # Half of erfc(z), z > 0, and 0 once exp(-z**2) underflows. math.exp is
    # the C library's exp, as in scipy's compiled code; np.exp's can differ.
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
    elif z * z > _MAXLOG:
        y = 0.0
    else:
        num, den = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
        y = 0.5 * (math.exp(-z * z) * _polevl(z, num) / _polevl(z, den))
    return 1.0 - y if x > 0.0 else y


def ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise; the bits of ``scipy.special.ndtr``."""
    values = np.asarray(x, dtype=float)
    return np.array([_ndtr(v) for v in values.ravel().tolist()]).reshape(values.shape)


def gamma(x: float) -> float:
    """Gamma function for x > 0; the bits of ``scipy.special.gamma``.

    Up to 33 the recurrence brings x into [2, 3) for a rational
    approximation. Above, scipy's Stirling branch runs, imported here:
    E|N|**p reaches it for p > 65, and the asymptotic variance for p > 32.5.
    """
    if x > 33.0:
        from scipy.special import gamma as scipy_gamma

        return scipy_gamma(x)
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


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


def variance_weights(p: float, terms: int) -> list[float]:
    """The weights ``(2q)! c_q**2`` of the asymptotic variance, q = 1..terms.

    ``c_q`` is the Hermite coefficient of ``|x|**p`` at degree ``2q``,
    ``E|N|**p * p (p-2) ... (p-2q+2) / (2q)!``, so a weight is
    ``(E|N|**p)**2 * (prod_{i<q} (p - 2i))**2 / (2q)!``, built iteratively
    so that neither factor overflows on its own. For even integer p the
    list ends before the first zero weight, after q = p / 2.
    """
    weights = []
    weight = gaussian_abs_moment(p) ** 2
    for q in range(1, terms + 1):
        weight *= (p - 2.0 * (q - 1)) ** 2
        weight /= (2.0 * q - 1.0) * (2.0 * q)
        if weight == 0.0:
            # Even p: the series has ended, and a zero term adds nothing.
            break
        weights.append(weight)
    return weights


def validate_variance_domain(
    p: float, hurst: float, hermite_terms: int, lag_cutoff: int
) -> None:
    """Reject truncation orders that are not integers (NaN included) or are
    below 1, then a p or hurst that is not a number, and (p, hurst) outside
    the domain of the asymptotic variance series."""
    check_integer("hermite_terms", hermite_terms, 1)
    check_integer("lag_cutoff", lag_cutoff, 1)
    check_number("p", p)
    check_number("hurst", hurst)
    # written so that a NaN p fails it
    if not 1.0 <= p < math.inf:
        raise ValueError(
            f"power variation exponent must satisfy p >= 1 and be finite, got {p}"
        )
    if not 0.0 < hurst < 0.75:
        raise ValueError(
            f"variance series converges only for hurst in (0, 3/4), got {hurst}"
        )


def asymptotic_variance(
    p: float, hurst: float, hermite_terms: int = HERMITE_TERMS, lag_cutoff: int = LAG_CUTOFF
) -> float:
    """Limit variance of centered, normalized power variation.

    Evaluates ``sum_{q>=1} (2q)! coeff_q^2 * sum_{|k| <= K} rho(k)**(2q)``
    with ``rho`` the unit-variance increment autocovariance for the given
    Hurst index, ``coeff_q`` the even Hermite coefficients of ``|x|**p``,
    q up to ``hermite_terms`` and K = ``lag_cutoff``. Both truncations are
    estimated for their leftover mass; a warning is issued if the combined
    tail estimate exceeds 1e-6 of the value.

    At ``hurst = 1/2`` the increments are independent, every lag sum
    collapses to 1, and the series sums to Var(|N|**p) exactly.

    No ``lag_cutoff``-length array exists: the lags are taken one leaf of
    at most ``2**13`` at a time (``rho**2`` and its running power, 64 KB
    each), and each term's leaf sums are added up the pairwise tree that
    ``np.sum`` uses, so every lag sum has the bits of ``np.sum`` over the
    whole lag range. For even integer p the series ends after ``p / 2``
    terms. Results are cached per process, keyed by the arguments once
    they are checked, so an argument that cannot be a key (a list, say) is
    refused by name; ``asymptotic_variance.__wrapped__`` is the uncached
    series.
    """
    validate_variance_domain(p, hurst, hermite_terms, lag_cutoff)
    return _cached_series(p, hurst, hermite_terms, lag_cutoff)


def _variance_series(
    p: float, hurst: float, hermite_terms: int = HERMITE_TERMS, lag_cutoff: int = LAG_CUTOFF
) -> float:
    """:func:`asymptotic_variance`, uncached."""
    validate_variance_domain(p, hurst, hermite_terms, lag_cutoff)
    weights = variance_weights(p, hermite_terms)

    def leaf_sums(start: int, n: int) -> np.ndarray:
        # sum_k rho(k)^(2q) over the lags 1 + start, ..., start + n for each
        # kept q; the q = 1 power is rho^2 itself, and a second array holds
        # the powers from q = 2 on
        rho_sq = fgn_autocovariance(np.arange(1 + start, 1 + start + n), hurst)
        rho_sq *= rho_sq
        sums = np.empty(len(weights))
        power = rho_sq
        for i in range(len(weights)):
            if i == 1:
                power = rho_sq * rho_sq
            elif i > 1:
                power *= rho_sq
            sums[i] = power.sum()
        return sums

    total = 0.0
    kept = 0.0
    lag_tail = 0.0
    power_sums = _pairwise_sum(leaf_sums, 0, lag_cutoff)
    for q, (weight, power_sum) in enumerate(zip(weights, power_sums), start=1):
        lag_sum = 1.0 + 2.0 * float(power_sum)
        kept += weight
        total += weight * lag_sum
        lag_tail += weight * _lag_tail_estimate(hurst, q, lag_cutoff)

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
            stacklevel=3,  # the caller of asymptotic_variance
        )
    return total


_cached_series = lru_cache(maxsize=128)(_variance_series)
asymptotic_variance.__wrapped__ = _variance_series


def _pairwise_sum(leaf_sum, start: int, n: int):
    """``np.sum`` over the n items from ``start``, bit for bit, one leaf at a time.

    numpy sums a contiguous float64 array pairwise: a run of more than 128
    items splits at ``n // 2`` rounded down to a multiple of 8, and the sums
    of the two halves are added. This recursion makes the same splits down
    to runs of at most ``_SUM_LEAF`` items and adds the partial sums back up
    the same tree; ``leaf_sum(start, n)`` must return ``np.sum`` of one such
    run (or an array of such sums, added elementwise). A partial sum can
    differ only in the sign of a zero: numpy starts each ``np.sum`` from
    +0.0, so a zero leaf is +0.0 here, and a zero total is +0.0 either way.
    """
    if n <= _SUM_LEAF:
        return leaf_sum(start, n)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(leaf_sum, start, half) + _pairwise_sum(leaf_sum, start + half, n - half)


def _lag_tail_estimate(hurst: float, q: int, cutoff: int) -> float:
    """Integral estimate of the lag mass beyond the cutoff for one series term.

    Uses the power-law regime rho(k) ~ H(2H-1) k^(2H-2); exact enough for a
    warning threshold. The decay 2q(2 - 2H) - 1 is positive for q >= 1 on
    the series' domain H < 3/4.
    """
    if hurst == 0.5:
        return 0.0
    amp = abs(hurst * (2.0 * hurst - 1.0))
    decay = 2.0 * q * (2.0 - 2.0 * hurst) - 1.0
    return 2.0 * amp ** (2 * q) * cutoff ** (-decay) / decay


def hermite_coeffs_numeric(f, order: int) -> np.ndarray:
    """Hermite coefficients of ``f`` against N(0,1) by Gauss-Hermite quadrature.

    Returns ``E[f(N) He_q(N)] / q!`` for q = 0..order, on max(160, 4 * order)
    nodes. This is the independent projection route that tests check
    :func:`variance_weights` against; it makes no assumption about the
    parity or smoothness of ``f`` beyond integrability.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    nodes = max(160, 4 * order)
    # Imported here, its only user, so a run that never asks for the
    # quadrature does not load numpy.polynomial.
    from numpy.polynomial.hermite import hermgauss

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
