"""Controlled paths over a fractional Brownian driver.

A controlled path bundles the driver and a tuple of level processes (the
path itself plus its successive Gubinelli-type derivative levels); every
statistic of it is normalized by the driver's Hurst index. Each level is
stored exactly as given. A level given as a scalar is constant: after the
last level given as an array no row is stored, and such a level is kept as
a scalar in ``constants``; the constructor reads ``levels`` and
``constants`` as one level list, so ``dataclasses.replace`` passes them
back as they are.
Every builder works on the grid of its driver; :func:`subsample_controlled`
is the one coarsening step, and it attaches the fine path for quadrature.

The module provides the structural operations: order-k remainders, the
decomposition identity residual, the compensated-sum rough integral, and a
first-order rough-differential-equation solver with polynomial coefficients
and iterated vector-field levels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .fbm import DomainError, FbmPath, RunError, _time_to_index, check_integer

_BLOWUP_GUARD = 1e12


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class ControlledPath:
    """A path with derivative levels, controlled by a sampled driver.

    ``ControlledPath(x, levels, constants=constants)`` reads
    ``[*levels, *constants]`` as one list of levels, each an array of length
    ``n + 1`` or a scalar constant. The levels up to the last array level are
    stacked into one fresh read-only array, and the scalars after it are kept
    in ``constants``; so ``dataclasses.replace`` keeps every level.

    Attributes
    ----------
    x : FbmPath
        The driver, sampled on the uniform grid with ``x.n`` cells.
    levels : np.ndarray
        Shape ``(stored, n + 1)``; row i is the i-th level process (row 0
        the path itself) as given. ``stored`` runs up to the last array
        level (at least 1), and a scalar before it is stored as a constant
        row.
    fine : ControlledPath or None
        The same construction at a multiple of the resolution, used for
        quadrature of limit functionals. :func:`subsample_controlled`
        attaches it; the coarse rows are then exactly the fine rows
        subsampled.
    constants : tuple of float
        The values of the levels after the last stored row.
    """

    x: FbmPath
    levels: np.ndarray
    fine: "ControlledPath | None" = None
    constants: tuple = ()

    def __post_init__(self) -> None:
        nodes = self.x.n + 1
        if isinstance(self.levels, np.ndarray) and self.levels.ndim != 2:
            raise DomainError(f"a levels array must be 2-d, got shape {self.levels.shape}")
        given = [np.asarray(level, dtype=float) for level in [*self.levels, *self.constants]]
        if not given or any(level.shape not in ((), (nodes,)) for level in given):
            shapes = [level.shape for level in given]
            raise DomainError(
                f"levels must be ell >= 1 rows of {nodes} nodes or scalars, got {shapes}"
            )
        arrays = [i for i, level in enumerate(given) if level.ndim == 1]
        stored = arrays[-1] + 1 if arrays else 1
        if self.fine is not None and self.fine.n % self.x.n != 0:
            raise DomainError("fine companion resolution must be a multiple of n")
        levels = np.empty((stored, nodes))
        for row, level in zip(levels, given):
            row[...] = level
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "constants", tuple(float(c) for c in given[stored:]))

    @property
    def ell(self) -> int:
        """Declared level count; rows are stored only for the first
        ``levels.shape[0]`` of them."""
        return self.levels.shape[0] + len(self.constants)

    @property
    def n(self) -> int:
        return self.x.n

    def level(self, i: int) -> np.ndarray:
        """Values of level i: its stored read-only row, or the constant row
        of a level that stores none."""
        value = self.level_value(i)
        return value if np.ndim(value) else np.full(self.n + 1, value)

    def level_value(self, i: int):
        """Level i as :meth:`level` gives it, or, for a level that stores no
        row, its constant value as a scalar."""
        stored = self.levels.shape[0]
        return self.levels[i] if i < stored else self.constants[i - stored]

    @property
    def fine_factor(self) -> int:
        """Resolution ratio between ``fine`` and this path; 1 when absent."""
        return 1 if self.fine is None else self.fine.n // self.n

    def quadrature_path(self) -> "ControlledPath":
        """The finest available representation (self when no companion)."""
        return self.fine if self.fine is not None else self


def validate_ell(ell: int) -> int:
    """The level count ``ell`` as an int; a whole float such as 3.0 reads as
    3. Refuses one that is not an integer, and fewer than two levels: every
    process needs its path and the field level (the first derivative level)."""
    if isinstance(ell, (float, np.floating)) and ell.is_integer():
        ell = int(ell)
    ell = check_integer("ell", ell)
    if ell < 2:
        raise DomainError(f"processes need at least two levels, got ell={ell}")
    return ell


# ---------------------------------------------------------------------------
# remainders and the decomposition identity


def remainder(cp: ControlledPath, k: int, s, t):
    """Order-k remainder of the controlled expansion over [s, t].

    For level k, this is the increment of level k minus the higher levels'
    Taylor-type contributions driven by increment powers of the driver:

        delta y^(k) - sum_{j=1}^{ell-1-k} y^(k+j)_s (delta x)^j / j!

    For the top level (k = ell - 1) the sum is empty and the remainder is the
    plain increment. Times must lie on the coarse grid; scalar or array.
    """
    if not 0 <= k < cp.ell:
        raise DomainError(f"level index must lie in [0, {cp.ell - 1}], got {k}")
    i = _time_to_index(s, cp.n)
    j = _time_to_index(t, cp.n)
    out = _remainder_by_index(cp, k, np.asarray(i), np.asarray(j))
    return float(out) if np.ndim(i) == 0 and np.ndim(j) == 0 else out


def _remainder_by_index(cp: ControlledPath, k: int, i, j):
    dx = cp.x.values[j] - cp.x.values[i]
    level = cp.level(k)
    out = level[j] - level[i]
    power = np.ones_like(np.asarray(dx, dtype=float))
    for m in range(1, cp.ell - k):
        power = power * dx / m
        out = out - cp.level(k + m)[i] * power
    return out


def remainder_decomposition_residual(cp: ControlledPath, s, u, t) -> float:
    """Residual of the exact remainder decomposition identity over s < u < t.

    The additivity defect of the zeroth remainder across a midpoint equals
    the higher remainders over the first leg paired with driver increment
    powers over the second leg:

        r^(0)_{s,t} - r^(0)_{s,u} - r^(0)_{u,t}
            = sum_{i=1}^{ell-1} r^(i)_{s,u} (delta x_{u,t})^i / i!

    This holds exactly (to roundoff) for any level tuple, independent of
    whether the levels satisfy analytic remainder bounds, so it is a sharp
    structural test of the remainder implementation. Returns the difference
    of the two sides.
    """
    res, _ = _decomposition_residuals(
        cp,
        np.asarray(_time_to_index(s, cp.n)),
        np.asarray(_time_to_index(u, cp.n)),
        np.asarray(_time_to_index(t, cp.n)),
    )
    return float(res) if res.ndim == 0 else res


def _decomposition_residuals(cp: ControlledPath, i, u, j):
    """Vectorized residuals and magnitude scales for index triples."""
    r0 = _remainder_by_index(cp, 0, i, j)
    r0_left = _remainder_by_index(cp, 0, i, u)
    r0_right = _remainder_by_index(cp, 0, u, j)
    defect = r0 - r0_left - r0_right
    scale = np.abs(r0) + np.abs(r0_left) + np.abs(r0_right)

    dx = cp.x.values[j] - cp.x.values[u]
    power = np.ones_like(np.asarray(dx, dtype=float))
    total = np.zeros_like(power)
    for m in range(1, cp.ell):
        power = power * dx / m
        term = _remainder_by_index(cp, m, i, u) * power
        total = total + term
        scale = scale + np.abs(term)
    return defect - total, scale


# ---------------------------------------------------------------------------
# polynomials


def _poly_callable(coeffs: Sequence[float]) -> Callable:
    """The polynomial with ascending ``coeffs``, at a float or float array.

    Horner's rule in ``np.polynomial.polynomial.polyval``'s order,
    ``c[-1] + y*0`` and then ``c + acc*y``: polyval's bits without its
    per-call set-up, which dominated an RDE step. Refuses ``coeffs`` that
    are empty or not 1-d.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or len(coeffs) == 0:
        raise DomainError("coeffs must be a nonempty 1-d sequence")
    top, *rest = [float(c) for c in reversed(coeffs)]

    def _eval(y):
        acc = top + y * 0
        for c in rest:
            acc = c + acc * y
        return acc

    return _eval


def _field_iterates(field_coeffs: Sequence[float], count: int) -> list[Callable]:
    """The first ``count`` iterates g_0 = V, g_{m+1} = V g_m' of the field V
    with ascending ``field_coeffs``, each by :func:`_poly_callable`.

    Each iterate's coefficients are built once, with ``polyder`` and
    ``polymul``; once an iterate is constant, the rest are the zero
    polynomial.
    """
    poly = np.polynomial.polynomial  # imported on first access: only an RDE loads it
    field = np.asarray(field_coeffs, dtype=float)
    current = field
    iterates = []
    for _ in range(count):
        iterates.append(_poly_callable(current))
        current = poly.polymul(field, poly.polyder(current)) if len(current) > 1 else np.zeros(1)
    return iterates


# ---------------------------------------------------------------------------
# rough integral


def rough_integral(z: ControlledPath, x: FbmPath) -> ControlledPath:
    """Compensated-sum integral of a controlled integrand against its driver.

    Each cell of the driver grid contributes the full local expansion
    ``sum_{i=1}^{ell} z^(i-1) (delta x)^i / i!``; the running sum is the
    integral path. The result is a controlled path of order ell + 1 on the
    grid of ``x``, with levels (integral, z levels); pass it to
    :func:`subsample_controlled` for a coarse view with this one attached.
    """
    if z.x.n != x.n or not np.array_equal(z.x.values, x.values):
        raise DomainError("integrand and driver must share the same sampled path")
    if (z.ell + 1) * x.hurst <= 1.0:
        warnings.warn(
            f"integrand order {z.ell} is marginal for hurst={x.hurst}: "
            f"(ell + 1) * hurst <= 1, remainder bounds degrade",
            RuntimeWarning,
            stacklevel=2,
        )

    dx = np.diff(x.values)
    contrib = np.zeros_like(dx)
    power = np.ones_like(dx)
    for i in range(1, z.ell + 1):
        power = power * dx / i
        contrib += z.level(i - 1)[:-1] * power
    integral = np.empty(x.n + 1)
    integral[0] = 0.0
    np.cumsum(contrib, out=integral[1:])

    levels = [integral] + [z.level_value(i) for i in range(z.ell)]
    return ControlledPath(x, levels)


def subsample_controlled(fine_cp: ControlledPath, factor: int) -> ControlledPath:
    """Coarse view on every ``factor``-th node, with ``fine_cp`` attached.

    The only place a fine companion is attached. The coarse rows are
    ``row[::factor]`` of the fine path, so the coarse levels are exact
    subsamples of the fine ones; a level without a row stays one. A factor
    of 1 returns ``fine_cp``.
    """
    if factor < 1 or fine_cp.n % factor != 0:
        raise DomainError(f"factor must divide the resolution {fine_cp.n}")
    if factor == 1:
        return fine_cp
    n_coarse = fine_cp.n // factor
    coarse_x = FbmPath(
        spec=replace(fine_cp.x.spec, n=n_coarse),
        values=fine_cp.x.values[::factor],
    )
    return ControlledPath(coarse_x, fine_cp.levels[:, ::factor], fine_cp, fine_cp.constants)


# ---------------------------------------------------------------------------
# rough differential equations


def solve_rde(
    drift_coeffs: Sequence[float] | None,
    field_coeffs: Sequence[float],
    y0: float,
    x: FbmPath,
    ell: int,
) -> ControlledPath:
    """One-step scheme for dy = b(y) dt + V(y) dx with iterated-field terms.

    The drift b (None for none) and the field V are polynomials given by
    ascending coefficients. Each step advances

        y_next = y + b(y) h + sum_{i=1}^{ell-1} g_{i-1}(y) (delta x)^i / i!

    where g_0 = V and g_{m+1} = V g_m' are the iterated field applications.
    Levels of the solution are y itself and g_{i-1}(y) for i = 1..ell-1. The
    scheme runs on the grid of ``x`` and returns the solution there; pass it
    to :func:`subsample_controlled` for a coarse view with it attached.

    Raises :class:`~roughpvar.fbm.RunError` if the state exceeds 1e12 in
    absolute value or is not finite.
    """
    ell = validate_ell(ell)
    iterates = _field_iterates(field_coeffs, ell - 1)
    drift = _poly_callable(drift_coeffs) if drift_coeffs is not None else None

    n = x.n
    h = 1.0 / n
    dx = np.diff(x.values)
    # Precompute increment powers (delta x)^i / i! for the step terms.
    powers = np.empty((ell - 1, n))
    acc = np.ones(n)
    for i in range(1, ell):
        acc = acc * dx / i
        powers[i - 1] = acc

    y = np.empty(n + 1)
    y[0] = float(y0)
    state = float(y0)
    # One column of powers per step as Python floats: numpy scalars would
    # double the step's cost, and every column at once raises peak RSS.
    for k, column in enumerate(powers.T):
        step = 0.0
        for g, power in zip(iterates, column.tolist()):
            step += g(state) * power
        if drift is not None:
            step += drift(state) * h
        state += step
        if not abs(state) <= _BLOWUP_GUARD:
            raise RunError(
                f"solution exceeded the blow-up guard {_BLOWUP_GUARD:g} at step "
                f"{k + 1} of {n}"
            )
        y[k + 1] = state

    return ControlledPath(x, [y] + [g(y) for g in iterates])
