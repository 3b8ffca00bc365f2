"""Reference controlled processes for the Monte Carlo harness.

Each builder takes the driver sampled at fine resolution and returns the
controlled path at the coarse resolution with the fine construction
attached. Closed-form processes (the driver itself, its square and cube
integrals, the exponential flow) are evaluated exactly on the fine grid, so
their coarse rows are exact subsamples; the driver and its square and cube
integrals store no row for their constant levels. The generic process runs
the rough-differential-equation solver.
"""

from __future__ import annotations

import numpy as np

from .controlled import (
    ControlledPath,
    solve_rde,
    subsample_controlled,
    validate_ell,
)
from .fbm import FbmPath, check_number

PROCESS_TAGS = ("fbm", "sq", "cube", "exp-rde", "custom-rde")

DEFAULT_ELL = 6

# Level functions of the closed-form weights x**d / d!, from the path itself
# down to its constant derivative level; every level after them is 0.
_CLOSED_FORM_LEVELS = {
    "fbm": (lambda xv: xv, lambda xv: 1.0),
    "sq": (lambda xv: 0.5 * xv**2, lambda xv: xv, lambda xv: 1.0),
    "cube": (lambda xv: xv**3 / 6.0, lambda xv: 0.5 * xv**2, lambda xv: xv, lambda xv: 1.0),
}

# Options of ``custom-rde`` left unset: dy = y dx from 1, the exponential flow.
CUSTOM_RDE_DEFAULTS = {"y0": 1.0, "drift_coeffs": None, "field_coeffs": (0.0, 1.0)}


def default_fine_factor(tag: str) -> int:
    """Fine-grid multiple used when none is given: 1 for the driver itself,
    whose derivative level is constant so coarse quadrature is already
    exact, and 16 for every other process."""
    return 1 if tag == "fbm" else 16


def first_zero_level(tag: str) -> int | None:
    """Index of the first derivative level that is identically 0, or None
    where no level is (the RDE processes)."""
    levels = _CLOSED_FORM_LEVELS.get(tag)
    return None if levels is None else len(levels)


def resolve_process_params(tag: str, params: dict | None) -> tuple[int, dict]:
    """The level count and the options of process ``tag``, with the
    ``custom-rde`` defaults filled in: the one check of a process.

    Refuses, in this order, an unknown tag, a ``custom-rde`` option given to
    another process, an ``ell`` that is not an integer of at least 2, any
    other key the process does not take, a ``y0`` that is not one finite
    number, and a coefficient list that is empty, not 1-d, not all numbers
    or not finite; :func:`~roughpvar.fbm.check_integer` and
    :func:`~roughpvar.fbm.check_number` decide what an integer and a number
    are, and a bool is neither. Coefficient lists are returned as tuples, so
    a checked list cannot change after its check.
    """
    if tag not in PROCESS_TAGS:
        raise ValueError(f"unknown process {tag!r}; known: {PROCESS_TAGS}")
    params = dict(params or {})
    options = CUSTOM_RDE_DEFAULTS if tag == "custom-rde" else {}
    foreign = [key for key in CUSTOM_RDE_DEFAULTS if key in params and key not in options]
    if foreign:
        raise ValueError(f"{foreign[0]!r} only applies to the custom-rde process")
    ell = validate_ell(params.pop("ell", DEFAULT_ELL))
    unknown = sorted(set(params) - set(options))
    if unknown:
        raise ValueError(f"unknown parameters for process {tag!r}: {unknown}")
    params = {**options, **params}
    for key, value in params.items():
        if key == "y0":
            check_number(key, value, f"y0 must be one number, got {value!r}")
        if key == "drift_coeffs" and value is None:
            continue
        if key.endswith("_coeffs"):
            if np.ndim(value) != 1 or len(value) == 0:
                raise ValueError(f"{key} must be a nonempty 1-d sequence, got {value}")
            held = f"{key} must hold numbers, got {value!r}"
            for c in value:
                check_number(f"{key} entry", c, held)
            params[key] = tuple(value)
        if not np.isfinite(value).all():
            raise ValueError(f"{key} must be finite, got {value}")
    return ell, params


def build_controlled_process(
    tag: str,
    x_fine: FbmPath,
    fine_factor: int = 1,
    params: dict | None = None,
) -> ControlledPath:
    """Construct one of the registry processes over a sampled driver.

    Parameters
    ----------
    tag : str
        One of ``fbm`` (the driver itself), ``sq`` (running square / 2),
        ``cube`` (running cube / 6), ``exp-rde`` (the exponential flow of
        dy = y dx from 1, evaluated in closed form), ``custom-rde``
        (numeric solve of dy = b(y) dt + V(y) dx with polynomial b and V).
    x_fine : FbmPath
        Driver at resolution ``fine_factor * n``.
    fine_factor : int
        Resolution ratio; the returned path lives on the coarse grid.
    params : dict
        Process options: ``ell`` (level count, default :data:`DEFAULT_ELL`)
        for every tag; ``y0``, ``drift_coeffs``, ``field_coeffs`` for
        ``custom-rde``, defaulting to :data:`CUSTOM_RDE_DEFAULTS`.
    """
    ell, params = resolve_process_params(tag, params)
    # Checked here as well as in subsample_controlled, so that a bad factor
    # is refused before a custom-rde solve.
    if fine_factor < 1 or x_fine.n % fine_factor != 0:
        raise ValueError(
            f"fine_factor must divide the fine resolution {x_fine.n}, got {fine_factor}"
        )
    if tag == "custom-rde":
        fine_cp = solve_rde(x=x_fine, ell=ell, **params)
    elif tag == "exp-rde":
        fine_cp = ControlledPath(x_fine, [np.exp(x_fine.values)] * ell)
    else:
        # Constant levels are scalars, so no row is stored for them.
        raw = [level(x_fine.values) for level in _CLOSED_FORM_LEVELS[tag][:ell]]
        fine_cp = ControlledPath(x_fine, raw + [0.0] * (ell - len(raw)))
    return subsample_controlled(fine_cp, fine_factor)
