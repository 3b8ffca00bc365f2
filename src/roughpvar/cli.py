"""Batch command-line entry point.

Subcommands cover path simulation, limit constants, single-path statistics,
regime checks, rate fits, and scaling-exponent fits. Every run resolves its
configuration (file, then flag overrides, then defaults), writes a manifest
with the fully materialized config before any computation, and then writes
CSV outputs next to it. Re-running a subcommand from its manifest reproduces
every output byte for byte; worker count never affects results.

Exit codes: 0 on success/pass, 1 when a check ran but failed, 2 on usage or
domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .fbm import FbmSpec, path_to_csv, sample_fbm
from .harness import (
    ExperimentConfig,
    rate_fit,
    replica_rng,
    rows_to_csv,
    run_regime_check,
    scaling_exponent_check,
    collect_rows,
    validate_p_range,
)
from .hermite import TruncationSpec, asymptotic_variance, gaussian_abs_moment
from .processes import PROCESS_TAGS, default_fine_factor

_PROCESS_KEYS = ("process", "ell", "y0", "drift_coeffs", "field_coeffs")
_PVAR_KEYS = ("hurst", "p", "n", "seed", "t", "fine_factor", "quadrature", "force", "id")
_CHECK_KEYS = _PVAR_KEYS + ("replicas", "ks_threshold", "median_tol")

SUBCOMMAND_KEYS = {
    "simulate": ("hurst", "n", "seed", "replicas", "method"),
    "constants": ("p", "hurst", "hermite_terms", "lag_cutoff"),
    "pvar": _PVAR_KEYS + _PROCESS_KEYS,
    "limit-check": _CHECK_KEYS + _PROCESS_KEYS,
    "rate-fit": _CHECK_KEYS + ("tol",) + _PROCESS_KEYS,
    "scaling-check": ("hurst", "n", "seed", "replicas", "rank", "delta", "start")
    + _PROCESS_KEYS,
}

# Key -> parse kind. "n" is a single resolution for simulate/pvar and a grid
# for the fitting subcommands.
KEY_KINDS = {
    "hurst": "float",
    "p": "float",
    "process": "str",
    "n": "int",
    "seed": "int",
    "replicas": "int",
    "t": "float",
    "fine_factor": "int_or_auto",
    "quadrature": "str",
    "force": "bool",
    "id": "str",
    "ks_threshold": "float",
    "median_tol": "float",
    "tol": "float",
    "rank": "int",
    "delta": "float_list",
    "start": "float",
    "method": "str",
    "hermite_terms": "int",
    "lag_cutoff": "int",
    "ell": "int",
    "y0": "float",
    "drift_coeffs": "float_list_or_none",
    "field_coeffs": "float_list",
}

_GRID_SUBCOMMANDS = ("limit-check", "rate-fit", "scaling-check")

_DEFAULTS = {
    "simulate": {"n": 1024, "seed": 0, "replicas": 1, "method": "auto"},
    "constants": {"hermite_terms": 40, "lag_cutoff": 1000000},
    "pvar": {
        "process": "fbm",
        "n": 1024,
        "seed": 0,
        "t": 1.0,
        "fine_factor": "auto",
        "quadrature": "trapezoid",
        "force": False,
        "id": "",
        "ell": 6,
    },
    "limit-check": {
        "process": "fbm",
        "n": [256, 512, 1024],
        "seed": 0,
        "replicas": 200,
        "t": 1.0,
        "fine_factor": "auto",
        "quadrature": "trapezoid",
        "force": False,
        "id": "",
        "ks_threshold": "auto",
        "median_tol": 0.08,
        "ell": 6,
    },
    "scaling-check": {
        "process": "fbm",
        "n": [256, 512, 1024, 2048],
        "seed": 0,
        "replicas": 100,
        "rank": 1,
        "delta": [0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5],
        "start": 0.25,
        "ell": 6,
    },
}
_DEFAULTS["rate-fit"] = {**_DEFAULTS["limit-check"], "tol": 0.1,
                         "n": [256, 512, 1024, 2048]}

_REQUIRED = {
    "simulate": ("hurst",),
    "constants": ("p", "hurst"),
    "pvar": ("hurst", "p"),
    "limit-check": ("hurst", "p"),
    "rate-fit": ("hurst", "p"),
    "scaling-check": ("hurst",),
}


class UsageError(ValueError):
    """Config or domain problem that maps to exit code 2."""


def _coerce(key: str, value, kind: str):
    try:
        return _coerce_inner(value, kind)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {key!r}: {value!r} ({exc})") from None


def _coerce_inner(value, kind: str):
    if kind == "str":
        if not isinstance(value, str):
            raise ValueError("expected a string")
        return value
    if kind == "bool":
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise ValueError("expected true/false")
    if kind == "int":
        if isinstance(value, bool):
            raise ValueError("expected an integer")
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value != int(value):
                raise ValueError("expected an integer")
            return int(value)
        return int(str(value).strip())
    if kind == "float":
        if isinstance(value, bool):
            raise ValueError("expected a number")
        if isinstance(value, (int, float)):
            return float(value)
        return float(str(value).strip())
    if kind == "int_or_auto":
        if isinstance(value, str) and value.strip().lower() == "auto":
            return "auto"
        return _coerce_inner(value, "int")
    if kind == "int_list":
        return _coerce_list(value, "int")
    if kind == "float_list":
        return _coerce_list(value, "float")
    if kind == "float_list_or_none":
        if value is None or (isinstance(value, str) and value.strip().lower() == "none"):
            return None
        return _coerce_list(value, "float")
    raise AssertionError(f"unknown kind {kind}")


def _coerce_list(value, item_kind: str) -> list:
    if isinstance(value, str):
        parts = [part for part in value.split(",") if part.strip()]
        if not parts:
            raise ValueError("empty list")
        return [_coerce_inner(part, item_kind) for part in parts]
    if isinstance(value, (list, tuple)):
        return [_coerce_inner(item, item_kind) for item in value]
    return [_coerce_inner(value, item_kind)]


def _key_kind(subcommand: str, key: str) -> str:
    if key == "n" and subcommand in _GRID_SUBCOMMANDS:
        return "int_list"
    return KEY_KINDS[key]


def _load_config_file(path: str) -> tuple[dict, str | None]:
    """Read a flat key=value file or JSON object; unwrap manifests.

    Returns the raw mapping plus the manifest's subcommand when present.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise UsageError("JSON config must be an object")
        stored_sub = None
        if "config" in data and isinstance(data["config"], dict):
            stored_sub = data.get("subcommand")
            data = data["config"]
        return dict(data), stored_sub
    mapping = {}
    for token in text.split():
        if "=" not in token:
            raise UsageError(f"malformed config entry {token!r} (expected key=value)")
        key, _, raw = token.partition("=")
        if not key:
            raise UsageError(f"malformed config entry {token!r}")
        mapping[key] = raw
    return mapping, None


def resolve_config(subcommand: str, args: argparse.Namespace) -> dict:
    """Merge config file, flag overrides, and defaults into a resolved dict.

    Unknown keys are errors; every key in the result is materialized, so the
    dict can be stored in a manifest and replayed byte-identically.
    """
    allowed = SUBCOMMAND_KEYS[subcommand]
    merged: dict = {}
    if getattr(args, "config", None):
        raw, stored_sub = _load_config_file(args.config)
        if stored_sub is not None and stored_sub != subcommand:
            raise UsageError(
                f"manifest was written by {stored_sub!r}, not {subcommand!r}"
            )
        for key, value in raw.items():
            if key not in allowed:
                raise UsageError(f"unknown config key {key!r} for {subcommand}")
            merged[key] = _coerce(key, value, _key_kind(subcommand, key))
    for key in allowed:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = _coerce(key, flag_value, _key_kind(subcommand, key))
    for key, value in _DEFAULTS[subcommand].items():
        merged.setdefault(key, value)
    for key in _REQUIRED[subcommand]:
        if key not in merged:
            raise UsageError(f"missing required key {key!r} for {subcommand}")
    return _materialize(subcommand, merged)


def _materialize(subcommand: str, cfg: dict) -> dict:
    """Resolve 'auto' placeholders and process-specific defaults."""
    if "process" in cfg and cfg["process"] not in PROCESS_TAGS:
        raise UsageError(f"unknown process {cfg['process']!r}; known: {PROCESS_TAGS}")
    if cfg.get("fine_factor") == "auto":
        cfg["fine_factor"] = default_fine_factor(cfg.get("process"))
    if cfg.get("ks_threshold") == "auto":
        cfg["ks_threshold"] = None
    if cfg.get("process") == "custom-rde":
        cfg.setdefault("y0", 1.0)
        cfg.setdefault("field_coeffs", [0.0, 1.0])
        cfg.setdefault("drift_coeffs", None)
    else:
        for key in ("y0", "drift_coeffs", "field_coeffs"):
            if cfg.get(key) is not None:
                raise UsageError(f"{key!r} only applies to the custom-rde process")
            cfg.pop(key, None)
    return cfg


def _process_params(cfg: dict) -> dict:
    params = {"ell": cfg.get("ell", 6)}
    for key in ("y0", "drift_coeffs", "field_coeffs"):
        if cfg.get(key) is not None:
            value = cfg[key]
            params[key] = tuple(value) if isinstance(value, list) else value
    return params


def _experiment_config(cfg: dict, grid: bool) -> ExperimentConfig:
    n_grid = tuple(cfg["n"]) if grid else (cfg["n"],)
    econfig = ExperimentConfig(
        hurst=cfg["hurst"],
        p=cfg["p"],
        process=cfg["process"],
        n_grid=n_grid,
        replicas=cfg.get("replicas", 1),
        master_seed=cfg["seed"],
        t=cfg["t"],
        fine_factor=cfg["fine_factor"],
        quadrature=cfg["quadrature"],
        force=cfg["force"],
        process_params=_process_params(cfg),
        ks_threshold=cfg.get("ks_threshold"),
        median_tol=cfg.get("median_tol", 0.08),
        experiment_id=cfg.get("id", ""),
    )
    if not econfig.force:
        validate_p_range(econfig.hurst, econfig.p)
    return econfig


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_manifest(
    out_dir: Path, subcommand: str, cfg: dict, outputs: list[str]
) -> None:
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": cfg,
        "outputs": outputs,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (out_dir / "manifest.json").write_text(text)


def _out_dir(args: argparse.Namespace, subcommand: str) -> Path:
    out = getattr(args, "out", None) or f"roughpvar_{subcommand.replace('-', '_')}"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommand runners


def _run_simulate(args: argparse.Namespace) -> int:
    cfg = resolve_config("simulate", args)
    out = _out_dir(args, "simulate")
    names = [f"path_{replica:04d}.csv" for replica in range(cfg["replicas"])]
    _write_manifest(out, "simulate", cfg, ["manifest.json"] + names)
    n = cfg["n"]
    for replica, name in enumerate(names):
        spec = FbmSpec(hurst=cfg["hurst"], n=n, method=cfg["method"])
        path = sample_fbm(spec, replica_rng(cfg["seed"], n, replica))
        (out / name).write_text(path_to_csv(path))
    print(f"simulate: wrote {cfg['replicas']} path(s) at n={n} to {out}")
    return 0


def _run_constants(args: argparse.Namespace) -> int:
    cfg = resolve_config("constants", args)
    out = _out_dir(args, "constants")
    _write_manifest(out, "constants", cfg, ["manifest.json", "constants.csv"])
    truncation = TruncationSpec(
        hermite_terms=cfg["hermite_terms"], lag_cutoff=cfg["lag_cutoff"]
    )
    moment = gaussian_abs_moment(cfg["p"])
    variance = asymptotic_variance(cfg["p"], cfg["hurst"], truncation)
    lines = [
        "p,hurst,abs_moment,asymptotic_variance",
        f"{_fmt(cfg['p'])},{_fmt(cfg['hurst'])},{_fmt(moment)},{_fmt(variance)}",
    ]
    (out / "constants.csv").write_text("\n".join(lines) + "\n")
    print(
        f"constants: p={cfg['p']} hurst={cfg['hurst']} "
        f"abs_moment={moment:.6g} asymptotic_variance={variance:.6g}"
    )
    return 0


def _run_pvar(args: argparse.Namespace) -> int:
    cfg = resolve_config("pvar", args)
    econfig = _experiment_config(cfg, grid=False)
    cfg["id"] = econfig.resolved_id()
    out = _out_dir(args, "pvar")
    _write_manifest(out, "pvar", cfg, ["manifest.json", "pvar.csv"])
    rows = collect_rows(econfig, workers=args.workers)
    (out / "pvar.csv").write_text(rows_to_csv(econfig.resolved_id(), rows))
    print(
        f"pvar: {econfig.resolved_id()} n={cfg['n']} stat={rows[0, 2]:.6g} "
        f"z={rows[0, 5]:.6g}"
    )
    return 0


def _run_limit_check(args: argparse.Namespace) -> int:
    cfg = resolve_config("limit-check", args)
    econfig = _experiment_config(cfg, grid=True)
    cfg["id"] = econfig.resolved_id()
    cfg["ks_threshold"] = econfig.resolved_ks_threshold
    out = _out_dir(args, "limit-check")
    outputs = ["manifest.json", "results.csv", "summary.csv", "plot_data.csv"]
    _write_manifest(out, "limit-check", cfg, outputs)
    result = run_regime_check(econfig, workers=args.workers)
    (out / "results.csv").write_text(result.results_csv())
    (out / "summary.csv").write_text(result.summary_csv())
    (out / "plot_data.csv").write_text(result.plot_data_csv())
    verdict = "pass" if result.passed else "FAIL"
    print(
        f"limit-check: {econfig.resolved_id()} regime={econfig.regime} "
        f"slope={result.slope:.4g} -> {verdict}"
    )
    return 0 if result.passed else 1


def _run_rate_fit(args: argparse.Namespace) -> int:
    cfg = resolve_config("rate-fit", args)
    econfig = _experiment_config(cfg, grid=True)
    cfg["id"] = econfig.resolved_id()
    cfg["ks_threshold"] = econfig.resolved_ks_threshold
    out = _out_dir(args, "rate-fit")
    outputs = ["manifest.json", "rate_fit.csv", "rate_summary.csv"]
    _write_manifest(out, "rate-fit", cfg, outputs)
    result = rate_fit(econfig, workers=args.workers, tol=cfg["tol"])
    (out / "rate_fit.csv").write_text(result.csv())
    target = result.target if result.target is not None else math.nan
    lines = [
        "experiment_id,slope,slope_se,target,tol,pass",
        f"{econfig.resolved_id()},{_fmt(result.slope)},{_fmt(result.slope_se)},"
        f"{_fmt(target)},{_fmt(result.tol)},{int(result.passed)}",
    ]
    (out / "rate_summary.csv").write_text("\n".join(lines) + "\n")
    verdict = "pass" if result.passed else "FAIL"
    print(
        f"rate-fit: {econfig.resolved_id()} slope={result.slope:.4g} "
        f"target={target:.4g} -> {verdict}"
    )
    return 0 if result.passed else 1


def _scaling_target(hurst: float, rank: int) -> float:
    """Resolution-axis exponent target, the ``target`` column of the summary.

    Below rank * H = 1/2 the windowed Hermite sum is degenerate:
    n**(rank H - 1) times it converges to (-1/2)**rank times the window
    integral of the weight's rank-th derivative level, so it grows like
    n**(1 - rank H). Otherwise the central limit square root takes over.
    """
    product = rank * hurst
    return 1.0 - product if product < 0.5 else 0.5


def _window_target(hurst: float, rank: int) -> float:
    """Window-length exponent target: 1 in the degenerate regime, else 1/2.

    The degenerate limit is a time integral over the window, so it grows
    like delta. For the ``fbm`` weight at rank 1 the sum telescopes to
    n**H ((x_t**2 - x_s**2) - sum (delta x_k)**2) / 2, about
    -(delta / 2) n**(1 - H). Not settled: where the weight's rank-th
    derivative level vanishes (the ``fbm`` weight at rank >= 2) the limit
    integral is 0 and neither exponent is established; both targets are
    applied there unchanged.
    """
    return 1.0 if rank * hurst < 0.5 else 0.5


def _run_scaling_check(args: argparse.Namespace) -> int:
    cfg = resolve_config("scaling-check", args)
    out = _out_dir(args, "scaling-check")
    outputs = ["manifest.json", "scaling.csv", "scaling_summary.csv"]
    _write_manifest(out, "scaling-check", cfg, outputs)
    econfig = ExperimentConfig(
        hurst=cfg["hurst"],
        p=2.0,
        process=cfg["process"],
        n_grid=tuple(cfg["n"]),
        replicas=cfg["replicas"],
        master_seed=cfg["seed"],
        process_params=_process_params(cfg),
    )
    result = scaling_exponent_check(
        econfig, cfg["rank"], cfg["delta"], start=cfg["start"], workers=args.workers
    )
    (out / "scaling.csv").write_text(result.csv())
    target = _scaling_target(cfg["hurst"], cfg["rank"])
    window_target = _window_target(cfg["hurst"], cfg["rank"])
    tol = 0.15
    passed = (
        abs(result.n_exponent - target) <= tol
        and abs(result.delta_exponent - window_target) <= tol
    )
    lines = [
        "rank,hurst,n_exponent,delta_exponent,n_se,delta_se,target,window_target,pass",
        f"{cfg['rank']},{_fmt(cfg['hurst'])},{_fmt(result.n_exponent)},"
        f"{_fmt(result.delta_exponent)},{_fmt(result.n_se)},{_fmt(result.delta_se)},"
        f"{_fmt(target)},{_fmt(window_target)},{int(passed)}",
    ]
    (out / "scaling_summary.csv").write_text("\n".join(lines) + "\n")
    verdict = "pass" if passed else "FAIL"
    print(
        f"scaling-check: rank={cfg['rank']} hurst={cfg['hurst']} "
        f"exponents=({result.n_exponent:.3g}, {result.delta_exponent:.3g}) "
        f"targets=({target:.3g}, {window_target:.3g}) -> {verdict}"
    )
    return 0 if passed else 1


_RUNNERS = {
    "simulate": _run_simulate,
    "constants": _run_constants,
    "pvar": _run_pvar,
    "limit-check": _run_limit_check,
    "rate-fit": _run_rate_fit,
    "scaling-check": _run_scaling_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughpvar",
        description="Power-variation limit-theorem toolkit for rough paths",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in SUBCOMMAND_KEYS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", help="key=value file, JSON config, or manifest")
        sub.add_argument("--out", help="output directory")
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes (never affects results)",
        )
        for key in keys:
            if key == "force":
                sub.add_argument("--force", action="store_true", default=None)
            else:
                sub.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.subcommand](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
