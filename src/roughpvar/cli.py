"""Batch command-line entry point.

Subcommands cover path simulation, limit constants, single-path statistics,
regime checks, rate fits, and scaling-exponent fits. Every run resolves its
configuration (file, then flag overrides, then the subcommand's defaults in
``SCHEMA``, which reads each experiment and fit default from the field of
``ExperimentConfig``, ``RateFitConfig`` or ``ScalingConfig`` that declares
it), builds the library objects that validate it (``ExperimentConfig`` and,
for the fits, ``RateFitConfig`` or ``ScalingConfig``, which own the fit's
refusals, targets and tolerance), writes a manifest with the fully
materialized config before any computation, draws the replica rows once
(``harness.collect_rows``, for ``pvar``, ``limit-check`` and ``rate-fit``),
calls the library check once on them, and writes the numbers it returns
into CSV files next to the manifest, all through ``_write_csv``.
``fine_factor`` and ``ks_threshold`` accept ``auto``, which parses to None,
the library's own unresolved value: ``ExperimentConfig`` resolves it at
construction to the process's fine factor and the regime's KS threshold,
and the manifest stores the resolved value. Re-running a subcommand from its manifest reproduces every
output byte for byte; worker count never affects results.

Exit codes: 0 on success/pass, 1 when a check ran but failed, 2 on a
refused setting or input (``fbm.DomainError``), 3 on a run that could not
finish (``fbm.RunError``), 70 (``EX_SOFTWARE``) with a traceback on any
other exception, whatever its builtin type.
A config refused while it is resolved (the process, its level count and
its custom-rde inputs, by ``processes.resolve_process_params``), while its
library objects are built (power exponent, KS threshold and median
tolerance, experiment id, the rate fit's grid and tolerance, the scaling
fit's grid, windows, rank and target included) or by a library check
(worker count, seed, variance domain) exits 2 and writes nothing, and so
does a ``--config`` that cannot be read or an ``--out`` that cannot be
written.
``simulate``, ``constants`` and ``pvar`` (one replica) take no ``--workers``.
"""

from __future__ import annotations

import argparse
import ctypes  # numpy has loaded it already
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__, harness
from .fbm import DomainError, FbmSpec, RunError, check_integer, sample_fbm
from .harness import (
    ExperimentConfig,
    RateFitConfig,
    ScalingConfig,
    rate_fit,
    replica_rng,
    resolve_workers,
    run_regime_check,
    scaling_exponent_check,
)
from .hermite import HERMITE_TERMS, LAG_CUTOFF, asymptotic_variance, gaussian_abs_moment
from .processes import CUSTOM_RDE_DEFAULTS, DEFAULT_ELL, resolve_process_params

REQUIRED = dataclasses.MISSING  # the default of a field that has none: a required key

# Config keys named otherwise in the library's dataclasses.
_FIELD_NAMES = {"seed": "master_seed", "id": "experiment_id", "n": "n_grid", "delta": "delta_grid"}


def _defaults(cls, *keys: str) -> dict:
    """``{key: default}`` of the fields of ``cls`` the keys name, in order; a
    tuple default becomes a list, so a default grid reads as a grid."""
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    defaults = {key: fields[_FIELD_NAMES.get(key, key)] for key in keys}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in defaults.items()}


_PVAR_KEYS = _defaults(
    ExperimentConfig, "hurst", "p", "n", "seed", "t", "fine_factor", "force", "id"
)
_CHECK_KEYS = {
    **_PVAR_KEYS, **_defaults(ExperimentConfig, "replicas", "ks_threshold", "median_tol")
}
_FIT_GRID = [256, 512, 1024, 2048]
# The custom-rde keys default to None, which resolves to CUSTOM_RDE_DEFAULTS
# for that process and drops the key for every other one.
_PROCESS_KEYS = {
    **_defaults(ExperimentConfig, "process"),
    "ell": DEFAULT_ELL,
    **dict.fromkeys(CUSTOM_RDE_DEFAULTS),
}

# Subcommand -> {key: default}, in --help order; an override keeps its key's
# place. The literals are the CLI's own defaults: simulate's and constants'
# keys, pvar's one resolution, the fits' grid and scaling-check's replica
# count. A list default makes "n" a resolution grid rather than one resolution.
SCHEMA = {
    "simulate": {
        "hurst": REQUIRED,
        "n": 1024,
        "seed": 0,
        "replicas": 1,
        **_defaults(FbmSpec, "method"),
    },
    "constants": {
        "p": REQUIRED,
        "hurst": REQUIRED,
        "hermite_terms": HERMITE_TERMS,
        "lag_cutoff": LAG_CUTOFF,
    },
    "pvar": {**_PVAR_KEYS, "n": 1024, **_PROCESS_KEYS},
    "limit-check": {**_CHECK_KEYS, **_PROCESS_KEYS},
    "rate-fit": {**_CHECK_KEYS, "n": _FIT_GRID, **_defaults(RateFitConfig, "tol"), **_PROCESS_KEYS},
    "scaling-check": {
        **_defaults(ExperimentConfig, "hurst", "n", "seed", "replicas"),
        "n": _FIT_GRID,
        "replicas": 100,
        **_defaults(ScalingConfig, "rank", "delta", "start"),
        **_PROCESS_KEYS,
    },
}

# Key -> parse kind; "n" is read as a list where its default is one.
KEY_KINDS = {
    "hurst": "float",
    "p": "float",
    "process": "str",
    "n": "int",
    "seed": "int",
    "replicas": "int",
    "t": "float",
    "fine_factor": "int_or_auto",
    "force": "bool",
    "id": "str",
    "ks_threshold": "float_or_auto",
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


def _coerce(key: str, value, kind: str):
    try:
        return _coerce_inner(value, kind)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad value for {key!r}: {value!r} ({exc})") from None


def _coerce_inner(value, kind: str):
    if kind == "str":
        if not isinstance(value, str):
            raise DomainError("expected a string")
        return value
    if kind == "bool":
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise DomainError("expected true/false")
    if kind == "int":
        if isinstance(value, bool):
            raise DomainError("expected an integer")
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value != int(value):
                raise DomainError("expected an integer")
            return int(value)
        return int(str(value).strip())
    if kind == "float":
        if isinstance(value, bool):
            raise DomainError("expected a number")
        if isinstance(value, (int, float)):
            return float(value)
        return float(str(value).strip())
    if kind.endswith("_or_auto"):
        if isinstance(value, str) and value.strip().lower() == "auto":
            return None  # ExperimentConfig resolves it
        return _coerce_inner(value, kind.removesuffix("_or_auto"))
    if kind.endswith("_or_none"):
        if value is None or (isinstance(value, str) and value.strip().lower() == "none"):
            return None
        return _coerce_inner(value, kind.removesuffix("_or_none"))
    if kind.endswith("_list"):
        return _coerce_list(value, kind.removesuffix("_list"))
    raise AssertionError(f"unknown kind {kind}")


def _coerce_list(value, item_kind: str) -> list:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
        if not value:
            raise DomainError("empty list")
    elif not isinstance(value, (list, tuple)):
        value = [value]
    return [_coerce_inner(item, item_kind) for item in value]


# The top-level keys of a manifest (see _write_manifest).
_MANIFEST_KEYS = {"subcommand", "version", "config", "outputs"}


def _unique_keys(pairs) -> dict:
    """``dict(pairs)``, refusing a key given twice rather than keeping its
    last value."""
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise DomainError(f"repeated config key {key!r}")
        mapping[key] = value
    return mapping


def _load_config_file(path: str) -> tuple[dict, str | None]:
    """Read a flat key=value file or JSON object; unwrap manifests.

    Returns the raw mapping plus the manifest's subcommand when present. A
    key given twice, at any depth, is refused, and so is a key beside a
    manifest's ``config`` object that a manifest does not hold, and text
    that cannot be decoded or parsed, with the decoder's message.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(str(exc)) from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        # text that starts with "{" loads as an object or not at all
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
            raise DomainError(str(exc)) from None
        stored_sub = None
        if "config" in data and isinstance(data["config"], dict):
            extra = sorted(set(data) - _MANIFEST_KEYS)
            if extra:
                names = ", ".join(map(repr, extra))
                raise DomainError(f"a manifest holds its keys in 'config', not at the top: {names}")
            stored_sub = data.get("subcommand")
            data = data["config"]
        return dict(data), stored_sub
    pairs = []
    for token in text.split():
        if "=" not in token:
            raise DomainError(f"malformed config entry {token!r} (expected key=value)")
        key, _, raw = token.partition("=")
        if not key:
            raise DomainError(f"malformed config entry {token!r}")
        pairs.append((key, raw))
    return _unique_keys(pairs), None


def resolve_config(subcommand: str, args: argparse.Namespace) -> dict:
    """Merge config file, flag overrides, and defaults into a resolved dict.

    Unknown keys are errors; every key in the result is materialized, so the
    dict can be stored in a manifest and replayed byte-identically, except
    the fine factor and KS threshold, which stay None (their default, and
    what ``auto`` parses to) until :func:`_experiment_config` resolves them
    and writes them back. The process keys given (a custom-rde key left
    None is not given) hold what ``resolve_process_params`` returns for
    them, which refuses what it does not take.
    """
    schema = SCHEMA[subcommand]
    raw: dict = {}
    if getattr(args, "config", None):
        raw, stored_sub = _load_config_file(args.config)
        if stored_sub is not None and stored_sub != subcommand:
            raise DomainError(
                f"manifest was written by {stored_sub!r}, not {subcommand!r}"
            )
        for key in raw:
            if key not in schema:
                raise DomainError(f"unknown config key {key!r} for {subcommand}")
    for key in schema:
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    kinds = KEY_KINDS
    if isinstance(schema.get("n"), list):
        kinds = {**KEY_KINDS, "n": "int_list"}
    cfg = {key: _coerce(key, raw[key], kinds[key]) for key in raw}
    for key, default in schema.items():
        if key not in cfg:
            if default is REQUIRED:
                raise DomainError(f"missing required key {key!r} for {subcommand}")
            cfg[key] = default
    if "process" in cfg:
        given = {key: cfg.pop(key) for key in ("ell", *CUSTOM_RDE_DEFAULTS)}
        ell, params = resolve_process_params(
            cfg["process"], {key: value for key, value in given.items() if value is not None}
        )
        for key, value in {"ell": ell, **params}.items():
            cfg[key] = _coerce(key, value, KEY_KINDS[key])
    return cfg


_EXPERIMENT_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _experiment_config(cfg: dict, **fixed) -> ExperimentConfig:
    """Build the run's ExperimentConfig from its resolved config.

    ``fixed`` sets the fields the subcommand has no key for. The resolved id,
    fine factor and KS threshold are written back into ``cfg`` for the
    manifest.
    """
    fields = {_FIELD_NAMES.get(key, key): value for key, value in cfg.items()}
    kwargs = {name: fields[name] for name in _EXPERIMENT_FIELDS if name in fields}
    n = cfg["n"]
    kwargs["n_grid"] = tuple(n) if isinstance(n, list) else (n,)
    econfig = ExperimentConfig(
        process_params={k: cfg[k] for k in ("ell", *CUSTOM_RDE_DEFAULTS) if k in cfg},
        **kwargs,
        **fixed,
    )
    if "id" in cfg:
        cfg["id"] = econfig.resolved_id()
    for key in ("fine_factor", "ks_threshold"):
        if key in cfg:
            cfg[key] = getattr(econfig, key)
    return econfig


def _write_manifest(
    args: argparse.Namespace, subcommand: str, cfg: dict, outputs: list[str]
) -> Path:
    """Create the output directory, write the manifest into it, return it."""
    out = Path(getattr(args, "out", None) or f"roughpvar_{subcommand.replace('-', '_')}")
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": cfg,
        "outputs": outputs,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(text)
    except OSError as exc:
        raise DomainError(f"cannot write output directory {str(out)!r}: {exc.strerror}") from None
    return out


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header``, then one comma-joined line per row: floats at 17
    significant digits, which read back to the same bits, anything else as text."""
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_rows(path: Path, exp_id: str, rows) -> None:
    """results.csv and pvar.csv: the id, then every column of ``collect_rows``."""
    rows = ([exp_id, int(n), int(replica), *values] for n, replica, *values in rows)
    _write_csv(path, "experiment_id,n,replica,stat,drift,cond_std,z", rows)


def _log_log_rows(points):
    """``(log n, log err)`` of the (n, err) pairs with a positive error."""
    return ((math.log(n), math.log(err)) for n, err in points if err > 0.0)


# ---------------------------------------------------------------------------
# subcommand runners


def _run_simulate(args: argparse.Namespace) -> int:
    cfg = resolve_config("simulate", args)
    spec = FbmSpec(hurst=cfg["hurst"], n=cfg["n"], method=cfg["method"])
    check_integer("replicas", cfg["replicas"], 1)
    check_integer("master_seed", cfg["seed"], 0)
    names = [f"path_{replica:04d}.csv" for replica in range(cfg["replicas"])]
    out = _write_manifest(args, "simulate", cfg, ["manifest.json"] + names)
    for replica, name in enumerate(names):
        path = sample_fbm(spec, replica_rng(cfg["seed"], spec.n, replica))
        _write_csv(out / name, "t,x", ((i / spec.n, x) for i, x in enumerate(path.values)))
    print(f"simulate: wrote {cfg['replicas']} path(s) at n={spec.n} to {out}")
    return 0


def _run_constants(args: argparse.Namespace) -> int:
    cfg = resolve_config("constants", args)
    series = (cfg["p"], cfg["hurst"], cfg["hermite_terms"], cfg["lag_cutoff"])
    variance = asymptotic_variance(*series)
    out = _write_manifest(args, "constants", cfg, ["manifest.json", "constants.csv"])
    moment = gaussian_abs_moment(cfg["p"])
    header = "p,hurst,abs_moment,asymptotic_variance"
    _write_csv(out / "constants.csv", header, [(cfg["p"], cfg["hurst"], moment, variance)])
    print(
        f"constants: p={cfg['p']} hurst={cfg['hurst']} "
        f"abs_moment={moment:.6g} asymptotic_variance={variance:.6g}"
    )
    return 0


def _run_pvar(args: argparse.Namespace) -> int:
    cfg = resolve_config("pvar", args)
    econfig = _experiment_config(cfg, replicas=1)
    out = _write_manifest(args, "pvar", cfg, ["manifest.json", "pvar.csv"])
    rows = harness.collect_rows(econfig, workers=1)
    _write_rows(out / "pvar.csv", econfig.resolved_id(), rows)
    print(
        f"pvar: {econfig.resolved_id()} n={cfg['n']} stat={rows[0, 2]:.6g} "
        f"z={rows[0, 5]:.6g}"
    )
    return 0


def _run_limit_check(args: argparse.Namespace) -> int:
    cfg = resolve_config("limit-check", args)
    econfig = _experiment_config(cfg)
    workers = resolve_workers(args.workers)
    outputs = ["manifest.json", "results.csv", "summary.csv", "plot_data.csv"]
    out = _write_manifest(args, "limit-check", cfg, outputs)
    rows = harness.collect_rows(econfig, workers)
    _release_freed_heap()
    result = run_regime_check(econfig, rows)
    exp_id = econfig.resolved_id()
    _write_rows(out / "results.csv", exp_id, rows)
    summary = [(exp_id, e["n"], e["median_err"], e["ks"], result.slope, result.slope_se,
                int(e["pass"])) for e in result.summary]
    _write_csv(out / "summary.csv", "experiment_id,n,median_err,ks,slope,slope_se,pass", summary)
    points = ((entry["n"], entry["median_err"]) for entry in result.summary)
    _write_csv(out / "plot_data.csv", "log_n,log_err", _log_log_rows(points))
    verdict = "pass" if result.passed else "FAIL"
    nonfinite = sum(entry["nonfinite"] for entry in result.summary)
    if nonfinite:
        verdict += f" nonfinite={nonfinite}"
    print(
        f"limit-check: {econfig.resolved_id()} regime={econfig.regime} "
        f"slope={result.slope:.4g} -> {verdict}"
    )
    return 0 if result.passed else 1


def _run_rate_fit(args: argparse.Namespace) -> int:
    cfg = resolve_config("rate-fit", args)
    econfig = _experiment_config(cfg)
    rcfg = RateFitConfig(econfig, cfg["tol"])
    workers = resolve_workers(args.workers)
    outputs = ["manifest.json", "rate_fit.csv", "rate_summary.csv"]
    out = _write_manifest(args, "rate-fit", cfg, outputs)
    rows = harness.collect_rows(econfig, workers)
    _release_freed_heap()
    result = rate_fit(rcfg, rows)
    points = zip(econfig.n_grid, result.errors)
    _write_csv(out / "rate_fit.csv", "log_n,log_err", _log_log_rows(points))
    fields = (result.slope, result.slope_se, result.target, rcfg.tol, int(result.passed))
    header = "experiment_id,slope,slope_se,target,tol,pass"
    _write_csv(out / "rate_summary.csv", header, [(econfig.resolved_id(), *fields)])
    verdict = "pass" if result.passed else "FAIL"
    print(
        f"rate-fit: {econfig.resolved_id()} slope={result.slope:.4g} "
        f"target={result.target:.4g} -> {verdict}"
    )
    return 0 if result.passed else 1


def _run_scaling_check(args: argparse.Namespace) -> int:
    cfg = resolve_config("scaling-check", args)
    # The windowed sums use no power exponent; p = 2 is covered in every regime.
    scfg = ScalingConfig(
        _experiment_config(cfg, p=2.0), cfg["rank"], cfg["delta"], cfg["start"]
    )
    workers = resolve_workers(args.workers)
    outputs = ["manifest.json", "scaling.csv", "scaling_summary.csv"]
    out = _write_manifest(args, "scaling-check", cfg, outputs)
    result = scaling_exponent_check(scfg, workers=workers)
    _write_csv(out / "scaling.csv", "n,delta,l1_norm", result.table)
    values = (result.n_exponent, result.delta_exponent, result.n_se, result.delta_se)
    row = (cfg["rank"], cfg["hurst"], *values, result.target, result.window_target)
    header = "rank,hurst,n_exponent,delta_exponent,n_se,delta_se,target,window_target,pass"
    _write_csv(out / "scaling_summary.csv", header, [(*row, int(result.passed))])
    verdict = "pass" if result.passed else "FAIL"
    print(
        f"scaling-check: rank={cfg['rank']} hurst={cfg['hurst']} "
        f"exponents=({result.n_exponent:.3g}, {result.delta_exponent:.3g}) "
        f"targets=({result.target:.3g}, {result.window_target:.3g}) -> {verdict}"
    )
    return 0 if result.passed else 1


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
    for name, keys in SCHEMA.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", help="key=value file, JSON config, or manifest")
        sub.add_argument("--out", help="output directory")
        if name not in ("simulate", "constants", "pvar"):
            sub.add_argument("--workers", type=int, help="worker processes (never affects results)")
        for key, default in keys.items():
            text = _key_help(key, default)
            if key == "force":
                sub.add_argument("--force", action="store_true", default=None, help=text)
            else:
                sub.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, help=text)
    return parser


def _key_help(key: str, default) -> str:
    """A key's --help text: required, or its default as a manifest stores it
    (``auto`` for the None that the library resolves)."""
    if key in CUSTOM_RDE_DEFAULTS:
        return f"custom-rde only (default: {json.dumps(CUSTOM_RDE_DEFAULTS[key])})"
    if default is REQUIRED:
        return "required"
    return f"default: {'auto' if default is None else json.dumps(default)}"


def _libc_function(name: str, *argtypes):
    """The C library's function ``name``, taking ``argtypes`` and returning
    an int, or None where the library has no such function."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None
    function.argtypes = argtypes
    function.restype = ctypes.c_int
    return function


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    Left dynamic, the mmap threshold follows what the process freed before,
    so a row's multi-MB arrays can be mapped and faulted in again on every
    row, and the heap trimmed between rows. Skipped where libc has no
    mallopt; replica workers inherit the setting when they are forked. Its
    counterpart, :func:`_release_freed_heap`, hands what the row loop freed
    back to the kernel once the rows are drawn.
    """
    mallopt = _libc_function("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _release_freed_heap() -> None:
    """Return the heap's free pages to the kernel with glibc's malloc_trim(0).

    The pinned trim threshold keeps the freed row buffers resident, so a run
    that summarizes its rows calls this once after drawing them, and the
    summary's first LAPACK call no longer stacks on the draw's high-water
    mark. Skipped where libc has no malloc_trim.
    """
    malloc_trim = _libc_function("malloc_trim", ctypes.c_size_t)
    if malloc_trim is not None:
        malloc_trim(0)


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.subcommand](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    except Exception:
        # A bug, whatever its builtin type. Only this path needs traceback, so
        # a normal run's start-up never imports it on the CLI's account.
        import traceback

        traceback.print_exc()
        return 70


if __name__ == "__main__":
    sys.exit(main())
