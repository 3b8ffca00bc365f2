"""Tests for the batch command-line interface.

Covers:
1. Config resolution: key=value files, JSON files, manifest unwrapping,
   flag-over-file precedence, defaults, and every rejection path (a
   repeated key and a key beside a manifest's config included); each
   key's --help text is "required" or its default as a manifest stores it.
2. The simulate subcommand: outputs, CSV layout, byte-level determinism.
3. The constants subcommand against known limit values.
4. The pvar subcommand: row schema, guaranteed-range refusal, and the
   force escape hatch with its unguaranteed marker.
5. limit-check: calibrated pass, forced failure, manifest replay byte
   identity, worker-count invariance, the non-finite z count, and one call
   each of harness.collect_rows and cli.run_regime_check, the names that
   perfbench's trace wraps.
6. rate-fit: a calibrated pass and an exact deterministic failure.
7. scaling-check: output schema, manifest replay, and a pass field that is
   the library's verdict.
8. Exit codes: 0 pass, 1 failed check, 2 a DomainError (a
   scaling-check without an established target, NaN or negative gates
   and windows, a t below one grid cell, a window holding no increment, a
   p that is not finite and non-finite custom-rde inputs included, a JSON
   integer that is not finite, a config file that is not UTF-8, not JSON
   or nested too deep, and an unreadable --config or an --out that cannot take the
   manifest, each one line naming the path), 3 a RunError (the blow-up
   guard), 70 any other exception (an OSError while the results are
   written, and a builtin ValueError or RecursionError raised in a row,
   included), in the parent or in a forked worker, and a refused config
   writes nothing; no statement under src/ raises a bare ValueError or
   RuntimeError; a libc without mallopt changes no exit code; 17
   significant digit float formatting throughout.
9. The config -> manifest -> config round trip as a fixed point, on drawn
   configs of every subcommand, in key=value and JSON form.
10. Cold start: a complete limit-check run in a fresh interpreter never
    loads scipy.stats or scipy.linalg; the dense Cholesky oracle loads
    scipy.linalg when it runs; forked workers inherit numpy.random and
    numpy.fft from the parent; neither a serial nor a 2-worker run loads
    multiprocessing or concurrent.futures.
11. The one CSV writer: any float, ±0, ±inf and NaN included, reads back to
    the same bits, strings and integers as written; results, summary,
    log-log, scaling and path files checked against the library's numbers.
12. The one config schema: every experiment and fit default in ``SCHEMA``
    is its dataclass field's, but for the named per-subcommand overrides;
    manifests written before replay byte for byte.
13. The one process resolver: on drawn processes and option sets the CLI
    stores what ``processes.resolve_process_params`` returns, or exits 2
    with its message and writes nothing; the library refuses an unknown
    process with the same message everywhere.
"""

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import roughpvar
from roughpvar import (
    DomainError,
    ExperimentConfig,
    FbmSpec,
    RateFitConfig,
    RunError,
    ScalingConfig,
    build_replica_path,
    collect_rows,
    run_regime_check,
    sample_fbm,
    scaling_exponent_check,
)
from roughpvar import cli, harness
from roughpvar.cli import (
    REQUIRED,
    SCHEMA,
    _experiment_config,
    build_parser,
    main,
    resolve_config,
)
from roughpvar.processes import (
    CUSTOM_RDE_DEFAULTS,
    PROCESS_TAGS,
    build_controlled_process,
    resolve_process_params,
)

# ---------------------------------------------------------------------------
# shared helpers


def _parse(argv):
    return build_parser().parse_args(argv)


def _read_lines(path):
    return path.read_text().splitlines()


def _assert_17g(text: str) -> None:
    value = float(text)
    assert text == f"{value:.17g}", f"field {text!r} is not canonical 17g"


# ---------------------------------------------------------------------------
# config resolution


class TestResolveConfig:
    """Merging of config files, flag overrides, and defaults."""

    def test_key_value_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("hurst=0.25 p=2 process=sq n=1024,4096 replicas=500 seed=42")
        cfg = resolve_config("limit-check", _parse(["limit-check", "--config", str(cfg_file)]))
        assert cfg["hurst"] == 0.25 and cfg["p"] == 2.0
        assert cfg["process"] == "sq"
        assert cfg["n"] == [1024, 4096]
        assert cfg["replicas"] == 500 and cfg["seed"] == 42
        # Defaults filled in; auto stays None until ExperimentConfig resolves
        # it, and _experiment_config writes the resolved value back.
        assert cfg["fine_factor"] is None
        assert cfg["ks_threshold"] is None
        assert cfg["t"] == 1.0 and "quadrature" not in cfg
        _experiment_config(cfg)
        assert cfg["fine_factor"] == 16, "auto fine factor is 16 off the plain driver"
        assert cfg["ks_threshold"] == 0.07, "auto KS threshold at the critical index"

    def test_newline_separated_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("hurst=0.35\np=2\n")
        cfg = resolve_config("pvar", _parse(["pvar", "--config", str(cfg_file)]))
        assert cfg["hurst"] == 0.35 and cfg["n"] == 1024

    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("hurst=0.25 p=2")
        args = _parse(["limit-check", "--config", str(cfg_file), "--hurst", "0.35"])
        assert resolve_config("limit-check", args)["hurst"] == 0.35

    def test_json_config(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"hurst": 0.35, "p": 3.0}))
        cfg = resolve_config("limit-check", _parse(["limit-check", "--config", str(cfg_file)]))
        assert cfg["hurst"] == 0.35 and cfg["p"] == 3.0
        assert cfg["n"] == [256, 512, 1024], "grid default should fill in"

    def test_manifest_unwrap(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "subcommand": "simulate",
                    "version": "0.0.0",
                    "config": {"hurst": 0.3, "n": 64, "seed": 0, "replicas": 1, "method": "auto"},
                    "outputs": [],
                }
            )
        )
        cfg = resolve_config("simulate", _parse(["simulate", "--config", str(manifest)]))
        assert cfg["hurst"] == 0.3 and cfg["n"] == 64

    def test_manifest_subcommand_mismatch(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"subcommand": "simulate", "config": {"hurst": 0.3}, "outputs": []})
        )
        with pytest.raises(DomainError, match="written by 'simulate'"):
            resolve_config("limit-check", _parse(["limit-check", "--config", str(manifest)]))

    @pytest.mark.parametrize(
        "content, match",
        [
            ("foo=1 hurst=0.3 p=2", "unknown config key 'foo'"),
            ("hurst=abc p=2", "bad value for 'hurst'"),
            ("hurst:0.3", "malformed config entry"),
            ("force=maybe hurst=0.3 p=2", "bad value for 'force'"),
            # every limit integral is a trapezoid sum; the key is gone
            ("quadrature=trapezoid hurst=0.3 p=2", "unknown config key 'quadrature'"),
            ("=1 hurst=0.3 p=2", "malformed config entry '=1'"),
            # a JSON array is not read as JSON: it is a malformed key=value file
            ("[0.3, 2]", "malformed config entry"),
            ('{"hurst": 0.3, "p": 2, "process": 3}', "bad value for 'process'"),
            ('{"hurst": 0.3, "p": 2, "replicas": true}', "bad value for 'replicas'"),
            ('{"hurst": 0.3, "p": 2, "n": [1024.5]}', "bad value for 'n'"),
            ('{"hurst": true, "p": 2}', "bad value for 'hurst'"),
            # a repeated key would silently take its last value
            ("hurst=0.4 p=2 hurst=0.3", "repeated config key 'hurst'"),
            ('{"hurst": 0.4, "p": 2, "hurst": 0.3}', "repeated config key 'hurst'"),
            ('{"subcommand": "limit-check", "config": {"hurst": 0.4, "p": 2, "p": 3}}',
             "repeated config key 'p'"),
            ('{"hurst": 0.4, "p": 2, "n": [{"a": 1, "a": 2}]}', "repeated config key 'a'"),
            # a manifest's config would drop the keys beside it
            ('{"config": {"hurst": 0.4, "p": 2, "replicas": 3}, "n": [32]}',
             "not at the top: 'n'"),
            ('{"config": {"hurst": 0.4, "p": 2}, "seed": 1, "n": [32]}',
             "not at the top: 'n', 'seed'"),
        ],
    )
    def test_config_file_rejections(self, tmp_path, content, match):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(content)
        with pytest.raises(DomainError, match=match):
            resolve_config("limit-check", _parse(["limit-check", "--config", str(cfg_file)]))

    @pytest.mark.parametrize(
        "content",
        ["hurst=0.4 p=2 hurst=0.3", '{"config": {"hurst": 0.4, "p": 2}, "n": [32]}'],
    )
    def test_refused_config_file_exits_2_and_writes_nothing(self, tmp_path, capsys, content):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(content)
        out = tmp_path / "out"
        assert main(["limit-check", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [[1024.0], 1024])
    def test_json_integral_float_and_scalar_grid_accepted(self, tmp_path, n):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"hurst": 0.35, "p": 2, "n": n}))
        cfg = resolve_config("limit-check", _parse(["limit-check", "--config", str(cfg_file)]))
        assert cfg["n"] == [1024] and type(cfg["n"][0]) is int

    def test_missing_required_key(self):
        with pytest.raises(DomainError, match="missing required key 'p'"):
            resolve_config("constants", _parse(["constants", "--hurst", "0.5"]))

    def test_resolution_grid_only_for_fitting_subcommands(self):
        with pytest.raises(DomainError, match="bad value for 'n'"):
            resolve_config("simulate", _parse(["simulate", "--hurst", "0.3", "--n", "64,128"]))

    def test_equation_keys_need_the_custom_process(self):
        # refused by processes.resolve_process_params, whose DomainError main
        # maps to exit 2 like every refusal the CLI makes itself
        args = _parse(["pvar", "--hurst", "0.35", "--p", "2", "--y0", "1.0"])
        with pytest.raises(DomainError, match="'y0' only applies to the custom-rde process"):
            resolve_config("pvar", args)

    def test_custom_process_defaults(self):
        args = _parse(["pvar", "--hurst", "0.35", "--p", "2", "--process", "custom-rde"])
        cfg = resolve_config("pvar", args)
        assert cfg["y0"] == 1.0
        assert cfg["field_coeffs"] == [0.0, 1.0]
        assert cfg["drift_coeffs"] is None

    def test_unknown_process_rejected(self):
        args = _parse(["pvar", "--hurst", "0.35", "--p", "2", "--process", "ou"])
        with pytest.raises(DomainError, match="unknown process 'ou'; known: "):
            resolve_config("pvar", args)

    @pytest.mark.parametrize("subcommand", list(SCHEMA))
    def test_help_shows_each_default_as_the_manifest_stores_it(self, subcommand):
        required = [key for key, default in SCHEMA[subcommand].items() if default is REQUIRED]
        argv = [subcommand]
        for key in required:
            argv += [f"--{key}", {"hurst": "0.3", "p": "2"}[key]]
        stored = resolve_config(subcommand, _parse(argv))
        if "process" in stored:
            custom = resolve_config(subcommand, _parse(argv + ["--process", "custom-rde"]))
            stored.update({key: custom[key] for key in CUSTOM_RDE_DEFAULTS})
        page = build_parser()._subparsers._group_actions[0].choices[subcommand]
        texts = {action.dest: action.help for action in page._actions}
        for key in SCHEMA[subcommand]:
            text = texts[key]
            if key in required:
                assert text == "required"
                continue
            if key in CUSTOM_RDE_DEFAULTS:
                assert text.startswith("custom-rde only (default: ") and text.endswith(")")
                text = text.removeprefix("custom-rde only (").removesuffix(")")
            shown = text.removeprefix("default: ")
            # fine_factor and ks_threshold: the library resolves None
            assert (None if shown == "auto" else json.loads(shown)) == stored[key], key

    @pytest.mark.parametrize("hurst, threshold", [(0.25, 0.07), (0.35, 0.05)])
    def test_ks_threshold_auto_replays_to_regime_threshold(self, tmp_path, hurst, threshold):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "subcommand": "limit-check",
                    "config": {"hurst": hurst, "p": 2.0, "ks_threshold": 0.9},
                    "outputs": [],
                }
            )
        )
        args = _parse(["limit-check", "--config", str(manifest), "--ks-threshold", "auto"])
        cfg = resolve_config("limit-check", args)
        assert cfg["ks_threshold"] is None, "auto must override the stored threshold"
        _experiment_config(cfg)
        assert cfg["ks_threshold"] == threshold


# ---------------------------------------------------------------------------
# exit codes and argparse plumbing


class TestMainErrors:
    """The package's two classes set the exit code: a DomainError exits 2, a
    RunError 3, and any other exception 70, whatever its builtin type."""

    @pytest.mark.parametrize(
        "outcome, code, err",
        [
            (0, 0, ""),
            (1, 1, ""),
            (DomainError("refused"), 2, "error: refused\n"),
            (RunError("stopped"), 3, "run failed: stopped\n"),
            (ValueError("a bug"), 70, "ValueError: a bug"),
        ],
        ids=["exit-0", "exit-1", "exit-2", "exit-3", "exit-70"],
    )
    def test_one_exit_code_per_outcome(self, monkeypatch, capsys, outcome, code, err):
        def runner(args):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setitem(cli._RUNNERS, "pvar", runner)
        assert main(["pvar", "--hurst", "0.3", "--p", "2"]) == code
        stderr = capsys.readouterr().err
        if code == 70:
            assert stderr.startswith("Traceback") and stderr.endswith(f"{err}\n")
        else:
            assert stderr == err

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "error, code",
        [(DomainError, 2), (RunError, 3), (ValueError, 70), (RuntimeError, 70),
         (RecursionError, 70)],
    )
    def test_an_exception_in_a_row_keeps_its_exit_code(
        self, tmp_path, monkeypatch, capsys, error, code, workers
    ):
        # Raised while replica 3 is computed, in the parent or in a forked
        # worker: only the package's own classes are a refusal or a failed
        # run, and a builtin ValueError or RecursionError is a bug.
        original = harness.build_replica_path

        def build(cfg, n, replica):
            if replica == 3:
                raise error("raised in a row")
            return original(cfg, n, replica)

        monkeypatch.setattr(harness, "build_replica_path", build)
        out = tmp_path / "out"
        argv = ["limit-check", "--hurst", "0.4", "--p", "2", "--n", "64", "--replicas", "5",
                "--workers", str(workers), "--out", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code == 70:
            assert "Traceback" in err and err.endswith(f"{error.__name__}: raised in a row\n")
        else:
            prefix = "error" if code == 2 else "run failed"
            assert err == f"{prefix}: raised in a row\n"
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]

    def test_no_bare_builtin_error_is_raised_under_src(self):
        # Every raise under src/ names DomainError or RunError, so the exit
        # code never depends on which builtin an error happens to be. The
        # cause that carries a worker's traceback text is the one RuntimeError.
        src = Path(roughpvar.__file__).parent
        bare, classes = [], []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id in ("ValueError", "RuntimeError"):
                        bare.append(f"{path.name}:{node.lineno}")
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id.endswith("Error")
                    for base in node.bases
                ):
                    classes.append(node.name)
        assert bare == []
        # and the package defines no exception class beside the two
        assert sorted(classes) == ["DomainError", "RunError"]

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["constants", "--bogus", "1"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert roughpvar.__version__ in capsys.readouterr().out

    def test_domain_error_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--hurst", "1.2", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_regime_domain_error_exits_2(self, tmp_path, capsys):
        rc = main(
            ["limit-check", "--hurst", "0.6", "--p", "2", "--n", "64,128",
             "--replicas", "5", "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "covers hurst" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--hurst", "0.3", "--replicas", "0"],
            ["simulate", "--hurst", "0.3", "--replicas", "-2"],
            ["simulate", "--hurst", "1.2", "--replicas", "0"],
            ["scaling-check", "--hurst", "0.6"],
            ["constants", "--p", "2", "--hurst", "0.3", "--hermite-terms", "0"],
            ["rate-fit", "--hurst", "0.3", "--p", "2", "--n", "64"],
            ["scaling-check", "--hurst", "0.3", "--delta", "2,3"],
            ["limit-check", "--hurst", "0.3", "--p", "2", "--workers", "0"],
            ["constants", "--p", "0.5", "--hurst", "0.3"],
            ["constants", "--p", "2", "--hurst", "0.8"],
            ["simulate", "--hurst", "0.3", "--seed", "-1"],
            ["pvar", "--hurst", "0.3", "--p", "3", "--ell", "1"],
            ["limit-check", "--hurst", "0.3", "--p", "3", "--ell", "1"],
            ["simulate", "--hurst", "0.3", "--n", "4097", "--method", "cholesky"],
            # a weight whose rank-th level is 0 below rank * H = 1/2: no target
            ["scaling-check", "--process", "fbm", "--rank", "2", "--hurst", "0.15"],
            ["scaling-check", "--process", "sq", "--rank", "3", "--hurst", "0.15"],
            # gates and windows that are NaN or out of range
            ["limit-check", "--hurst", "0.3", "--p", "2", "--ks-threshold", "nan"],
            ["limit-check", "--hurst", "0.3", "--p", "2", "--median-tol", "-1"],
            ["rate-fit", "--hurst", "0.3", "--p", "2", "--tol", "nan"],
            ["scaling-check", "--hurst", "0.3", "--delta", "nan,0.25"],
            ["scaling-check", "--hurst", "0.3", "--start", "nan"],
            ["scaling-check", "--hurst", "0.3", "--rank", "0"],
            # p < 2 where the drift enters, forced or not: phi'' is unbounded at 0
            ["limit-check", "--process", "sq", "--hurst", "0.25", "--p", "1.5", "--n", "64,128",
             "--replicas", "10", "--force"],
            ["limit-check", "--process", "sq", "--hurst", "0.15", "--p", "1.5", "--force"],
            ["pvar", "--process", "sq", "--hurst", "0.25", "--p", "1.5", "--force"],
            ["pvar", "--process", "sq", "--hurst", "0.15", "--p", "1.5", "--force"],
            ["rate-fit", "--process", "sq", "--hurst", "0.15", "--p", "1.5", "--force"],
            # t below one cell, and a window with no increment at n = 32
            ["limit-check", "--process", "sq", "--hurst", "0.15", "--p", "2", "--t", "0.001",
             "--n", "256,512", "--replicas", "20"],
            ["pvar", "--process", "sq", "--hurst", "0.3", "--p", "2", "--t", "0.001",
             "--n", "256"],
            ["scaling-check", "--hurst", "0.4", "--n", "32,64", "--replicas", "5"],
            # a p that is not finite, at every regime, forced or not
            ["limit-check", "--process", "sq", "--hurst", "0.25", "--p", "inf", "--n", "64",
             "--replicas", "5"],
            ["pvar", "--process", "sq", "--hurst", "0.15", "--p", "inf", "--n", "64"],
            ["limit-check", "--process", "sq", "--hurst", "0.4", "--p", "inf", "--n", "64",
             "--replicas", "5"],
            ["limit-check", "--process", "sq", "--hurst", "0.15", "--p", "nan", "--force"],
            ["constants", "--p", "inf", "--hurst", "0.3"],
            ["constants", "--p", "nan", "--hurst", "0.3"],
            # custom-rde inputs that are not finite
            ["pvar", "--process", "custom-rde", "--y0", "nan", "--hurst", "0.3", "--p", "2",
             "--n", "64"],
            ["pvar", "--process", "custom-rde", "--field-coeffs", "0,nan", "--hurst", "0.3",
             "--p", "2", "--n", "64"],
            ["pvar", "--process", "custom-rde", "--drift-coeffs", "inf", "--hurst", "0.3",
             "--p", "2", "--n", "64"],
            # empty coefficient lists, which only a JSON config can give
            ["pvar", "--config", {"process": "custom-rde", "field_coeffs": [], "hurst": 0.3,
                                  "p": 2, "n": 64}],
            ["pvar", "--config", {"process": "custom-rde", "drift_coeffs": [], "hurst": 0.3,
                                  "p": 2, "n": 64}],
            # an id that would add a field or a line to every CSV row
            ["limit-check", "--hurst", "0.4", "--p", "2", "--n", "64", "--replicas", "5",
             "--id", "a,b"],
            ["pvar", "--hurst", "0.4", "--p", "2", "--n", "64", "--id", "a\nb"],
        ],
    )
    def test_refused_config_writes_nothing(self, tmp_path, argv):
        if isinstance(argv[-1], dict):  # a JSON config file that holds it
            config = tmp_path / "config.json"
            config.write_text(json.dumps(argv[-1]))
            argv = argv[:-1] + [str(config)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert not (out / "manifest.json").exists()
        assert not out.exists(), "a refused config must not create its output directory"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["limit-check", "--config", "{tmp}/missing.cfg"],
             "cannot read config file '{tmp}/missing.cfg': No such file or directory"),
            (["limit-check", "--config", "{tmp}"],
             "cannot read config file '{tmp}': Is a directory"),
            (["pvar", "--hurst", "0.4", "--p", "2", "--n", "64", "--out", "{tmp}/taken"],
             "cannot write output directory '{tmp}/taken': File exists"),
            (["pvar", "--hurst", "0.4", "--p", "2", "--n", "64", "--out", "{tmp}/full"],
             "cannot write output directory '{tmp}/full': Is a directory"),
            # a list flag that holds no entry
            (["scaling-check", "--hurst", "0.4", "--delta", ","],
             "bad value for 'delta': ',' (empty list)"),
        ],
    )
    def test_refusal_is_one_line_and_writes_nothing(self, tmp_path, capsys, argv, message):
        # An unreadable --config or an --out that cannot take the manifest
        # is a usage error naming the path, not a bug: exit 2, one line and
        # no traceback, nothing written. "taken" is a file; "full" holds a
        # directory where the manifest goes.
        (tmp_path / "taken").write_text("kept\n")
        (tmp_path / "full" / "manifest.json").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        argv = [item.replace("{tmp}", str(tmp_path)) for item in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_output_error_after_the_manifest_exits_70(self, tmp_path, monkeypatch, capsys):
        # Only the manifest's directory and file are usage errors; an OSError
        # while writing the results is still a bug.
        def broken(*args):
            raise OSError("results not written")

        monkeypatch.setattr(cli, "_write_rows", broken)
        argv = ["pvar", "--hurst", "0.4", "--p", "2", "--n", "64", "--out", str(tmp_path / "pv")]
        assert main(argv) == 70
        assert "Traceback" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--hurst", "0.3"],
            ["constants", "--p", "2", "--hurst", "0.3"],
            # one replica at one resolution: a pool would never start
            ["pvar", "--hurst", "0.3", "--p", "2"],
        ],
    )
    def test_workers_flag_refused_where_no_replicas_are_collected(self, tmp_path, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--workers", "2", "--out", str(out)])
        assert excinfo.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "2.0", ""])
    def test_bad_workers_variable_is_named(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv(harness.WORKERS_ENV, value)
        out = tmp_path / "out"
        argv = ["limit-check", "--hurst", "0.4", "--p", "2", "--n", "64", "--replicas", "4"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"ROUGHPVAR_WORKERS must be an integer, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["limit-check", "--hurst", "0.4", "--p", "2"],
            ["rate-fit", "--hurst", "0.4", "--p", "2"],
            ["scaling-check", "--hurst", "0.4"],
        ],
    )
    def test_workers_need_fork(self, tmp_path, monkeypatch, capsys, argv):
        # Workers are forked, so a platform without os.fork refuses two of
        # them before anything is written.
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "out"
        argv = argv + ["--n", "64,128", "--replicas", "4", "--workers", "2", "--out", str(out)]
        assert main(argv) == 2
        assert f"2 workers need os.fork, which {sys.platform} lacks" in capsys.readouterr().err
        assert not out.exists()

    def test_pvar_reads_no_workers_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(harness.WORKERS_ENV, "abc")
        argv = ["pvar", "--hurst", "0.3", "--p", "2", "--n", "64", "--out", str(tmp_path / "pv")]
        assert main(argv) == 0

    def test_non_finite_blow_up_exits_3(self, tmp_path, capsys):
        # dy = 5 y^8 dx from 1e13 overflows to inf and then NaN in one step:
        # a run that could not finish, not a check that ran and failed (1).
        argv = ["pvar", "--hurst", "0.3", "--p", "3", "--process", "custom-rde",
                "--field-coeffs", "0,0,0,0,0,0,0,0,5", "--y0", "1e13", "--n", "8",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: solution exceeded the blow-up guard")

    def test_unexpected_exception_exits_70(self, tmp_path, monkeypatch, capsys):
        # A bug is neither a refused config (2), a failed run (3) nor a
        # failed check (1).
        def broken(args):
            raise KeyError("not a usage error")

        monkeypatch.setitem(cli._RUNNERS, "pvar", broken)
        assert main(["pvar", "--hurst", "0.3", "--p", "2", "--out", str(tmp_path / "out")]) == 70
        err = capsys.readouterr().err
        assert "Traceback" in err and "KeyError" in err

    def test_runs_where_libc_has_no_mallopt(self, tmp_path, monkeypatch, capsys):
        # On a libc without mallopt or malloc_trim the allocator pinning and
        # the heap release are skipped, and each run ends with its own exit
        # code, not 70.
        import ctypes

        class NoMallopt:
            def __init__(self, name):
                pass

            def __getattr__(self, name):
                raise AttributeError(name)

        monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
        runs = [
            ["constants", "--p", "2", "--hurst", "0.3"],
            ["limit-check", "--hurst", "0.5", "--p", "2", "--n", "64", "--replicas", "20",
             "--seed", "3", "--ks-threshold", "0.9"],
            ["rate-fit", "--hurst", "0.5", "--p", "2", "--n", "64,128", "--replicas", "5",
             "--seed", "3", "--tol", "10"],
        ]
        for i, argv in enumerate(runs):
            rc = main(argv + ["--out", str(tmp_path / f"out{i}")])
            assert rc == 0, argv[0]
            assert "Traceback" not in capsys.readouterr().err, argv[0]

    @pytest.mark.parametrize(
        "subcommand, summarize",
        [("limit-check", "run_regime_check"), ("rate-fit", "rate_fit")],
    )
    def test_heap_is_released_between_draw_and_summary(
        self, tmp_path, monkeypatch, subcommand, summarize
    ):
        # The freed row buffers go back to the kernel once the rows are
        # drawn and before the summary's first LAPACK call, once per run.
        calls = []
        for module, name in ((harness, "collect_rows"), (cli, "_release_freed_heap"),
                             (cli, summarize)):
            def recorded(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
        main([subcommand, "--hurst", "0.5", "--p", "2", "--n", "64,128", "--replicas", "5",
              "--seed", "3", "--out", str(tmp_path / "out")])
        assert calls == ["collect_rows", "_release_freed_heap", summarize]

    def test_broken_json_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        rc = main(["constants", "--p", "2", "--hurst", "0.5", "--config", str(bad),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        # the decoder's own message, one line, and nothing written
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads("{not json")
        assert capsys.readouterr().err == f"error: {decoded.value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content",
        [b"hurst=0.3 p=2 \xff", b'{"n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_undecodable_config_exits_2(self, tmp_path, capsys, content):
        # The decoder's own error, a ValueError or a RecursionError, is a
        # refused input: its message, one line, and nothing written.
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(content)
        rc = main(["limit-check", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        with pytest.raises((UnicodeDecodeError, RecursionError)) as decoded:
            json.loads(bad.read_text())
        assert capsys.readouterr().err == f"error: {decoded.value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "1e400", "-1e400", "NaN"])
    @pytest.mark.parametrize(
        "subcommand, key",
        [
            ("limit-check", "n"),
            ("limit-check", "seed"),
            ("limit-check", "replicas"),
            ("limit-check", "fine_factor"),
            ("limit-check", "ell"),
            ("scaling-check", "rank"),
            ("constants", "hermite_terms"),
            ("constants", "lag_cutoff"),
        ],
    )
    def test_json_integer_that_is_not_finite_exits_2(
        self, tmp_path, capsys, subcommand, key, value
    ):
        # JSON reads Infinity and 1e400 as a float infinity, which no integer
        # key takes: a refusal with the conversion's message, not a bug.
        required = {name: 0.3 for name, default in SCHEMA[subcommand].items()
                    if default is REQUIRED}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(required)[:-1] + f', "{key}": {value}}}')
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out)]) == 2
        number = float(value)
        reason = "NaN" if math.isnan(number) else "infinity"
        message = f"bad value for {key!r}: {number!r} (cannot convert float {reason} to integer)"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# ---------------------------------------------------------------------------
# simulate


class TestSimulate:
    """Path simulation outputs and determinism."""

    def test_outputs_and_layout(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--hurst", "0.3", "--n", "64", "--replicas", "2",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert "simulate: wrote 2 path(s)" in capsys.readouterr().out
        assert (out / "manifest.json").exists()
        lines = _read_lines(out / "path_0000.csv")
        assert lines[0] == "t,x"
        assert lines[1] == "0,0", "paths start at the origin"
        assert len(lines) == 66, "expected header plus 65 grid nodes"

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = ["simulate", "--hurst", "0.3", "--n", "64", "--replicas", "2", "--seed", "7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        for name in ("manifest.json", "path_0000.csv", "path_0001.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_replicas_draw_distinct_paths(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--hurst", "0.3", "--n", "64", "--replicas", "2",
              "--seed", "7", "--out", str(out)])
        assert (out / "path_0000.csv").read_text() != (out / "path_0001.csv").read_text()

    def test_paths_are_the_harness_driver(self, tmp_path):
        # simulate and the harness draw replica r at resolution n from the
        # same stream, so the dumped path is the driver of build_replica_path.
        out = tmp_path / "sim"
        main(["simulate", "--hurst", "0.3", "--n", "64", "--replicas", "2",
              "--seed", "7", "--out", str(out)])
        cfg = ExperimentConfig(hurst=0.3, p=2.0, n_grid=(64,), master_seed=7, fine_factor=1)
        for replica in range(2):
            dumped = np.loadtxt(out / f"path_{replica:04d}.csv", delimiter=",", skiprows=1)
            expected = build_replica_path(cfg, 64, replica).x.values
            assert np.array_equal(dumped[:, 1], expected), f"replica {replica}"

    def test_cholesky_method_runs(self, tmp_path):
        rc = main(["simulate", "--hurst", "0.3", "--n", "32", "--method", "cholesky",
                   "--out", str(tmp_path / "sim")])
        assert rc == 0


# ---------------------------------------------------------------------------
# constants


class TestConstants:
    """Limit constants emitted as CSV."""

    def test_brownian_values(self, tmp_path):
        out = tmp_path / "c"
        rc = main(["constants", "--p", "2", "--hurst", "0.5", "--out", str(out)])
        assert rc == 0
        lines = _read_lines(out / "constants.csv")
        assert lines[0] == "p,hurst,abs_moment,asymptotic_variance"
        fields = lines[1].split(",")
        assert float(fields[2]) == pytest.approx(1.0, rel=1e-12), "second absolute moment"
        assert float(fields[3]) == pytest.approx(2.0, rel=1e-8), "independent-increment variance"
        for field in fields:
            _assert_17g(field)

    def test_cubic_moment(self, tmp_path):
        out = tmp_path / "c"
        rc = main(["constants", "--p", "3", "--hurst", "0.5", "--out", str(out)])
        assert rc == 0
        moment = float(_read_lines(out / "constants.csv")[1].split(",")[2])
        expected = 2.0 * math.sqrt(2.0 / math.pi)
        assert moment == pytest.approx(expected, rel=1e-12), (
            f"third absolute moment {moment} != 2 sqrt(2/pi) = {expected}"
        )


# ---------------------------------------------------------------------------
# pvar


class TestPvar:
    """Single-path statistic rows."""

    def test_row_schema(self, tmp_path):
        out = tmp_path / "pv"
        rc = main(["pvar", "--hurst", "0.35", "--p", "2", "--n", "256", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        lines = _read_lines(out / "pvar.csv")
        assert lines[0] == "experiment_id,n,replica,stat,drift,cond_std,z"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "fbm-p2-h0_35-mixed-gaussian"
        assert fields[1] == "256" and fields[2] == "0"
        for field in fields[3:]:
            _assert_17g(field)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["id"] == "fbm-p2-h0_35-mixed-gaussian"

    def test_uncovered_exponent_exits_2(self, tmp_path, capsys):
        rc = main(["pvar", "--hurst", "0.35", "--p", "2.5", "--out", str(tmp_path / "pv")])
        assert rc == 2
        assert "force=True" in capsys.readouterr().err

    def test_force_marks_unguaranteed(self, tmp_path):
        out = tmp_path / "pv"
        rc = main(["pvar", "--hurst", "0.35", "--p", "2.5", "--force", "--n", "128",
                   "--out", str(out)])
        assert rc == 0
        first_row = _read_lines(out / "pvar.csv")[1]
        assert first_row.startswith("fbm-p2_5-h0_35-mixed-gaussian-unguaranteed,")

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = ["pvar", "--hurst", "0.35", "--p", "2", "--n", "128", "--seed", "9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert (out1 / "pvar.csv").read_bytes() == (out2 / "pvar.csv").read_bytes()


# ---------------------------------------------------------------------------
# limit-check


class TestLimitCheck:
    """Regime checks driven end to end through the CLI."""

    def test_calibrated_run_passes(self, tmp_path, capsys):
        out = tmp_path / "lc"
        rc = main(["limit-check", "--hurst", "0.5", "--p", "2", "--n", "256,512",
                   "--replicas", "600", "--seed", "11", "--out", str(out)])
        assert rc == 0, "calibrated mixed-regime check should exit 0"
        assert "-> pass" in capsys.readouterr().out
        summary = _read_lines(out / "summary.csv")
        assert summary[0] == "experiment_id,n,median_err,ks,slope,slope_se,pass"
        assert all(line.endswith(",1") for line in summary[1:])

    def test_tight_threshold_fails_with_exit_1(self, tmp_path, capsys):
        out = tmp_path / "lc"
        rc = main(["limit-check", "--hurst", "0.5", "--p", "2", "--n", "64",
                   "--replicas", "20", "--seed", "3", "--ks-threshold", "0.0001",
                   "--out", str(out)])
        assert rc == 1, "an impossible KS threshold must fail the check"
        assert "-> FAIL" in capsys.readouterr().out

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        first = tmp_path / "run1"
        rc = main(["limit-check", "--hurst", "0.5", "--p", "2", "--n", "64,128",
                   "--replicas", "20", "--seed", "3", "--out", str(first)])
        replay = tmp_path / "run2"
        rc2 = main(["limit-check", "--config", str(first / "manifest.json"),
                    "--out", str(replay)])
        assert rc == rc2
        for name in ("manifest.json", "results.csv", "summary.csv", "plot_data.csv"):
            assert (first / name).read_bytes() == (replay / name).read_bytes(), (
                f"{name} changed across a manifest replay"
            )

    def test_worker_count_never_changes_outputs(self, tmp_path):
        base = ["limit-check", "--hurst", "0.5", "--p", "2", "--n", "64,128",
                "--replicas", "20", "--seed", "3"]
        serial, parallel = tmp_path / "w1", tmp_path / "w2"
        rc1 = main(base + ["--workers", "1", "--out", str(serial)])
        rc2 = main(base + ["--workers", "2", "--out", str(parallel)])
        assert rc1 == rc2
        for name in ("manifest.json", "results.csv", "summary.csv", "plot_data.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), (
                f"{name} depends on the worker count"
            )

    def test_trace_wrappers_see_each_call_once(self, tmp_path, monkeypatch):
        # perfbench/child.py --trace 1 replaces harness.collect_rows and
        # cli.run_regime_check by wrappers that record one span per call, so
        # the runner must call both through those module attributes.
        argv = ["limit-check", "--hurst", "0.5", "--p", "2", "--n", "64,128",
                "--replicas", "20", "--seed", "3"]
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        rc = main(argv + ["--out", str(plain)])
        calls = []
        for module, name in ((harness, "collect_rows"), (cli, "run_regime_check")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert main(argv + ["--out", str(traced)]) == rc
        assert calls == ["collect_rows", "run_regime_check"]
        for name in ("manifest.json", "results.csv", "summary.csv", "plot_data.csv"):
            assert (plain / name).read_bytes() == (traced / name).read_bytes(), name

    def test_nonfinite_z_is_counted(self, tmp_path, capsys, monkeypatch):
        # A zero conditional scale leaves z undefined on every row; the KS
        # test drops those rows, and the count says how many.
        monkeypatch.setattr(harness, "limit_cond_std", lambda *args, **kwargs: 0.0)
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64, 128), replicas=5, master_seed=3)
        result = run_regime_check(cfg, collect_rows(cfg, workers=1))
        assert [entry["nonfinite"] for entry in result.summary] == [5, 5]
        assert all(math.isnan(entry["ks"]) for entry in result.summary)
        out = tmp_path / "lc"
        rc = main(["limit-check", "--hurst", "0.5", "--p", "2", "--n", "64,128",
                   "--replicas", "5", "--seed", "3", "--workers", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().out.endswith("-> FAIL nonfinite=10\n")
        summary = _read_lines(out / "summary.csv")
        assert summary[0] == "experiment_id,n,median_err,ks,slope,slope_se,pass"

    def test_default_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["limit-check", "--hurst", "0.5", "--p", "2", "--n", "64",
                   "--replicas", "20", "--seed", "3", "--ks-threshold", "0.9"])
        assert rc == 0
        assert (tmp_path / "roughpvar_limit_check" / "summary.csv").exists()


# ---------------------------------------------------------------------------
# rate-fit


class TestRateFit:
    """Rate fits through the CLI."""

    def test_calibrated_run_passes(self, tmp_path):
        out = tmp_path / "rf"
        rc = main(["rate-fit", "--hurst", "0.5", "--p", "2", "--n", "256,512,1024",
                   "--replicas", "200", "--seed", "5", "--out", str(out)])
        assert rc == 0
        lines = _read_lines(out / "rate_summary.csv")
        assert lines[0] == "experiment_id,slope,slope_se,target,tol,pass"
        fields = lines[1].split(",")
        assert fields[0] == "fbm-p2-h0_5-mixed-gaussian"
        assert abs(float(fields[1]) + 0.5) <= 0.1, f"slope {fields[1]} missed -1/2"
        assert float(fields[3]) == -0.5
        assert fields[5] == "1"
        plot = _read_lines(out / "rate_fit.csv")
        assert plot[0] == "log_n,log_err" and len(plot) == 4

    def test_deterministic_mismatch_exits_1(self, tmp_path, capsys):
        # The drift-only equation statistic decays like n^(-1.6), far from
        # the degenerate theorem rate n^(-0.4), so the fit must fail.
        out = tmp_path / "rf"
        rc = main(["rate-fit", "--hurst", "0.2", "--p", "2", "--process", "custom-rde",
                   "--n", "64,128,256", "--replicas", "3", "--fine-factor", "1",
                   "--ell", "4", "--y0", "0", "--drift-coeffs", "1",
                   "--field-coeffs", "0", "--out", str(out)])
        assert rc == 1
        assert "-> FAIL" in capsys.readouterr().out
        fields = _read_lines(out / "rate_summary.csv")[1].split(",")
        assert fields[0] == "custom-rde-p2-h0_2-degenerate"
        assert float(fields[1]) == pytest.approx(-1.6, abs=1e-9)
        assert float(fields[3]) == pytest.approx(-0.4)
        assert fields[5] == "0"


# ---------------------------------------------------------------------------
# scaling-check


class TestScalingCheck:
    """Two-way scaling fits through the CLI."""

    def test_output_schema_and_replay(self, tmp_path):
        first = tmp_path / "sc1"
        argv = ["scaling-check", "--hurst", "0.5", "--rank", "1", "--n", "64,128",
                "--replicas", "10", "--delta", "0.125,0.25", "--seed", "2"]
        rc = main(argv + ["--out", str(first)])
        assert rc in (0, 1)
        lines = _read_lines(first / "scaling_summary.csv")
        assert lines[0] == (
            "rank,hurst,n_exponent,delta_exponent,n_se,delta_se,target,window_target,pass"
        )
        fields = lines[1].split(",")
        assert fields[0] == "1" and fields[8] in ("0", "1")
        for field in fields[1:8]:
            _assert_17g(field)
        assert float(fields[6]) == 0.5 and float(fields[7]) == 0.5
        table = _read_lines(first / "scaling.csv")
        assert table[0] == "n,delta,l1_norm"
        assert len(table) == 5, "two resolutions times two windows"

        replay = tmp_path / "sc2"
        rc2 = main(["scaling-check", "--config", str(first / "manifest.json"),
                    "--out", str(replay)])
        assert rc == rc2
        for name in ("manifest.json", "scaling.csv", "scaling_summary.csv"):
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name

    def test_pass_field_is_the_library_verdict(self, tmp_path):
        out = tmp_path / "sc"
        rc = main(["scaling-check", "--hurst", "0.2", "--rank", "1", "--n", "64,128",
                   "--replicas", "10", "--delta", "0.125,0.25", "--seed", "2",
                   "--out", str(out)])
        cfg = ExperimentConfig(hurst=0.2, p=2.0, n_grid=(64, 128), replicas=10, master_seed=2)
        result = scaling_exponent_check(ScalingConfig(cfg, 1, (0.125, 0.25), 0.25))
        fields = _read_lines(out / "scaling_summary.csv")[1].split(",")
        assert fields[8] == str(int(result.passed))
        assert rc == (0 if result.passed else 1)
        assert float(fields[2]) == result.n_exponent
        assert float(fields[3]) == result.delta_exponent


# ---------------------------------------------------------------------------
# CSV outputs


def _csv_fields(path):
    """The fields of each line, split only where the writer joins."""
    text = path.read_bytes().decode()
    assert text.endswith("\n")
    return [line.split(",") for line in text[:-1].split("\n")]


def _same_float(text: str, value: float) -> bool:
    back = float(text)
    if math.isnan(value):
        return math.isnan(back)
    return struct.pack("<d", back) == struct.pack("<d", value)


_FIELDS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.integers(),
    st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=",")),
)


@pytest.fixture(scope="class")
def mixed_run(tmp_path_factory):
    """A calibrated mixed-regime limit-check run, the library's rows and its result."""
    out = tmp_path_factory.mktemp("csv") / "lc"
    assert main(["limit-check", "--hurst", "0.5", "--p", "2", "--n", "256,512",
                 "--replicas", "600", "--seed", "11", "--out", str(out)]) == 0
    cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(256, 512), replicas=600, master_seed=11)
    rows = collect_rows(cfg)
    return out, rows, run_regime_check(cfg, rows)


class TestCsvOutputs:
    """``cli._write_csv``, the writer of every output file."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(_FIELDS, min_size=1, max_size=6), max_size=4))
    def test_fields_read_back_as_written(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            cli._write_csv(path, "a,b", rows)
            lines = _csv_fields(path)
        assert lines[0] == ["a", "b"] and len(lines) == 1 + len(rows)
        for row, fields in zip(rows, lines[1:]):
            assert len(fields) == len(row)
            for value, text in zip(row, fields):
                if isinstance(value, float):
                    assert _same_float(text, value), f"{value!r} came back as {text!r}"
                else:
                    assert text == str(value)

    def test_rows_csv_round_trip(self, mixed_run):
        out, rows, _ = mixed_run
        lines = _csv_fields(out / "results.csv")
        assert lines[0] == "experiment_id,n,replica,stat,drift,cond_std,z".split(",")
        assert len(lines) == 1 + rows.shape[0]
        for fields, row in zip(lines[1:], rows):
            assert fields[0] == "fbm-p2-h0_5-mixed-gaussian"
            assert fields[1:3] == [str(int(row[0])), str(int(row[1]))]
            for text, value in zip(fields[3:], row[2:]):
                assert _same_float(text, value), f"field {text} does not round trip"

    def test_rows_csv_formats_integers(self, tmp_path):
        rows = np.array([[64.0, 3.0, 0.1, 0.0, 1.0, 0.5]])
        cli._write_rows(tmp_path / "rows.csv", "demo", rows)
        line = _read_lines(tmp_path / "rows.csv")[1]
        assert line.startswith("demo,64,3,"), f"bad row line {line!r}"

    def test_summary_layout(self, mixed_run):
        out, _, result = mixed_run
        lines = _csv_fields(out / "summary.csv")
        assert lines[0] == "experiment_id,n,median_err,ks,slope,slope_se,pass".split(",")
        assert len(lines) == 3
        for fields, entry in zip(lines[1:], result.summary):
            assert fields[0] == "fbm-p2-h0_5-mixed-gaussian"
            assert fields[1] == str(entry["n"])
            assert fields[6] == "1", "calibrated run should pass at every n"
            values = (entry["median_err"], entry["ks"], result.slope, result.slope_se)
            for text, value in zip(fields[2:6], values):
                assert _same_float(text, value), f"field {text} does not round trip"

    def test_plot_data_csv_is_log_log(self, mixed_run):
        out, _, result = mixed_run
        lines = _csv_fields(out / "plot_data.csv")
        assert lines[0] == ["log_n", "log_err"]
        assert len(lines) == 3
        for (log_n, log_err), entry in zip(lines[1:], result.summary):
            assert _same_float(log_n, math.log(entry["n"]))
            assert _same_float(log_err, math.log(entry["median_err"]))

    def test_log_log_rows_drop_nonpositive_errors(self, tmp_path):
        points = [(64, 0.5), (128, 0.0), (256, -1.0), (512, math.nan), (1024, 0.25)]
        cli._write_csv(tmp_path / "p.csv", "log_n,log_err", cli._log_log_rows(points))
        assert _read_lines(tmp_path / "p.csv") == [
            "log_n,log_err",
            f"{math.log(64):.17g},{math.log(0.5):.17g}",
            f"{math.log(1024):.17g},{math.log(0.25):.17g}",
        ]

    def test_scaling_csv_layout(self, tmp_path):
        # the fit of an exact table L1 = 2 n delta: integer n, short floats
        cfg = ExperimentConfig(hurst=0.5, p=2.0, n_grid=(64, 128), replicas=2)
        scfg = ScalingConfig(cfg, 1, (0.125, 0.25), 0.25)
        result = harness._scaling_fit(scfg, 2.0 * np.outer(cfg.n_grid, scfg.delta_grid))
        cli._write_csv(tmp_path / "scaling.csv", "n,delta,l1_norm", result.table)
        lines = _read_lines(tmp_path / "scaling.csv")
        assert lines[0] == "n,delta,l1_norm"
        assert lines[1] == "64,0.125,16"
        assert len(lines) == 5

    def test_path_csv_round_trip(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--hurst", "0.45", "--n", "37", "--seed", "8",
                     "--out", str(out)]) == 0
        lines = _csv_fields(out / "path_0000.csv")
        assert lines[0] == ["t", "x"]
        path = sample_fbm(FbmSpec(hurst=0.45, n=37), harness.replica_rng(8, 37, 0))
        assert len(lines) == 1 + path.values.size
        for i, ((t, x), value) in enumerate(zip(lines[1:], path.values)):
            assert _same_float(t, i / 37) and _same_float(x, value), "17g round trip"


# ---------------------------------------------------------------------------
# manifest contents


class TestManifest:
    """Manifests materialize the full config before any computation."""

    def test_manifest_fields(self, tmp_path):
        out = tmp_path / "lc"
        main(["limit-check", "--hurst", "0.5", "--p", "2", "--n", "64",
              "--replicas", "20", "--seed", "3", "--ks-threshold", "0.9",
              "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "limit-check"
        assert manifest["version"] == roughpvar.__version__
        assert manifest["outputs"] == [
            "manifest.json", "results.csv", "summary.csv", "plot_data.csv",
        ]
        cfg = manifest["config"]
        assert cfg["hurst"] == 0.5 and cfg["n"] == [64]
        assert cfg["fine_factor"] == 1, "auto must be materialized"
        assert cfg["ks_threshold"] == 0.9
        assert cfg["id"] == "fbm-p2-h0_5-mixed-gaussian"


# ---------------------------------------------------------------------------
# config round trip


class _Stopped(BaseException):
    """Raised in place of the first computation, once the manifest is written.

    A BaseException, so that main's exit-70 handler lets it through.
    """


def _stop(*args, **kwargs):
    raise _Stopped


# The first computation each runner starts after writing its manifest, as
# (module, name): pvar, limit-check and rate-fit start with harness.collect_rows,
# and constants has computed σ² before it, as the check of its domain.
_COMPUTATIONS = (
    (cli, "sample_fbm"),
    (cli, "gaussian_abs_moment"),
    (harness, "collect_rows"),
    (cli, "scaling_exponent_check"),
)

_FRACTION = st.floats(0.001, 1.0)
_COEFFS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)
_VALUES = {
    "hurst": st.floats(0.01, 0.5),
    "p": st.one_of(st.sampled_from([2.0, 4.0]), st.floats(5.0, 8.0)),
    "seed": st.integers(0, 2**32),
    "replicas": st.integers(1, 500),
    "t": st.floats(0.01, 1.0),
    "fine_factor": st.one_of(st.just("auto"), st.integers(1, 32)),
    "force": st.booleans(),
    "id": st.one_of(st.just(""), st.from_regex(r"[a-z][a-z0-9_-]{0,11}", fullmatch=True)),
    "ks_threshold": st.one_of(st.just("auto"), _FRACTION),
    "median_tol": _FRACTION,
    "tol": _FRACTION,
    "rank": st.integers(1, 4),
    "delta": st.lists(st.floats(0.01, 0.5), min_size=2, max_size=4, unique=True),
    "start": st.floats(0.0, 0.5),
    "method": st.sampled_from(["auto", "cholesky"]),
    "hermite_terms": st.integers(1, 60),
    "lag_cutoff": st.integers(1, 10**6),
    "process": st.sampled_from(PROCESS_TAGS),
    "ell": st.integers(2, 8),
    "y0": st.floats(-2.0, 2.0),
    "drift_coeffs": st.one_of(st.none(), _COEFFS),
    "field_coeffs": _COEFFS,
}


@st.composite
def _configs(draw, subcommand):
    """A valid config of the subcommand, with a drawn subset of optional keys."""
    cfg = {}
    for key, default in SCHEMA[subcommand].items():
        if key in CUSTOM_RDE_DEFAULTS:
            continue
        if default is not REQUIRED and draw(st.booleans()):
            continue
        if key == "n":
            single = st.integers(2, 4096)
            fits = subcommand in ("rate-fit", "scaling-check")  # a fit needs two
            grid = st.lists(single, min_size=2 if fits else 1, max_size=4, unique=True)
            cfg[key] = draw(grid if isinstance(default, list) else single)
        else:
            cfg[key] = draw(_VALUES[key])
    if cfg.get("process") == "custom-rde":
        for key in CUSTOM_RDE_DEFAULTS:
            if draw(st.booleans()):
                cfg[key] = draw(_VALUES[key])
    merged = {**SCHEMA[subcommand], **cfg}
    if "t" in merged:
        # a resolution with no whole cell below t is refused before its manifest
        grid = merged["n"] if isinstance(merged["n"], list) else [merged["n"]]
        assume(all(math.floor(merged["t"] * n + 1e-9) > 0 for n in grid))
    if subcommand == "scaling-check":
        # so is a weight with no established target, or a window holding no
        # increment at one of the resolutions
        experiment = ExperimentConfig(hurst=cfg["hurst"], p=2.0, process=merged["process"],
                                      n_grid=tuple(merged["n"]))
        try:
            ScalingConfig(experiment, merged["rank"], merged["delta"], merged["start"])
        except ValueError:
            assume(False)
    return cfg


def _key_value_text(cfg: dict) -> str:
    def text(value):
        if value is None:
            return "none"
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, list):
            return ",".join(map(repr, value))
        return repr(value) if isinstance(value, float) else str(value)

    return "\n".join(f"{key}={text(value)}" for key, value in cfg.items())


class TestConfigRoundTrip:
    """config -> manifest -> resolve_config is a fixed point."""

    # constants computes σ² before its manifest, at drawn truncation orders
    # that may leave a tail above its warning level
    @pytest.mark.filterwarnings("ignore:asymptotic variance truncation tail:RuntimeWarning")
    @pytest.mark.parametrize("form", ["key=value", "json"])
    @pytest.mark.parametrize("subcommand", list(SCHEMA))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_manifest_is_a_fixed_point(self, subcommand, form, data):
        drawn = data.draw(_configs(subcommand))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            for module, name in _COMPUTATIONS:
                mp.setattr(module, name, _stop)
            source = Path(tmp, "run.cfg")
            source.write_text(json.dumps(drawn) if form == "json" else _key_value_text(drawn))
            first, second = Path(tmp, "first"), Path(tmp, "second")
            with pytest.raises(_Stopped):
                main([subcommand, "--config", str(source), "--out", str(first)])
            manifest = first / "manifest.json"
            with pytest.raises(_Stopped):
                main([subcommand, "--config", str(manifest), "--out", str(second)])
            assert manifest.read_bytes() == (second / "manifest.json").read_bytes()
            stored = json.loads(manifest.read_text())["config"]
            replayed = resolve_config(subcommand, _parse([subcommand, "--config", str(manifest)]))
            assert replayed == stored
            for key, value in drawn.items():
                if value not in ("auto", ""):
                    assert stored[key] == value, key


# ---------------------------------------------------------------------------
# one config schema

# Config key -> the dataclass field it sets, where the names differ.
_KEY_FIELDS = {"seed": "master_seed", "id": "experiment_id", "n": "n_grid", "delta": "delta_grid"}
_FIELD_DEFAULTS = {
    f.name: list(f.default) if isinstance(f.default, tuple) else f.default
    for cls in (ExperimentConfig, RateFitConfig, ScalingConfig)
    for f in dataclasses.fields(cls)
}
# The defaults a subcommand sets over its field's, and what they are.
_SCHEMA_OVERRIDES = {
    ("pvar", "n"): 1024,
    ("rate-fit", "n"): [256, 512, 1024, 2048],
    ("scaling-check", "n"): [256, 512, 1024, 2048],
    ("scaling-check", "replicas"): 100,
}

# Manifests of default runs (only the required keys given), as the CLI wrote
# them before it read its defaults from the dataclasses. A version bump moves
# their "version" line and nothing else.
_EARLIER_MANIFESTS = {
    "limit-check": """\
{
  "config": {
    "ell": 6,
    "fine_factor": 1,
    "force": false,
    "hurst": 0.4,
    "id": "fbm-p2-h0_4-mixed-gaussian",
    "ks_threshold": 0.05,
    "median_tol": 0.08,
    "n": [
      256,
      512,
      1024
    ],
    "p": 2.0,
    "process": "fbm",
    "replicas": 200,
    "seed": 0,
    "t": 1.0
  },
  "outputs": [
    "manifest.json",
    "results.csv",
    "summary.csv",
    "plot_data.csv"
  ],
  "subcommand": "limit-check",
  "version": "0.1.0"
}
""",
    "scaling-check": """\
{
  "config": {
    "delta": [
      0.015625,
      0.03125,
      0.0625,
      0.125,
      0.25,
      0.5
    ],
    "ell": 6,
    "hurst": 0.4,
    "n": [
      256,
      512,
      1024,
      2048
    ],
    "process": "fbm",
    "rank": 1,
    "replicas": 100,
    "seed": 0,
    "start": 0.25
  },
  "outputs": [
    "manifest.json",
    "scaling.csv",
    "scaling_summary.csv"
  ],
  "subcommand": "scaling-check",
  "version": "0.1.0"
}
""",
}


class TestOneSchema:
    """The dataclasses declare every experiment and fit default; the CLI reads them."""

    # simulate and constants build no config dataclass
    @pytest.mark.parametrize("subcommand", ["pvar", "limit-check", "rate-fit", "scaling-check"])
    def test_schema_defaults_are_the_field_defaults(self, subcommand):
        checked = set()
        for key, default in SCHEMA[subcommand].items():
            field = _KEY_FIELDS.get(key, key)
            if field not in _FIELD_DEFAULTS:
                continue
            expected = _SCHEMA_OVERRIDES.get((subcommand, key), _FIELD_DEFAULTS[field])
            assert default == expected and type(default) is type(expected), key
            checked.add(key)
        assert {key for sub, key in _SCHEMA_OVERRIDES if sub == subcommand} <= checked

    @pytest.mark.parametrize("subcommand", list(_EARLIER_MANIFESTS))
    def test_earlier_manifest_replays_byte_for_byte(self, subcommand, tmp_path, monkeypatch):
        for module, name in _COMPUTATIONS:
            monkeypatch.setattr(module, name, _stop)
        source = tmp_path / "manifest.json"
        source.write_text(_EARLIER_MANIFESTS[subcommand])
        with pytest.raises(_Stopped):
            main([subcommand, "--config", str(source), "--out", str(tmp_path / "replay")])
        replayed = (tmp_path / "replay" / "manifest.json").read_text()
        assert replayed == _EARLIER_MANIFESTS[subcommand]


# Process options of every kind the CLI parses them to, refused values among
# them: an ell below 2, a y0 or coefficient that is not finite, an empty list.
_OPTION_VALUES = {
    "ell": st.integers(0, 8),
    "y0": st.one_of(st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf])),
    "drift_coeffs": st.lists(st.floats(-2.0, 2.0), max_size=3),
    "field_coeffs": st.lists(st.one_of(st.floats(-2.0, 2.0), st.just(math.nan)), max_size=3),
}


class TestOneResolver:
    """processes.resolve_process_params checks every process and its options."""

    @settings(max_examples=60, deadline=None)
    @given(
        subcommand=st.sampled_from(["pvar", "limit-check", "rate-fit", "scaling-check"]),
        process=st.sampled_from(PROCESS_TAGS + ("ou",)),
        options=st.fixed_dictionaries({}, optional=_OPTION_VALUES),
    )
    def test_cli_stores_or_refuses_what_the_resolver_returns(self, subcommand, process, options):
        try:
            ell, params = resolve_process_params(process, options)
        except ValueError as exc:
            expected, message = None, str(exc)
        else:
            expected = json.loads(json.dumps({"ell": ell, **params}))
        cfg = {"hurst": 0.35, **({"p": 2} if "p" in SCHEMA[subcommand] else {})}
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            for module, name in _COMPUTATIONS:
                mp.setattr(module, name, _stop)
            source, out = Path(tmp, "run.json"), Path(tmp, "out")
            source.write_text(json.dumps({**cfg, "process": process, **options}))
            argv = [subcommand, "--config", str(source), "--out", str(out)]
            if expected is None:
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    assert main(argv) == 2
                assert stderr.getvalue() == f"error: {message}\n"
                assert not out.exists()
            else:
                with pytest.raises(_Stopped):
                    main(argv)
                stored = json.loads((out / "manifest.json").read_text())["config"]
                keys = ("ell", *CUSTOM_RDE_DEFAULTS)
                assert {key: stored[key] for key in keys if key in stored} == expected

    def test_unknown_process_has_one_message(self):
        message = "unknown process 'ou'; known: ('fbm', 'sq', 'cube', 'exp-rde', 'custom-rde')"
        x = sample_fbm(FbmSpec(hurst=0.35, n=8), np.random.default_rng(0))
        for refuse in (
            lambda: resolve_process_params("ou", None),
            lambda: ExperimentConfig(hurst=0.35, p=2.0, process="ou"),
            lambda: build_controlled_process("ou", x),
        ):
            with pytest.raises(ValueError) as refused:
                refuse()
            assert str(refused.value) == message
        # neither the CLI nor the harness keeps its own list of processes
        assert "PROCESS_TAGS" not in vars(cli) and "PROCESS_TAGS" not in vars(harness)


# ---------------------------------------------------------------------------
# cold start

_HEAVY_MODULES = ("scipy.stats", "scipy.linalg")

_MAIN_THEN_MODULES = """
import json, sys
from roughpvar import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


# Whether a forked worker holds numpy.fft and numpy.random when its row starts.
_POOL_PROBE = """
import json, sys
from roughpvar import harness

def probe(cfg, n, replica):
    return [name in sys.modules for name in ("numpy.fft", "numpy.random")]

cfg = harness.ExperimentConfig(hurst=0.4, p=2.0, n_grid=(8,), replicas=2)
print(json.dumps(harness.collect_rows(cfg, 2, probe).tolist()))
"""


def _heavy(module):
    return module in _HEAVY_MODULES


def _optional(module):
    """Any scipy module, numpy.ma (which np.median imports) and
    numpy.polynomial (which the Gauss-Hermite quadrature imports)."""
    return module.split(".")[0] == "scipy" or module in ("numpy.ma", "numpy.polynomial")


def _pool(module):
    """The process pool's modules."""
    return module.split(".")[0] in ("multiprocessing", "concurrent")


def _fresh_env():
    """The environment of a fresh interpreter that imports the package under
    test, wherever pytest found it, and reads no ROUGHPVAR_ variable."""
    paths = (str(Path(roughpvar.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {key: value for key, value in os.environ.items() if not key.startswith("ROUGHPVAR_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _fresh_main(argv, selected=_heavy):
    """Run cli.main in a fresh interpreter; its exit code and the modules it
    loaded that ``selected`` picks, sorted."""
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_MODULES, *argv],
        capture_output=True, text=True, env=_fresh_env(),
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, [module for module in modules if selected(module)]


# One limit-check per regime, each computing what its regime needs.
_REGIMES = [
    ["--process", "fbm", "--hurst", "0.5"],  # mixed: KS against ndtr
    ["--process", "sq", "--hurst", "0.25"],  # critical: drift and cond_std
    ["--process", "sq", "--hurst", "0.15"],  # degenerate
]


class TestColdStart:
    """Modules a CLI run loads: the import cost every run pays."""

    @pytest.mark.parametrize("regime", _REGIMES)
    def test_limit_check_never_loads_stats_or_linalg(self, tmp_path, regime):
        out = tmp_path / "lc"
        argv = ["limit-check", *regime, "--p", "2", "--n", "32,64", "--replicas", "10",
                "--seed", "3", "--ks-threshold", "0.9", "--median-tol", "0.9",
                "--workers", "1", "--out", str(out)]
        code, loaded = _fresh_main(argv)
        assert code == 0
        assert (out / "summary.csv").exists()
        assert loaded == [], f"limit-check loaded {loaded}"

    @pytest.mark.parametrize(
        "regime",
        [
            ["--process", "fbm", "--hurst", "0.5", "--p", "2"],  # mixed: KS against ndtr
            ["--process", "sq", "--hurst", "0.25", "--p", "2"],  # critical
            ["--process", "sq", "--hurst", "0.15", "--p", "2"],  # degenerate
            ["--process", "sq", "--hurst", "0.25", "--p", "4"],  # critical, σ² past q = 1
        ],
    )
    def test_limit_check_loads_no_scipy(self, tmp_path, regime):
        # Phi and Gamma up to 33 are the package's own ports of scipy's, the
        # medians skip np.median's import of numpy.ma, and σ² needs no
        # quadrature, so numpy.polynomial stays unloaded too
        out = tmp_path / "lc"
        argv = ["limit-check", *regime, "--n", "32,64", "--replicas", "10", "--seed", "3",
                "--ks-threshold", "0.9", "--median-tol", "0.9", "--workers", "1",
                "--out", str(out)]
        code, loaded = _fresh_main(argv, _optional)
        assert code == 0
        assert (out / "summary.csv").exists()
        assert loaded == [], f"limit-check loaded {loaded}"

    @pytest.mark.parametrize("regime", _REGIMES)
    def test_serial_limit_check_loads_no_pool(self, tmp_path, regime):
        # The pool is imported where a pool starts, so one worker pays for
        # none of multiprocessing, socket, subprocess or logging.
        out = tmp_path / "lc"
        argv = ["limit-check", *regime, "--p", "2", "--n", "32,64", "--replicas", "10",
                "--seed", "3", "--ks-threshold", "0.9", "--median-tol", "0.9",
                "--workers", "1", "--out", str(out)]
        code, loaded = _fresh_main(argv, _pool)
        assert code == 0
        assert (out / "summary.csv").exists()
        assert loaded == [], f"a serial limit-check loaded {loaded}"

    def test_two_workers_load_no_pool(self, tmp_path):
        # Workers are forked directly, so a parallel run loads none of the
        # process pool's modules either.
        out = tmp_path / "lc"
        argv = ["limit-check", "--process", "sq", "--hurst", "0.25", "--p", "2", "--n", "32,64",
                "--replicas", "10", "--seed", "3", "--ks-threshold", "0.9", "--median-tol", "0.9",
                "--workers", "2", "--out", str(out)]
        code, loaded = _fresh_main(argv, _pool)
        assert code == 0
        assert (out / "summary.csv").exists()
        assert loaded == [], f"a 2-worker limit-check loaded {loaded}"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
    def test_pool_workers_inherit_numpy_random_and_fft(self):
        # Imported in the parent before the fork, so no worker loads its own
        # copy (numpy.random loads OpenSSL through secrets).
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_PROBE], capture_output=True, text=True,
            env=_fresh_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[1.0, 1.0]] * 2

    def test_gamma_past_33_loads_special(self, tmp_path):
        # σ² at p = 40 reads E|N|^80, Gamma(40.5): scipy's Stirling branch
        argv = ["constants", "--p", "40", "--hurst", "0.3", "--out", str(tmp_path / "c")]
        code, loaded = _fresh_main(argv, _optional)
        assert code == 0
        assert "scipy.special" in loaded

    def test_cholesky_oracle_loads_linalg(self, tmp_path):
        argv = ["simulate", "--hurst", "0.3", "--n", "32", "--method", "cholesky",
                "--out", str(tmp_path / "sim")]
        code, loaded = _fresh_main(argv)
        assert code == 0
        assert loaded == ["scipy.linalg"]
