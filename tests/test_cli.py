"""Tests for the batch command-line interface.

Covers:
1. Config resolution: key=value files, JSON files, manifest unwrapping,
   flag-over-file precedence, defaults, and every rejection path.
2. The simulate subcommand: outputs, CSV layout, byte-level determinism.
3. The constants subcommand against known limit values.
4. The pvar subcommand: row schema, guaranteed-range refusal, and the
   force escape hatch with its unguaranteed marker.
5. limit-check: calibrated pass, forced failure, manifest replay byte
   identity, and worker-count invariance.
6. rate-fit: a calibrated pass and an exact deterministic failure.
7. scaling-check: output schema, manifest replay, and the resolution- and
   window-axis exponent targets.
8. Exit codes: 0 pass, 1 failed check, 2 usage/domain errors, and a
   refused config writes nothing; 17 significant digit float formatting
   throughout.
9. The config -> manifest -> config round trip as a fixed point, on drawn
   configs of every subcommand, in key=value and JSON form.
10. Cold start: a complete limit-check run in a fresh interpreter never
    loads scipy.stats or scipy.linalg; the dense Cholesky oracle loads
    scipy.linalg when it runs.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpvar
from roughpvar import ExperimentConfig, FbmSpec, build_replica_path, path_from_csv
from roughpvar import cli
from roughpvar.cli import (
    REQUIRED,
    SCHEMA,
    UsageError,
    _experiment_config,
    _scaling_target,
    _window_target,
    build_parser,
    main,
    resolve_config,
)
from roughpvar.processes import CUSTOM_RDE_DEFAULTS, PROCESS_TAGS

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
        # Materialized defaults: auto fine factor is 16 off the plain driver.
        assert cfg["fine_factor"] == 16
        assert cfg["ks_threshold"] is None
        assert cfg["t"] == 1.0 and cfg["quadrature"] == "trapezoid"

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
        with pytest.raises(UsageError, match="written by 'simulate'"):
            resolve_config("limit-check", _parse(["limit-check", "--config", str(manifest)]))

    @pytest.mark.parametrize(
        "content, match",
        [
            ("foo=1 hurst=0.3 p=2", "unknown config key 'foo'"),
            ("hurst=abc p=2", "bad value for 'hurst'"),
            ("hurst:0.3", "malformed config entry"),
            ("force=maybe hurst=0.3 p=2", "bad value for 'force'"),
        ],
    )
    def test_config_file_rejections(self, tmp_path, content, match):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(content)
        with pytest.raises(UsageError, match=match):
            resolve_config("limit-check", _parse(["limit-check", "--config", str(cfg_file)]))

    def test_missing_required_key(self):
        with pytest.raises(UsageError, match="missing required key 'p'"):
            resolve_config("constants", _parse(["constants", "--hurst", "0.5"]))

    def test_resolution_grid_only_for_fitting_subcommands(self):
        with pytest.raises(UsageError, match="bad value for 'n'"):
            resolve_config("simulate", _parse(["simulate", "--hurst", "0.3", "--n", "64,128"]))

    def test_equation_keys_need_the_custom_process(self):
        args = _parse(["pvar", "--hurst", "0.35", "--p", "2", "--y0", "1.0"])
        with pytest.raises(UsageError, match="custom-rde"):
            resolve_config("pvar", args)

    def test_custom_process_defaults(self):
        args = _parse(["pvar", "--hurst", "0.35", "--p", "2", "--process", "custom-rde"])
        cfg = resolve_config("pvar", args)
        assert cfg["y0"] == 1.0
        assert cfg["field_coeffs"] == [0.0, 1.0]
        assert cfg["drift_coeffs"] is None

    def test_unknown_process_rejected(self):
        args = _parse(["pvar", "--hurst", "0.35", "--p", "2", "--process", "ou"])
        with pytest.raises(UsageError, match="unknown process"):
            resolve_config("pvar", args)

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
    """Usage and domain failures map to exit code 2."""

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
        ],
    )
    def test_refused_config_writes_nothing(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert not (out / "manifest.json").exists()
        assert not out.exists(), "a refused config must not create its output directory"

    def test_non_finite_blow_up_exits_1(self, tmp_path, capsys):
        # dy = 5 y^8 dx from 1e13 overflows to inf and then NaN in one step.
        argv = ["pvar", "--hurst", "0.3", "--p", "3", "--process", "custom-rde",
                "--field-coeffs", "0,0,0,0,0,0,0,0,5", "--y0", "1e13", "--n", "8",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "blow-up guard" in capsys.readouterr().err

    def test_broken_json_config_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        rc = main(["constants", "--p", "2", "--hurst", "0.5", "--config", str(bad),
                   "--out", str(tmp_path / "out")])
        assert rc == 2


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
            dumped = path_from_csv(
                (out / f"path_{replica:04d}.csv").read_text(), FbmSpec(hurst=0.3, n=64)
            )
            expected = build_replica_path(cfg, 64, replica).x.values
            assert np.array_equal(dumped.values, expected), f"replica {replica}"

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
        assert float(fields[6]) == _scaling_target(0.5, 1)
        assert float(fields[7]) == _window_target(0.5, 1)
        table = _read_lines(first / "scaling.csv")
        assert table[0] == "n,delta,l1_norm"
        assert len(table) == 5, "two resolutions times two windows"

        replay = tmp_path / "sc2"
        rc2 = main(["scaling-check", "--config", str(first / "manifest.json"),
                    "--out", str(replay)])
        assert rc == rc2
        for name in ("manifest.json", "scaling.csv", "scaling_summary.csv"):
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name

    @pytest.mark.parametrize(
        "hurst, rank, expected",
        [
            (0.2, 1, 0.8),
            (0.2, 2, 0.6),
            (0.25, 2, 0.5),
            (0.4, 3, 0.5),
            (0.5, 2, 0.5),
        ],
    )
    def test_scaling_target(self, hurst, rank, expected):
        # Below the boundary the L1 norm grows like n^(1 - rank H) along the
        # resolution axis, above it the central limit square root takes over.
        assert _scaling_target(hurst, rank) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "hurst, rank, expected",
        [
            (0.2, 1, 1.0),
            (0.25, 2, 0.5),
            (0.4, 3, 0.5),
        ],
    )
    def test_window_target(self, hurst, rank, expected):
        # Below the boundary the limit is a time integral over the window, so
        # the L1 norm grows like delta; above it like the square root of delta.
        assert _window_target(hurst, rank) == pytest.approx(expected)


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


class _Stopped(Exception):
    """Raised in place of the first computation, once the manifest is written."""


def _stop(*args, **kwargs):
    raise _Stopped


# The first computation each runner starts after writing its manifest.
_COMPUTATIONS = (
    "sample_fbm",
    "asymptotic_variance",
    "collect_rows",
    "run_regime_check",
    "rate_fit",
    "scaling_exponent_check",
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
    "quadrature": st.sampled_from(["trapezoid", "midpoint"]),
    "force": st.booleans(),
    "id": st.one_of(st.just(""), st.from_regex(r"[a-z][a-z0-9_-]{0,11}", fullmatch=True)),
    "ks_threshold": st.one_of(st.just("auto"), _FRACTION),
    "median_tol": _FRACTION,
    "tol": _FRACTION,
    "rank": st.integers(1, 4),
    "delta": st.lists(st.floats(0.01, 0.5), min_size=2, max_size=4, unique=True),
    "start": st.floats(0.0, 0.5),
    "method": st.sampled_from(["auto", "circulant-embedding", "cholesky"]),
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

    @pytest.mark.parametrize("form", ["key=value", "json"])
    @pytest.mark.parametrize("subcommand", list(SCHEMA))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_manifest_is_a_fixed_point(self, subcommand, form, data):
        drawn = data.draw(_configs(subcommand))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            for name in _COMPUTATIONS:
                mp.setattr(cli, name, _stop)
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
# cold start

_HEAVY_MODULES = ("scipy.stats", "scipy.linalg")

_MAIN_THEN_MODULES = f"""
import json, sys
from roughpvar import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, [m for m in {_HEAVY_MODULES!r} if m in sys.modules]]))
"""


def _fresh_main(argv):
    """Run cli.main in a fresh interpreter; its exit code and heavy modules."""
    # the child imports the package under test, wherever pytest found it
    paths = (str(Path(roughpvar.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {key: value for key, value in os.environ.items() if not key.startswith("ROUGHPVAR_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_MODULES, *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, loaded


class TestColdStart:
    """Modules a CLI run loads: the import cost every run pays."""

    @pytest.mark.parametrize(
        "regime",
        [
            ["--process", "fbm", "--hurst", "0.5"],  # mixed: KS against ndtr
            ["--process", "sq", "--hurst", "0.25"],  # critical: drift and cond_std
            ["--process", "sq", "--hurst", "0.15"],  # degenerate
        ],
    )
    def test_limit_check_never_loads_stats_or_linalg(self, tmp_path, regime):
        out = tmp_path / "lc"
        argv = ["limit-check", *regime, "--p", "2", "--n", "32,64", "--replicas", "10",
                "--seed", "3", "--ks-threshold", "0.9", "--median-tol", "0.9",
                "--workers", "1", "--out", str(out)]
        code, loaded = _fresh_main(argv)
        assert code == 0
        assert (out / "summary.csv").exists()
        assert loaded == [], f"limit-check loaded {loaded}"

    def test_cholesky_oracle_loads_linalg(self, tmp_path):
        argv = ["simulate", "--hurst", "0.3", "--n", "32", "--method", "cholesky",
                "--out", str(tmp_path / "sim")]
        code, loaded = _fresh_main(argv)
        assert code == 0
        assert loaded == ["scipy.linalg"]
