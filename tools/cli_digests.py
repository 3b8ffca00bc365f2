"""Digest a fixed set of CLI runs, so that two checkouts can be compared.

Usage, from anywhere:

    python3 tools/cli_digests.py [CHECKOUT]

CHECKOUT defaults to the checkout this script lives in. Each run is a fresh
interpreter with ``PYTHONPATH=CHECKOUT/src`` and its own ``--out`` directory
in a temporary directory. For each run the script prints one line: the
argv, the exit code, the sha256 of stdout and of stderr with the output
directory's path masked as ``<out>``, the checkout's as ``<checkout>`` and
the line number in a warning's ``<checkout>/...py:N:`` source location as
``<line>`` (it moves whenever code above the warning's call site does),
and the sha256 of every file the run left in its output
directory (``no-out-dir`` when it created none). Comparing two checkouts is

    diff <(python3 tools/cli_digests.py A) <(python3 tools/cli_digests.py B)

The set covers every subcommand, every closed-form process, ``exp-rde``, a
``--workers 2`` run, a manifest replay, the dense Cholesky oracle, a forced
run, a forced p < 2 at the critical index (refused: its drift needs
phi''), a blow-up, a failing rate fit, a rank-1 scaling fit (window target 1),
refused configs (NaN or negative gates and windows among them),
``constants`` at p = 3 and 2.5 (the Hermite terms past q = 1), at p = 40
(Gamma past 33, computed by scipy) and with a truncation-tail warning on
stderr, ``constants`` at lag cutoffs whose pairwise lag-sum trees have
several leaves and odd splits (100,003 and 65,537), and a critical
``limit-check`` at p = 4 (the drift's third level and σ² past q = 1), the
same for ``cube``, whose third level is not 0, a forced degenerate ``sq``
run at p = 2.5 (the drift's phi' and phi'' off the even-integer branch), a
two-task ``limit-check`` at ``--workers 3`` (one process per task), a
``custom-rde`` solve from y0 = 2 (stored levels that start away from 0),
the refusals of a t below one grid cell and of a scaling window that holds
no increment, the refusals of a p that is not finite (in every regime, forced,
and in ``constants``) and of ``custom-rde`` inputs that are not finite,
a run that passes the removed ``--quadrature`` flag (refused by the argument
parser), a ``custom-rde`` solve with a drift and a quadratic field at
``--ell 6``, the refusal of an ``--id`` with a comma, a ``simulate``
run that passes ``--workers`` (refused by the argument parser),
``constants`` with both truncation orders set and with a lag cutoff of 0
(refused), and a scaling fit with a repeated window length (refused). It
takes about 30 s on two cores and is not part of the test suite.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, argv). ``{name}`` in an argv item is replaced by the output
# directory of the earlier run of that name, so a manifest can be replayed.
RUNS = (
    ("simulate", ["simulate", "--hurst", "0.3", "--n", "64", "--replicas", "2", "--seed", "7"]),
    ("cholesky", ["simulate", "--hurst", "0.3", "--n", "32", "--method", "cholesky"]),
    ("constants", ["constants", "--p", "2", "--hurst", "0.35"]),
    ("constants-p3", ["constants", "--p", "3", "--hurst", "0.2"]),
    ("constants-p2.5", ["constants", "--p", "2.5", "--hurst", "0.1"]),
    ("constants-tail", ["constants", "--p", "2", "--hurst", "0.7", "--lag-cutoff", "17"]),
    ("constants-p40", ["constants", "--p", "40", "--hurst", "0.3"]),
    ("constants-odd-tree", ["constants", "--p", "3", "--hurst", "0.3", "--lag-cutoff", "100003"]),
    ("constants-odd-tree-p2", ["constants", "--p", "2", "--hurst", "0.25",
                               "--lag-cutoff", "65537"]),
    ("pvar", ["pvar", "--process", "sq", "--hurst", "0.2", "--p", "2", "--n", "256",
              "--seed", "3"]),
    ("pvar-custom-rde", ["pvar", "--process", "custom-rde", "--y0", "2", "--field-coeffs",
                         "0.5,1", "--hurst", "0.3", "--p", "3", "--n", "256"]),
    ("mixed", ["limit-check", "--hurst", "0.4", "--p", "2", "--n", "256,512",
               "--replicas", "100", "--seed", "11"]),
    ("critical", ["limit-check", "--process", "sq", "--hurst", "0.25", "--p", "2",
                  "--n", "64,128", "--replicas", "60", "--seed", "4"]),
    ("critical-workers2", ["limit-check", "--process", "sq", "--hurst", "0.25", "--p", "2",
                           "--n", "64,128", "--replicas", "60", "--seed", "4",
                           "--workers", "2"]),
    ("two-tasks-workers3", ["limit-check", "--hurst", "0.4", "--p", "2", "--n", "256",
                            "--replicas", "2", "--seed", "11", "--workers", "3"]),
    ("critical-p4", ["limit-check", "--process", "sq", "--hurst", "0.25", "--p", "4",
                     "--n", "64,128", "--replicas", "60", "--seed", "4"]),
    ("critical-cube-p4", ["limit-check", "--process", "cube", "--hurst", "0.25", "--p", "4",
                          "--n", "64,128", "--replicas", "30", "--seed", "6"]),
    ("replay", ["limit-check", "--config", "{critical}/manifest.json"]),
    ("degenerate", ["limit-check", "--process", "sq", "--hurst", "0.15", "--p", "2",
                    "--n", "128,256", "--replicas", "40", "--seed", "9", "--fine-factor", "4"]),
    ("cube", ["limit-check", "--process", "cube", "--hurst", "0.25", "--p", "2",
              "--n", "64,128", "--replicas", "30", "--seed", "6"]),
    ("exp-rde", ["limit-check", "--process", "exp-rde", "--hurst", "0.15", "--p", "2",
                 "--n", "64,128", "--replicas", "30", "--seed", "8", "--fine-factor", "4"]),
    ("sq-ell3", ["limit-check", "--process", "sq", "--ell", "3", "--hurst", "0.25", "--p", "2",
                 "--n", "64,128", "--replicas", "30", "--seed", "2"]),
    ("forced", ["limit-check", "--hurst", "0.35", "--p", "2.5", "--n", "64",
                "--replicas", "20", "--seed", "1", "--force"]),
    ("forced-degenerate-p2.5", ["limit-check", "--process", "sq", "--hurst", "0.15",
                                "--p", "2.5", "--n", "128,256", "--replicas", "20", "--seed", "9",
                                "--fine-factor", "4", "--force"]),
    ("forced-p-below-2", ["limit-check", "--process", "sq", "--hurst", "0.25", "--p", "1.5",
                          "--n", "64,128", "--replicas", "10", "--force"]),
    ("rate-fit", ["rate-fit", "--hurst", "0.4", "--p", "2", "--n", "256,512,1024",
                  "--replicas", "60", "--seed", "5"]),
    ("scaling", ["scaling-check", "--hurst", "0.4", "--rank", "3", "--n", "256,512",
                 "--delta", "0.125,0.25", "--replicas", "30", "--seed", "9"]),
    ("blow-up", ["pvar", "--hurst", "0.3", "--p", "3", "--process", "custom-rde",
                 "--field-coeffs", "0,0,0,0,0,0,0,0,5", "--y0", "1e13", "--n", "8"]),
    ("refused-p", ["limit-check", "--hurst", "0.35", "--p", "2.5", "--n", "64"]),
    ("refused-ell", ["pvar", "--hurst", "0.3", "--p", "3", "--ell", "1"]),
    ("refused-grid", ["rate-fit", "--hurst", "0.3", "--p", "2", "--n", "64"]),
    ("refused-fbm-rank2", ["scaling-check", "--process", "fbm", "--rank", "2",
                           "--hurst", "0.15", "--n", "64,128", "--replicas", "5"]),
    ("refused-sq-rank3", ["scaling-check", "--process", "sq", "--rank", "3",
                          "--hurst", "0.15", "--n", "64,128", "--replicas", "5"]),
    ("scaling-rank1", ["scaling-check", "--hurst", "0.2", "--rank", "1", "--n", "256,512",
                       "--delta", "0.125,0.25", "--replicas", "30", "--seed", "9"]),
    ("rate-fit-fail", ["rate-fit", "--hurst", "0.2", "--p", "2", "--process", "custom-rde",
                       "--n", "64,128,256", "--replicas", "3", "--fine-factor", "1",
                       "--ell", "4", "--y0", "0", "--drift-coeffs", "1", "--field-coeffs", "0"]),
    ("refused-window", ["scaling-check", "--hurst", "0.3", "--delta", "0.25,0.9"]),
    ("refused-rank0", ["scaling-check", "--hurst", "0.3", "--rank", "0"]),
    ("refused-ks-nan", ["limit-check", "--hurst", "0.3", "--p", "2", "--n", "64",
                        "--replicas", "20", "--ks-threshold", "nan"]),
    ("refused-median-tol", ["limit-check", "--hurst", "0.3", "--p", "2", "--n", "64",
                            "--replicas", "20", "--median-tol", "-1"]),
    ("refused-tol-nan", ["rate-fit", "--hurst", "0.3", "--p", "2", "--n", "64,128",
                         "--replicas", "20", "--tol", "nan"]),
    ("refused-delta-nan", ["scaling-check", "--hurst", "0.3", "--n", "64,128",
                           "--replicas", "5", "--delta", "nan,0.25"]),
    ("refused-start-nan", ["scaling-check", "--hurst", "0.3", "--n", "64,128",
                           "--replicas", "5", "--start", "nan"]),
    ("refused-t-below-a-cell", ["limit-check", "--process", "sq", "--hurst", "0.15", "--p", "2",
                                "--t", "0.001", "--n", "256,512", "--replicas", "20"]),
    ("refused-empty-window", ["scaling-check", "--hurst", "0.4", "--n", "32,64",
                              "--replicas", "5"]),
    ("refused-p-inf-critical", ["limit-check", "--process", "sq", "--hurst", "0.25",
                                "--p", "inf", "--n", "64", "--replicas", "5"]),
    ("refused-p-inf-pvar", ["pvar", "--process", "sq", "--hurst", "0.15", "--p", "inf",
                            "--n", "64"]),
    ("refused-p-inf-mixed", ["limit-check", "--process", "sq", "--hurst", "0.4",
                             "--p", "inf", "--n", "64", "--replicas", "5"]),
    ("refused-p-nan-forced", ["limit-check", "--process", "sq", "--hurst", "0.15",
                              "--p", "nan", "--force"]),
    ("refused-constants-p-inf", ["constants", "--p", "inf", "--hurst", "0.3"]),
    ("refused-constants-p-nan", ["constants", "--p", "nan", "--hurst", "0.3"]),
    ("refused-y0-nan", ["pvar", "--process", "custom-rde", "--y0", "nan", "--hurst", "0.3",
                        "--p", "2", "--n", "64"]),
    ("refused-field-nan", ["pvar", "--process", "custom-rde", "--field-coeffs", "0,nan",
                           "--hurst", "0.3", "--p", "2", "--n", "64"]),
    ("refused-drift-inf", ["pvar", "--process", "custom-rde", "--drift-coeffs", "inf",
                           "--hurst", "0.3", "--p", "2", "--n", "64"]),
    ("quadrature-flag", ["limit-check", "--hurst", "0.4", "--p", "2", "--n", "256,512",
                         "--replicas", "100", "--seed", "11", "--quadrature", "trapezoid"]),
    ("pvar-custom-rde-drift", ["pvar", "--process", "custom-rde", "--drift-coeffs", "0.5,-1",
                               "--field-coeffs", "0,1,0.5", "--y0", "0.3", "--ell", "6",
                               "--hurst", "0.3", "--p", "2", "--n", "256"]),
    ("refused-id-comma", ["limit-check", "--hurst", "0.4", "--p", "2", "--n", "64",
                          "--replicas", "5", "--id", "a,b"]),
    ("simulate-workers-flag", ["simulate", "--hurst", "0.3", "--n", "64", "--workers", "2"]),
    ("constants-orders", ["constants", "--p", "3", "--hurst", "0.5", "--hermite-terms", "120",
                          "--lag-cutoff", "1000"]),
    ("refused-lag-cutoff", ["constants", "--p", "2", "--hurst", "0.3", "--lag-cutoff", "0"]),
    ("refused-repeated-delta", ["scaling-check", "--hurst", "0.3", "--n", "256,512",
                                "--delta", "0.25,0.25", "--replicas", "20"]),
)

_SOURCE_LINE = re.compile(rb"(<checkout>/\S+\.py):\d+:")

_MAIN = "import sys; from roughpvar.cli import main; sys.exit(main(sys.argv[1:]))"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_runs(checkout: Path, work: Path) -> list[str]:
    """Run every entry of RUNS against ``checkout`` and return its lines."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROUGHPVAR_")}
    env["PYTHONPATH"] = str(checkout / "src")
    outs: dict[str, str] = {}
    lines = []
    for name, argv in RUNS:
        out = work / name
        outs[name] = str(out)
        resolved = [item.format(**outs) for item in argv]
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN, *resolved, "--out", str(out)],
            cwd=work,
            env=env,
            capture_output=True,
        )
        fields = [" ".join(argv), f"exit={proc.returncode}"]
        for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            data = data.replace(str(out).encode(), b"<out>")
            data = data.replace(str(checkout).encode(), b"<checkout>")
            data = _SOURCE_LINE.sub(rb"\1:<line>:", data)
            fields.append(f"{stream}={_sha(data)}")
        if out.is_dir():
            for path in sorted(out.iterdir()):
                fields.append(f"{path.name}={_sha(path.read_bytes())}")
        else:
            fields.append("no-out-dir")
        lines.append(" ".join(fields))
    return lines


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    if not (checkout / "src" / "roughpvar").is_dir():
        print(f"no src/roughpvar under {checkout}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for line in digest_runs(checkout, Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
