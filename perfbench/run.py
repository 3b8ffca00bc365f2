"""Replica-throughput benchmark for ``roughpvar limit-check``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each batch runs the real CLI, ``limit-check --config FILE --out DIR``, in a
fresh interpreter (``child.py``) with ``PYTHONPATH`` set to the checkout's
``src`` and one BLAS/OpenMP thread. Batches repeat until ``--seconds`` is
used up. Every batch's outputs are checked; see ``README.md`` for the
metrics, the checks and why each workload exists.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` adds traced
serial batches, whose layer spans give the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
# Every run ends well inside the 180 s a run may take; a child still running
# at this point is killed and its batch counts as crashed.
HARD_LIMIT_S = 165.0
# Medians need several samples per run, set-up time most of all.
MIN_BATCHES = 5
MIN_TRACE_ROUNDS = 2
OUTPUTS = ("manifest.json", "results.csv", "summary.csv", "plot_data.csv")
DIGESTED = ("results.csv", "summary.csv")
RESULTS_HEADER = "experiment_id,n,replica,stat,drift,cond_std,z"


@dataclass(frozen=True)
class Workload:
    config: dict
    workers: int = 1

    @property
    def rows(self) -> int:
        return len(self.config["n"]) * self.config["replicas"]


# Each workload puts a different layer on top, so that an optimisation of one
# layer shows on one workload and predicts no change on another. BENCHMARK.json
# gates the two NumPy-heavy ones; README.md says why the others run by hand.
WORKLOADS = {
    # fbm sampling and the level build at N = 65,536 and 262,144 fine points.
    "degenerate-sq-fine": Workload(
        {"process": "sq", "hurst": 0.15, "p": 2.0, "n": [4096, 16384],
         "fine_factor": 16, "replicas": 24}
    ),
    # Cheap rows: the per-row Python chain and CSV output dominate.
    "mixed-fbm-coarse": Workload(
        {"process": "fbm", "hurst": 0.4, "p": 2.0, "n": [256, 1024, 4096],
         "fine_factor": 1, "replicas": 700}
    ),
    # The per-step Python loop of the RDE solver.
    "rde-custom": Workload(
        {"process": "custom-rde", "hurst": 0.3, "p": 2.0, "n": [256, 512],
         "fine_factor": 16, "ell": 6, "y0": 1.0, "field_coeffs": [0.0, 1.0],
         "replicas": 5}
    ),
    # Drift and conditional std together, through the worker pool.
    "critical-sq-workers2": Workload(
        {"process": "sq", "hurst": 0.25, "p": 2.0, "n": [2048, 8192],
         "fine_factor": 16, "replicas": 80},
        workers=2,
    ),
}


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# one batch


@dataclass
class Batch:
    workers: int
    trace: bool
    warmup: bool = False
    wall_s: float = math.nan
    setup_s: float = math.nan
    main_s: float = math.nan
    peak_rss_mb: float = math.nan
    verdict: str = ""
    rows: int = 0
    nonfinite_rows: int = 0
    crashed: str = ""
    digests: dict | None = None
    values: dict | None = None
    spans: list | None = None
    counts: dict | None = None

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.main_s


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROUGHPVAR_")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_batch(
    workload: Workload, config_path: Path, slot: Path, workers: int, trace: bool,
    deadline: float,
) -> Batch:
    """Run one CLI batch in a fresh interpreter and check its outputs."""
    if slot.exists():
        shutil.rmtree(slot)
    slot.mkdir(parents=True)
    out_dir = slot / "out"
    record_path = slot / "record.json"
    argv = ["limit-check", "--config", str(config_path), "--out", str(out_dir),
            "--workers", str(workers)]
    request = json.dumps({"argv": argv, "result": str(record_path), "trace": trace})
    batch = Batch(workers=workers, trace=trace)
    with open(slot / "stdout.txt", "wb") as out, open(slot / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), request],
            stdout=out, stderr=err, env=child_env(), cwd=str(slot),
            start_new_session=True,
        )
        timer = threading.Timer(max(0.0, deadline - spawned), _kill_group, (proc.pid,))
        timer.start()
        try:
            # wait4 gives this child's own rusage: ru_maxrss is the peak of the
            # child and of the pool workers it reaped, unlike RUSAGE_CHILDREN,
            # which keeps the maximum over every child this process ever had.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing of the batch may outlive it
    batch.wall_s = exited - spawned
    batch.peak_rss_mb = usage.ru_maxrss / 1024.0
    stdout = (slot / "stdout.txt").read_text(errors="replace")
    stderr = (slot / "stderr.txt").read_text(errors="replace")
    batch.verdict = "pass" if "-> pass" in stdout else "FAIL" if "-> FAIL" in stdout else ""
    batch.crashed = _crash_reason(proc.returncode, stderr, out_dir, record_path)
    if not batch.crashed:
        record = json.loads(record_path.read_text())
        batch.setup_s = record["imported_at"] - spawned
        batch.main_s = record["main_s"]
        batch.spans = record.get("spans")
        batch.counts = record.get("counts")
        batch.crashed = _check_results(batch, workload, out_dir)
    if batch.crashed:
        batch.rows = workload.rows
        batch.nonfinite_rows = workload.rows
    return batch


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _crash_reason(code: int, stderr: str, out_dir: Path, record_path: Path) -> str:
    """Tell a crash apart from the statistical verdict (both can exit 1)."""
    if "run failed:" in stderr:
        return "CLI printed 'run failed:'"
    if code not in (0, 1):
        return f"CLI exited {code}: {stderr.strip()[-300:]}"
    missing = [name for name in OUTPUTS if not (out_dir / name).is_file()]
    if missing or not record_path.is_file():
        return f"outputs missing: {missing or ['record.json']}"
    return ""


def _check_results(batch: Batch, workload: Workload, out_dir: Path) -> str:
    """Parse results.csv; count non-finite rows; keep values and digests."""
    data = {name: (out_dir / name).read_bytes() for name in DIGESTED}
    batch.digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()}
    lines = data["results.csv"].decode().splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        return "results.csv header changed"
    expected = [(n, r) for n in workload.config["n"] for r in range(workload.config["replicas"])]
    if len(lines) - 1 != len(expected):
        return f"results.csv has {len(lines) - 1} rows, expected {len(expected)}"
    values = {}
    for line, key in zip(lines[1:], expected):
        fields = line.split(",")
        if (int(fields[1]), int(fields[2])) != key:
            return f"results.csv row order differs at {key}"
        stat, drift, cond, z = (float(x) for x in fields[3:7])
        values[key] = (stat, drift, cond)
        if not (math.isfinite(stat) and math.isfinite(z)):
            batch.nonfinite_rows += 1
    batch.values = values
    batch.rows = len(expected)
    return ""


# ---------------------------------------------------------------------------
# run-level output checks


def replay_row(workload: Workload, seed: int, n: int, replica: int) -> tuple:
    """Recompute (stat, drift, cond_std) of one row from the public layers.

    Follows the documented stream derivation: a Philox generator seeded by
    ``SeedSequence(seed, spawn_key=(n, replica))``.
    """
    import numpy as np
    from roughpvar import fbm, processes, stats

    cfg = workload.config
    factor = cfg["fine_factor"]
    params = {"ell": cfg.get("ell", 6)}
    for key in ("y0", "field_coeffs"):
        if key in cfg:
            params[key] = tuple(cfg[key]) if isinstance(cfg[key], list) else cfg[key]
    seq = np.random.SeedSequence(seed, spawn_key=(n, replica))
    rng = np.random.Generator(np.random.Philox(seq))
    path = fbm.sample_fbm(fbm.FbmSpec(hurst=cfg["hurst"], n=n * factor, seed=seed), rng)
    cp = processes.build_controlled_process(cfg["process"], path, factor, params)
    scfg = stats.StatConfig(p=cfg["p"], fine_factor=factor)
    stat = stats.pvar_statistic(cp, scfg)
    regime = stats.classify_regime(cfg["hurst"])
    drift, cond = 0.0, math.nan
    if regime in (stats.REGIME_CRITICAL, stats.REGIME_DEGENERATE):
        drift = stats.limit_drift(cp, cfg["p"])
    if regime in (stats.REGIME_CRITICAL, stats.REGIME_MIXED):
        cond = stats.limit_cond_std(cp, cfg["p"], cfg["hurst"])
    return float(stat), float(drift), float(cond)


def _same_bits(a: tuple, b: tuple) -> bool:
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


def check_run(workload_name: str, workload: Workload, seed: int, batches: list) -> list:
    """Problems that fail the whole run; an empty list means correct."""
    problems = [f"batch {i}: {b.crashed}" for i, b in enumerate(batches) if b.crashed]
    good = [b for b in batches if not b.crashed]
    if not good:
        return problems or ["no batch ran"]
    first = good[0].digests
    for b in good[1:]:
        if b.digests != first:
            problems.append(
                f"outputs differ between batches (workers {good[0].workers} "
                f"vs {b.workers}, trace {good[0].trace} vs {b.trace})"
            )
            break
    reference = json.loads(REFERENCE.read_text()).get(workload_name, {})
    if seed == DEFAULT_SEED:
        recorded = {name: reference.get(name) for name in DIGESTED}
        if recorded != first:
            problems.append(f"digests at seed {seed} are {first}, recorded {recorded}")
    # Whatever the seed, a few recorded rows of the default seed must come out
    # bit for bit, so that a numeric change shows on every run.
    for key, hexes in reference.get("rows", {}).items():
        n, replica = (int(part) for part in key.split("/"))
        expected = tuple(float.fromhex(value) for value in hexes)
        replayed = replay_row(workload, DEFAULT_SEED, n, replica)
        if not _same_bits(replayed, expected):
            problems.append(
                f"seed {DEFAULT_SEED} row (n={n}, replica={replica}): replayed "
                f"(stat, drift, cond_std) {replayed} != recorded {expected}"
            )
    picker = random.Random(seed)
    for n in workload.config["n"]:
        replica = picker.randrange(workload.config["replicas"])
        replayed = replay_row(workload, seed, n, replica)
        if not _same_bits(replayed, good[0].values[(n, replica)]):
            problems.append(
                f"row (n={n}, replica={replica}): replayed (stat, drift, cond_std) "
                f"{replayed} != batch {good[0].values[(n, replica)]}"
            )
    return problems


# ---------------------------------------------------------------------------
# statistics


def tail(values: list) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Falls back to the maximum when there are fewer than twenty samples.
    """
    ordered = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1.0 - q / 100.0) >= 10.0:
            return f"p{q:g}", _percentile(ordered, q)
    return "max", ordered[-1]


def _percentile(ordered: list, q: float) -> float:
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def describe(values: list) -> str:
    label, value = tail(values)
    return f"median of n={len(values)}; {label} {value:.6g}"


def layer_metrics(batch: Batch) -> tuple[dict, dict, dict]:
    """Per-layer numbers of one traced serial batch, from its spans.

    Returns the scalar metrics, the per-call samples behind each ``p50_ms``
    and ``tail_ms`` pair, and each layer's share of the ``collect_rows`` time.
    Per-call samples come from the rows at the workload's finest grid, so
    that each distribution has one mode; counts and shares cover every row.
    """
    durations: dict[str, list] = {}
    covered = [0.0] * len(batch.spans)
    rows: list[tuple[int, dict]] = []
    for name, start, end, parent, points in batch.spans:
        ms = (end - start) * 1000.0
        durations.setdefault(name, []).append(ms)
        if parent is not None:
            covered[parent] += ms
        if name == "fbm.sample_fbm":
            rows.append((points, {}))  # every row starts by sampling its driver
        if name in LAYERS and rows:
            rows[-1][1][name] = rows[-1][1].get(name, 0.0) + ms

    def self_ms(name: str) -> float:
        return sum(
            (span[2] - span[1]) * 1000.0 - covered[i]
            for i, span in enumerate(batch.spans)
            if span[0] == name
        )

    finest = max((points for points, _ in rows), default=0)
    samples = {
        name: [row[name] for points, row in rows if points == finest and name in row]
        for name in LAYERS
    }
    row_limit = [row.get("stats.limit_drift", 0.0) + row.get("stats.limit_cond_std", 0.0)
                 for _, row in rows]
    samples["stats.limit"] = [ms for (points, _), ms in zip(rows, row_limit)
                              if points == finest]
    out = {f"{name}.calls": len(durations.get(name, [])) for name in LAYERS}
    out["stats.limit.first_ms"] = row_limit[0] if rows else math.nan
    variance = durations.get("hermite.asymptotic_variance", [])
    out["hermite.asymptotic_variance.calls"] = len(variance)
    out["hermite.asymptotic_variance.first_ms"] = variance[0] if variance else math.nan
    collect_ms = sum(durations.get("harness.collect_rows", [math.nan]))
    collect_self_ms = self_ms("harness.collect_rows")
    out["harness.collect_rows.ms_per_row"] = collect_ms / batch.rows
    out["harness.self_ms_per_row"] = collect_self_ms / batch.rows
    out["harness.aggregate_ms"] = self_ms("harness.run_regime_check")
    out["cli.self_ms"] = self_ms("cli.main")
    for key in ("fbm.fine_points", "fbm.bytes_computed", "processes.level_bytes"):
        out[key] = batch.counts.get(key, 0)
    out["stats.nonfinite_rows"] = batch.nonfinite_rows
    shares = {name: sum(durations.get(name, [])) / collect_ms for name in LAYERS[:3]}
    shares["stats.limit"] = sum(row_limit) / collect_ms
    shares["harness.self"] = collect_self_ms / collect_ms
    return out, samples, shares


# Layers timed per call; "stats.limit" is the drift plus conditional std of one
# row, whichever of the two the regime calls.
LAYERS = (
    "fbm.sample_fbm", "processes.build", "stats.pvar_statistic",
    "stats.limit_drift", "stats.limit_cond_std",
)
# Per-layer metrics in the result line. Layers a regime never calls are
# listed by call count only, so that every reported time is a measured one.
PER_LAYER = (
    ("fbm.sample_fbm.p50_ms", "ms"), ("fbm.sample_fbm.tail_ms", "ms"),
    ("fbm.sample_fbm.calls", "count"), ("fbm.fine_points", "count"),
    ("fbm.bytes_computed", "bytes"),
    ("processes.build.p50_ms", "ms"), ("processes.build.tail_ms", "ms"),
    ("processes.build.calls", "count"), ("processes.level_bytes", "bytes"),
    ("stats.pvar_statistic.p50_ms", "ms"), ("stats.pvar_statistic.tail_ms", "ms"),
    ("stats.pvar_statistic.calls", "count"),
    ("stats.limit.p50_ms", "ms"), ("stats.limit.tail_ms", "ms"),
    ("stats.limit.first_ms", "ms"),
    ("stats.limit_drift.calls", "count"), ("stats.limit_cond_std.calls", "count"),
    ("hermite.asymptotic_variance.calls", "count"), ("stats.nonfinite_rows", "count"),
    ("harness.collect_rows.ms_per_row", "ms"), ("harness.self_ms_per_row", "ms"),
    ("harness.aggregate_ms", "ms"), ("harness.parallel_eff", "ratio"),
    ("cli.self_ms", "ms"), ("trace_overhead_frac", "ratio"),
)
COUNT_KEYS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))
# Printed in the human-readable lines only: these exist per regime.
REGIME_ONLY = (
    "stats.limit_drift.p50_ms", "stats.limit_drift.tail_ms",
    "stats.limit_cond_std.p50_ms", "stats.limit_cond_std.tail_ms",
    "hermite.asymptotic_variance.first_ms",
)


# ---------------------------------------------------------------------------
# provenance


def provenance(args) -> dict:
    import numpy
    import scipy

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": model,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "git_dirty": dirty,
    }


def _git(*argv: str) -> str:
    done = subprocess.run(
        ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
    )
    return done.stdout.strip()


# ---------------------------------------------------------------------------
# measuring and reporting


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> list:
    """Run batches until ``seconds`` is used, at least MIN_BATCHES of them.

    A first warm-up batch is checked like the others but left out of the
    metrics: the first batch after an idle spell runs slower. With tracing,
    each round runs an untraced serial batch (the reference for the tracing
    overhead), an untraced batch at the workload's worker count when that is
    more than one, and a traced serial batch.
    """
    config = dict(workload.config, seed=seed)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    if trace:
        plan = [(1, False)] + ([(workload.workers, False)] if workload.workers > 1 else [])
        plan.append((1, True))
        minimum = MIN_TRACE_ROUNDS
    else:
        plan = [(workload.workers, False)]
        minimum = MIN_BATCHES
    batches = [run_batch(workload, config_path, workdir / "warmup", workload.workers,
                         False, deadline)]
    batches[0].warmup = True
    shutil.rmtree(workdir / "warmup")
    rounds = 0
    last_round = 0.0
    while rounds < minimum or time.monotonic() + last_round <= started + seconds:
        begun = time.monotonic()
        for workers, traced in plan:
            slot = workdir / f"batch{len(batches)}"
            batches.append(run_batch(workload, config_path, slot, workers, traced, deadline))
            shutil.rmtree(slot)
        rounds += 1
        last_round = time.monotonic() - begun
        if any(b.crashed for b in batches):
            break
    return batches


def report(name: str, workload: Workload, seed: int, trace: bool, batches: list,
           problems: list) -> dict:
    """Print the human-readable lines; return the result object."""
    attempted = sum(b.rows for b in batches)
    failed = attempted if problems else sum(b.nonfinite_rows for b in batches)
    cfg = workload.config
    print(
        f"workload {name}: {cfg['process']} H={cfg['hurst']} n={cfg['n']} "
        f"fine_factor={cfg['fine_factor']} replicas={cfg['replicas']} "
        f"workers={workload.workers} seed={seed}: {len(batches)} batches, "
        f"verdicts {sorted({b.verdict for b in batches})}"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"  failed_row_frac = {failed / attempted:.6g} ({failed} of {attempted} rows)")
    if problems:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    metrics = {}
    batches = [b for b in batches if not b.warmup]
    if not trace:
        series = {
            "rows_per_s": ([b.rows_per_s for b in batches], "rows/s"),
            "wall_s": ([b.wall_s for b in batches], "s"),
            "setup_s": ([b.setup_s for b in batches], "s"),
            "peak_rss_mb": ([b.peak_rss_mb for b in batches], "MB"),
        }
        for key, (values, unit) in series.items():
            value = statistics.median(values)
            metrics[key] = {"value": value, "unit": unit}
            print(f"  {key} = {value:.6g} {unit} ({describe(values)})")
        return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}

    plain_serial = [b for b in batches if not b.trace and b.workers == 1]
    plain_parallel = [b for b in batches if not b.trace and b.workers == workload.workers]
    traced = [b for b in batches if b.trace]
    layers = [layer_metrics(b) for b in traced]
    for key in COUNT_KEYS:
        seen = {out[key] for out, _, _ in layers}
        if len(seen) != 1:
            print(f"CHECK FAILED: count {key} differs between traced batches: {sorted(seen)}")
            return {"correct": False, "attempted": attempted, "failed": attempted,
                    "metrics": {}}
    merged = {
        key: layers[0][0][key] if key in COUNT_KEYS
        else statistics.median(out[key] for out, _, _ in layers)
        for key in layers[0][0]
    }
    sample_counts = {}
    for name in layers[0][1]:
        pooled = [ms for _, samples, _ in layers for ms in samples[name]]
        merged[f"{name}.p50_ms"] = statistics.median(pooled) if pooled else math.nan
        merged[f"{name}.tail_ms"] = tail(pooled)[1] if pooled else math.nan
        if pooled:
            sample_counts[f"{name}.p50_ms"] = f" (finest-grid calls, n={len(pooled)})"
            sample_counts[f"{name}.tail_ms"] = f" ({tail(pooled)[0]} of n={len(pooled)})"
    untraced_rps = statistics.median(b.rows_per_s for b in plain_serial)
    traced_rps = statistics.median(b.rows_per_s for b in traced)
    merged["harness.parallel_eff"] = (
        statistics.median(b.main_s for b in plain_serial)
        / (workload.workers * statistics.median(b.main_s for b in plain_parallel))
    )
    merged["trace_overhead_frac"] = 1.0 - traced_rps / untraced_rps
    print(
        f"  traced serial rows_per_s = {traced_rps:.6g} rows/s, untraced serial "
        f"{untraced_rps:.6g} rows/s ({len(traced)} traced, {len(plain_serial)} untraced batches)"
    )
    units = dict(PER_LAYER)
    for key in sorted(set(units) | set(REGIME_ONLY)):
        value = merged[key]
        if math.isnan(value):
            print(f"  {key} = not called")
            value = 0.0
        else:
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {key} = {shown} {units.get(key, 'ms')}{sample_counts.get(key, '')}")
        if key in units:
            metrics[key] = {"value": value, "unit": units[key]}
    shares = {
        key: statistics.median(share[key] for _, _, share in layers) for key in layers[0][2]
    }
    print("  share of collect_rows time: "
          + ", ".join(f"{key} {value:.1%}" for key, value in shares.items()))
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "roughpvar" / "cli.py").is_file():
        raise BenchError(f"no roughpvar sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        batches = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
        problems = check_run(args.workload, workload, args.seed, batches)
        print("provenance " + json.dumps(provenance(args), sort_keys=True))
        result = report(args.workload, workload, args.seed, bool(args.trace), batches, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
