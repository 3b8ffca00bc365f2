"""Run one ``roughpvar`` CLI batch in a fresh interpreter and report timings.

Usage: ``python perfbench/child.py REQUEST_JSON``

``REQUEST_JSON`` is an object with ``argv`` (the CLI arguments), ``result``
(where to write the timing record) and ``trace`` (whether to record layer
spans). ``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checked-out ``src``; the program itself sees only the generated config file.

The record holds:

- ``imported_at``: ``time.monotonic()`` once ``roughpvar`` and
  ``roughpvar.cli`` (with numpy and scipy) are imported. The parent subtracts
  its own monotonic spawn time, which is the same system-wide clock.
- ``main_s``: wall time of the ``cli.main`` call.
- ``code``: the CLI exit code.
- ``spans`` and ``counts`` (traced runs only): one span per call into a
  public layer function, recorded by wrappers installed from this file.
"""

from __future__ import annotations

import json
import sys
import time

import roughpvar.cli  # the measured set-up: the package, its CLI, numpy, scipy

IMPORTED_AT = time.monotonic()

from roughpvar import cli, harness, stats  # noqa: E402


class Recorder:
    """In-memory spans ``[name, start, end, parent, points]`` plus counters.

    ``parent`` is the index of the enclosing span, or ``None`` at the root;
    ``points`` is the grid size an fbm draw produced (0 for other layers).
    Spans are appended in start order and written out when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call.

        The harness and the CLI look these names up in their own module
        namespace at call time, so the wrapper sees every call they make.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            index = len(self.spans)
            result = self.call(name, original, args, kwargs)
            if count is not None:
                count(self, self.spans[index], result)
            return result

        setattr(module, attr, traced)


def _count_fbm(rec: Recorder, span: list, path) -> None:
    cells = path.n
    span[4] = cells + 1
    rec.add("fbm.fine_points", cells + 1)
    # Computed, not measured: 2N float64 normals, the (N + 1)-entry complex
    # half spectrum and the 2N float64 inverse-FFT output.
    rec.add("fbm.bytes_computed", 8 * 2 * cells + 16 * (cells + 1) + 8 * 2 * cells)


def _count_levels(rec: Recorder, span: list, cp) -> None:
    nbytes = cp.levels.nbytes
    if cp.fine is not None:
        nbytes += cp.fine.levels.nbytes
    rec.add("processes.level_bytes", nbytes)


def install(rec: Recorder) -> None:
    """Wrap every layer function the CLI's limit-check call chain uses."""
    rec.wrap(harness, "sample_fbm", "fbm.sample_fbm", _count_fbm)
    rec.wrap(harness, "build_controlled_process", "processes.build", _count_levels)
    rec.wrap(harness, "pvar_statistic", "stats.pvar_statistic")
    rec.wrap(harness, "limit_drift", "stats.limit_drift")
    rec.wrap(harness, "limit_cond_std", "stats.limit_cond_std")
    rec.wrap(stats, "asymptotic_variance", "hermite.asymptotic_variance")
    rec.wrap(harness, "collect_rows", "harness.collect_rows")
    rec.wrap(cli, "run_regime_check", "harness.run_regime_check")


def main() -> int:
    request = json.loads(sys.argv[1])
    record = {"imported_at": IMPORTED_AT}
    if request["trace"]:
        rec = Recorder()
        install(rec)
        start = time.perf_counter()
        code = rec.call("cli.main", cli.main, (request["argv"],))
        record["main_s"] = time.perf_counter() - start
        record["spans"] = rec.spans
        record["counts"] = rec.counts
    else:
        start = time.perf_counter()
        code = cli.main(request["argv"])
        record["main_s"] = time.perf_counter() - start
    record["code"] = code
    with open(request["result"], "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
