"""Telemetry overhead: the disabled fast path and the armed run.

Two measurements land in ``BENCH_throughput.json``:

* ``telemetry::disabled_span`` -- calls/sec through a disabled
  ``telemetry.span(...)`` + ``telemetry.inc(...)`` pair, i.e. the
  cost every instrumented seam pays when telemetry is off (one env
  lookup and a shared no-op singleton; this is what keeps the
  "<2% overhead when disabled" acceptance bound honest);
* ``telemetry::quick_suite_on/off`` -- the quick harness suite (the
  light, trace-free experiments) with and without ``--telemetry``,
  plus their ratio, so the armed cost is tracked across PRs.

The overhead assertions are deliberately loose (a 1-CPU CI runner is
noisy); the committed numbers are the real trend line.
"""

import io
import time

import pytest

from repro import telemetry
from repro.experiments.harness import run_all

#: Cheap, trace-free experiments: overhead dominates, work does not.
LIGHT = ["TAB-CCACHE", "TAB-ADDR"]


def _claims(results):
    return [(r.experiment, c.claim, c.holds)
            for r in results for c in r.claims]


def test_disabled_span_fast_path(wallclock_records, monkeypatch):
    monkeypatch.setattr(telemetry, "_RECORDER", None)
    assert not telemetry.enabled()

    def seam():
        with telemetry.span("bench.noop", task="x"):
            telemetry.inc("bench.counter")

    # Warm up, then measure calls/sec through the no-op pair.
    for _ in range(1000):
        seam()
    rounds = 200_000
    start = time.perf_counter()
    for _ in range(rounds):
        seam()
    elapsed = time.perf_counter() - start
    per_call = elapsed / rounds
    wallclock_records["telemetry::disabled_span"] = {
        "calls_per_second": round(rounds / elapsed),
        "ns_per_call": round(per_call * 1e9, 1),
    }
    # A disabled seam must stay far below a microsecond-scale cost;
    # 20us/call would mean the fast path grew a file or lock touch.
    assert per_call < 20e-6


def test_regression_guard_flags_only_real_drops():
    from conftest import REGRESSION_FRACTION, find_regressions

    committed = {
        "sweep": {"events_per_second": 1000.0, "rounds": 3},
        "trace": {"columnar_events_per_second": 500.0},
        "_environment": {"cpus": 1},
    }
    fresh = {
        "sweep": {"events_per_second": 950.0, "rounds": 3},
        "trace": {"columnar_events_per_second": 100.0},
        "new_bench": {"ops_per_second": 5.0},
        "_environment": {"cpus": 1},
    }
    flagged = find_regressions(committed, fresh)
    # Only the >30% drop is flagged; small noise, brand-new
    # benchmarks and the metadata block are not.
    assert flagged == [("trace", "columnar_events_per_second",
                        500.0, 100.0)]
    assert REGRESSION_FRACTION == 0.7


@pytest.mark.slow
def test_quick_suite_overhead(wallclock_records, tmp_path):
    run_dir = str(tmp_path / "runs")

    start = time.time()
    plain = run_all(quick=True, stream=io.StringIO(), only=LIGHT,
                    run_dir=run_dir)
    off_seconds = time.time() - start

    start = time.time()
    traced = run_all(quick=True, stream=io.StringIO(), only=LIGHT,
                     run_dir=run_dir, with_telemetry=True)
    on_seconds = time.time() - start

    # Telemetry must never change a result.
    assert _claims(plain) == _claims(traced)

    wallclock_records["telemetry::quick_suite_off"] = {
        "wall_seconds": round(off_seconds, 3)}
    wallclock_records["telemetry::quick_suite_on"] = {
        "wall_seconds": round(on_seconds, 3),
        "overhead_vs_off": round(on_seconds / off_seconds, 3)
        if off_seconds else None,
    }
    # Loose sanity bound only: sub-second suites on a busy 1-CPU
    # runner swing too much for a tight ratio assertion.
    assert on_seconds < off_seconds * 5 + 2.0
