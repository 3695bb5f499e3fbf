"""Harness wall-clock: registry engine, serial vs parallel.

Runs the full quick suite twice -- ``--jobs 1`` (in-process) and
``--jobs 2`` (ProcessPoolExecutor, one task per experiment) -- against a
warm trace store, and records both wall-clocks in
``BENCH_throughput.json`` so the parallel engine's behaviour is
tracked across PRs alongside ops/sec.

The speedup assertion is deliberately one-sided: on a single-core
runner process parallelism cannot win (the expected ratio is ~1.0
minus pool overhead), so we only require that parallel execution
produces the identical claim verdicts and stays within 2x of serial.
Multi-core hosts should see jobs=2 land well under serial.
"""

import io
import os
import time

import pytest

from repro.experiments.harness import run_all
from repro.workloads.store import TraceStore


def _claims(results):
    return [(r.experiment, c.claim, c.holds)
            for r in results for c in r.claims]


@pytest.mark.slow
def test_harness_serial_vs_parallel(wallclock_records, tmp_path):
    trace_dir = str(tmp_path / "traces")
    # Warm the store so both measurements exclude trace generation.
    TraceStore(trace_dir).ensure("paper", quick=True)

    start = time.time()
    serial = run_all(quick=True, stream=io.StringIO(),
                     trace_dir=trace_dir, jobs=1)
    serial_seconds = time.time() - start

    jobs = min(4, max(2, os.cpu_count() or 2))
    start = time.time()
    parallel = run_all(quick=True, stream=io.StringIO(),
                       trace_dir=trace_dir, jobs=jobs)
    parallel_seconds = time.time() - start

    assert _claims(serial) == _claims(parallel)
    assert all(r.all_hold for r in serial)

    wallclock_records["harness::quick_jobs1"] = {
        "wall_seconds": round(serial_seconds, 3)}
    wallclock_records[f"harness::quick_jobs{jobs}"] = {
        "wall_seconds": round(parallel_seconds, 3),
        "speedup_vs_jobs1": round(serial_seconds / parallel_seconds, 3),
        "cpus": os.cpu_count(),
    }
    # One-sided sanity bound; the real speedup needs real cores.
    assert parallel_seconds < serial_seconds * 2.0
