"""Trace-store bench: the load path and the sweep-result cache.

Two measurements, both recorded into ``BENCH_throughput.json``:

* ``store::load`` -- a full ``TraceStore.load`` of the measurement
  trace from disk, through the store's one read path (read the
  payload, decode it with ``TraceStore.deserialize``, every block's
  CRC32 checked), in events/sec.  Each round uses a fresh store, so
  the in-process memo never serves it.

* ``store::result_cache`` -- one engine replay of the paper ITLB sweep
  against a cached-query hit on the same spec/trace key, asserting the
  >=100x speedup the PR claims.  The surfaces are compared bitwise
  while we are here.

The session-wide result-cache kill switch from conftest is re-enabled
locally for the cache bench only.
"""

import time

from repro.sweep import SweepSpec, run_sweep
from repro.workloads.spec import WorkloadSpec
from repro.workloads.store import TraceStore

ROUNDS = 5


def test_store_load(events, wallclock_records, tmp_path):
    # A slice shares the columns but not the session trace's store
    # stamp, which the load below would overwrite.
    spec = WorkloadSpec(name="bench", description="bench-only",
                        build=lambda: events[:])
    TraceStore(tmp_path).load(spec)  # generate and write the payload
    n = len(events)

    start = time.perf_counter()
    for _ in range(ROUNDS):
        store = TraceStore(tmp_path)
        trace = store.load(spec)
        assert store.hits == 1 and len(trace) == n
    load_seconds = (time.perf_counter() - start) / ROUNDS

    assert trace == events
    wallclock_records["store::load"] = {
        "events_per_second": round(n / load_seconds),
        "wall_seconds": round(load_seconds, 5),
    }


def test_result_cache_hit_vs_replay(events, wallclock_records,
                                    monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", "1")  # conftest kills it
    spec = SweepSpec(cache="itlb", double_pass=True,
                     label="bench-result-cache")
    assert events.store_key, "bench trace must come from the store"
    store_root = events.store_root
    from repro.workloads.library import ResultCache
    ResultCache(store_root).clear()  # the cold timing must replay

    start = time.perf_counter()
    replayed = run_sweep(spec, events)  # computes and caches
    replay_seconds = time.perf_counter() - start

    hit_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        cached = run_sweep(spec, events)
        hit_seconds = min(hit_seconds, time.perf_counter() - start)
        assert cached.counts == replayed.counts  # bitwise
        assert cached.table() == replayed.table()

    speedup = replay_seconds / hit_seconds
    wallclock_records["store::result_cache"] = {
        "replay_wall_seconds": round(replay_seconds, 4),
        "hit_wall_seconds": round(hit_seconds, 6),
        "queries_per_second": round(1.0 / hit_seconds),
        "speedup": round(speedup, 1),
        "engine": replayed.meta["engine"],
    }
    # Keep the on-disk cache out of the other replay benches' way.
    ResultCache(store_root).clear()
    assert speedup >= 100, (
        f"cached query only {speedup:.0f}x over replay")
