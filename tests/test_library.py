"""The trace library PR's acceptance surface.

Pins the tentpole and its satellites end to end:

* sharded layout -- writes land under ``shards/<key[:2]>/``, a
  payload in the older flat layout is a miss (regenerated into its
  shard, the flat file left alone), and ``gc`` sweeps litter,
  including the index files older stores kept, never a payload;
* sidecar audit -- ``store.verify()`` REPORTS params/key mismatches
  (stale metadata) without quarantining the healthy payload;
* mmap zero-copy loading -- loads are views over the mapped payload,
  lifetime is typed (``MappedBufferClosed`` after close, pre-close
  views and copies survive), and a >1M-event trace round-trips;
* the big-endian fallback of ``from_buffer``/``from_bytes`` never
  byte-swaps the dispatched bitset (it is byte-order independent);
* the sweep-result cache -- round-trips byte-identical surfaces,
  treats corruption as a clean miss, evicts LRU by byte budget, can
  be disabled by environment, and lets a repeated harness run replay
  zero references;
* the ``store.result_cache`` fault-injection site degrades cleanly
  under chaos.
"""

import io
import json
import os

import pytest

from repro import faults, telemetry
from repro.cli import main as cli_main
from repro.errors import MappedBufferClosed, StoreCorruption
from repro.faults import FaultPlan
from repro.sweep import SweepSpec, result_cache_key, run_sweep
from repro.sweep.runner import _RESULT_CACHES
from repro.trace.columnar import MappedTrace, Trace, TraceBuilder
from repro.trace.events import TraceEvent
from repro.workloads.library import SHARDS_DIR, ResultCache
from repro.workloads.spec import WorkloadSpec
from repro.workloads.store import QUARANTINE_DIR, TraceStore


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_RESULT_CACHE_BYTES", raising=False)
    monkeypatch.delenv("REPRO_STORE_MMAP", raising=False)
    monkeypatch.setattr(faults, "_ACTIVE", None)
    monkeypatch.setattr(telemetry, "_RECORDER", None)
    _RESULT_CACHES.clear()
    yield
    faults.install(None)
    telemetry.install(None)
    _RESULT_CACHES.clear()


def _spec(counter, name="synthetic"):
    def build(length=64):
        counter["runs"] += 1
        return [TraceEvent((i * 37) % 251 - 17, 1 + i % 7, i % 5,
                           bool(i % 2)) for i in range(length)]
    return WorkloadSpec(name=name, description="test-only",
                        build=build, defaults={"length": 64})


# -- sharded layout -------------------------------------------------------

class TestShardedLayout:
    def test_write_lands_in_shard_with_sidecar(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        spec = _spec(counter)
        store.load(spec)
        key = store.trace_key(spec)
        payload = tmp_path / SHARDS_DIR / key[:2] / \
            f"synthetic-{key}.trace"
        assert payload.is_file()
        assert payload.with_suffix(".json").is_file()

    def test_flat_legacy_payload_is_a_miss(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        sharded = TraceStore(tmp_path)
        events = sharded.load(spec)
        key = sharded.trace_key(spec)
        # Demote the payload to the older flat layout by hand.
        src = sharded.path_for(spec, spec.resolve())
        flat = tmp_path / src.name
        os.replace(src, flat)
        os.replace(src.with_suffix(".json"), flat.with_suffix(".json"))
        flat_bytes = flat.read_bytes()
        flat_sidecar = flat.with_suffix(".json").read_bytes()

        store = TraceStore(tmp_path)
        loaded = store.load(spec)
        assert counter["runs"] == 2  # regenerated, not read
        assert loaded == events
        assert loaded.store_key == key
        assert src.is_file()         # back in its shard
        assert flat.read_bytes() == flat_bytes
        assert flat.with_suffix(".json").read_bytes() == flat_sidecar

    def test_gc_sweeps_litter_only(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        payload = store.path_for(spec, spec.resolve())
        (payload.parent / "x.tmp").write_text("leftover")
        orphan = payload.parent / "ghost-aaaa.json"
        orphan.write_text("{}")
        empty = tmp_path / SHARDS_DIR / "zz"
        empty.mkdir(parents=True)
        report = store.library.gc()
        assert report["tmp_files"] == ["x.tmp"]
        assert report["orphan_sidecars"] == ["ghost-aaaa.json"]
        assert report["empty_shards"] == ["zz"]
        assert payload.exists()
        assert payload.with_suffix(".json").exists()

    def test_gc_removes_an_older_stores_indexes(self, tmp_path, capsys):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        for length in (64, 80):
            store.load(_spec(counter), length=length)
        files = sorted(path for path in tmp_path.rglob("*")
                       if path.is_file())
        before = {path: path.read_bytes() for path in files}
        # The manifest and per-shard catalog an older store wrote.
        entries = {path.stem.rsplit("-", 1)[1]: {
            "file": path.name, "shard": path.parent.name,
            "bytes": path.stat().st_size}
            for path in store.library.payload_paths()}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"manifest_version": 1, "payload_format": 3,
             "entries": entries}, indent=2, sort_keys=True) + "\n")
        shard = next(store.library.payload_paths()).parent
        catalog = shard / "catalog.json"
        catalog.write_text(json.dumps(
            {"catalog_version": 1, "entries": {
                key: entry for key, entry in entries.items()
                if entry["shard"] == shard.name}},
            indent=2, sort_keys=True) + "\n")

        assert cli_main(["store", "gc",
                         "--trace-dir", str(tmp_path)]) == 0
        assert "orphan sidecars removed: 2" in capsys.readouterr().out
        assert not manifest.exists()
        assert not catalog.exists()
        assert {path: path.read_bytes() for path in files} == before

    def test_stats_counts_layout(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        store.load(_spec(counter))
        stats = store.stats()
        assert stats["payloads"] == stats["shards"] == 1
        assert stats["payload_bytes"] > 0
        assert stats["result_cache"]["entries"] == 0


# -- satellite: sidecar audit ---------------------------------------------

class TestSidecarAudit:
    def test_mismatched_sidecar_is_reported_not_quarantined(
            self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        payload = store.path_for(spec, spec.resolve())
        sidecar = payload.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["params"] = {"length": 9999}  # stale: no longer keys here
        sidecar.write_text(json.dumps(meta))

        report = store.verify()
        assert report["ok"] == 1
        assert not report["corrupt"]
        (name, reason) = report["mismatched"][0]
        assert name == payload.name
        assert "key" in reason
        assert payload.exists()  # the payload is the truth: untouched
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_event_count_mismatch_is_reported(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        payload = store.path_for(spec, spec.resolve())
        sidecar = payload.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["events"] = meta["events"] + 1
        sidecar.write_text(json.dumps(meta))
        report = store.verify()
        assert report["ok"] == 1
        assert report["mismatched"]

    def test_clean_store_has_no_mismatches(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        store.load(_spec(counter))
        report = store.verify()
        assert report["mismatched"] == []
        assert report["ok"] == 1


# -- mmap zero-copy loading -----------------------------------------------

def _builder_events(n):
    builder = TraceBuilder()
    for i in range(n):
        builder.record((i * 13) % 4093, 1 + i % 11, i % 7, bool(i % 3))
    return builder.snapshot()


class TestMappedLifetime:
    def _mapped_store(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        TraceStore(tmp_path).load(spec)  # generate (write path)
        store = TraceStore(tmp_path)     # fresh memo: read path
        return store, spec

    def test_load_is_mapped_and_counts_telemetry(self, tmp_path):
        store, spec = self._mapped_store(tmp_path)
        telemetry.install(tmp_path / "t", fresh=True)
        events = store.load(spec)
        telemetry.finalize()
        assert isinstance(events, MappedTrace)
        metrics = json.loads(
            (tmp_path / "t" / "metrics.json").read_text())
        assert metrics["counters"]["store.mmap_open"] == 1

    def test_closed_trace_raises_typed_error(self, tmp_path):
        store, spec = self._mapped_store(tmp_path)
        events = store.load(spec)
        assert len(events) == 64
        store.close()
        assert events.closed
        for touch in (lambda: len(events), lambda: events[0],
                      lambda: events.addresses(),
                      lambda: events.dispatched_indices(),
                      lambda: events.to_bytes(),
                      lambda: list(events)):
            with pytest.raises(MappedBufferClosed):
                touch()
        store.close()  # idempotent

    def test_preclose_column_view_survives_close(self, tmp_path):
        store, spec = self._mapped_store(tmp_path)
        events = store.load(spec)
        addresses = events.addresses()
        expected = list(addresses)
        store.close()
        # The sliced-out view pins the mapping; reads stay valid (no
        # interpreter crash) even though the trace itself is closed.
        assert list(addresses) == expected

    def test_copy_outlives_the_store(self, tmp_path):
        store, spec = self._mapped_store(tmp_path)
        events = store.load(spec)
        duplicate = events.copy()
        assert duplicate.store_key == events.store_key
        store.close()
        assert len(duplicate) == 64
        assert not isinstance(duplicate, MappedTrace)
        assert duplicate == TraceStore(tmp_path).load(spec)

    def test_env_var_disables_mmap(self, tmp_path, monkeypatch):
        store, spec = self._mapped_store(tmp_path)
        monkeypatch.setenv("REPRO_STORE_MMAP", "0")
        events = store.load(spec)
        assert not isinstance(events, MappedTrace)

    def test_mapped_corruption_still_quarantines(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        payload = store.path_for(spec, spec.resolve())
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))

        fresh = TraceStore(tmp_path)
        events = fresh.load(spec)  # quarantine + regenerate
        assert counter["runs"] == 2
        assert len(events) == 64
        assert (tmp_path / QUARANTINE_DIR / payload.name).exists()

    def test_million_event_trace_round_trips_mapped(self, tmp_path):
        base = _builder_events(70_000)
        builder = TraceBuilder()
        for _ in range(16):
            builder.extend(base)
        big = builder.snapshot()
        assert len(big) > 1_000_000
        blob = big.to_bytes()
        mapped = Trace.from_buffer(memoryview(blob))
        if isinstance(mapped, MappedTrace):  # little-endian fast path
            assert len(mapped) == len(big)
            assert mapped.addresses()[-1] == big.addresses()[-1]
            assert mapped.dispatched_count() == big.dispatched_count()
            assert mapped.verify() is mapped
            mapped.close()
            with pytest.raises(MappedBufferClosed):
                mapped.addresses()
        else:
            assert mapped == big

    def test_from_buffer_defers_crc_to_first_touch(self, tmp_path):
        trace = _builder_events(256)
        blob = bytearray(trace.to_bytes())
        # Flip a bit inside the address column's data.
        blob[16] ^= 0x01
        mapped = Trace.from_buffer(memoryview(bytes(blob)))
        if not isinstance(mapped, MappedTrace):
            pytest.skip("big-endian host copies eagerly")
        assert len(mapped) == 256  # structure is fine; no CRC yet
        assert list(mapped.opcodes())  # untouched block verifies
        with pytest.raises(StoreCorruption):
            mapped.addresses()
        with pytest.raises(StoreCorruption):
            mapped.addresses()  # stays corrupt on re-touch


# -- satellite: big-endian bitset discipline ------------------------------

class TestBigEndianBitset:
    EVENTS = [TraceEvent(12345, 7, -1, False),
              TraceEvent(0, 0, 0, True),
              TraceEvent(-70000, 255, 4, True),
              TraceEvent(81, 3, 2, False)]

    def test_from_bytes_never_swaps_the_dispatched_bitset(
            self, monkeypatch):
        import repro.trace.columnar as columnar_module
        blob = Trace.from_events(self.EVENTS).to_bytes()
        native = Trace.from_bytes(blob)
        # Simulate a big-endian reader of a little-endian payload:
        # the int columns byteswap, the bitset must not.
        monkeypatch.setattr(columnar_module, "_SWAP", True)
        swapped = Trace.from_bytes(blob)
        assert list(swapped.dispatched_indices()) == \
            list(native.dispatched_indices()) == [1, 2]
        assert [swapped.dispatched_flag(i) for i in range(4)] == \
            [event.dispatched for event in self.EVENTS]

    def test_from_buffer_big_endian_falls_back_through_from_bytes(
            self, monkeypatch):
        import repro.trace.columnar as columnar_module
        blob = Trace.from_events(self.EVENTS).to_bytes()
        monkeypatch.setattr(columnar_module, "_SWAP", True)
        trace = Trace.from_buffer(memoryview(blob))
        # The fallback copies: no mapped lifetime to manage ...
        assert not isinstance(trace, MappedTrace)
        # ... and the bitset is read as-is (byte-order independent).
        assert list(trace.dispatched_indices()) == [1, 2]


# -- the sweep-result cache -----------------------------------------------

def _store_trace(tmp_path, length=512):
    counter = {"runs": 0}
    spec = _spec(counter)
    spec = WorkloadSpec(name="synthetic", description="test-only",
                        build=spec.build, defaults={"length": length})
    store = TraceStore(tmp_path)
    return store, store.load(spec), counter


SWEEP = SweepSpec(cache="itlb", sizes=(8, 16, 32),
                  associativities=(1, 2), double_pass=True)


class TestResultCache:
    def test_round_trip_is_byte_identical(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        cold = run_sweep(SWEEP, events)
        key = result_cache_key(SWEEP, events.store_key)
        assert store.result_cache().contains(key)
        warm = run_sweep(SWEEP, events)
        assert warm.counts == cold.counts
        assert warm.meta == cold.meta
        assert warm.table() == cold.table()
        assert list(warm.counts) == list(cold.counts)  # iteration order

    def test_warm_query_replays_nothing(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        run_sweep(SWEEP, events)
        telemetry.install(tmp_path / "t", fresh=True)
        run_sweep(SWEEP, events)
        telemetry.finalize()
        counters = json.loads(
            (tmp_path / "t" / "metrics.json").read_text())["counters"]
        assert counters["result_cache.hit"] == 1
        assert not any(k.startswith("sweep.replay") for k in counters)

    def test_key_covers_spec_trace_and_engine_version(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        key = result_cache_key(SWEEP, events.store_key)
        assert key != result_cache_key(SWEEP, "other-trace")
        from dataclasses import replace
        for changed in (replace(SWEEP, sizes=(8, 16)),
                        replace(SWEEP, semantics="v2"),
                        replace(SWEEP, engine="single-pass"),
                        replace(SWEEP, cache="icache")):
            assert result_cache_key(changed, events.store_key) != key
        # The display label is NOT part of the identity.
        assert result_cache_key(replace(SWEEP, label="renamed"),
                                events.store_key) == key

    def test_corrupt_entry_is_a_clean_miss_and_rewritten(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        cold = run_sweep(SWEEP, events)
        key = result_cache_key(SWEEP, events.store_key)
        path = store.result_cache().path_for(key)
        path.write_text("{nope")
        warm = run_sweep(SWEEP, events)  # miss -> replay -> re-put
        assert warm.counts == cold.counts
        assert store.result_cache().get(key)["surface"] == 1

    def test_every_single_bit_flip_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 12
        document = {"surface": 1, "counts": [[512, 2, 9876, 10000]],
                    "meta": {"engine": "pure", "trace_passes": 2}}
        cache.put(key, document)
        path = cache.path_for(key)
        blob = path.read_bytes()
        assert cache.get(key) == document
        for bit in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            path.write_bytes(bytes(flipped))
            assert cache.get(key) is None, f"bit {bit} was served"

    def test_unchecksummed_entry_is_a_miss_and_rewritten(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        cold = run_sweep(SWEEP, events)
        cache = store.result_cache()
        key = result_cache_key(SWEEP, events.store_key)
        path = cache.path_for(key)
        document = cache.get(key)
        # An entry written before entries carried a checksum: the
        # bare JSON line.
        path.write_text(json.dumps(document, sort_keys=True,
                                   separators=(",", ":")) + "\n")
        assert cache.get(key) is None
        warm = run_sweep(SWEEP, events)  # miss -> replay -> re-put
        assert warm.counts == cold.counts
        assert cache.get(key) == document

    def test_unstamped_trace_bypasses_the_cache(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        bare = events.copy()
        bare.store_key = bare.store_root = None
        run_sweep(SWEEP, bare)
        assert store.result_cache().stats()["entries"] == 0

    def test_env_var_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        store, events, _ = _store_trace(tmp_path)
        run_sweep(SWEEP, events)
        assert not ResultCache.enabled()
        assert store.result_cache().stats()["entries"] == 0

    def test_lru_eviction_honors_byte_budget(self, tmp_path):
        cache = ResultCache(tmp_path, budget_bytes=0)
        cache.put("a" * 24, {"surface": 1, "n": 1})
        assert cache.stats()["entries"] == 0  # evicted immediately
        roomy = ResultCache(tmp_path, budget_bytes=1 << 20)
        roomy.put("b" * 24, {"surface": 1, "n": 2})
        assert roomy.stats()["entries"] == 1

    def test_lru_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        old, new = "c" * 24, "d" * 24
        cache.put(old, {"n": 1})
        cache.put(new, {"n": 2})
        past = os.stat(cache.path_for(new)).st_mtime - 1000
        os.utime(cache.path_for(old), (past, past))
        cache.budget_bytes = cache.stats()["bytes"] - 1
        assert cache.evict() == 1
        assert not cache.contains(old)
        assert cache.contains(new)

    def test_eviction_breaks_equal_mtimes_by_filename(self, tmp_path):
        # Coarse-granularity filesystems stamp whole batches of puts
        # with one timestamp; the tie must break by the entry's
        # filename (the content key), not by directory-scan order.
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        keys = ["f" * 24, "a" * 24, "d" * 24]
        for key in keys:
            cache.put(key, {"n": key[0]})
        stamp = os.stat(cache.path_for(keys[0])).st_mtime_ns
        for key in keys:
            os.utime(cache.path_for(key), ns=(stamp, stamp))
        cache.budget_bytes = cache.stats()["bytes"] - 1
        assert cache.evict() == 1
        assert not cache.contains("a" * 24)   # first filename goes
        assert cache.contains("d" * 24)
        assert cache.contains("f" * 24)

    def test_eviction_lru_clock_is_nanosecond_precise(self, tmp_path):
        # 1ns apart within the same second: the ns clock must decide
        # (a float-seconds clock would fall through to the name
        # tie-break and evict the wrong entry here).
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        older, newer = "z" * 24, "a" * 24
        cache.put(older, {"n": 1})
        cache.put(newer, {"n": 2})
        stamp = os.stat(cache.path_for(older)).st_mtime_ns
        os.utime(cache.path_for(older), ns=(stamp, stamp))
        os.utime(cache.path_for(newer), ns=(stamp + 1, stamp + 1))
        cache.budget_bytes = cache.stats()["bytes"] - 1
        assert cache.evict() == 1
        assert not cache.contains(older)
        assert cache.contains(newer)

    def test_get_refreshes_the_lru_clock(self, tmp_path):
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        key = "e" * 24
        cache.put(key, {"n": 1})
        past = os.stat(cache.path_for(key)).st_mtime - 1000
        os.utime(cache.path_for(key), (past, past))
        cache.get(key)
        assert os.stat(cache.path_for(key)).st_mtime > past + 500


# -- fault sites ----------------------------------------------------------

class TestNewFaultSites:
    def test_result_cache_corruption_is_a_miss_under_chaos(
            self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        cold = run_sweep(SWEEP, events)
        plan = FaultPlan.parse("store.result_cache:corrupt:times=1",
                               seed=7)
        faults.install(plan)
        try:
            warm = run_sweep(SWEEP, events)
        finally:
            faults.install(None)
        assert warm.counts == cold.counts  # replayed, not misread

    def test_mmap_is_disabled_under_any_fault_plan(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        TraceStore(tmp_path).load(spec)
        faults.install(FaultPlan.parse("worker.task:error:p=0.0",
                                       seed=1))
        try:
            events = TraceStore(tmp_path).load(spec)
        finally:
            faults.install(None)
        # Injection sequences must match the pre-mmap store exactly,
        # so chaos runs take the byte path.
        assert not isinstance(events, MappedTrace)


# -- CLI ------------------------------------------------------------------

class TestStoreCli:
    def test_stats_and_gc(self, tmp_path, capsys):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        store.load(_spec(counter))
        assert cli_main(["store", "stats",
                         "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "payloads:     1" in out
        assert "result cache:" in out

        (tmp_path / "junk.tmp").write_text("x")
        assert cli_main(["store", "gc",
                         "--trace-dir", str(tmp_path)]) == 0
        assert "tmp files removed:       1" in capsys.readouterr().out

    def test_verify_reports_mismatches_with_exit_zero(self, tmp_path,
                                                      capsys):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        sidecar = store.path_for(spec, spec.resolve()) \
            .with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["params"] = {"length": 1}
        sidecar.write_text(json.dumps(meta))
        assert cli_main(["store", "verify",
                         "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt:     0" in out
        assert "mismatched:  1" in out


# -- harness integration: run twice, replay zero ---------------------------

class TestRepeatedRunReplaysNothing:
    def test_second_quick_fig10_run_is_cache_served(self, tmp_path):
        from repro.experiments.harness import run_all
        from repro.telemetry import report as telemetry_report

        common = dict(stream=io.StringIO(), only=["FIG-10"],
                      quick=True,
                      trace_dir=str(tmp_path / "traces"),
                      with_telemetry=True)
        cold = run_all(run_dir=str(tmp_path / "r1"), **common)
        warm = run_all(run_dir=str(tmp_path / "r2"), **common)

        assert [c.holds for r in cold for c in r.claims] == \
            [c.holds for r in warm for c in r.claims]
        assert cold[0].table == warm[0].table  # byte-identical figure

        (run_dir,) = [child for child in (tmp_path / "r2").iterdir()
                      if (child / "telemetry").is_dir()]
        metrics = telemetry_report.load_run(run_dir)["metrics"]
        assert telemetry_report.counter_total(
            metrics, "sweep.replay") == 0
        assert telemetry_report.counter_total(
            metrics, "result_cache.hit") >= 1
