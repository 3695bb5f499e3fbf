"""The trace store's on-disk layout and the sweep-result cache.

Pins them end to end:

* flat layout -- a payload is written at ``<root>/<name>-<key>.trace``
  and is the only file there, a payload in the older sharded layout
  is a miss (regenerated at the root, the old file left alone), and
  ``gc`` removes temp files, never a payload;
* one load path -- every load, with or without a fault plan, decodes
  the payload once through ``Trace.from_bytes``, a hit reads one
  file, and a >1M-event trace round-trips through the store;
* a big-endian reader's ``from_bytes`` never byte-swaps the
  dispatched bitset (it is byte-order independent);
* the sweep-result cache -- round-trips byte-identical surfaces,
  treats corruption as a clean miss, can be disabled by environment,
  and lets a repeated harness run replay zero references;
* the ``store.result_cache`` fault-injection site degrades cleanly
  under chaos.
"""

import io
import json
import os
from pathlib import Path

import pytest

from repro import faults, telemetry
from repro.cli import main as cli_main
from repro.faults import FaultPlan
from repro.sweep import SweepSpec, result_cache_key, run_sweep
from repro.trace.columnar import Trace, TraceBuilder
from repro.workloads.library import ResultCache
from repro.workloads.spec import WorkloadSpec
from repro.workloads.store import TraceStore
from trace_helpers import trace_of


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.setattr(faults, "_ACTIVE", None)
    monkeypatch.setattr(telemetry, "_RECORDER", None)
    yield
    faults.install(None)
    telemetry.install(None)


def _spec(counter, name="synthetic"):
    def build(length=64):
        counter["runs"] += 1
        return trace_of(((i * 37) % 251 - 17, 1 + i % 7, i % 5,
                         bool(i % 2)) for i in range(length))
    return WorkloadSpec(name=name, description="test-only",
                        build=build, defaults={"length": 64})


# -- flat layout ----------------------------------------------------------

class TestFlatLayout:
    def test_write_lands_at_the_root(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        spec = _spec(counter)
        events = store.load(spec)
        assert [path.name for path in tmp_path.iterdir()] == \
            [f"synthetic-{events.store_key}.trace"]

    def test_sharded_legacy_payload_is_a_miss(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        flat = TraceStore(tmp_path)
        events = flat.load(spec)
        key = events.store_key
        # Move the payload to where an older store kept it.
        src = flat.path_for(spec, spec.resolve())
        sharded = tmp_path / "shards" / key[:2] / src.name
        sharded.parent.mkdir(parents=True)
        os.replace(src, sharded)
        sharded_bytes = sharded.read_bytes()

        store = TraceStore(tmp_path)
        loaded = store.load(spec)
        assert counter["runs"] == 2  # regenerated, not read
        assert loaded == events
        assert loaded.store_key == key
        assert src.is_file()         # back at the root
        assert sharded.read_bytes() == sharded_bytes

    def test_gc_sweeps_litter_only(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        run_sweep(SWEEP, events)
        before = {path: path.read_bytes()
                  for path in tmp_path.rglob("*") if path.is_file()}
        (tmp_path / "x.tmp").write_text("leftover")
        (tmp_path / "results" / "y.tmp").write_text("leftover")
        assert store.gc() == ["x.tmp", os.path.join("results", "y.tmp")]
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()} == before
        assert len(before) == 2  # the payload and the result entry

    def test_stats_counts_layout(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        store.load(_spec(counter))
        stats = store.stats()
        assert stats["payloads"] == 1
        assert stats["payload_bytes"] > 0
        assert stats["quarantined"] == 0
        assert stats["result_cache"]["entries"] == 0


# -- the one load path ---------------------------------------------------

def _builder_events(n):
    return trace_of(((i * 13) % 4093, 1 + i % 11, i % 7, bool(i % 3))
                    for i in range(n))


class TestOneLoadPath:
    def test_million_event_trace_round_trips_through_the_store(
            self, tmp_path):
        base = _builder_events(70_000)
        builder = TraceBuilder()
        for _ in range(16):
            builder.extend(base)
        big = builder.snapshot()
        assert len(big) > 1_000_000
        spec = WorkloadSpec(name="million", description="test-only",
                            build=lambda: big)
        TraceStore(tmp_path).load(spec)     # generate (write path)
        fresh = TraceStore(tmp_path)        # fresh memo: read path
        loaded = fresh.load(spec)
        assert (fresh.hits, fresh.generated) == (1, 0)
        assert len(loaded) == len(big)
        assert loaded.addresses()[-1] == big.addresses()[-1]
        assert loaded.dispatched_count() == big.dispatched_count()
        assert loaded == big

    @pytest.mark.parametrize("plan", [None, "worker.task:error:p=0.0"],
                             ids=["no-plan", "armed-plan"])
    def test_load_decodes_through_deserialize_once(self, tmp_path,
                                                   monkeypatch, plan):
        # TraceStore.deserialize is Trace.from_bytes.  The spy sits on
        # from_bytes so that the store's own decoder stays in place: a
        # load that took another path for the stock decoder counts 0.
        counter = {"runs": 0}
        spec = _spec(counter)
        TraceStore(tmp_path).load(spec)
        decodes = []
        from_bytes = Trace.from_bytes

        def counting(blob):
            decodes.append(len(blob))
            return from_bytes(blob)

        monkeypatch.setattr(Trace, "from_bytes", staticmethod(counting))
        if plan is not None:
            faults.install(FaultPlan.parse(plan, seed=1))
        try:
            events = TraceStore(tmp_path).load(spec)
        finally:
            faults.install(None)
        assert len(decodes) == 1
        assert len(events) == 64 and counter["runs"] == 1

    def test_store_hit_reads_one_file(self, tmp_path, monkeypatch):
        counter = {"runs": 0}
        spec = _spec(counter)
        TraceStore(tmp_path).load(spec)
        reads = []
        read_bytes, read_text = Path.read_bytes, Path.read_text

        def spy_bytes(path):
            reads.append(path.name)
            return read_bytes(path)

        def spy_text(path, *args, **kwargs):
            reads.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", spy_bytes)
        monkeypatch.setattr(Path, "read_text", spy_text)
        fresh = TraceStore(tmp_path)
        fresh.load(spec)
        assert fresh.hits == 1
        assert reads == [fresh.path_for(spec, spec.resolve()).name]


# -- satellite: big-endian bitset discipline ------------------------------

class TestBigEndianBitset:
    ROWS = [(12345, 7, -1, False), (0, 0, 0, True),
            (-70000, 255, 4, True), (81, 3, 2, False)]

    def test_from_bytes_never_swaps_the_dispatched_bitset(
            self, monkeypatch):
        import repro.trace.columnar as columnar_module
        blob = trace_of(self.ROWS).to_bytes()
        native = Trace.from_bytes(blob)
        # Simulate a big-endian reader of a little-endian payload:
        # the int columns byteswap, the bitset must not.
        monkeypatch.setattr(columnar_module, "_SWAP", True)
        swapped = Trace.from_bytes(blob)
        assert list(swapped.dispatched_indices()) == \
            list(native.dispatched_indices()) == [1, 2]
        assert [swapped.dispatched_flag(i) for i in range(4)] == \
            [row[3] for row in self.ROWS]


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
        assert store.result_cache().path_for(key).is_file()
        warm = run_sweep(SWEEP, events)
        assert warm.counts == cold.counts
        assert warm.meta == cold.meta
        assert warm.table() == cold.table()
        assert list(warm.counts) == list(cold.counts)  # iteration order

    def test_warm_query_replays_nothing(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        run_sweep(SWEEP, events)
        telemetry.install(tmp_path / "t")
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
                        replace(SWEEP, engine="grid"),
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
        bare = events[:]  # a slice carries no store stamp
        run_sweep(SWEEP, bare)
        assert store.result_cache().stats()["entries"] == 0

    def test_env_var_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        store, events, _ = _store_trace(tmp_path)
        run_sweep(SWEEP, events)
        assert not ResultCache.enabled()
        assert store.result_cache().stats()["entries"] == 0


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


# -- CLI ------------------------------------------------------------------

class TestStoreCli:
    def test_stats_and_gc(self, tmp_path, capsys):
        store, events, _ = _store_trace(tmp_path)
        run_sweep(SWEEP, events)
        payload_bytes = store.stats()["payload_bytes"]
        assert cli_main(["store", "stats",
                         "--trace-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            f"payloads:     1, {payload_bytes} bytes",
            "quarantined:  0",
            f"result cache: 1 entries, "
            f"{store.result_cache().stats()['bytes']} bytes (enabled)"]

        (tmp_path / "junk.tmp").write_text("x")
        assert cli_main(["store", "gc",
                         "--trace-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "tmp files removed:       1", "  - junk.tmp"]


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
