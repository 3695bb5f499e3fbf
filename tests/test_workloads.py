"""Tests for the scenario registry and the on-disk trace store."""

import dataclasses

import pytest

from repro.workloads import get, names, specs
from repro.workloads.spec import WorkloadSpec
from repro.workloads.store import TraceStore
from trace_helpers import trace_of

#: The scenarios this PR added beyond the ported seed traces.
NEW_SCENARIOS = ("gc-churn", "megamorphic", "deep-calls",
                 "redefine-churn")


def _counting_spec(counter, *, version=1, name="synthetic"):
    """A tiny deterministic workload that counts generator runs."""
    def build(length=32):
        counter["runs"] += 1
        return trace_of((i % 8, 1 + i % 3, i % 5, bool(i % 2))
                        for i in range(length))
    return WorkloadSpec(name=name, description="test-only",
                        build=build, defaults={"length": 32},
                        version=version)


class TestRegistry:
    def test_seed_traces_are_registered(self):
        for ported in ("paper", "interleaved", "monomorphic"):
            assert ported in names()

    def test_new_scenarios_are_registered(self):
        assert len(NEW_SCENARIOS) >= 4
        for scenario in NEW_SCENARIOS:
            assert scenario in names()

    def test_unknown_name_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="megamorphic"):
            get("no-such-workload")

    def test_paper_defaults_match_seed_calibration(self):
        spec = get("paper")
        assert spec.resolve() == {
            "scale": 1, "classes": 20, "selectors": 32, "rounds": 450,
            "phase_length": 700, "stray_percent": 2, "hot_selectors": 10}
        # --quick shrinks only the per-phase repetition, as the seed
        # harness did.
        assert spec.resolve(quick=True)["phase_length"] == 280

    def test_resolve_scale_and_overrides(self):
        spec = get("paper")
        assert spec.resolve(scale=3)["scale"] == 3
        assert spec.resolve(overrides={"rounds": 7})["rounds"] == 7
        with pytest.raises(KeyError, match="no parameter"):
            spec.resolve(overrides={"bogus": 1})


class TestStore:
    def test_generated_once_then_disk_hit(self, tmp_path):
        counter = {"runs": 0}
        spec = _counting_spec(counter)
        store = TraceStore(tmp_path)
        first = store.load(spec)
        assert counter["runs"] == 1 and store.generated == 1
        # Same process: memo hit, no disk or generator traffic.
        assert store.load(spec) is first
        assert counter["runs"] == 1
        # Fresh store over the same directory: disk hit.
        second = TraceStore(tmp_path)
        assert second.load(spec) == first
        assert counter["runs"] == 1
        assert second.hits == 1 and second.generated == 0

    def test_same_params_byte_identical(self, tmp_path):
        counter = {"runs": 0}
        spec = _counting_spec(counter)
        blob_a = spec.generate(spec.resolve()).to_bytes()
        blob_b = spec.generate(spec.resolve()).to_bytes()
        assert blob_a == blob_b

    def test_params_change_key(self, tmp_path):
        spec = _counting_spec({"runs": 0})
        assert TraceStore.key_for(spec, {"length": 32}) != \
            TraceStore.key_for(spec, {"length": 33})

    def test_version_bump_invalidates(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        v1 = _counting_spec(counter, version=1)
        v2 = _counting_spec(counter, version=2)
        path_v1 = store.path_for(v1, v1.resolve())
        path_v2 = store.path_for(v2, v2.resolve())
        assert path_v1 != path_v2
        store.load(v1)
        store.load(v2)
        assert counter["runs"] == 2
        assert path_v1.exists() and path_v2.exists()

    def test_roundtrip_preserves_events(self):
        events = trace_of([(12345, 7, -1, False), (0, 0, 0, True)])
        assert TraceStore.deserialize(events.to_bytes()) == events

    def test_corrupt_file_regenerates(self, tmp_path):
        counter = {"runs": 0}
        spec = _counting_spec(counter)
        store = TraceStore(tmp_path)
        path = store.path_for(spec, spec.resolve())
        store.load(spec)
        path.write_bytes(b"RTRC\x01garbage")
        again = TraceStore(tmp_path)
        events = again.load(spec)
        assert counter["runs"] == 2
        assert len(events) == 32
        # And the store healed the entry on disk.
        assert TraceStore(tmp_path).load(spec) == events
        assert counter["runs"] == 2


class TestByteSwap:
    """The big-endian path of the binary format: the int columns are
    little-endian on disk regardless of host, so a big-endian host
    (``_SWAP`` true) byteswaps them on the way in and out (the
    dispatched bitset is byte-order independent).  Monkeypatching the
    flag on a little-endian host simulates the *mechanism* in mirror
    image: serialize and deserialize must stay inverses under either
    setting, with every column word byte-reversed relative to the
    native blob -- exactly the transformation that makes a real
    big-endian host land on the little-endian disk layout."""

    EVENTS = trace_of([(12345, 7, -1, False), (0, 0, 0, True),
                       (-70000, 255, 4, True)])

    def _blob(self, monkeypatch, swap):
        import repro.trace.columnar as columnar_module
        monkeypatch.setattr(columnar_module, "_SWAP", swap)
        return self.EVENTS.to_bytes()

    @pytest.mark.parametrize("swap", [False, True],
                             ids=["native", "swapped"])
    def test_roundtrip_both_ways(self, monkeypatch, swap):
        import repro.trace.columnar as columnar_module
        monkeypatch.setattr(columnar_module, "_SWAP", swap)
        blob = self.EVENTS.to_bytes()
        assert TraceStore.deserialize(blob) == self.EVENTS

    def test_swapped_writer_flips_column_words_only(self, monkeypatch):
        native = self._blob(monkeypatch, False)
        swapped = self._blob(monkeypatch, True)
        # Header (magic, format byte, little-endian count) is
        # byte-order independent ...
        assert native[:9] == swapped[:9]
        # ... every int-column word (three columns of 4-byte words,
        # each block followed by its CRC32 trailer) is the 4-byte
        # reversal of its native counterpart ...
        assert native != swapped
        n = len(self.EVENTS)
        block = 4 * n + 4  # column data + CRC32 trailer
        for column in range(3):
            base = 9 + column * block
            for offset in range(base, base + 4 * n, 4):
                assert swapped[offset:offset + 4] == \
                    native[offset:offset + 4][::-1]
            # The CRC32 trailer covers the block's *on-disk* bytes,
            # so it tracks the swap: each writer's trailer matches
            # its own layout, and the two differ.
            assert native[base + 4 * n:base + block] != \
                swapped[base + 4 * n:base + block]
            import zlib
            assert swapped[base + 4 * n:base + block] == \
                zlib.crc32(swapped[base:base + 4 * n]).to_bytes(
                    4, "little")
        # ... and the trailing dispatched bitset (plus its CRC) is
        # untouched.
        bits_at = 9 + 3 * block
        assert native[bits_at:] == swapped[bits_at:]

    def test_cross_order_read_is_detected_or_differs(self, monkeypatch):
        # A blob written under one byte order and read under the other
        # must not silently round-trip: the columns decode to
        # different (byte-swapped) event fields.
        import repro.trace.columnar as columnar_module
        native = self._blob(monkeypatch, False)
        monkeypatch.setattr(columnar_module, "_SWAP", True)
        misread = TraceStore.deserialize(native)
        assert misread != self.EVENTS

    def test_store_roundtrip_under_simulated_big_endian(
            self, monkeypatch, tmp_path):
        import repro.trace.columnar as columnar_module
        monkeypatch.setattr(columnar_module, "_SWAP", True)
        counter = {"runs": 0}
        spec = _counting_spec(counter)
        store = TraceStore(tmp_path)
        events = store.load(spec)
        assert TraceStore(tmp_path).load(spec) == events
        assert counter["runs"] == 1


class TestScenarios:
    """Every registered scenario generates a plausible trace."""

    @pytest.mark.parametrize("name", NEW_SCENARIOS)
    def test_scenario_generates_dispatched_events(self, name, tmp_path):
        events = TraceStore(tmp_path).load(name, quick=True)
        assert len(events) > 1_000
        assert events.dispatched_count(), f"{name} never dispatched"
        assert len(set(events.addresses())) > 10

    def test_scenarios_are_deterministic(self, tmp_path):
        for name in NEW_SCENARIOS:
            spec = get(name)
            params = spec.resolve(quick=True)
            assert spec.generate(params).to_bytes() == \
                spec.generate(params).to_bytes(), name

    def test_megamorphic_is_megamorphic(self, tmp_path):
        spec = get("megamorphic")
        events = spec.generate(spec.resolve(overrides={"scale": 1}))
        poke = spec.build.__module__  # noqa: F841 (documentation only)
        receivers = events.receiver_classes()
        classes = {receivers[i] for i in events.dispatched_indices()}
        # One instance per class cycles through a single call site.
        assert len(classes) >= 26

    def test_redefine_churn_moves_the_code_footprint(self):
        spec = get("redefine-churn")
        few = spec.generate(spec.resolve(overrides={"epochs": 2}))
        many = spec.generate(spec.resolve(overrides={"epochs": 4}))
        # Each epoch compiles its redefined methods at fresh
        # addresses, so more epochs widen the address working set.
        assert len(set(many.addresses())) > len(set(few.addresses()))

    def test_deep_calls_outruns_the_context_cache(self):
        spec = get("deep-calls")
        events = spec.generate(spec.resolve(overrides={"depth": 100}))
        sends = events.dispatched_count()
        # Call-dominated: at least a quarter of the stream dispatches.
        assert sends / len(events) > 0.25


class TestSpecHygiene:
    def test_specs_are_frozen(self):
        spec = get("paper")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.version = 99

    def test_every_spec_documents_itself(self):
        for spec in specs():
            assert spec.description
            assert spec.version >= 1
