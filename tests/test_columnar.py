"""Pins for the columnar (struct-of-arrays) trace pipeline.

Three layers of guarantees:

* **sequence contract** -- a :class:`~repro.trace.columnar.Trace`
  still quacks like a ``Sequence[TraceEvent]``: indexing, zero-copy
  slicing, iteration, equality against event lists;
* **equivalence** -- for every registered workload, the columnar path
  yields the same events, the same itlb/icache statistics (under both
  measurement-semantics versions) and the same sweep surfaces as the
  legacy dataclass path;
* **zero-object loads** -- deserializing a stored trace constructs no
  ``TraceEvent`` at all, and store round-trips hold for the empty
  trace and a >1M-event trace.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

import repro.trace.events as events_module
from repro.trace.columnar import _INT, Trace, TraceBuilder, as_trace
from repro.trace.events import TraceEvent, split_warmup
from repro.trace.cachesim import simulate_icache, simulate_itlb
from repro.trace.semantics import SEMANTICS, warmup_cut
from repro.workloads import names
from repro.workloads.store import TraceStore


def _pattern_events(length=200):
    return [TraceEvent(i * 7 % 97, i % 11, i % 5 - 1, bool(i % 3))
            for i in range(length)]


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory):
    """One on-disk store for the whole module: each workload's quick
    trace is generated once and shared by every equivalence pin."""
    return TraceStore(tmp_path_factory.mktemp("columnar-traces"))


class TestSequenceContract:
    def test_indexing_materializes_events_lazily(self):
        events = _pattern_events()
        trace = Trace.from_events(events)
        assert isinstance(trace[0], TraceEvent)
        assert trace[5] == events[5]
        assert trace[-1] == events[-1]
        with pytest.raises(IndexError):
            trace[len(events)]

    def test_iteration_and_equality(self):
        events = _pattern_events()
        trace = Trace.from_events(events)
        assert list(trace) == events
        assert trace == events
        assert not (trace == events[:-1])
        assert trace != events[:-1] + [TraceEvent(0, 0, 0)]

    def test_slicing_is_a_zero_copy_view(self):
        trace = Trace.from_events(_pattern_events())
        view = trace[40:160]
        assert isinstance(view, Trace)
        # Shares the parent's column arrays: no copying happened.
        assert view._addresses is trace._addresses
        assert list(view) == list(trace)[40:160]
        nested = view[10:20]
        assert nested._addresses is trace._addresses
        assert list(nested) == list(trace)[50:60]
        # Extended slicing has no zero-copy representation; it
        # materializes a list like any other fancy indexing.
        assert trace[::13] == [e for i, e in enumerate(trace) if not i % 13]

    def test_dispatched_views(self):
        events = _pattern_events()
        trace = Trace.from_events(events)
        expected = [i for i, e in enumerate(events) if e.dispatched]
        assert list(trace.dispatched_indices()) == expected
        assert trace.dispatched_count() == len(expected)
        assert trace.dispatched_count(37) == \
            sum(1 for e in events[:37] if e.dispatched)
        view = trace[33:154]
        assert list(view.dispatched_indices()) == \
            [i for i, e in enumerate(events[33:154]) if e.dispatched]
        assert view.dispatched_flag(0) == events[33].dispatched

    def test_builder_quacks_like_a_sequence(self):
        builder = TraceBuilder()
        events = _pattern_events(50)
        for event in events[:25]:
            builder.record(event.address, event.opcode,
                           event.receiver_class, event.dispatched)
        for event in events[25:]:
            builder.append(event)   # legacy emitter compatibility
        assert len(builder) == 50
        assert list(builder) == events
        assert builder == events
        assert builder.snapshot() == events

    def test_builder_extend_rebases_columns(self):
        events = _pattern_events(30)
        part = Trace.from_events(events)
        builder = TraceBuilder()
        builder.extend(part, address_offset=1000)
        builder.extend(part[5:12])
        expected = [TraceEvent(e.address + 1000, e.opcode,
                               e.receiver_class, e.dispatched)
                    for e in events] + events[5:12]
        assert builder == expected

    def test_aligned_view_payload_masks_trailing_bits(self):
        # A byte-aligned view whose stop is mid-byte must not leak
        # the dispatched bits of events past its end into the
        # payload: equality and serialization depend only on the
        # view's own events.
        events = [TraceEvent(i, 1, 1, dispatched=(i >= 5))
                  for i in range(8)]
        full = Trace.from_events(events)
        view = full[:5]
        clean = Trace.from_events(events[:5])
        assert view.to_bytes() == clean.to_bytes()
        assert view == clean and clean == view
        assert Trace.from_bytes(view.to_bytes()) == events[:5]

    def test_snapshot_payload_ignores_later_records(self):
        builder = TraceBuilder()
        for i in range(5):
            builder.record(i, 1, 1, False)
        snap = builder.snapshot()
        before = snap.to_bytes()
        builder.record(99, 9, 9, True)   # same trailing byte, set bit
        assert snap.to_bytes() == before
        assert snap == [TraceEvent(i, 1, 1, False) for i in range(5)]

    def test_stats_summary(self):
        events = _pattern_events()
        stats = Trace.from_events(events).stats()
        assert stats["events"] == len(events)
        assert stats["dispatched"] == sum(e.dispatched for e in events)
        assert stats["unique_opcodes"] == len({e.opcode for e in events})
        assert stats["unique_classes"] == \
            len({e.receiver_class for e in events})
        assert stats["unique_itlb_keys"] == \
            len({e.itlb_key for e in events if e.dispatched})
        assert stats["unique_addresses"] == \
            len({e.address for e in events})
        assert stats["address_min"] == min(e.address for e in events)
        assert stats["address_max"] == max(e.address for e in events)


_EVENT = st.tuples(st.integers(0, 1 << 20), st.integers(0, 400),
                   st.integers(-1, 60), st.booleans())


def _recorded(events, address_offset=0):
    builder = TraceBuilder()
    for address, opcode, receiver, dispatched in events:
        builder.record(address + address_offset, opcode, receiver,
                       dispatched)
    return builder


class TestBulkBuilderOperations:
    """The builder's bulk paths (column extends, bitset merges at any
    bit offset, the address-keyed completion of partly recorded events,
    bit-counting) against per-event ``record``."""

    @settings(max_examples=150, deadline=None)
    @given(prefix=st.lists(_EVENT, max_size=20),
           source=st.lists(_EVENT, max_size=40),
           cut=st.tuples(st.integers(0, 40), st.integers(0, 40)),
           address_offset=st.integers(0, 1 << 20),
           kind=st.sampled_from(["slice", "mapped", "mapped-slice",
                                 "builder"]))
    def test_extend_equals_per_event_record(self, prefix, source, cut,
                                            address_offset, kind):
        lo, hi = sorted(min(bound, len(source)) for bound in cut)
        full = _recorded(source)
        if kind == "builder":
            view, lo, hi = full, 0, len(source)
        elif kind == "mapped":
            view, lo, hi = Trace.from_buffer(full.to_bytes()), 0, len(source)
        elif kind == "mapped-slice":
            view = Trace.from_buffer(full.to_bytes())[lo:hi]
        else:
            view = full.snapshot()[lo:hi]
        builder = _recorded(prefix)   # last bitset byte partly filled
        builder.extend(view, address_offset=address_offset)
        expected = _recorded(prefix + [
            (address + address_offset, opcode, receiver, dispatched)
            for address, opcode, receiver, dispatched in source[lo:hi]])
        assert len(builder) == len(expected)
        assert builder.to_bytes() == expected.to_bytes()
        for trace in (view, builder, builder.snapshot(),
                      builder.snapshot()[len(prefix) // 2:]):
            indices = list(trace.dispatched_indices())
            assert trace.dispatched_count() == len(indices)
            for stop in (-1, 0, 3, len(trace) // 2, len(trace) + 9):
                assert trace.dispatched_count(stop) == \
                    sum(1 for index in indices if index < stop)
        assert list(builder.dispatched_indices()) == \
            [i for i, event in enumerate(expected) if event.dispatched]

    @settings(max_examples=150, deadline=None)
    @given(epochs=st.lists(st.lists(st.integers(0, 63), max_size=30),
                           min_size=1, max_size=4),
           opcodes=st.lists(st.integers(0, 400), min_size=64, max_size=64),
           flags=st.lists(st.booleans(), min_size=64, max_size=64))
    def test_complete_equals_per_event_record(self, epochs, opcodes,
                                              flags):
        builder = TraceBuilder()
        expected = TraceBuilder()
        dispatched_at = [int(flag) for flag in flags]
        for epoch in epochs:
            record_address, record_class = builder.partial_recorders()
            for step, address in enumerate(epoch):
                record_address(address)
                record_class(step % 7 - 1)
                expected.record(address, opcodes[address], step % 7 - 1,
                                flags[address])
            builder.complete(opcodes, dispatched_at)
            assert builder.to_bytes() == expected.to_bytes()
        assert builder.dispatched_count() == \
            len(builder.dispatched_indices()) == \
            expected.dispatched_count()


class TestWarmupCutOwnership:
    """split_warmup routes through the semantics module (PR-4's single
    audited home of the cut), and the default stays bit-for-bit
    paper."""

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.25, 0.33, 0.999])
    def test_default_cut_is_paper_bit_for_bit(self, fraction):
        events = _pattern_events(173)
        warm, measure = split_warmup(events, fraction)
        cut = int(len(events) * fraction)   # the historical arithmetic
        assert warm == events[:cut] and measure == events[cut:]
        assert warmup_cut("paper", len(events), fraction) == cut

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_semantics_kwarg_accepted(self, semantics):
        events = _pattern_events(80)
        warm, measure = split_warmup(events, 0.25, semantics=semantics)
        assert len(warm) + len(measure) == len(events)

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ValueError, match="unknown measurement"):
            split_warmup(_pattern_events(8), 0.25, semantics="v9")

    def test_columnar_split_returns_views(self):
        trace = Trace.from_events(_pattern_events())
        warm, measure = split_warmup(trace, 0.25)
        assert isinstance(warm, Trace) and isinstance(measure, Trace)
        assert warm._addresses is trace._addresses
        assert len(warm) == int(len(trace) * 0.25)
        assert list(warm) + list(measure) == list(trace)


def _workload_cases():
    return sorted(names())


class TestColumnarObjectEquivalence:
    """The tentpole pin: for every registered workload the columnar
    view is indistinguishable from the dataclass path."""

    @pytest.mark.parametrize("workload", _workload_cases())
    def test_events_identical(self, workload, shared_store):
        trace = shared_store.load(workload, quick=True)
        assert isinstance(trace, Trace)
        objects = list(trace)   # the fully materialized legacy form
        assert all(isinstance(e, TraceEvent) for e in objects[:3])
        assert trace == objects
        assert as_trace(objects) == trace

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("workload", _workload_cases())
    def test_cache_simulation_identical(self, workload, semantics,
                                        shared_store):
        trace = shared_store.load(workload, quick=True)
        objects = list(trace)
        for kwargs in ({"warmup_fraction": 0.25},
                       {"double_pass": True}):
            columnar = simulate_itlb(trace, 64, 2, semantics=semantics,
                                     **kwargs)
            materialized = simulate_itlb(objects, 64, 2,
                                         semantics=semantics, **kwargs)
            assert columnar == materialized
            columnar = simulate_icache(trace, 256, 2,
                                       semantics=semantics, **kwargs)
            materialized = simulate_icache(objects, 256, 2,
                                           semantics=semantics, **kwargs)
            assert columnar == materialized

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("workload", _workload_cases())
    def test_sweep_surfaces_identical(self, workload, semantics,
                                      shared_store):
        from repro.sweep import SweepSpec, run_sweep
        trace = shared_store.load(workload, quick=True)
        objects = list(trace)
        for cache, sizes in (("itlb", (16, 64)), ("icache", (64, 256))):
            spec = SweepSpec(cache=cache, sizes=sizes,
                             associativities=(1, 2),
                             warmup_fraction=0.25,
                             include_full=True, include_opt=True,
                             semantics=semantics)
            columnar = run_sweep(spec, trace)
            materialized = run_sweep(spec, objects)
            assert columnar.counts == materialized.counts
            assert columnar.opt_counts == materialized.opt_counts


class TestStoreRoundTrips:
    def test_empty_trace_round_trips(self):
        empty = TraceBuilder().snapshot()
        blob = TraceStore.serialize(empty)
        back = TraceStore.deserialize(blob)
        assert len(back) == 0
        assert back == empty
        assert back == []
        assert list(back.dispatched_indices()) == []

    def test_million_event_trace_round_trips(self):
        n = 1_000_001
        addresses = array(_INT, (i * 31 % 1_000_003 for i in range(n)))
        opcodes = array(_INT, (i % 211 for i in range(n)))
        classes = array(_INT, (i % 29 - 1 for i in range(n)))
        bits = bytearray(b"\xb6" * ((n + 7) >> 3))
        trace = Trace(addresses, opcodes, classes, bits)
        assert len(trace) > 1_000_000
        blob = TraceStore.serialize(trace)
        back = TraceStore.deserialize(blob)
        assert back == trace
        # Spot-check materialization at both ends and the middle.
        for i in (0, 1, n // 2, n - 2, n - 1):
            assert back[i] == trace[i]
        assert back.dispatched_count() == trace.dispatched_count()

    def test_load_constructs_zero_trace_events(self, tmp_path,
                                               monkeypatch):
        # Materialize once (generation may build whatever it likes)...
        warm = TraceStore(tmp_path)
        warm.load("monomorphic", quick=True)
        # ...then count every TraceEvent constructed during a cold
        # load from disk.  The columnar payload maps straight onto
        # the arrays, so the count must be exactly zero.
        constructed = []
        real = events_module.TraceEvent

        class CountingEvent(real):
            def __new__(cls, *args, **kwargs):
                constructed.append(1)
                return super().__new__(cls)

        monkeypatch.setattr(events_module, "TraceEvent", CountingEvent)
        store = TraceStore(tmp_path)
        trace = store.load("monomorphic", quick=True)
        assert store.hits == 1 and store.generated == 0
        assert len(trace) == 5000
        assert trace.dispatched_count() == 5000
        assert trace.stats()["unique_addresses"] == 64
        assert constructed == []
        # Sanity: materializing one event does go through the class.
        event = trace[0]
        assert constructed and isinstance(event, real)

    def test_v1_payload_is_a_miss_not_a_misread(self, tmp_path):
        counter = {"runs": 0}

        def build(length=16):
            counter["runs"] += 1
            return [TraceEvent(i, 1, 1) for i in range(length)]

        from repro.workloads.spec import WorkloadSpec
        spec = WorkloadSpec(name="v1-relic", description="test-only",
                            build=build, defaults={"length": 16})
        store = TraceStore(tmp_path)
        path = store.path_for(spec, spec.resolve())
        store.load(spec)
        assert counter["runs"] == 1
        # Overwrite with a v1-era array-of-structs payload (format
        # byte 1): the store must treat it as a miss and regenerate,
        # never decode it with the columnar layout.
        v1 = b"RTRC\x01" + (16).to_bytes(4, "little") + b"\x00" * 256
        path.write_bytes(v1)
        fresh = TraceStore(tmp_path)
        events = fresh.load(spec)
        assert counter["runs"] == 2
        assert len(events) == 16


class TestEmittersAreColumnar:
    def test_fith_machine_records_into_a_builder(self):
        from repro.fith.interp import FithMachine
        machine = FithMachine(trace=True)
        machine.run_source("1 2 + drop")
        assert isinstance(machine.trace, TraceBuilder)
        assert len(machine.trace) == machine.steps
        assert machine.trace[2].dispatched is True   # the send of +

    def test_com_machine_records_into_a_builder(self):
        from repro.core.machine import COMMachine
        machine = COMMachine()
        trace = machine.enable_trace()
        assert isinstance(trace, TraceBuilder)
        assert machine.trace is trace

    def test_registered_generators_return_traces(self, shared_store):
        trace = shared_store.load("interleaved", quick=True)
        assert isinstance(trace, Trace)
