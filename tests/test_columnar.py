"""Pins for the columnar (struct-of-arrays) trace pipeline.

Three layers of guarantees:

* **trace contract** -- a :class:`~repro.trace.columnar.Trace` is
  read through its columns: step-1 slices are zero-copy views, the
  dispatched views agree with the recorded bits, two traces are equal
  when their payloads are, and single events are not addressable;
* **bulk builder operations** -- column extends and bitset merges at
  any bit offset equal per-event ``record``;
* **store round-trips** -- for the empty trace and a >1M-event trace,
  and a legacy payload is a miss, never a misread.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.columnar import _INT, Trace, TraceBuilder
from repro.trace.semantics import SEMANTICS, reset_index, warmup_cut
from repro.workloads.store import TraceStore
from trace_helpers import trace_of


def _pattern_rows(length=200):
    return [(i * 7 % 97, i % 11, i % 5 - 1, bool(i % 3))
            for i in range(length)]


class TestSequenceContract:
    def test_iteration_and_equality(self):
        rows = _pattern_rows()
        trace = trace_of(rows)
        # Equality is by payload, against another trace or a builder.
        assert trace == trace_of(rows)
        assert not (trace == trace_of(rows[:-1]))
        assert trace != trace_of(rows[:-1] + [(0, 0, 0)])
        # There is no event-sequence protocol: no iteration, no
        # single-event indexing, no equality against a list.
        with pytest.raises(TypeError):
            list(trace)
        with pytest.raises(TypeError):
            trace[0]
        assert trace != rows

    def test_slicing_is_a_zero_copy_view(self):
        rows = _pattern_rows()
        trace = trace_of(rows)
        view = trace[40:160]
        assert isinstance(view, Trace)
        # Shares the parent's column arrays: no copying happened.
        assert view._addresses is trace._addresses
        assert view == trace_of(rows[40:160])
        nested = view[10:20]
        assert nested._addresses is trace._addresses
        assert nested == trace_of(rows[50:60])
        assert list(nested.addresses()) == [row[0] for row in rows[50:60]]
        # Extended slicing has no zero-copy representation.
        with pytest.raises(TypeError):
            trace[::13]

    def test_dispatched_views(self):
        rows = _pattern_rows()
        trace = trace_of(rows)
        expected = [i for i, row in enumerate(rows) if row[3]]
        assert list(trace.dispatched_indices()) == expected
        assert trace.dispatched_count() == len(expected)
        assert trace.dispatched_count(37) == \
            sum(1 for row in rows[:37] if row[3])
        view = trace[33:154]
        assert list(view.dispatched_indices()) == \
            [i for i, row in enumerate(rows[33:154]) if row[3]]
        assert view.dispatched_flag(0) == rows[33][3]

    def test_builder_reads_like_a_trace(self):
        rows = _pattern_rows(50)
        builder = TraceBuilder()
        for row in rows:
            builder.record(*row)
        assert len(builder) == 50
        assert list(builder.opcodes()) == [row[1] for row in rows]
        assert list(builder.receiver_classes()) == [row[2] for row in rows]
        assert builder == trace_of(rows)
        assert builder.snapshot() == builder

    def test_builder_extend_rebases_columns(self):
        rows = _pattern_rows(30)
        part = trace_of(rows)
        builder = TraceBuilder()
        builder.extend(part, address_offset=1000)
        builder.extend(part[5:12])
        expected = [(address + 1000, opcode, receiver, dispatched)
                    for address, opcode, receiver, dispatched in rows]
        assert builder == trace_of(expected + rows[5:12])

    def test_aligned_view_payload_masks_trailing_bits(self):
        # A byte-aligned view whose stop is mid-byte must not leak
        # the dispatched bits of events past its end into the
        # payload: equality and serialization depend only on the
        # view's own events.
        rows = [(i, 1, 1, i >= 5) for i in range(8)]
        full = trace_of(rows)
        view = full[:5]
        clean = trace_of(rows[:5])
        assert view.to_bytes() == clean.to_bytes()
        assert view == clean and clean == view
        assert Trace.from_bytes(view.to_bytes()) == clean

    def test_snapshot_payload_ignores_later_records(self):
        builder = TraceBuilder()
        for i in range(5):
            builder.record(i, 1, 1, False)
        snap = builder.snapshot()
        before = snap.to_bytes()
        builder.record(99, 9, 9, True)   # same trailing byte, set bit
        assert snap.to_bytes() == before
        assert snap == trace_of((i, 1, 1, False) for i in range(5))

    def test_stats_summary(self):
        rows = _pattern_rows()
        stats = trace_of(rows).stats()
        assert stats["events"] == len(rows)
        assert stats["dispatched"] == sum(row[3] for row in rows)
        assert stats["unique_opcodes"] == len({row[1] for row in rows})
        assert stats["unique_classes"] == len({row[2] for row in rows})
        assert stats["unique_itlb_keys"] == \
            len({(row[1], row[2]) for row in rows if row[3]})
        assert stats["unique_addresses"] == len({row[0] for row in rows})
        assert stats["address_min"] == min(row[0] for row in rows)
        assert stats["address_max"] == max(row[0] for row in rows)


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
           kind=st.sampled_from(["slice", "decoded", "decoded-slice",
                                 "builder"]))
    def test_extend_equals_per_event_record(self, prefix, source, cut,
                                            address_offset, kind):
        lo, hi = sorted(min(bound, len(source)) for bound in cut)
        full = _recorded(source)
        if kind == "builder":
            view, lo, hi = full, 0, len(source)
        elif kind == "decoded":
            view, lo, hi = Trace.from_bytes(full.to_bytes()), 0, len(source)
        elif kind == "decoded-slice":
            view = Trace.from_bytes(full.to_bytes())[lo:hi]
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
            [i for i, row in enumerate(prefix + source[lo:hi]) if row[3]]

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
    """warmup_cut is the single audited home of the warm-up cut
    arithmetic: reset_index takes its raw-index cut from it, and the
    default stays bit-for-bit paper."""

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.25, 0.33, 0.999])
    def test_default_cut_is_paper_bit_for_bit(self, fraction):
        trace = trace_of((i, 1, 1) for i in range(173))
        cut = int(len(trace) * fraction)   # the historical arithmetic
        assert warmup_cut("paper", len(trace), fraction) == cut
        assert reset_index("paper", "icache", trace, len(trace),
                           warmup_fraction=fraction) == cut
        assert reset_index("paper", "itlb", trace, len(trace),
                           warmup_fraction=fraction) == cut

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_semantics_kwarg_accepted(self, semantics):
        # The versions differ in which stream the cut is taken over,
        # never in the arithmetic.
        assert warmup_cut(semantics, 80, 0.25) == 20
        assert warmup_cut(semantics, 7, 0.5) == 3

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ValueError, match="unknown measurement"):
            warmup_cut("v9", 8, 0.25)

    def test_columnar_split_returns_views(self):
        trace = trace_of(_pattern_rows())
        cut = warmup_cut("paper", len(trace), 0.25)
        warm, measure = trace[:cut], trace[cut:]
        assert isinstance(warm, Trace) and isinstance(measure, Trace)
        assert warm._addresses is trace._addresses
        assert len(warm) == int(len(trace) * 0.25)
        joined = TraceBuilder()
        joined.extend(warm)
        joined.extend(measure)
        assert joined == trace


class TestStoreRoundTrips:
    def test_empty_trace_round_trips(self):
        empty = TraceBuilder().snapshot()
        back = TraceStore.deserialize(empty.to_bytes())
        assert len(back) == 0
        assert back == empty
        assert list(back.dispatched_indices()) == []

    def test_million_event_trace_round_trips(self):
        n = 1_000_001
        addresses = array(_INT, (i * 31 % 1_000_003 for i in range(n)))
        opcodes = array(_INT, (i % 211 for i in range(n)))
        classes = array(_INT, (i % 29 - 1 for i in range(n)))
        bits = bytearray(b"\xb6" * ((n + 7) >> 3))
        trace = Trace(addresses, opcodes, classes, bits)
        assert len(trace) > 1_000_000
        back = TraceStore.deserialize(trace.to_bytes())
        assert back == trace
        # Spot-check the columns at both ends and the middle.
        for i in (0, 1, n // 2, n - 2, n - 1):
            assert back.addresses()[i] == addresses[i]
            assert back.opcodes()[i] == opcodes[i]
            assert back.receiver_classes()[i] == classes[i]
            assert back.dispatched_flag(i) == trace.dispatched_flag(i)
        assert back.dispatched_count() == trace.dispatched_count()

    def test_v1_payload_is_a_miss_not_a_misread(self, tmp_path):
        counter = {"runs": 0}

        def build(length=16):
            counter["runs"] += 1
            return trace_of((i, 1, 1) for i in range(length))

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
        assert machine.trace.dispatched_flag(2) is True   # the send of +

    def test_com_machine_records_into_a_builder(self):
        from repro.core.machine import COMMachine
        machine = COMMachine()
        trace = machine.enable_trace()
        assert isinstance(trace, TraceBuilder)
        assert machine.trace is trace

    def test_registered_generators_return_traces(self, tmp_path):
        trace = TraceStore(tmp_path).load("interleaved", quick=True)
        assert isinstance(trace, Trace)
