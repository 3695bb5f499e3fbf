"""Columnar (struct-of-arrays) trace storage.

The section-5 experiments are entirely trace-driven, and every hot
path -- the cache simulator, the sweep engines, the store -- used to
iterate traces one frozen :class:`~repro.trace.events.TraceEvent`
dataclass at a time.  This module keeps a trace as four parallel
columns instead:

* ``address``, ``opcode``, ``receiver_class`` -- one ``array('i')``
  each (4-byte signed words; every TraceEvent field fits);
* ``dispatched`` -- a bitset (one bit per event, LSB-first within
  each byte).

Three types:

* :class:`Trace` -- an immutable columnar view.  It still quacks like
  a ``Sequence[TraceEvent]`` (indexing materializes one event lazily,
  iteration yields events, ``==`` compares against event lists), but
  the columns are directly exposed for hot loops, slicing with step 1
  is a zero-copy view onto the same arrays, and the dispatched-index
  view (:meth:`Trace.dispatched_indices`) is computed once per view
  and cached.
* :class:`TraceBuilder` -- the mutable emitter the interpreters
  record into: :meth:`TraceBuilder.record` appends four ints, no
  object construction.  A builder is also a ``Sequence[TraceEvent]``
  so legacy callers can inspect ``machine.trace`` directly;
  :meth:`TraceBuilder.snapshot` hands the columns to a :class:`Trace`
  without copying.
* the **binary payload** (:meth:`Trace.to_bytes` /
  :meth:`Trace.from_bytes`) -- the trace store's on-disk format,
  version 3.  The payload is the columns, verbatim: header, then the
  three int columns little-endian and the bitset, each block followed
  by a CRC32 trailer of its on-disk bytes.  Loading is four bulk
  ``frombytes`` copies (plus four CRC checks); no per-event work of
  any kind.  A recognized payload that fails a check raises
  :class:`~repro.errors.StoreCorruption`; bytes in a legacy or
  foreign layout raise :class:`~repro.errors.PayloadFormatError`.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from collections.abc import Sequence
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import (MappedBufferClosed, PayloadFormatError,
                          StoreCorruption)
from repro.trace import events as _events

#: 4-byte signed column words (every TraceEvent field fits); fall
#: back to 'l' on platforms where 'i' is not 4 bytes.
_INT = "i" if array("i").itemsize == 4 else "l"
#: The on-disk byte order is little-endian regardless of host (the
#: store may be shared via CI caches or a network filesystem), so
#: big-endian hosts byte-swap the int columns on the way in and out.
#: The bitset is byte-order independent.
_SWAP = sys.byteorder == "big"

#: Binary payload version (participates in the trace store's cache
#: key).  v1 was array-of-structs (4 interleaved words per event);
#: v2 is columnar; v3 is columnar with a CRC32 trailer after every
#: column block (and the bitset), so silent on-disk corruption is
#: *detected* -- a bad block raises
#: :class:`~repro.errors.StoreCorruption` instead of decoding wrong
#: events, while v1/v2 (and foreign) files stay clean misses via
#: :class:`~repro.errors.PayloadFormatError`.
FORMAT_VERSION = 3
_MAGIC = b"RTRC"
_HEADER = len(_MAGIC) + 1 + 4
#: Per-block integrity trailer: CRC32 of the block's on-disk bytes,
#: little-endian.  Computed over the stored (little-endian) layout,
#: so it is host-byte-order independent like the payload itself.
_CRC_BYTES = 4

#: byte value -> the bit positions set in it, for bitset scans.
_BITS_IN = tuple(tuple(j for j in range(8) if value >> j & 1)
                 for value in range(256))


class _ColumnarSequence(Sequence):
    """Sequence[TraceEvent] behaviour shared by Trace and TraceBuilder.

    Subclasses provide ``_addresses``/``_opcodes``/``_classes``
    (int arrays), ``_bits`` (the bitset) and ``_bounds() ->
    (start, stop)`` into those columns.
    """

    __slots__ = ()

    def _bounds(self) -> Tuple[int, int]:
        raise NotImplementedError

    def __len__(self) -> int:
        start, stop = self._bounds()
        return stop - start

    def dispatched_flag(self, index: int) -> bool:
        """The dispatched bit of one event, without materializing it."""
        start, stop = self._bounds()
        if index < 0:
            index += stop - start
        if not 0 <= index < stop - start:
            raise IndexError("trace index out of range")
        i = start + index
        return bool(self._bits[i >> 3] & (1 << (i & 7)))

    def _event(self, i: int) -> "_events.TraceEvent":
        """Materialize the event at *absolute* column index ``i``."""
        return _events.TraceEvent(
            self._addresses[i], self._opcodes[i], self._classes[i],
            bool(self._bits[i >> 3] & (1 << (i & 7))))

    def __getitem__(self, index):
        start, stop = self._bounds()
        n = stop - start
        if isinstance(index, slice):
            lo, hi, step = index.indices(n)
            if step == 1:
                return Trace(self._addresses, self._opcodes,
                             self._classes, self._bits,
                             start + lo, start + max(lo, hi))
            return [self._event(start + i) for i in range(lo, hi, step)]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace index out of range")
        return self._event(start + index)

    def __iter__(self) -> Iterator["_events.TraceEvent"]:
        start, stop = self._bounds()
        event = self._event
        for i in range(start, stop):
            yield event(i)

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, _ColumnarSequence):
            if len(self) != len(other):
                return False
            return self.to_bytes() == other.to_bytes()
        if isinstance(other, (list, tuple)):
            if len(self) != len(other):
                return False
            start, _ = self._bounds()
            addresses, opcodes, classes, bits = (
                self._addresses, self._opcodes, self._classes, self._bits)
            try:
                for index, event in enumerate(other):
                    i = start + index
                    if (addresses[i] != event.address
                            or opcodes[i] != event.opcode
                            or classes[i] != event.receiver_class
                            or bool(bits[i >> 3] & (1 << (i & 7)))
                            != bool(event.dispatched)):
                        return False
            except AttributeError:
                return NotImplemented
            return True
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {len(self)} events, "
                f"{self.dispatched_count()} dispatched>")

    # -- column access ----------------------------------------------------

    def addresses(self):
        """The address column (zero-copy; indexable ints)."""
        start, stop = self._bounds()
        return memoryview(self._addresses)[start:stop]

    def opcodes(self):
        """The opcode column (zero-copy; indexable ints)."""
        start, stop = self._bounds()
        return memoryview(self._opcodes)[start:stop]

    def receiver_classes(self):
        """The receiver-class column (zero-copy; indexable ints)."""
        start, stop = self._bounds()
        return memoryview(self._classes)[start:stop]

    def dispatched_indices(self):
        """Indices (into this view) of the dispatched events, sorted.

        The view every dispatched-only hot loop iterates instead of
        filtering event objects; computed once and cached on
        immutable views.
        """
        start, stop = self._bounds()
        bits = self._bits
        indices = array(_INT)
        append = indices.append
        if start & 7:
            # Unaligned view: walk bits until the next byte boundary.
            head = min(stop, (start | 7) + 1)
            for i in range(start, head):
                if bits[i >> 3] & (1 << (i & 7)):
                    append(i - start)
            lo = head
        else:
            lo = start
        base = lo - start
        for byte in bits[lo >> 3:(stop + 7) >> 3]:
            if byte:
                for j in _BITS_IN[byte]:
                    index = base + j
                    if index >= stop - start:
                        break
                    append(index)
            base += 8
        return indices

    def dispatched_count(self, stop: Optional[int] = None) -> int:
        """How many of the first ``stop`` events are dispatched.

        ``stop=None`` counts the whole view.
        """
        indices = self.dispatched_indices()
        if stop is None:
            return len(indices)
        from bisect import bisect_left
        return bisect_left(indices, stop)

    # -- aggregate statistics ---------------------------------------------

    def unique_itlb_key_count(self) -> int:
        """Distinct (opcode, receiver class) pairs among dispatched
        events -- the ITLB's key population, from the columns."""
        opcodes = self.opcodes()
        classes = self.receiver_classes()
        return len({(opcodes[i] << 32) ^ (classes[i] & 0xFFFFFFFF)
                    for i in self.dispatched_indices()})

    def unique_address_count(self) -> int:
        """Distinct instruction addresses (the icache's footprint)."""
        return len(set(self.addresses()))

    def stats(self) -> dict:
        """Column-level summary; materializes no event objects.

        This walks every column; callers that need one figure should
        use the targeted accessors (:meth:`dispatched_count`,
        :meth:`unique_itlb_key_count`, :meth:`unique_address_count`)
        instead.
        """
        n = len(self)
        dispatched = self.dispatched_count()
        addresses = self.addresses()
        return {
            "events": n,
            "dispatched": dispatched,
            "dispatched_fraction": dispatched / n if n else 0.0,
            "unique_opcodes": len(set(self.opcodes())),
            "unique_classes": len(set(self.receiver_classes())),
            "unique_itlb_keys": self.unique_itlb_key_count(),
            "unique_addresses": len(set(addresses)),
            "address_min": min(addresses) if n else None,
            "address_max": max(addresses) if n else None,
        }

    # -- binary payload ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The v3 store payload: header, then three int columns and
        the bitset, each block followed by its CRC32 trailer."""
        start, stop = self._bounds()
        n = stop - start
        blocks = []
        for column in (self._addresses, self._opcodes, self._classes):
            if start or stop != len(column):
                column = column[start:stop]
            if _SWAP:
                column = column[:]  # don't mutate the live column
                column.byteswap()
            blocks.append(column.tobytes())
        if start & 7 or not isinstance(
                self._bits, (bytes, bytearray, memoryview)):
            bits = bytearray((n + 7) >> 3)
            for index in self.dispatched_indices():
                bits[index >> 3] |= 1 << (index & 7)
        else:
            bits = bytearray(self._bits[start >> 3:(start + n + 7) >> 3])
            if n & 7:
                # Mask stray bits belonging to events past the view's
                # stop (a sliced view, or a builder that kept
                # recording after a snapshot): the payload of a trace
                # depends only on its own events.
                bits[-1] &= (1 << (n & 7)) - 1
        blocks.append(bytes(bits))
        header = _MAGIC + bytes([FORMAT_VERSION]) + n.to_bytes(4, "little")
        parts = [header]
        for block in blocks:
            parts.append(block)
            parts.append(zlib.crc32(block).to_bytes(_CRC_BYTES, "little"))
        return b"".join(parts)


class Trace(_ColumnarSequence):
    """An immutable columnar trace view.

    Constructed from columns directly, from a stored payload
    (:meth:`from_bytes`), from legacy event sequences
    (:meth:`from_events`), or by slicing another trace/builder (a
    zero-copy view onto the same column arrays).
    """

    __slots__ = ("_addresses", "_opcodes", "_classes", "_bits",
                 "_start", "_stop", "_disp", "store_key", "store_root")

    def __init__(self, addresses, opcodes, classes, bits,
                 start: int = 0, stop: Optional[int] = None) -> None:
        if stop is None:
            stop = len(addresses)
        if not (len(addresses) == len(opcodes) == len(classes)):
            raise ValueError("trace columns have mismatched lengths")
        if len(bits) < (stop + 7) >> 3:
            raise ValueError("dispatched bitset shorter than the columns")
        self._addresses = addresses
        self._opcodes = opcodes
        self._classes = classes
        self._bits = bits
        self._start = start
        self._stop = stop
        self._disp = None
        #: Stamped by the trace store on load/generate: the content
        #: key and store root this trace came from.  None for traces
        #: built in memory or sliced views -- a slice is a different
        #: trace than the stored one.  The sweep result cache keys on
        #: this, so only store-backed whole traces are ever memoized.
        self.store_key = None
        self.store_root = None

    def _bounds(self) -> Tuple[int, int]:
        return self._start, self._stop

    def dispatched_indices(self):
        cached = self._disp
        if cached is None:
            cached = self._disp = super().dispatched_indices()
        return cached

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable["_events.TraceEvent"]) -> "Trace":
        """Pack any iterable of TraceEvents into columns (one pass)."""
        if isinstance(events, Trace):
            return events
        if isinstance(events, TraceBuilder):
            return events.snapshot()
        builder = TraceBuilder()
        for event in events:
            builder.record(event.address, event.opcode,
                           event.receiver_class, event.dispatched)
        return builder.snapshot()

    @staticmethod
    def _check_structure(blob) -> int:
        """Validate a payload's header and total length; the event
        count on success.  Shared by the copying and zero-copy
        decoders so both classify bytes identically (format error vs
        corruption)."""
        if len(blob) < 5 or bytes(blob[:4]) != _MAGIC:
            raise PayloadFormatError("not a trace-store payload")
        if blob[4] != FORMAT_VERSION:
            raise PayloadFormatError(
                f"unsupported payload version {blob[4]} "
                f"(current: {FORMAT_VERSION})")
        if len(blob) < _HEADER:
            raise StoreCorruption("payload truncated inside the header")
        count = int.from_bytes(bytes(blob[5:9]), "little")
        word = array(_INT).itemsize
        expected = _HEADER + 3 * (count * word + _CRC_BYTES) \
            + ((count + 7) >> 3) + _CRC_BYTES
        if len(blob) != expected:
            raise StoreCorruption(
                f"payload is {len(blob)} bytes but {expected} were "
                f"expected for {count} events (truncated or "
                f"overwritten)")
        return count

    #: (name, size-for-count) pairs of the four payload blocks, in
    #: on-disk order.
    @staticmethod
    def _block_layout(count: int):
        word = array(_INT).itemsize
        return (("address", count * word),
                ("opcode", count * word),
                ("receiver-class", count * word),
                ("dispatched-bitset", (count + 7) >> 3))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Trace":
        """Decode a v3 store payload; four bulk copies, zero events.

        Raises :class:`~repro.errors.PayloadFormatError` for bytes
        that are not a current-format payload (wrong magic, legacy
        v1/v2 version byte, no room for a header) -- the store reads
        those as clean misses -- and
        :class:`~repro.errors.StoreCorruption` when a recognized v3
        payload fails its length or CRC32 checks, which the store
        routes to quarantine.
        """
        count = cls._check_structure(blob)
        offset = _HEADER
        blocks = []
        for name, size in cls._block_layout(count):
            block = blob[offset:offset + size]
            offset += size
            stored = int.from_bytes(
                blob[offset:offset + _CRC_BYTES], "little")
            offset += _CRC_BYTES
            if zlib.crc32(block) != stored:
                raise StoreCorruption(
                    f"{name} block failed its CRC32 check")
            blocks.append(block)
        columns = []
        for block in blocks[:3]:
            column = array(_INT)
            column.frombytes(block)
            if _SWAP:
                # The int columns are little-endian on disk; the
                # bitset (blocks[3]) is byte-order independent and is
                # used verbatim on every host.
                column.byteswap()
            columns.append(column)
        bits = bytearray(blocks[3])
        return cls(columns[0], columns[1], columns[2], bits)

    @classmethod
    def from_buffer(cls, buffer) -> "Trace":
        """Decode a payload as zero-copy views over *buffer*.

        The fast path (little-endian host, 4-byte ``array('i')``
        words -- i.e. every mainstream platform) builds the three int
        columns as ``memoryview.cast('i')`` views and the bitset as a
        byte view straight over the buffer: opening a 10^6-event
        trace costs microseconds and no column RAM.  Structural
        checks (magic, version, total length) run eagerly with the
        same error taxonomy as :meth:`from_bytes`; per-block CRC32
        verification is *deferred* to the first touch of each column
        (raising :class:`~repro.errors.StoreCorruption` then).

        Big-endian hosts (and exotic word sizes) cannot view the
        little-endian payload in place and fall back to the copying
        :meth:`from_bytes` -- crucially *without* byte-swapping the
        dispatched bitset, which is byte-order independent.

        Lifetime: the returned :class:`MappedTrace` holds views into
        *buffer* (typically an ``mmap``).  The owner of the buffer
        (the trace store) must call :meth:`MappedTrace.close` before
        unmapping; afterwards every accessor raises the typed
        :class:`~repro.errors.MappedBufferClosed`.  Use
        :meth:`Trace.copy` for a trace that must outlive its store.
        """
        view = memoryview(buffer)
        if _SWAP or array(_INT).itemsize != 4:
            data = bytes(view)
            view.release()
            return cls.from_bytes(data)
        try:
            count = cls._check_structure(view)
        except BaseException:
            view.release()
            raise
        offset = _HEADER
        blocks = []
        pending = {}
        for name, size in cls._block_layout(count):
            block = view[offset:offset + size]
            offset += size
            stored = int.from_bytes(
                bytes(view[offset:offset + _CRC_BYTES]), "little")
            offset += _CRC_BYTES
            pending[name] = (block, stored)
            blocks.append(block)
        columns = [block.cast(_INT) for block in blocks[:3]]
        return MappedTrace(columns[0], columns[1], columns[2],
                           blocks[3], count, pending, view)

    def copy(self) -> "Trace":
        """A deep copy backed by plain arrays.

        The one way to keep a memory-mapped trace's data past its
        store's close: the copy owns its columns outright (and
        carries the same ``store_key`` stamp, since it is the same
        logical trace).  On a plain trace this is simply an
        independent materialization of the view.
        """
        start, stop = self._bounds()
        n = stop - start
        columns = []
        for view in (self.addresses(), self.opcodes(),
                     self.receiver_classes()):
            column = array(_INT)
            column.frombytes(bytes(view))
            columns.append(column)
        bits = bytearray((n + 7) >> 3)
        for index in self.dispatched_indices():
            bits[index >> 3] |= 1 << (index & 7)
        duplicate = Trace(columns[0], columns[1], columns[2], bits)
        duplicate.store_key = self.store_key
        duplicate.store_root = self.store_root
        return duplicate


class MappedTrace(Trace):
    """A :class:`Trace` whose columns are views over a mapped payload.

    Built by :meth:`Trace.from_buffer`.  Differences from a plain
    trace, both invisible to correct callers:

    * **deferred integrity** -- each of the four payload blocks is
      CRC32-verified on its first touch (never again after), so
      *opening* a trace is O(1) while *reading* it keeps the same
      corruption guarantee as :meth:`Trace.from_bytes`;
    * **explicit lifetime** -- the trace does not own the underlying
      buffer (the store owns the mmap).  After :meth:`close` every
      accessor raises :class:`~repro.errors.MappedBufferClosed`.
      Column views handed out before the close remain valid (each
      holds its own buffer reference, keeping the mapping alive), and
      :meth:`Trace.copy` produces an array-backed trace that needs no
      lifetime care at all.
    """

    __slots__ = ("_source", "_pending", "_closed")

    def __init__(self, addresses, opcodes, classes, bits, count,
                 pending, source) -> None:
        super().__init__(addresses, opcodes, classes, bits, 0, count)
        #: block name -> (block view, stored CRC32); verified entries
        #: are removed, so an empty dict means fully verified.
        self._pending = pending
        self._source = source
        self._closed = False

    # -- deferred integrity ------------------------------------------------

    def _verify(self, name: str) -> None:
        pending = self._pending
        if not pending:
            return
        entry = pending.get(name)
        if entry is None:
            return
        block, stored = entry
        if zlib.crc32(block) != stored:
            # Left in _pending on purpose: a corrupt block stays
            # corrupt, so every later touch re-raises instead of
            # silently reading bad words.
            raise StoreCorruption(f"{name} block failed its CRC32 check")
        del pending[name]

    def _verify_all(self) -> None:
        for name in tuple(self._pending):
            self._verify(name)

    def verify(self) -> "MappedTrace":
        """Run every still-deferred CRC check now; self, for chaining.

        Zero-copy: the checksums run directly over the mapped pages.
        The trace store calls this at load time -- its contract
        (corrupt payload -> quarantine -> transparent regeneration)
        predates mmap and survives it -- while direct
        :meth:`Trace.from_buffer` users keep the pure
        deferred-to-first-touch behaviour.
        """
        self._verify_all()
        return self

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release this trace's views into the mapped buffer.

        Idempotent.  The store calls this before unmapping; callers
        that sliced out column views beforehand keep working (their
        views pin the mapping), while every access *through this
        trace* now raises :class:`~repro.errors.MappedBufferClosed`.
        """
        if self._closed:
            return
        self._closed = True
        self._pending = {}
        for view in (self._addresses, self._opcodes, self._classes,
                     self._bits, self._source):
            try:
                view.release()
            except BufferError:  # pragma: no cover - defensive
                pass
        self._source = None

    def _bounds(self) -> Tuple[int, int]:
        # The single choke point every read path goes through (len,
        # iteration, indexing, accessors, to_bytes): the typed
        # lifetime error instead of a released-memoryview ValueError.
        if self._closed:
            raise MappedBufferClosed(
                "memory-mapped trace used after close; copy() the "
                "trace before closing its store to keep the data")
        return super()._bounds()

    # -- verified access ---------------------------------------------------

    def addresses(self):
        self._verify("address")
        return super().addresses()

    def opcodes(self):
        self._verify("opcode")
        return super().opcodes()

    def receiver_classes(self):
        self._verify("receiver-class")
        return super().receiver_classes()

    def dispatched_indices(self):
        self._verify("dispatched-bitset")
        return super().dispatched_indices()

    def dispatched_flag(self, index: int) -> bool:
        self._verify("dispatched-bitset")
        return super().dispatched_flag(index)

    def _event(self, i: int):
        self._verify_all()
        return super()._event(i)

    def __getitem__(self, index):
        # A step-1 slice hands out a plain Trace sharing these column
        # views; it carries no _pending hooks, so verify everything
        # before it escapes.
        if isinstance(index, slice):
            self._verify_all()
        return super().__getitem__(index)

    def __eq__(self, other) -> bool:
        self._verify_all()
        return super().__eq__(other)

    __hash__ = None

    def to_bytes(self) -> bytes:
        self._verify_all()
        return super().to_bytes()


class TraceBuilder(_ColumnarSequence):
    """The columnar recorder the instrumented interpreters append to.

    :meth:`record` is the hot emitter -- four column appends and a
    bit set, no object construction.  The builder is itself a
    ``Sequence[TraceEvent]`` so legacy callers can read
    ``machine.trace`` directly; :meth:`snapshot` produces an
    immutable :class:`Trace` sharing the same arrays (no copy --
    later appends extend the arrays past the snapshot's bounds
    without disturbing it).
    """

    __slots__ = ("_addresses", "_opcodes", "_classes", "_bits", "_count")

    def __init__(self) -> None:
        self._addresses = array(_INT)
        self._opcodes = array(_INT)
        self._classes = array(_INT)
        self._bits = bytearray()
        self._count = 0

    def _bounds(self) -> Tuple[int, int]:
        return 0, self._count

    def record(self, address: int, opcode: int, receiver_class: int,
               dispatched: bool = True) -> None:
        """Append one event as raw ints (the hot emitter path)."""
        n = self._count
        if not n & 7:
            self._bits.append(0)
        if dispatched:
            self._bits[n >> 3] |= 1 << (n & 7)
        self._addresses.append(address)
        self._opcodes.append(opcode)
        self._classes.append(receiver_class)
        self._count = n + 1

    def append(self, event: "_events.TraceEvent") -> None:
        """Legacy emitter compatibility: append one TraceEvent."""
        self.record(event.address, event.opcode, event.receiver_class,
                    event.dispatched)

    def extend(self, events, address_offset: int = 0) -> None:
        """Append a whole trace, optionally rebasing its addresses.

        Columnar sources extend column-to-column (bulk array extends
        plus bitset merging via the dispatched-index view); other
        iterables fall back to per-event appends.
        """
        if isinstance(events, _ColumnarSequence):
            if isinstance(events, MappedTrace):
                # The bulk column extends below read events._columns
                # directly; force the deferred CRC checks first so a
                # corrupt mapped block cannot be copied silently.
                events._verify_all()
            start, stop = events._bounds()
            added = stop - start
            if not added:
                return
            n0 = self._count
            if address_offset:
                self._addresses.extend(
                    value + address_offset for value in events.addresses())
            else:
                self._addresses.extend(events._addresses[start:stop])
            self._opcodes.extend(events._opcodes[start:stop])
            self._classes.extend(events._classes[start:stop])
            total = n0 + added
            need = (total + 7) >> 3
            if len(self._bits) < need:
                self._bits.extend(bytes(need - len(self._bits)))
            bits = self._bits
            for index in events.dispatched_indices():
                i = n0 + index
                bits[i >> 3] |= 1 << (i & 7)
            self._count = total
        else:
            for event in events:
                self.record(event.address + address_offset, event.opcode,
                            event.receiver_class, event.dispatched)

    def snapshot(self) -> Trace:
        """An immutable Trace over the columns recorded so far."""
        return Trace(self._addresses, self._opcodes, self._classes,
                     self._bits, 0, self._count)


def as_trace(events) -> Trace:
    """Coerce any event source to a columnar :class:`Trace`.

    A Trace passes through untouched; a builder snapshots (no copy);
    anything else (a legacy event list, a generator) is packed in one
    pass.
    """
    if isinstance(events, Trace):
        return events
    if isinstance(events, TraceBuilder):
        return events.snapshot()
    return Trace.from_events(events)


#: Convenience alias for annotations at call sites that accept both.
EventSource = Union[Trace, TraceBuilder, List["_events.TraceEvent"],
                    Sequence]
