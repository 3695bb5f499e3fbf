"""Columnar (struct-of-arrays) trace storage.

Section 5 records three things for each interpreted instruction: its
address, its opcode and the class on top of the stack.  Every producer
(the Fith interpreter, the COM, the workload generators, the store)
records exactly that, plus whether the instruction went through
translation, as four parallel columns:

* ``address``, ``opcode``, ``receiver_class`` -- one ``array('i')``
  each (4-byte signed words; every event field fits);
* ``dispatched`` -- a bitset (one bit per event, LSB-first within
  each byte).

Three types:

* :class:`Trace` -- an immutable columnar view.  Consumers read the
  columns directly (:meth:`Trace.addresses`, :meth:`Trace.opcodes`,
  :meth:`Trace.receiver_classes`) and the dispatched views
  (:meth:`Trace.dispatched_indices`, computed once per view and
  cached, and :meth:`Trace.dispatched_count`).  Slicing with step 1
  is a zero-copy view onto the same arrays; two traces are equal when
  their payloads are.
* :class:`TraceBuilder` -- the mutable emitter the interpreters
  record into: :meth:`TraceBuilder.record` appends four ints, no
  object construction; :meth:`TraceBuilder.snapshot` hands the
  columns to a :class:`Trace` without copying.
* the **binary payload** (:meth:`Trace.to_bytes` /
  :meth:`Trace.from_bytes`) -- the trace store's on-disk format,
  version 3.  The payload is the columns, verbatim: header, then the
  three int columns little-endian and the bitset, each block followed
  by a CRC32 trailer of its on-disk bytes.  Loading, which is how
  the trace store reads every stored trace, copies each block once
  into its column (plus four CRC checks); no per-event work of any
  kind.  A recognized payload that fails a check raises
  :class:`~repro.errors.StoreCorruption`; bytes in a legacy or
  foreign layout raise :class:`~repro.errors.PayloadFormatError`.
"""

from __future__ import annotations

import operator
import sys
import zlib
from array import array
from itertools import islice, repeat
from typing import Optional, Tuple

from repro.errors import PayloadFormatError, StoreCorruption

#: 4-byte signed column words (every event field fits); fall
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
#: ``bytes.translate`` tables moving a 0/1 flag byte to bit ``j``.
_FLAG_TO_BIT = tuple(bytes((value & 1) << j for value in range(256))
                     for j in range(8))

try:
    _popcount = int.bit_count
except AttributeError:  # Python < 3.10
    def _popcount(value: int) -> int:
        return bin(value).count("1")


def _bits_as_int(bits, start: int, stop: int) -> int:
    """Bits ``start``..``stop`` of an LSB-first bitset as one int
    (bit 0 is event ``start``); a bulk read, no per-event work."""
    if stop <= start:
        return 0
    value = int.from_bytes(bits[start >> 3:(stop + 7) >> 3], "little")
    return value >> (start & 7) & ((1 << (stop - start)) - 1)


def _pack_flags(flags: bytes) -> int:
    """The int whose bit ``k`` is ``flags[k]`` (one 0/1 byte per
    event): eight strided slices, each moved to its bit and OR-ed."""
    packed = 0
    for j in range(8):
        packed |= int.from_bytes(flags[j::8].translate(_FLAG_TO_BIT[j]),
                                 "little")
    return packed


class _Columns:
    """Column access shared by Trace and TraceBuilder.

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
        """The dispatched bit of one event."""
        start, stop = self._bounds()
        if index < 0:
            index += stop - start
        if not 0 <= index < stop - start:
            raise IndexError("trace index out of range")
        i = start + index
        return bool(self._bits[i >> 3] & (1 << (i & 7)))

    def __getitem__(self, index) -> "Trace":
        """A zero-copy view of a step-1 slice of the events.

        Single events are not addressable: read the columns instead.
        """
        if not isinstance(index, slice) or index.step not in (None, 1):
            raise TypeError("a trace takes only step-1 slices; read "
                            "events through its column accessors")
        start, stop = self._bounds()
        lo, hi, _ = index.indices(stop - start)
        return Trace(self._addresses, self._opcodes, self._classes,
                     self._bits, start + lo, start + max(lo, hi))

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Columns):
            return NotImplemented
        return len(self) == len(other) \
            and self.to_bytes() == other.to_bytes()

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

        The view every dispatched-only hot loop iterates; computed
        once and cached on immutable views.
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

    def dispatched_bitset(self):
        """``(bitset, start, stop)``: the LSB-first dispatched bitset
        and this view's event bounds in it, for readers that unpack the
        bits in bulk."""
        start, stop = self._bounds()
        return self._bits, start, stop

    def dispatched_count(self, stop: Optional[int] = None) -> int:
        """How many of the first ``stop`` events are dispatched.

        ``stop=None`` counts the whole view.  Counts the bits of the
        bitset directly; no index array is built.
        """
        start, end = self._bounds()
        if stop is not None:
            end = start + min(max(stop, 0), end - start)
        return _popcount(_bits_as_int(self._bits, start, end))

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
        """Column-level summary.

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
        # The bit slice drops stray bits of events past the view's stop
        # (a sliced view, or a builder that kept recording after a
        # snapshot): the payload of a trace depends only on its own
        # events.
        blocks.append(_bits_as_int(self._bits, start, stop).to_bytes(
            (n + 7) >> 3, "little"))
        header = _MAGIC + bytes([FORMAT_VERSION]) + n.to_bytes(4, "little")
        parts = [header]
        for block in blocks:
            parts.append(block)
            parts.append(zlib.crc32(block).to_bytes(_CRC_BYTES, "little"))
        return b"".join(parts)


class Trace(_Columns):
    """An immutable columnar trace view.

    Constructed from columns directly, from a stored payload
    (:meth:`from_bytes`), by a builder's
    :meth:`~TraceBuilder.snapshot`, or by slicing another
    trace/builder (a zero-copy view onto the same column arrays).
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

    @staticmethod
    def _check_structure(blob) -> int:
        """Validate a payload's header and total length; the event
        count on success."""
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

        The blocks are sliced out of one ``memoryview`` over *blob*,
        so each block's bytes are copied once, into its column.

        Raises :class:`~repro.errors.PayloadFormatError` for bytes
        that are not a current-format payload (wrong magic, legacy
        v1/v2 version byte, no room for a header) -- the store reads
        those as clean misses -- and
        :class:`~repro.errors.StoreCorruption` when a recognized v3
        payload fails its length or CRC32 checks, which the store
        routes to quarantine.
        """
        count = cls._check_structure(blob)
        view = memoryview(blob)
        offset = _HEADER
        blocks = []
        for name, size in cls._block_layout(count):
            block = view[offset:offset + size]
            offset += size
            stored = int.from_bytes(
                view[offset:offset + _CRC_BYTES], "little")
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


class TraceBuilder(_Columns):
    """The columnar recorder the instrumented interpreters append to.

    :meth:`record` appends one event -- three column appends and a
    bit set, no object construction; :meth:`partial_recorders` and
    :meth:`complete` record an event with two appends and fill the
    rest of a run's events in bulk.  The builder reads like a trace
    (the same column accessors); :meth:`snapshot` produces an
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

    def extend(self, events: _Columns, address_offset: int = 0) -> None:
        """Append a whole trace (or builder), optionally rebasing its
        addresses.

        Column-to-column: bulk array extends (a rebase maps
        ``operator.add`` over a zero-copy view of the address column)
        and the source's bits, read as one int, merged into the
        bitset.
        """
        start, stop = events._bounds()
        if stop == start:
            return
        n0 = self._count
        if address_offset:
            self._addresses.extend(map(operator.add, events.addresses(),
                                       repeat(address_offset)))
        else:
            self._addresses.extend(events._addresses[start:stop])
        self._opcodes.extend(events._opcodes[start:stop])
        self._classes.extend(events._classes[start:stop])
        self._merge_bits(n0, _bits_as_int(events._bits, start, stop),
                         stop - start)

    def partial_recorders(self):
        """``(address append, receiver-class append)``: the emitter for
        machines whose opcode and dispatched flag are functions of the
        instruction address (the Fith interpreter: each address names
        one plan entry).

        Events appended through these two calls join the builder when
        :meth:`complete` fills in their opcodes and dispatched bits.
        """
        return self._addresses.append, self._classes.append

    def complete(self, opcode_at, dispatched_at) -> None:
        """Finish the events appended through :meth:`partial_recorders`
        since the last call, in bulk: each event's opcode is
        ``opcode_at[address]`` and its dispatched bit
        ``dispatched_at[address]`` (0 or 1).

        An event is complete once its receiver class is appended; an
        address appended without one is dropped.
        """
        n0 = self._count
        count = len(self._classes)
        del self._addresses[count:]
        if count == n0:
            return
        addresses = self._addresses
        self._opcodes.extend(map(opcode_at.__getitem__,
                                 islice(addresses, n0, None)))
        flags = bytes(map(dispatched_at.__getitem__,
                          islice(addresses, n0, None)))
        self._merge_bits(n0, _pack_flags(flags), count - n0)

    def _merge_bits(self, n0: int, value: int, added: int) -> None:
        """Place ``added`` dispatched bits (``value``, bit 0 first) at
        event ``n0`` and count the events in.  The builder's last byte
        may be partly filled: the new bits shift up past its
        ``n0 & 7`` used bits."""
        lo = n0 >> 3
        shift = n0 & 7
        bits = self._bits
        if shift:
            value = value << shift | bits[lo]
        total = n0 + added
        bits[lo:] = value.to_bytes(((total + 7) >> 3) - lo, "little")
        self._count = total

    def snapshot(self) -> Trace:
        """An immutable Trace over the columns recorded so far."""
        return Trace(self._addresses, self._opcodes, self._classes,
                     self._bits, 0, self._count)

