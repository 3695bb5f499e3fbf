"""Segment descriptors and per-team segment tables (paper section 3.1).

Each team space owns a segment descriptor table indexed by the
concatenation of the virtual address's exponent and segment fields.
Each entry holds three fields: *base* (absolute address), *length*
(words) and *object class* (16-bit class tag).  We add a *forward*
field to implement the aliasing trap of section 2.2: when an object is
grown, the stale descriptor keeps its old bounds and names the new
pointer that replaces it.

Segment table entries are kept only for segments actually allocated
(sparse dict), exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import InvalidAddress, SegmentFault
from repro.memory.fpa import AddressFormat, FPAddress

#: A segment name: (exponent, segment field).
SegmentName = Tuple[int, int]


@dataclass
class SegmentDescriptor:
    """One entry of a segment descriptor table.

    ``base`` is the absolute address of the segment's first word;
    ``length`` its current size in words (<= the span of the naming
    pointer); ``class_tag`` the class of the object stored there.
    ``forward`` is None for live descriptors, or the replacement
    :class:`FPAddress` once the object has been grown out of this
    name's range.
    """

    base: int
    length: int
    class_tag: int
    forward: Optional[FPAddress] = None


class SegmentTable:
    """The segment descriptor table of one team space.

    Allocation of absolute addresses is delegated to the caller (the
    MMU / absolute memory); the table only resolves names.
    """

    def __init__(self, fmt: AddressFormat, team: int = 0) -> None:
        self.fmt = fmt
        self.team = team
        self._entries: Dict[SegmentName, SegmentDescriptor] = {}
        #: Bump cursor per exponent for fresh segment-field allocation.
        self._next_field: Dict[int, int] = {}

    # -- naming ------------------------------------------------------------

    def allocate_name(self, exponent: int) -> SegmentName:
        """Reserve a fresh, never-used segment name in size class ``exponent``."""
        limit = self.fmt.segment_names_for_exponent(exponent)
        cursor = self._next_field.get(exponent, 0)
        while cursor < limit and (exponent, cursor) in self._entries:
            cursor += 1
        if cursor >= limit:
            raise InvalidAddress(
                f"segment name space exhausted for exponent {exponent}"
            )
        self._next_field[exponent] = cursor + 1
        return (exponent, cursor)

    def install(self, name: SegmentName, descriptor: SegmentDescriptor) -> None:
        """Bind a name to a descriptor (aliases may share descriptors)."""
        exponent, fieldval = name
        if fieldval >= self.fmt.segment_names_for_exponent(exponent):
            raise InvalidAddress(f"segment name {name} out of range")
        self._entries[name] = descriptor

    def descriptor(self, name: SegmentName) -> SegmentDescriptor:
        """Resolve a name; raises :class:`SegmentFault` when unmapped."""
        try:
            return self._entries[name]
        except KeyError:
            raise SegmentFault(
                f"team {self.team}: no descriptor for segment {name}"
            ) from None

    def descriptor_for(self, address: FPAddress) -> SegmentDescriptor:
        """Resolve the descriptor named by a virtual address."""
        return self.descriptor(address.segment_name)

    def address_for(self, name: SegmentName, offset: int = 0) -> FPAddress:
        """Build the virtual address for a (name, offset) pair."""
        exponent, fieldval = name
        return self.fmt.make(exponent, fieldval, offset)
