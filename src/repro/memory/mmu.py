"""The three-level addressing engine (paper section 3.1, figure 3).

Ties together the three address spaces:

* **virtual** space -- per-team floating point capability names,
  resolved through the team's segment table (accelerated by the ATLB);
* **absolute** space -- the global object store, where allocation, the
  alias/grow mechanism and garbage collection operate;
* **physical** space -- a hierarchy of devices, each a cache of
  absolute space (residency/latency model only).

The MMU also implements the section-2.2 alias protocol: growing an
object beyond its pointer's exponent range allocates a new name with a
larger exponent, points both descriptors at the (possibly relocated)
segment and arms a forward on the old descriptor so stale pointers trap
and get rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import AliasTrap, BoundsTrap, ProtectionTrap, SegmentFault
from repro.memory.absolute import AbsoluteMemory
from repro.memory.atlb import ATLB
from repro.memory.fpa import AddressFormat, FPAddress, address_format
from repro.memory.physical import MemoryHierarchy
from repro.memory.segments import SegmentDescriptor, SegmentTable
from repro.memory.tags import Word


@dataclass
class TranslationResult:
    """The outcome of a virtual-to-absolute translation."""

    absolute: int
    descriptor: SegmentDescriptor
    atlb_hit: bool


class MMU:
    """Address translation and object allocation for a COM system.

    One MMU serves any number of team spaces.  A client (the machine,
    or a test) creates teams, allocates objects inside them, and reads
    or writes words through virtual addresses; the MMU performs bounds
    checking, alias forwarding, ATLB caching and, optionally, physical
    residency modelling.
    """

    def __init__(
        self,
        fmt: AddressFormat = None,
        *,
        arena_words: int = 1 << 24,
        atlb_size: int = 64,
        atlb_associativity=2,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> None:
        self.fmt = fmt or address_format(36)
        self.absolute = AbsoluteMemory(arena_words)
        self.atlb = ATLB(atlb_size, atlb_associativity)
        self.hierarchy = hierarchy
        self._teams: Dict[int, SegmentTable] = {}
        self.alias_traps_taken = 0
        self.bounds_faults = 0

    # -- team management ------------------------------------------------------

    def create_team(self, team: int) -> SegmentTable:
        """Create (or return) the segment table for a team space."""
        table = self._teams.get(team)
        if table is None:
            table = SegmentTable(self.fmt, team)
            self._teams[team] = table
        return table

    def team_table(self, team: int) -> SegmentTable:
        try:
            return self._teams[team]
        except KeyError:
            raise SegmentFault(f"no such team space: {team}") from None

    # -- allocation -------------------------------------------------------------

    def allocate_object(
        self, team: int, size: int, class_tag: int
    ) -> FPAddress:
        """Allocate a new object and return its virtual address.

        The object's segment is sized up to the next power of two and
        named with the smallest exponent that covers ``size``.
        """
        table = self.create_team(team)
        exponent = self.fmt.exponent_for_size(max(size, 1))
        name = table.allocate_name(exponent)
        allocation = self.absolute.allocate(max(size, 1))
        descriptor = SegmentDescriptor(
            base=allocation.base, length=max(size, 1), class_tag=class_tag
        )
        table.install(name, descriptor)
        return table.address_for(name)

    def free_object(self, team: int, address: FPAddress) -> None:
        """Release an object and all the MMU state naming it."""
        table = self.team_table(team)
        descriptor = table.descriptor_for(address)
        table.release(address.segment_name)
        self.atlb.invalidate_segment(team, address.segment_name)
        if descriptor.forward is None:
            self.absolute.free(descriptor.base)

    def share_object(
        self, from_team: int, address: FPAddress, to_team: int,
        *, read: bool = True, write: bool = True,
    ) -> FPAddress:
        """Alias an object into another team space (capability transfer).

        The new team receives its own name (and possibly different
        capability bits) for the same absolute segment.
        """
        source = self.team_table(from_team).descriptor_for(address)
        dest = self.create_team(to_team)
        name = dest.allocate_name(address.exponent)
        dest.install(
            name,
            SegmentDescriptor(
                base=source.base,
                length=source.length,
                class_tag=source.class_tag,
                capability_read=read,
                capability_write=write,
            ),
        )
        return dest.address_for(name)

    # -- growing / aliasing -------------------------------------------------------

    def grow_object(
        self, team: int, address: FPAddress, new_size: int
    ) -> FPAddress:
        """Grow an object, re-aliasing it when its exponent range overflows.

        Returns the address through which the full object is reachable:
        the same address when the growth fit, otherwise a new address
        with a larger exponent.  The old name stays valid within its old
        bounds and forwards beyond them (paper section 2.2).
        """
        table = self.team_table(team)
        descriptor = table.descriptor_for(address)
        if descriptor.forward is not None:
            # Growing through a stale pointer: chase the forward first.
            return self.grow_object(team, descriptor.forward, new_size)
        if new_size <= address.span:
            allocation = self.absolute.grow(descriptor.base, new_size)
            if allocation.base != descriptor.base:
                descriptor.base = allocation.base
            descriptor.length = new_size
            return address
        # Out of exponent range: allocate a bigger name.
        new_exponent = self.fmt.exponent_for_size(new_size)
        new_name = table.allocate_name(new_exponent)
        allocation = self.absolute.grow(descriptor.base, new_size)
        new_descriptor = SegmentDescriptor(
            base=allocation.base,
            length=new_size,
            class_tag=descriptor.class_tag,
            capability_read=descriptor.capability_read,
            capability_write=descriptor.capability_write,
        )
        table.install(new_name, new_descriptor)
        new_address = table.address_for(new_name)
        # Old descriptor now points at the new segment, clipped to the
        # old exponent's span, and forwards beyond it.
        descriptor.base = allocation.base
        descriptor.length = min(descriptor.length, address.span)
        descriptor.forward = new_address
        self.atlb.invalidate_segment(team, address.segment_name)
        return new_address

    def forward_of(self, team: int, address: FPAddress) -> Optional[FPAddress]:
        """The replacement address for a stale pointer, if any."""
        descriptor = self.team_table(team).descriptor_for(address)
        return descriptor.forward

    # -- translation ---------------------------------------------------------------

    def _checked(self, team: int, address: FPAddress, write: bool
                 ) -> Tuple[SegmentDescriptor, int, bool]:
        """The lookup and checks behind every translation.

        Probes the ATLB (walking the team's segment table and filling
        the ATLB on a miss), then makes the capability and bounds
        checks.  Returns ``(descriptor, offset, atlb_hit)``.
        """
        # address.segment_name and address.offset, inline.
        exponent = address.exponent
        mantissa = address.mantissa
        name = (exponent, mantissa >> exponent)
        descriptor = self.atlb.lookup(team, name)
        atlb_hit = descriptor is not None
        if descriptor is None:
            table = self.team_table(team)
            descriptor = table.descriptor_for(address)
            self.atlb.fill(team, name, descriptor)
        if write and not descriptor.capability_write:
            raise ProtectionTrap(f"no write capability through {address!r}")
        if not write and not descriptor.capability_read:
            raise ProtectionTrap(f"no read capability through {address!r}")
        offset = mantissa & ((1 << exponent) - 1)
        if not 0 <= offset < descriptor.length:     # descriptor.contains
            if descriptor.forward is not None:
                self.alias_traps_taken += 1
                raise AliasTrap(
                    f"stale pointer {address!r}: forwarded",
                    old_address=address,
                    new_address=descriptor.forward.with_offset(0).step(0),
                )
            self.bounds_faults += 1
            raise BoundsTrap(
                f"offset {offset} out of bounds for {address!r} "
                f"(length {descriptor.length})",
                segment=descriptor, offset=offset, length=descriptor.length,
            )
        return descriptor, offset, atlb_hit

    def translate(
        self, team: int, address: FPAddress, *, write: bool = False
    ) -> TranslationResult:
        """Virtual -> absolute translation with ATLB and alias handling.

        Raises :class:`AliasTrap` (with the forward address attached)
        when a stale pointer is used out of bounds -- callers emulating
        the trap handler should retry with ``trap.new_address``.
        """
        descriptor, offset, atlb_hit = self._checked(team, address, write)
        return TranslationResult(descriptor.base + offset, descriptor, atlb_hit)

    def translate_absolute(
        self, team: int, address: FPAddress, *, write: bool = False
    ) -> int:
        """:meth:`translate`'s absolute address alone.

        The same ATLB lookup and fill, the same checks and the same
        traps, without building a :class:`TranslationResult` (word
        reads and writes, and the machine's context allocation and
        return path).
        """
        descriptor, offset, _ = self._checked(team, address, write)
        return descriptor.base + offset

    def _resolve(self, team: int, address: FPAddress, write: bool) -> int:
        """The absolute address, following one level of alias forward.

        This models the trap handler: the faulting access is retried
        through the new segment name after the pointer rewrite.
        """
        try:
            return self.translate_absolute(team, address, write=write)
        except AliasTrap as trap:
            forwarded = trap.new_address.with_offset(0)
            retry = forwarded.step(address.offset) if address.offset < forwarded.span \
                else None
            if retry is None:
                raise
            return self.translate_absolute(team, retry, write=write)

    # -- word access -------------------------------------------------------------------

    def read(self, team: int, address: FPAddress) -> Word:
        """Read one word through a virtual address."""
        absolute = self._resolve(team, address, write=False)
        if self.hierarchy is not None:
            self.hierarchy.access(absolute, write=False)
        return self.absolute.read(absolute)

    def write(self, team: int, address: FPAddress, word: Word) -> None:
        """Write one word through a virtual address."""
        absolute = self._resolve(team, address, write=True)
        if self.hierarchy is not None:
            self.hierarchy.access(absolute, write=True)
        self.absolute.write(absolute, word)

    def class_of(self, team: int, address: FPAddress) -> int:
        """The 16-bit class tag of the object named by ``address``."""
        name = address.segment_name
        descriptor = self.atlb.lookup(team, name)
        if descriptor is None:
            descriptor = self.team_table(team).descriptor_for(address)
            self.atlb.fill(team, name, descriptor)
        return descriptor.class_tag
