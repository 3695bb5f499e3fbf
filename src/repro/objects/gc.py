"""Garbage collection and context recycling.

The paper's storage-management story (section 2.3):

* contexts are fixed-size and recycled through a free list;
* the ~85% of contexts that are LIFO are explicitly freed on procedure
  exit, never reaching the collector;
* the remaining non-LIFO contexts, and ordinary dead objects, are
  reclaimed by a garbage collector running in absolute space.

This module provides a mark-sweep collector over an
:class:`~repro.objects.heap.ObjectHeap` plus a
:class:`ContextRecycler` that tracks the LIFO/non-LIFO split so the
TAB-CTX experiment can report it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set

from repro.errors import SegmentFault, BoundsTrap
from repro.memory.fpa import FPAddress
from repro.memory.tags import Tag
from repro.objects.heap import ObjectHeap


@dataclass
class GCStats:
    """Counters for one or more collection cycles."""

    collections: int = 0
    objects_marked: int = 0
    objects_swept: int = 0
    contexts_swept: int = 0
    words_scanned: int = 0


class MarkSweepCollector:
    """A stop-the-world mark-sweep collector over one heap.

    Roots are packed virtual addresses (the machine registers CP, NCP
    and any client-registered globals).  Marking follows object-pointer
    words; sweeping frees every unmarked live object.
    """

    def __init__(self, heap: ObjectHeap) -> None:
        self.heap = heap
        self.stats = GCStats()
        self._extra_roots: Set[int] = set()

    def add_root(self, address: FPAddress) -> None:
        """Pin an object (and its transitive closure) as always-live."""
        self._extra_roots.add(address.packed)

    def remove_root(self, address: FPAddress) -> None:
        self._extra_roots.discard(address.packed)

    def _object_size(self, address: FPAddress) -> int:
        table = self.heap.mmu.team_table(self.heap.team)
        return table.descriptor_for(address).length

    def mark(self, roots: Iterable[int]) -> Set[int]:
        """Mark phase: returns the set of reachable packed addresses."""
        fmt = self.heap.mmu.fmt
        live = set(self.heap.live_objects())
        marked: Set[int] = set()
        worklist: List[int] = [r for r in roots if r in live]
        worklist.extend(r for r in self._extra_roots if r in live)
        while worklist:
            packed = worklist.pop()
            if packed in marked:
                continue
            marked.add(packed)
            self.stats.objects_marked += 1
            address = fmt.from_packed(packed)
            try:
                size = self._object_size(address)
            except SegmentFault:
                continue
            for index in range(size):
                self.stats.words_scanned += 1
                try:
                    word = self.heap.load(address, index)
                except (SegmentFault, BoundsTrap):
                    break
                if word.tag is Tag.OBJECT_POINTER and word.value in live:
                    if word.value not in marked:
                        worklist.append(word.value)
        return marked

    def collect(self, roots: Iterable[int] = ()) -> int:
        """One full collection; returns the number of objects freed."""
        self.stats.collections += 1
        marked = self.mark(roots)
        victims = [packed for packed in self.heap.live_objects()
                   if packed not in marked]
        fmt = self.heap.mmu.fmt
        freed = 0
        for packed in victims:
            address = fmt.from_packed(packed)
            if self.heap.kind_of(address) == ObjectHeap.CONTEXT_KIND:
                self.stats.contexts_swept += 1
            self.heap.free(address)
            self.stats.objects_swept += 1
            freed += 1
        return freed


@dataclass
class ContextRecycleStats:
    """The LIFO/non-LIFO context split of section 2.3."""

    allocated: int = 0
    freed_lifo: int = 0
    returned_non_lifo: int = 0   # captured contexts left for the GC
    freed_by_gc: int = 0

    @property
    def total_returns(self) -> int:
        return self.freed_lifo + self.returned_non_lifo

    @property
    def total_freed(self) -> int:
        return self.freed_lifo + self.freed_by_gc

    @property
    def lifo_fraction(self) -> float:
        """Fraction of returned contexts recycled on the LIFO fast path.

        The paper cites 85% of contexts being LIFO.
        """
        if self.total_returns == 0:
            return 0.0
        return self.freed_lifo / self.total_returns


class ContextRecycler:
    """Tracks which contexts die LIFO and which must wait for the GC.

    A context is LIFO if, at the moment its method returns, no other
    live reference to it exists (no block closure captured it and it was
    never stored into the heap).  The machine reports returns and
    capture events here; the recycler answers "free now or leave for
    GC?" and keeps the statistics.
    """

    def __init__(self) -> None:
        self.stats = ContextRecycleStats()
        self._captured: Set[int] = set()

    def note_allocation(self, packed_address: int) -> None:
        self.stats.allocated += 1

    def note_capture(self, packed_address: int) -> None:
        """A reference to the context escaped (block, heap store, debugger)."""
        self._captured.add(packed_address)

    def on_return(self, packed_address: int) -> bool:
        """Called at method return; True means the context may be freed now."""
        if packed_address in self._captured:
            self.stats.returned_non_lifo += 1
            return False
        self.stats.freed_lifo += 1
        return True

    def on_gc_free(self, packed_address: int) -> None:
        """The collector reclaimed a captured (non-LIFO) context."""
        self._captured.discard(packed_address)
        self.stats.freed_by_gc += 1

    def is_captured(self, packed_address: int) -> bool:
        return packed_address in self._captured
