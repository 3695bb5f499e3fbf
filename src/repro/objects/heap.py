"""The object heap: instance allocation over the MMU, with statistics.

Sections 2.3 and 5 of the paper lean on measured allocation behaviour
("85% of all object allocations and deallocations involve contexts");
this heap therefore buckets every allocation by kind so the TAB-CTX
experiment can reproduce those ratios on our workloads.  Objects are
never freed here: contexts recycle through the context pool, and no
collector is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.fpa import FPAddress
from repro.memory.mmu import MMU
from repro.memory.tags import Word
from repro.objects.model import ObjectClass


@dataclass
class AllocationStats:
    """Allocation counters bucketed by object kind."""

    allocations: Dict[str, int] = field(default_factory=dict)
    words_allocated: int = 0

    def note_allocation(self, kind: str, size: int) -> None:
        self.allocations[kind] = self.allocations.get(kind, 0) + 1
        self.words_allocated += size

    @property
    def total_allocations(self) -> int:
        return sum(self.allocations.values())


class ObjectHeap:
    """Allocates class instances in a team's virtual space.

    The instance's class is recorded in its segment descriptor (the
    MMU's ``class_of`` provides it), so no header word is burned inside
    the object -- matching the COM where the descriptor carries the
    object class field (figure 3).
    """

    #: Allocation-kind label used for contexts throughout the package.
    CONTEXT_KIND = "context"

    def __init__(self, mmu: MMU, team: int = 0) -> None:
        self.mmu = mmu
        self.team = team
        mmu.create_team(team)
        self.stats = AllocationStats()

    # -- allocation --------------------------------------------------------

    def allocate(
        self, cls: ObjectClass, size: Optional[int] = None, kind: str = "object"
    ) -> FPAddress:
        """Allocate an instance of ``cls`` with ``size`` words of fields."""
        if size is None:
            size = cls.instance_size
        size = max(size, 1)
        address = self.mmu.allocate_object(self.team, size, cls.class_tag)
        self.stats.note_allocation(kind, size)
        return address

    def allocate_context(self, cls: ObjectClass, size: int) -> FPAddress:
        """Allocate a context object (bucketed as such for TAB-CTX)."""
        return self.allocate(cls, size, kind=self.CONTEXT_KIND)

    # -- field access -------------------------------------------------------

    def load(self, address: FPAddress, index: int) -> Word:
        """Read field ``index`` of the object at ``address`` (``at:``)."""
        return self.mmu.read(self.team, address.base().step(index))

    def store(self, address: FPAddress, index: int, word: Word) -> None:
        """Write field ``index`` of the object (``at:put:``)."""
        self.mmu.write(self.team, address.base().step(index), word)

    def class_tag_of(self, address: FPAddress) -> int:
        return self.mmu.class_of(self.team, address)

    def pointer_to(self, address: FPAddress) -> Word:
        """A tagged pointer word naming the object (a capability)."""
        return Word.pointer(address.packed, self.class_tag_of(address))
