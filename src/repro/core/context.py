"""Contexts: fixed 32-word activation records (sections 2.3 and 4).

Layout (figure 8)::

    word 0   RCP   link to the sending context (an object pointer)
    word 1   RIP   return instruction pointer (method + offset)
    word 2   arg0  where to store the result (an effective address)
    word 3   arg1  receiver of the message
    word 4.. arg2..argN, then temporaries

Operand descriptors address slots starting at arg0, so operand offset
``k`` is physical word ``k + HEADER_WORDS``.

Contexts are all the same size so a single free list manages the pool;
with the free-list head in the FP register an allocation or free is one
memory reference.  Methods needing more than 32 words take the overflow
from the ordinary heap (tracked here for the TAB-CTX size-distribution
claim: for C, 90% of frames fit 32 words; Smalltalk methods are
smaller).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import FreeListExhausted
from repro.memory.fpa import FPAddress
from repro.objects.heap import ObjectHeap
from repro.objects.model import ObjectClass

#: Total context size in words (section 2.3: "we chose a size of 32 words").
CONTEXT_WORDS = 32
#: Words reserved for the linkage header (RCP, RIP).
HEADER_WORDS = 2

#: Physical word indices of the named slots.
RCP_SLOT = 0
RIP_SLOT = 1
ARG0_SLOT = 2   # result pointer == operand offset 0
ARG1_SLOT = 3   # receiver       == operand offset 1


def operand_slot(offset: int) -> int:
    """Physical context word for an operand-descriptor offset."""
    return offset + HEADER_WORDS


@dataclass
class ContextPoolStats:
    """Free-list traffic counters."""

    allocated: int = 0
    freed: int = 0
    refills: int = 0
    high_water: int = 0
    overflow_allocations: int = 0   # frames that spilled to the heap


class ContextPool:
    """The free list of contexts, headed by the FP register.

    A pool pre-populates itself with heap-allocated context objects in
    batches; ``allocate`` pops the head (one memory reference in the
    COM) and ``free`` pushes.  Context objects are allocated through the
    heap with the context kind so allocation statistics see them.
    """

    def __init__(
        self,
        heap: ObjectHeap,
        context_class: ObjectClass,
        batch: int = 32,
        limit: Optional[int] = None,
    ) -> None:
        self.heap = heap
        self.context_class = context_class
        self.batch = batch
        self.limit = limit
        self.stats = ContextPoolStats()
        self._free: List[FPAddress] = []
        self._live = 0

    def _refill(self) -> None:
        if self.limit is not None:
            remaining = self.limit - (self._live + len(self._free))
            count = min(self.batch, remaining)
            if count <= 0:
                raise FreeListExhausted("context pool limit reached")
        else:
            count = self.batch
        self.stats.refills += 1
        for _ in range(count):
            address = self.heap.allocate_context(self.context_class, CONTEXT_WORDS)
            self._free.append(address)

    def allocate(self) -> FPAddress:
        """Pop a context off the free list (refilling when empty)."""
        if not self._free:
            self._refill()
        address = self._free.pop()
        live = self._live = self._live + 1
        stats = self.stats
        stats.allocated += 1
        if live > stats.high_water:
            stats.high_water = live
        return address

    def free(self, address: FPAddress) -> None:
        """Push a context back on the free list."""
        self._free.append(address)
        self._live -= 1
        self.stats.freed += 1

    def note_overflow(self) -> None:
        """A method needed more than CONTEXT_WORDS words of frame."""
        self.stats.overflow_allocations += 1

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def live_count(self) -> int:
        return self._live


@dataclass
class FrameSizeHistogram:
    """Distribution of method frame sizes, for the 32-word design check.

    The paper justifies 32-word contexts with frame-size measurements
    (90% of C frames < 32 words; Smalltalk methods smaller still).  The
    compiler reports every method's frame need here.
    """

    counts: Dict[int, int] = field(default_factory=dict)

    def record(self, words: int) -> None:
        self.counts[words] = self.counts.get(words, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction_fitting(self, budget: int = CONTEXT_WORDS) -> float:
        """Fraction of recorded frames that fit in ``budget`` words."""
        if self.total == 0:
            return 0.0
        fitting = sum(n for size, n in self.counts.items() if size <= budget)
        return fitting / self.total

    def percentile(self, p: float) -> int:
        """Smallest frame size covering fraction ``p`` of methods."""
        if not 0 < p <= 1 or self.total == 0:
            return 0
        running = 0
        for size in sorted(self.counts):
            running += self.counts[size]
            if running / self.total >= p:
                return size
        return max(self.counts)
