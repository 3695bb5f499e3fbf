"""Context recycling: the LIFO/non-LIFO split of section 2.3.

The paper's storage-management story (section 2.3):

* contexts are fixed-size and recycled through a free list;
* the ~85% of contexts that are LIFO are explicitly freed on procedure
  exit, never reaching the collector;
* the remaining non-LIFO contexts, and ordinary dead objects, are
  reclaimed by a garbage collector running in absolute space.

No collector is modelled: the machine frees LIFO contexts on return
and leaves the rest allocated.  This module provides the
:class:`ContextRecycler` that tracks the LIFO/non-LIFO split so the
TAB-CTX experiment can report it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set


@dataclass
class ContextRecycleStats:
    """The LIFO/non-LIFO context split of section 2.3."""

    allocated: int = 0
    freed_lifo: int = 0
    returned_non_lifo: int = 0   # captured contexts left for the GC

    @property
    def total_returns(self) -> int:
        return self.freed_lifo + self.returned_non_lifo

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
