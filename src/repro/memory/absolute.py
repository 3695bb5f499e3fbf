"""Absolute space: the global object store (paper section 3.1).

Absolute space is the single global name space in which every object
lives; object management (allocation, and the relocation that grows an
object) happens here, independent of the per-team virtual names above
it.  The physical devices that would cache it are not modelled.

The store is word-addressed and sparse.  Allocation follows the paper's
alignment rule -- every segment is aligned on an absolute address that
is a multiple of its (power-of-two) size, so virtual-to-absolute
translation needs no adder -- via a binary buddy allocator, which
produces exactly such placements and supports recycling freed segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import FreeListExhausted, InvalidAddress
from repro.memory.tags import Word


def _ceil_pow2(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@dataclass
class Allocation:
    """One live allocation in absolute space."""

    base: int
    size: int           # requested size in words
    block_size: int     # power-of-two block actually reserved


class BuddyAllocator:
    """Binary buddy allocator over a word-addressed arena.

    Guarantees every block of size ``2**k`` is aligned on a multiple of
    ``2**k`` -- the paper's segment alignment invariant.
    """

    def __init__(self, arena_words: int) -> None:
        if arena_words <= 0 or arena_words & (arena_words - 1):
            raise InvalidAddress("arena size must be a positive power of two")
        self.arena_words = arena_words
        self._max_order = arena_words.bit_length() - 1
        self._free: List[List[int]] = [[] for _ in range(self._max_order + 1)]
        self._free[self._max_order].append(0)
        self._allocated: Dict[int, int] = {}  # base -> order

    def _order_for(self, size: int) -> int:
        return max(0, _ceil_pow2(max(size, 1)).bit_length() - 1)

    def allocate(self, size: int) -> int:
        """Reserve a block covering ``size`` words; returns its base."""
        order = self._order_for(size)
        if order > self._max_order:
            raise FreeListExhausted(
                f"request for {size} words exceeds arena of {self.arena_words}"
            )
        k = order
        while k <= self._max_order and not self._free[k]:
            k += 1
        if k > self._max_order:
            raise FreeListExhausted(
                f"absolute space exhausted allocating {size} words"
            )
        base = self._free[k].pop()
        while k > order:
            k -= 1
            self._free[k].append(base + (1 << k))
        self._allocated[base] = order
        return base

    def free(self, base: int) -> None:
        """Release a block, coalescing with its buddy where possible."""
        try:
            order = self._allocated.pop(base)
        except KeyError:
            raise InvalidAddress(f"free of unallocated base {base:#x}") from None
        while order < self._max_order:
            buddy = base ^ (1 << order)
            if buddy in self._free[order]:
                self._free[order].remove(buddy)
                base = min(base, buddy)
                order += 1
            else:
                break
        self._free[order].append(base)

    def block_size_at(self, base: int) -> Optional[int]:
        """Size of the live block at ``base``, or None."""
        order = self._allocated.get(base)
        return None if order is None else (1 << order)

    @property
    def free_words(self) -> int:
        return sum(len(blocks) << k for k, blocks in enumerate(self._free))


class AbsoluteMemory:
    """The word-addressed global object store.

    Reads of never-written words return the uninitialized word, matching
    the context cache's block-clear semantics for heap storage faulted
    in fresh.
    """

    def __init__(self, arena_words: int = 1 << 24) -> None:
        self.allocator = BuddyAllocator(arena_words)
        self._words: Dict[int, Word] = {}
        self._allocations: Dict[int, Allocation] = {}
        self.reads = 0
        self.writes = 0
        self._write_watcher = None
        self._free_watcher = None

    # -- watchers -----------------------------------------------------------

    def watch_writes(self, callback) -> None:
        """Invoke ``callback(address)`` after every word write.

        Used by the machine's predecode layer to shoot down decoded
        instruction plans when code memory is overwritten (the software
        analogue of hardware icache coherence on stores).
        """
        self._write_watcher = callback

    def watch_frees(self, callback) -> None:
        """Invoke ``callback(base, block_size)`` when a block is freed."""
        self._free_watcher = callback

    # -- allocation ---------------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """Allocate ``size`` words, aligned per the buddy invariant."""
        base = self.allocator.allocate(size)
        allocation = Allocation(base, size, _ceil_pow2(max(size, 1)))
        self._allocations[base] = allocation
        return allocation

    def free(self, base: int) -> None:
        """Release an allocation and scrub its words."""
        allocation = self._allocations.pop(base, None)
        if allocation is None:
            raise InvalidAddress(f"free of unknown allocation {base:#x}")
        for addr in range(base, base + allocation.block_size):
            self._words.pop(addr, None)
        self.allocator.free(base)
        if self._free_watcher is not None:
            self._free_watcher(base, allocation.block_size)

    def grow(self, base: int, new_size: int) -> Allocation:
        """Grow an allocation, copying words when the block must move.

        Returns the (possibly relocated) allocation.  The old block is
        freed when a move occurs.
        """
        allocation = self._allocations.get(base)
        if allocation is None:
            raise InvalidAddress(f"grow of unknown allocation {base:#x}")
        if new_size <= allocation.block_size:
            allocation.size = max(allocation.size, new_size)
            return allocation
        new_allocation = self.allocate(new_size)
        for i in range(allocation.size):
            word = self._words.get(base + i)
            if word is not None:
                self._words[new_allocation.base + i] = word
        self.free(base)
        return new_allocation

    # -- word access ----------------------------------------------------------

    def read(self, address: int) -> Word:
        """Read one word; unwritten words read as uninitialized."""
        self.reads += 1
        return self._words.get(address, Word.uninitialized())

    def write(self, address: int, word: Word) -> None:
        """Write one word."""
        if not isinstance(word, Word):
            raise InvalidAddress(f"absolute memory stores Words, got {word!r}")
        self.writes += 1
        self._words[address] = word
        if self._write_watcher is not None:
            self._write_watcher(address)

    def read_block(self, base: int, count: int) -> List[Word]:
        """Read ``count`` consecutive words (one stats bump per word)."""
        return [self.read(base + i) for i in range(count)]

    def write_block(self, base: int, words: List[Word]) -> None:
        for i, word in enumerate(words):
            self.write(base + i, word)

    def clear_block(self, base: int, count: int) -> None:
        """Reset a block to uninitialized (context-cache block clear)."""
        for addr in range(base, base + count):
            self._words.pop(addr, None)
