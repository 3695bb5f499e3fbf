"""The context cache (paper sections 2.3 and 3.6, figure 7).

A set of fixed-size blocks, each holding one 32-word context, fronted
by an associative *directory* of absolute addresses and four *access
vectors*:

* ``current`` -- singleton set: the block of the current context;
* ``next`` -- singleton set: the block of the next context;
* ``free`` -- the set of unused blocks;
* ``match`` -- singleton set produced by a directory match.

Accesses to the current and next contexts bypass the directory
entirely (register-speed path used by the pipeline's operand fetch);
other contexts are found associatively by absolute address.  Because
the directory associates on *absolute* addresses the cache survives
process switches without invalidation, and because blocks need not be
contiguous it caches non-LIFO contexts that fragment the free list.

Block-clear circuitry zeroes a whole block in one operation, so a newly
allocated context is initialised for free.  A copy-back engine keeps a
couple of blocks free by retiring LRU contexts to memory concurrently
with execution (we account its traffic separately as background words).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.caches.stats import CacheStats
from repro.errors import FreeListExhausted, ReproError
from repro.memory.tags import Word
from repro.core.context import CONTEXT_WORDS

#: Default geometry from the paper: 32 blocks of 32 words.
DEFAULT_BLOCKS = 32

#: Writer/loader signatures: move a whole context between cache and memory.
Writer = Callable[[int, List[Word]], None]
Loader = Callable[[int], List[Word]]


@dataclass
class ContextCacheStats:
    """Traffic counters specific to the context cache."""

    directory_hits: int = 0
    directory_misses: int = 0
    fast_reads: int = 0       # current/next vector accesses (no directory)
    fast_writes: int = 0
    block_clears: int = 0
    copybacks: int = 0        # blocks retired to memory
    copyback_words: int = 0   # background word traffic
    faults: int = 0           # contexts re-loaded from memory

    @property
    def directory_hit_ratio(self) -> float:
        total = self.directory_hits + self.directory_misses
        return self.directory_hits / total if total else 0.0


class ContextCache:
    """The dual-ported context cache.

    The cache is the authoritative holder of a resident context's words
    (write-back); ``writer``/``loader`` move 32-word images to and from
    the backing store on copy-back and fault-in.
    """

    def __init__(
        self,
        writer: Writer,
        loader: Loader,
        num_blocks: int = DEFAULT_BLOCKS,
        block_words: int = CONTEXT_WORDS,
        reserve: int = 2,
    ) -> None:
        if num_blocks < 3:
            raise ReproError("context cache needs at least 3 blocks")
        self.writer = writer
        self.loader = loader
        self.num_blocks = num_blocks
        self.block_words = block_words
        self.reserve = reserve
        self.stats = ContextCacheStats()
        #: Block storage, one ``block_words`` list per block.  The
        #: machine's fetch loop reads current/next operands straight
        #: from here (the vectors' register-speed path).
        self.blocks: List[List[Word]] = [
            [Word.uninitialized()] * block_words for _ in range(num_blocks)
        ]
        #: Per-block dirty bits; the machine's fast path sets them
        #: when it writes a block in place.
        self.dirty: List[bool] = [False] * num_blocks
        self._clear_template: List[Word] = [Word.uninitialized()] * block_words
        self._directory: Dict[int, int] = {}       # absolute base -> block
        self._base_of: List[Optional[int]] = [None] * num_blocks
        self._free: List[int] = list(range(num_blocks - 1, -1, -1))
        # Blocks in use order, oldest first: a dict as an ordered set,
        # so a touch is O(1).
        self._lru: Dict[int, None] = {}
        self.current: Optional[int] = None          # current vector (block index)
        self.next: Optional[int] = None             # next vector

    # -- vector bookkeeping -------------------------------------------------

    def _touch(self, block: int) -> None:
        lru = self._lru
        lru.pop(block, None)
        lru[block] = None

    def _clear_block(self, block: int) -> None:
        # Slice-assign a prebuilt template: block clears happen on
        # every context allocation (the words are shared immutable
        # uninitialized singletons, as Word.uninitialized returns).
        self.blocks[block][:] = self._clear_template
        self.stats.block_clears += 1

    @property
    def free_vector(self) -> List[int]:
        """The set of currently free blocks."""
        return list(self._free)

    @property
    def free_count(self) -> int:
        return len(self._free)

    def resident_bases(self) -> List[int]:
        """Absolute bases of all cached contexts."""
        return list(self._directory)

    def is_resident(self, base: int) -> bool:
        return base in self._directory

    # -- allocation (section 3.6) ----------------------------------------------

    def _take_free_block(self) -> int:
        if not self._free:
            self._evict_lru()
        if not self._free:
            raise FreeListExhausted("context cache has no evictable block")
        return self._free.pop()

    def allocate_next(self, absolute_base: int) -> int:
        """Allocate and clear a block for a new next context.

        "To allocate a new context as the next context, the first free
        bit of the free vector is set to zero and the corresponding bit
        of the next vector is set to one.  The new context is then
        cleared, and the absolute address is written into the
        directory."
        """
        if self.next is not None:
            raise ReproError("next vector already set; call/return first")
        block = self._take_free_block()
        self._clear_block(block)
        self._directory[absolute_base] = block
        self._base_of[block] = absolute_base
        self.dirty[block] = True   # freshly cleared image differs from memory
        self.next = block
        self._touch(block)
        self.ensure_reserve()
        return block

    def adopt_current(self, absolute_base: int) -> int:
        """Install a context as current directly (machine reset / process switch)."""
        block = self._directory.get(absolute_base)
        if block is None:
            block = self._fault_in(absolute_base)
        self.current = block
        self._touch(block)
        return block

    # -- call / return transitions ------------------------------------------------

    def on_call(self) -> None:
        """Method call: the next vector is moved to the current vector."""
        if self.next is None:
            raise ReproError("method call with no next context allocated")
        self.current = self.next
        self.next = None
        self._touch(self.current)

    def on_return(self, caller_base: int, *, reuse_current_as_next: bool) -> bool:
        """Method return: current moves back to next; directory sets current.

        ``reuse_current_as_next`` is False for non-LIFO (captured)
        contexts, whose block stays resident under its own address but
        leaves the next vector empty for a fresh allocation.  Returns
        True when the caller's context hit the directory, False when it
        had to be faulted in from memory.
        """
        returning = self.current
        if reuse_current_as_next:
            self.next = returning
        else:
            self.next = None
        block = self._directory.get(caller_base)
        hit = block is not None
        if hit:
            self.stats.directory_hits += 1
        else:
            self.stats.directory_misses += 1
            block = self._fault_in(caller_base)
        self.current = block
        self._touch(block)
        return hit

    def release(self, absolute_base: int) -> None:
        """A context died: free its block with no copy-back."""
        block = self._directory.pop(absolute_base, None)
        if block is None:
            return
        self._base_of[block] = None
        self.dirty[block] = False
        if block == self.current:
            self.current = None
        if block == self.next:
            self.next = None
        self._lru.pop(block, None)
        self._free.append(block)

    def rebind_next(self, old_base: int, new_base: int) -> None:
        """The reused next context got a new identity (fresh allocation)."""
        block = self._directory.pop(old_base, None)
        if block is None or block != self.next:
            raise ReproError("rebind_next must target the resident next context")
        self._directory[new_base] = block
        self._base_of[block] = new_base
        self.dirty[block] = True

    # -- word access ----------------------------------------------------------------

    def read_current(self, index: int) -> Word:
        """Fast-path read of the current context (current vector)."""
        if self.current is None:
            raise ReproError("no current context resident")
        self.stats.fast_reads += 1
        return self.blocks[self.current][index]

    def write_current(self, index: int, word: Word) -> None:
        if self.current is None:
            raise ReproError("no current context resident")
        self.stats.fast_writes += 1
        self.blocks[self.current][index] = word
        self.dirty[self.current] = True

    def read_next(self, index: int) -> Word:
        """Fast-path read of the next context (next vector)."""
        if self.next is None:
            raise ReproError("no next context resident")
        self.stats.fast_reads += 1
        return self.blocks[self.next][index]

    def write_next(self, index: int, word: Word) -> None:
        if self.next is None:
            raise ReproError("no next context resident")
        self.stats.fast_writes += 1
        self.blocks[self.next][index] = word
        self.dirty[self.next] = True

    def read_absolute(self, base: int, index: int) -> Optional[Word]:
        """Directory-matched read; None when the context is not resident."""
        block = self._directory.get(base)
        if block is None:
            self.stats.directory_misses += 1
            return None
        self.stats.directory_hits += 1
        self._touch(block)
        return self.blocks[block][index]

    def write_absolute(self, base: int, index: int, word: Word) -> bool:
        """Directory-matched write; False when not resident."""
        block = self._directory.get(base)
        if block is None:
            self.stats.directory_misses += 1
            return False
        self.stats.directory_hits += 1
        self._touch(block)
        self.blocks[block][index] = word
        self.dirty[block] = True
        return True

    # -- copy-back engine -------------------------------------------------------------

    def _evict_lru(self) -> None:
        """Retire the least recently used block that is not current/next."""
        for block in self._lru:
            if block in (self.current, self.next):
                continue
            self._copy_back(block)
            return
        raise FreeListExhausted("every context cache block is pinned")

    def _copy_back(self, block: int) -> None:
        base = self._base_of[block]
        if base is None:
            raise ReproError("copy-back of an unmapped block")
        if self.dirty[block]:
            self.writer(base, list(self.blocks[block]))
            self.stats.copybacks += 1
            self.stats.copyback_words += self.block_words
        del self._directory[base]
        self._base_of[block] = None
        self.dirty[block] = False
        del self._lru[block]
        self._free.append(block)

    def ensure_reserve(self) -> int:
        """Keep at least ``reserve`` blocks free (the concurrent engine).

        "When only two blocks are free in the context cache the cache
        begins copying the LRU context back to free additional blocks."
        Returns the number of blocks retired.
        """
        retired = 0
        while len(self._free) < self.reserve:
            before = len(self._free)
            self._evict_lru()
            retired += len(self._free) - before
        return retired

    def _fault_in(self, base: int) -> int:
        """Load a context image from memory into a fresh block."""
        block = self._take_free_block()
        words = self.loader(base)
        if len(words) != self.block_words:
            raise ReproError("loader returned wrong-size context image")
        self.blocks[block] = list(words)
        self._directory[base] = block
        self._base_of[block] = base
        self.dirty[block] = False
        self.stats.faults += 1
        self._touch(block)
        self.ensure_reserve()
        return block

    def flush_all(self) -> None:
        """Copy back every dirty block (e.g. before inspecting memory)."""
        for base in list(self._directory):
            block = self._directory[base]
            if self.dirty[block]:
                self.writer(base, list(self.blocks[block]))
                self.stats.copyback_words += self.block_words
                self.dirty[block] = False

    def image_of(self, base: int) -> Optional[List[Word]]:
        """A copy of a resident context's words (diagnostics)."""
        block = self._directory.get(base)
        return None if block is None else list(self.blocks[block])
