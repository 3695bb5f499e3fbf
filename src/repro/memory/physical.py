"""Physical space: the memory hierarchy as caches of absolute space.

Paper section 3.1: "To translate an absolute address to a physical
address the absolute address is offered to each level of the memory
hierarchy in turn.  Each storage device is treated as a cache in which
frequently accessed portions of absolute space may be stored."

The functional contents of every object live in
:class:`~repro.memory.absolute.AbsoluteMemory`; this module models the
*placement* of absolute blocks across a stack of devices plus the
latency of each access.  The mapping inside each device is performed by
hashing as in a conventional set-associative cache, so each device's
directory size is a function only of that device's capacity -- it
places no limit on the size of absolute space (the paper's key
contrast with paging).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.caches.setassoc import SetAssociativeCache
from repro.caches.stats import CacheStats


@dataclass
class DeviceSpec:
    """Static description of one storage device in the hierarchy."""

    name: str
    capacity_blocks: int
    block_words: int = 16
    associativity: Union[int, str] = 4
    latency_cycles: int = 1
    policy: str = "lru"

    def __post_init__(self):
        if self.block_words <= 0 or self.block_words & (self.block_words - 1):
            raise ValueError("block_words must be a power of two")


@dataclass
class AccessResult:
    """Outcome of one absolute-space access through the hierarchy."""

    level: int               # index of the device that hit (len == backing store)
    device: Optional[str]    # device name, None for the backing store
    latency: int             # total cycles spent probing + transferring
    writebacks: int = 0      # dirty blocks displaced to lower levels


class _Device:
    """One level: a set-associative cache of absolute block numbers."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.cache: SetAssociativeCache[int, dict] = SetAssociativeCache(
            spec.capacity_blocks, spec.associativity, spec.policy
        )

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def block_of(self, absolute_address: int) -> int:
        return absolute_address // self.spec.block_words


class MemoryHierarchy:
    """A stack of devices over an infinite backing store.

    ``access`` walks the hierarchy top-down; the block is filled into
    every level above the hit (inclusive caching), and a dirty block
    displaced from level *i* is written back into level *i+1* (counted,
    and recursively fillable).
    """

    def __init__(self, specs: List[DeviceSpec], backing_latency: int = 100) -> None:
        if not specs:
            raise ValueError("a hierarchy needs at least one device")
        self.devices = [_Device(spec) for spec in specs]
        self.backing_latency = backing_latency
        self.backing_accesses = 0
        self.total_writebacks = 0

    # -- accounting helpers ---------------------------------------------------

    def stats_for(self, name: str) -> CacheStats:
        for dev in self.devices:
            if dev.spec.name == name:
                return dev.stats
        raise KeyError(f"no device named {name!r}")

    # -- the translation/probe walk --------------------------------------------

    def access(self, absolute_address: int, *, write: bool = False) -> AccessResult:
        """Offer an absolute address to each level in turn.

        Returns where it hit and the cycles consumed.  ``write`` marks
        the block dirty at the top level (write-back policy).
        """
        latency = 0
        writebacks = 0
        hit_level = len(self.devices)
        device_name: Optional[str] = None
        for level, dev in enumerate(self.devices):
            latency += dev.spec.latency_cycles
            block = dev.block_of(absolute_address)
            state = dev.cache.lookup(block)
            if state is not None:
                hit_level = level
                device_name = dev.spec.name
                if write:
                    state["dirty"] = True
                break
        else:
            self.backing_accesses += 1
            latency += self.backing_latency
        # Fill the block into every level above (and including) the miss
        # path, so the next access hits at the top.
        writebacks += self._fill_above(absolute_address, hit_level, write)
        self.total_writebacks += writebacks
        return AccessResult(hit_level, device_name, latency, writebacks)

    def _fill_above(self, absolute_address: int, hit_level: int, write: bool) -> int:
        writebacks = 0
        for level in range(min(hit_level, len(self.devices)) - 1, -1, -1):
            dev = self.devices[level]
            block = dev.block_of(absolute_address)
            evicted = dev.cache.fill(block, {"dirty": write and level == 0})
            if evicted is not None:
                victim_block, victim_state = evicted
                if victim_state.get("dirty"):
                    writebacks += 1
                    self._install_below(level + 1, victim_block * dev.spec.block_words)
        return writebacks

    def _install_below(self, level: int, absolute_address: int) -> None:
        """Receive a written-back block at ``level`` (or the backing store)."""
        if level >= len(self.devices):
            self.backing_accesses += 1
            return
        dev = self.devices[level]
        block = dev.block_of(absolute_address)
        state = dev.cache.peek(block)
        if state is not None:
            state["dirty"] = True
            return
        evicted = dev.cache.fill(block, {"dirty": True})
        if evicted is not None:
            victim_block, victim_state = evicted
            if victim_state.get("dirty"):
                self.total_writebacks += 1
                self._install_below(level + 1, victim_block * dev.spec.block_words)

    def flush(self) -> None:
        """Drop all residency state (e.g. between measured workloads)."""
        for dev in self.devices:
            dev.cache.flush()

    def amat(self) -> float:
        """Average memory access time over everything accessed so far."""
        total_accesses = self.devices[0].stats.accesses
        if total_accesses == 0:
            return 0.0
        cycles = 0.0
        upstream = 0
        for dev in self.devices:
            cycles += dev.stats.accesses * dev.spec.latency_cycles
            upstream = dev.stats.misses
        cycles += self.backing_accesses * self.backing_latency
        return cycles / total_accesses


def default_hierarchy() -> MemoryHierarchy:
    """A plausible COM-era three-level hierarchy for experiments."""
    return MemoryHierarchy(
        [
            DeviceSpec("data-cache", capacity_blocks=256, block_words=16,
                       associativity=4, latency_cycles=1),
            DeviceSpec("main-memory", capacity_blocks=16384, block_words=16,
                       associativity=8, latency_cycles=10),
        ],
        backing_latency=1000,
    )
