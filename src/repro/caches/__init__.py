"""Cache models: the ITLB, instruction cache and their shared substrate."""

from repro.caches.icache import InstructionCache
from repro.caches.itlb import ITLB, ITLBEntry
from repro.caches.setassoc import MISS, SetAssociativeCache
from repro.caches.stats import AccessProfile, CacheStats

__all__ = [
    "AccessProfile", "CacheStats", "ITLB", "ITLBEntry",
    "InstructionCache", "MISS", "SetAssociativeCache",
]
