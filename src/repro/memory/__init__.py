"""Tagged memory and the three address spaces (paper sections 2.2, 3.1)."""

from repro.memory.absolute import AbsoluteMemory, BuddyAllocator
from repro.memory.atlb import ATLB
from repro.memory.fpa import (
    FORMAT_16,
    FORMAT_36,
    AddressFormat,
    FPAddress,
    address_format,
    floating_capacity,
    multics_style_capacity,
)
from repro.memory.mmu import MMU, TranslationResult
from repro.memory.segments import SegmentDescriptor, SegmentTable
from repro.memory.tags import Tag, Word

__all__ = [
    "ATLB", "AbsoluteMemory", "AddressFormat", "BuddyAllocator",
    "FORMAT_16", "FORMAT_36", "FPAddress", "MMU", "SegmentDescriptor",
    "SegmentTable", "Tag", "TranslationResult", "Word", "address_format",
    "floating_capacity", "multics_style_capacity",
]
