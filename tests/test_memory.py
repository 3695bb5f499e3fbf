"""Tests for absolute memory, segments and the ATLB."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    BoundsTrap,
    FreeListExhausted,
    InvalidAddress,
    SegmentFault,
)
from repro.memory.absolute import AbsoluteMemory, BuddyAllocator
from repro.memory.atlb import ATLB
from repro.memory.fpa import address_format
from repro.memory.mmu import MMU
from repro.memory.segments import SegmentDescriptor, SegmentTable
from repro.memory.tags import Word


class TestBuddyAllocator:
    def test_alignment_invariant(self):
        # Every 2^k block must sit on a multiple of 2^k (the paper's
        # "segments are aligned on multiples of their sizes").
        allocator = BuddyAllocator(1 << 12)
        for size in (1, 2, 3, 5, 32, 100, 512):
            base = allocator.allocate(size)
            block = allocator.block_size_at(base)
            assert block >= size
            assert base % block == 0

    def test_free_and_reuse(self):
        allocator = BuddyAllocator(64)
        base = allocator.allocate(32)
        allocator.free(base)
        again = allocator.allocate(32)
        assert again == base

    def test_coalescing(self):
        allocator = BuddyAllocator(64)
        a = allocator.allocate(32)
        b = allocator.allocate(32)
        allocator.free(a)
        allocator.free(b)
        # After coalescing the full arena is one block again.
        assert allocator.allocate(64) == 0

    def test_exhaustion(self):
        allocator = BuddyAllocator(32)
        allocator.allocate(32)
        with pytest.raises(FreeListExhausted):
            allocator.allocate(1)

    def test_oversized_request(self):
        with pytest.raises(FreeListExhausted):
            BuddyAllocator(32).allocate(64)

    def test_double_free_rejected(self):
        allocator = BuddyAllocator(32)
        base = allocator.allocate(4)
        allocator.free(base)
        with pytest.raises(InvalidAddress):
            allocator.free(base)

    def test_non_power_of_two_arena(self):
        with pytest.raises(InvalidAddress):
            BuddyAllocator(100)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 64), min_size=1, max_size=40))
    def test_no_overlap(self, sizes):
        allocator = BuddyAllocator(1 << 12)
        spans = []
        for size in sizes:
            try:
                base = allocator.allocate(size)
            except FreeListExhausted:
                break
            block = allocator.block_size_at(base)
            for other_base, other_end in spans:
                assert base + block <= other_base or base >= other_end
            spans.append((base, base + block))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 32), min_size=1, max_size=30))
    def test_free_all_restores_arena(self, sizes):
        allocator = BuddyAllocator(1 << 10)
        bases = [allocator.allocate(size) for size in sizes]
        for base in bases:
            allocator.free(base)
        assert allocator.free_words == 1 << 10
        assert allocator.allocate(1 << 10) == 0


class TestAbsoluteMemory:
    def test_unwritten_reads_uninitialized(self):
        memory = AbsoluteMemory(1 << 10)
        assert memory.read(100).is_uninitialized

    def test_write_read(self):
        memory = AbsoluteMemory(1 << 10)
        allocation = memory.allocate(4)
        memory.write(allocation.base, Word.small_integer(7))
        assert memory.read(allocation.base).value == 7

    def test_only_words_storable(self):
        memory = AbsoluteMemory(1 << 10)
        with pytest.raises(InvalidAddress):
            memory.write(0, 42)

    def test_free_scrubs(self):
        memory = AbsoluteMemory(1 << 10)
        allocation = memory.allocate(2)
        memory.write(allocation.base, Word.small_integer(1))
        memory.free(allocation.base)
        assert memory.read(allocation.base).is_uninitialized

    def test_grow_in_place(self):
        memory = AbsoluteMemory(1 << 10)
        allocation = memory.allocate(3)   # block of 4
        grown = memory.grow(allocation.base, 4)
        assert grown.base == allocation.base

    def test_grow_with_move_copies_words(self):
        memory = AbsoluteMemory(1 << 10)
        allocation = memory.allocate(2)
        memory.write(allocation.base, Word.small_integer(11))
        memory.write(allocation.base + 1, Word.small_integer(22))
        grown = memory.grow(allocation.base, 16)
        assert memory.read(grown.base).value == 11
        assert memory.read(grown.base + 1).value == 22

    def test_block_ops(self):
        memory = AbsoluteMemory(1 << 10)
        allocation = memory.allocate(4)
        words = [Word.small_integer(i) for i in range(4)]
        memory.write_block(allocation.base, words)
        assert memory.read_block(allocation.base, 4) == words
        memory.clear_block(allocation.base, 4)
        assert all(w.is_uninitialized
                   for w in memory.read_block(allocation.base, 4))


class TestSegmentTable:
    def _table(self):
        return SegmentTable(address_format(16), team=1)

    def test_allocate_names_distinct(self):
        table = self._table()
        names = {table.allocate_name(4) for _ in range(8)}
        assert len(names) == 8
        assert all(name[0] == 4 for name in names)

    def test_bounds_trap(self):
        # The MMU's bounds check reads the length of the descriptor the
        # team's table holds, not the span of the naming pointer.
        mmu = MMU(address_format(16), arena_words=1 << 10)
        table = mmu.create_team(1)
        name = table.allocate_name(4)
        table.install(name, SegmentDescriptor(base=0, length=4, class_tag=1))
        address = table.address_for(name, 9)
        with pytest.raises(BoundsTrap) as exc:
            mmu.translate(1, address)
        assert exc.value.offset == 9
        assert exc.value.length == 4

    def test_unmapped_faults(self):
        table = self._table()
        with pytest.raises(SegmentFault):
            table.descriptor((3, 0))


class TestATLB:
    def test_fill_and_lookup(self):
        atlb = ATLB(8, 2)
        descriptor = SegmentDescriptor(0, 4, 1)
        assert atlb.lookup(0, (2, 3)) is None
        atlb.fill(0, (2, 3), descriptor)
        assert atlb.lookup(0, (2, 3)) is descriptor

    def test_team_isolation(self):
        atlb = ATLB(8, 2)
        descriptor = SegmentDescriptor(0, 4, 1)
        atlb.fill(0, (2, 3), descriptor)
        assert atlb.lookup(1, (2, 3)) is None

    def test_invalidate_team(self):
        atlb = ATLB(16, 2)
        descriptor = SegmentDescriptor(0, 4, 1)
        atlb.fill(0, (1, 0), descriptor)
        atlb.fill(0, (1, 1), descriptor)
        atlb.fill(1, (1, 0), descriptor)
        assert atlb.invalidate_team(0) == 2
        assert atlb.lookup(1, (1, 0)) is descriptor

    def test_invalidate_segment(self):
        atlb = ATLB(8, 2)
        descriptor = SegmentDescriptor(0, 4, 1)
        atlb.fill(0, (2, 3), descriptor)
        assert atlb.invalidate_segment(0, (2, 3)) is True
        assert atlb.lookup(0, (2, 3)) is None

