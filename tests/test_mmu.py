"""Tests for three-level addressing (repro.memory.mmu, section 3.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AliasTrap, BoundsTrap, SegmentFault
from repro.memory.fpa import address_format
from repro.memory.mmu import MMU
from repro.memory.tags import Word


@pytest.fixture
def mmu():
    return MMU(address_format(36), arena_words=1 << 16)


class TestAllocation:
    def test_allocate_and_access(self, mmu):
        address = mmu.allocate_object(0, 10, class_tag=7)
        mmu.write(0, address.step(3), Word.small_integer(5))
        assert mmu.read(0, address.step(3)).value == 5

    def test_class_of(self, mmu):
        address = mmu.allocate_object(0, 4, class_tag=9)
        assert mmu.class_of(0, address) == 9

    def test_exponent_matches_size(self, mmu):
        assert mmu.allocate_object(0, 1, 1).exponent == 0
        assert mmu.allocate_object(0, 32, 1).exponent == 5
        assert mmu.allocate_object(0, 33, 1).exponent == 6

    def test_unknown_team(self, mmu):
        address = mmu.allocate_object(0, 4, 1)
        with pytest.raises(SegmentFault):
            mmu.read(5, address)

    def test_bounds_checked(self, mmu):
        address = mmu.allocate_object(0, 3, 1)   # exponent 2, span 4
        with pytest.raises(BoundsTrap) as exc:
            mmu.read(0, address.step(3))         # length is 3
        assert exc.value.offset == 3
        assert exc.value.length == 3


class TestTranslation:
    def test_atlb_warms(self, mmu):
        address = mmu.allocate_object(0, 8, 1)
        first = mmu.translate(0, address)
        second = mmu.translate(0, address)
        assert first.atlb_hit is False
        assert second.atlb_hit is True
        assert first.absolute == second.absolute

    def test_absolute_is_base_plus_offset(self, mmu):
        address = mmu.allocate_object(0, 8, 1)
        base = mmu.translate(0, address).absolute
        assert mmu.translate(0, address.step(5)).absolute == base + 5

    def test_alignment_no_carry(self, mmu):
        # Segment bases are multiples of the block size, so base+offset
        # never carries out of the offset field (no adder needed).
        for size in (1, 5, 17, 200):
            address = mmu.allocate_object(0, size, 1)
            base = mmu.translate(0, address).absolute
            assert base % address.span == 0


class TestGrowAndAlias:
    def test_grow_within_span(self, mmu):
        address = mmu.allocate_object(0, 3, 1)
        grown = mmu.grow_object(0, address, 4)
        assert grown == address
        mmu.write(0, address.step(3), Word.small_integer(1))

    def test_grow_out_of_span_returns_new_name(self, mmu):
        address = mmu.allocate_object(0, 4, 1)
        mmu.write(0, address.step(1), Word.small_integer(77))
        grown = mmu.grow_object(0, address, 100)
        assert grown.exponent > address.exponent
        # Contents survive the move.
        assert mmu.read(0, grown.step(1)).value == 77

    def test_old_name_valid_within_old_bounds(self, mmu):
        address = mmu.allocate_object(0, 4, 1)
        mmu.write(0, address.step(2), Word.small_integer(5))
        mmu.grow_object(0, address, 100)
        # "Accesses to the object through the old segment number are
        # allowed as long as they do not exceed the bounds set by the
        # old exponent."
        assert mmu.read(0, address.step(2)).value == 5

    def test_old_and_new_share_storage(self, mmu):
        address = mmu.allocate_object(0, 4, 1)
        grown = mmu.grow_object(0, address, 64)
        mmu.write(0, grown.step(1), Word.small_integer(9))
        assert mmu.read(0, address.step(1)).value == 9

    def test_alias_forwarding_via_read(self, mmu):
        address = mmu.allocate_object(0, 4, 1)
        grown = mmu.grow_object(0, address, 64)
        mmu.write(0, grown.step(40), Word.small_integer(3))
        # Reading beyond the old descriptor's clipped length through the
        # old name traps; MMU.read retries through the forward... but
        # offsets beyond the old *span* are not even encodable in the
        # old name, so in-span-but-beyond-length is the trap window.
        table = mmu.team_table(0)
        descriptor = table.descriptor_for(address)
        assert descriptor.forward == grown
        assert descriptor.length <= address.span

    def test_forward_of(self, mmu):
        address = mmu.allocate_object(0, 4, 1)
        assert mmu.forward_of(0, address) is None
        grown = mmu.grow_object(0, address, 64)
        assert mmu.forward_of(0, address) == grown

    def test_grow_through_stale_pointer_chases_forward(self, mmu):
        address = mmu.allocate_object(0, 4, 1)
        first = mmu.grow_object(0, address, 64)
        second = mmu.grow_object(0, address, 200)
        assert second.exponent == 8
        assert mmu.forward_of(0, first) == second


class TestAliasTrapWindow:
    def test_stale_access_beyond_clipped_length_traps(self, mmu):
        # Allocate with length 2 in a span-4 segment, grow to 64: the
        # old descriptor keeps length min(64, 4) = 4... to create the
        # trap window the old length must be < old span.  Use length 2:
        address = mmu.allocate_object(0, 2, 1)   # exponent 1, span 2
        grown = mmu.grow_object(0, address, 64)
        # old name now forwards; any out-of-bounds offset traps.  The
        # old span is 2, so offset 1 is fine but nothing beyond is
        # encodable; emulate the trap by shrinking the clip:
        table = mmu.team_table(0)
        descriptor = table.descriptor_for(address)
        descriptor.length = 1
        with pytest.raises(AliasTrap) as excinfo:
            mmu.translate(0, address.step(1))
        assert excinfo.value.new_address is not None
        # The handler path (read) retries transparently:
        mmu.write(0, grown.step(1), Word.small_integer(123))
        assert mmu.read(0, address.step(1)).value == 123
        assert mmu.alias_traps_taken >= 1


class TestPropertyRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 64),
                              st.integers(0, 100)),
                    min_size=1, max_size=20))
    def test_many_objects_are_isolated(self, specs):
        mmu = MMU(address_format(36), arena_words=1 << 18)
        objects = []
        for size, value in specs:
            address = mmu.allocate_object(0, size, 1)
            mmu.write(0, address, Word.small_integer(value))
            objects.append((address, value))
        for address, value in objects:
            assert mmu.read(0, address).value == value
