"""Tests for the function units (repro.core.primitives)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.constants import FALSE, TRUE
from repro.core.primitives import (
    ArithmeticTrap,
    UNITS,
    unit_add,
    unit_ashift,
    unit_carry,
    unit_div,
    unit_eq,
    unit_function,
    unit_lt,
    unit_mask,
    unit_mod,
    unit_mult1,
    unit_mult2,
    unit_mul,
    unit_neg,
    unit_not,
    unit_rotate,
    unit_same,
    unit_shift,
    unit_sub,
    unit_tag,
    unit_xor,
)
from repro.errors import TagMismatch
from repro.memory.tags import (
    SMALL_INTEGER_BITS,
    SMALL_INTEGER_MAX,
    Tag,
    Word,
)

I = Word.small_integer
F = Word.floating


class TestArithmetic:
    def test_int_add(self):
        assert unit_add(I(2), I(3)).value == 5
        assert unit_add(I(2), I(3)).tag is Tag.SMALL_INTEGER

    def test_float_add(self):
        result = unit_add(F(1.5), F(2.5))
        assert result.tag is Tag.FLOAT
        assert result.value == 4.0

    def test_mixed_mode_promotes(self):
        # "Some mixed mode instructions are primitive" (section 3.3).
        assert unit_add(I(1), F(0.5)).tag is Tag.FLOAT
        assert unit_mul(F(2.0), I(3)).value == 6.0

    def test_int_overflow_traps(self):
        with pytest.raises(ArithmeticTrap):
            unit_add(I(SMALL_INTEGER_MAX), I(1))

    def test_div_truncates_toward_zero(self):
        assert unit_div(I(7), I(2)).value == 3
        assert unit_div(I(-7), I(2)).value == -3
        assert unit_div(I(7), I(-2)).value == -3

    def test_div_by_zero(self):
        with pytest.raises(ArithmeticTrap):
            unit_div(I(1), I(0))
        with pytest.raises(ArithmeticTrap):
            unit_div(F(1.0), F(0.0))

    def test_mod_int_only(self):
        assert unit_mod(I(7), I(3)).value == 1
        with pytest.raises(TagMismatch):
            unit_mod(F(7.0), I(3))
        with pytest.raises(ArithmeticTrap):
            unit_mod(I(7), I(0))

    def test_neg(self):
        assert unit_neg(I(5)).value == -5
        assert unit_neg(F(2.5)).value == -2.5

    def test_non_numeric_rejected(self):
        with pytest.raises(TagMismatch):
            unit_add(Word.atom("a"), I(1))

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_add_sub_inverse(self, a, b):
        assert unit_sub(unit_add(I(a), I(b)), I(b)).value == a


class TestMultiplePrecision:
    @given(st.integers(0, (1 << SMALL_INTEGER_BITS) - 1),
           st.integers(0, (1 << SMALL_INTEGER_BITS) - 1))
    def test_carry_matches_wide_sum(self, a, b):
        # CARRY exists so multiple-precision arithmetic needs no flags.
        sa = a - (1 << SMALL_INTEGER_BITS) if a >> (SMALL_INTEGER_BITS - 1) \
            else a
        sb = b - (1 << SMALL_INTEGER_BITS) if b >> (SMALL_INTEGER_BITS - 1) \
            else b
        carry = unit_carry(I(sa), I(sb)).value
        assert carry == (a + b) >> SMALL_INTEGER_BITS

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_mult1_mult2_reconstruct_product(self, a, b):
        low = unit_mult1(I(a), I(b)).value & ((1 << SMALL_INTEGER_BITS) - 1)
        high = unit_mult2(I(a), I(b)).value & ((1 << SMALL_INTEGER_BITS) - 1)
        assert (high << SMALL_INTEGER_BITS) | low == a * b


class TestBitField:
    def test_shift_left_right(self):
        assert unit_shift(I(1), I(4)).value == 16
        assert unit_shift(I(16), I(-4)).value == 1

    def test_shift_drops_bits(self):
        assert unit_shift(I(1), I(SMALL_INTEGER_BITS)).value == 0

    def test_ashift_preserves_sign(self):
        assert unit_ashift(I(-8), I(-2)).value == -2
        assert unit_ashift(I(8), I(1)).value == 16

    def test_rotate_roundtrip(self):
        word = I(0b1011)
        rotated = unit_rotate(word, I(5))
        back = unit_rotate(rotated, I(SMALL_INTEGER_BITS - 5))
        assert back.value == word.value

    @given(st.integers(-(1 << 27), (1 << 27) - 1),
           st.integers(0, SMALL_INTEGER_BITS))
    def test_rotate_full_cycle_identity(self, value, count):
        word = I(value)
        once = unit_rotate(word, I(count))
        cycle = unit_rotate(once, I(SMALL_INTEGER_BITS - count))
        assert cycle.value == value

    def test_mask_extracts_low_bits(self):
        assert unit_mask(I(0xFF), I(4)).value == 0xF
        assert unit_mask(I(0xFF), I(0)).value == 0

    def test_mask_negative_width(self):
        with pytest.raises(ArithmeticTrap):
            unit_mask(I(1), I(-1))

    def test_not_involution(self):
        assert unit_not(unit_not(I(1234))).value == 1234

    @given(st.integers(-(1 << 27), (1 << 27) - 1))
    def test_xor_self_is_zero(self, value):
        assert unit_xor(I(value), I(value)).value == 0

    def test_bit_ops_reject_floats(self):
        with pytest.raises(TagMismatch):
            unit_xor(F(1.0), I(1))


class TestComparisons:
    def test_lt(self):
        assert unit_lt(I(1), I(2)) is TRUE
        assert unit_lt(I(2), I(1)) is FALSE
        assert unit_lt(I(1), F(1.5)) is TRUE

    def test_eq_numeric(self):
        assert unit_eq(I(3), F(3.0)) is TRUE
        assert unit_eq(I(3), I(4)) is FALSE

    def test_eq_atoms(self):
        assert unit_eq(Word.atom("a"), Word.atom("a")) is TRUE
        assert unit_eq(Word.atom("a"), Word.atom("b")) is FALSE

    def test_same_defined_for_all_types(self):
        # "The == (same object) comparison is defined for all types."
        assert unit_same(Word.atom("x"), Word.atom("x")) is TRUE
        assert unit_same(I(3), F(3.0)) is FALSE
        assert unit_same(Word.pointer(5, 20), Word.pointer(5, 20)) is TRUE
        assert unit_same(Word.uninitialized(), Word.uninitialized()) is TRUE

    def test_lt_rejects_atoms(self):
        with pytest.raises(TagMismatch):
            unit_lt(Word.atom("a"), Word.atom("b"))


class TestTagUnit:
    def test_tag_values(self):
        assert unit_tag(I(1)).value == int(Tag.SMALL_INTEGER)
        assert unit_tag(F(1.0)).value == int(Tag.FLOAT)
        assert unit_tag(Word.pointer(0, 20)).value == int(Tag.OBJECT_POINTER)


class TestRegistry:
    def test_every_unit_has_correct_arity(self):
        for name, (arity, fn) in UNITS.items():
            assert arity in (1, 2)

    def test_execute_unit(self):
        assert unit_function("arith.add", 2)(I(1), I(2)).value == 3

    def test_execute_unknown_unit(self):
        with pytest.raises(TagMismatch):
            unit_function("nope", 1)(I(1))

    def test_execute_short_operands(self):
        with pytest.raises(TagMismatch):
            unit_function("arith.add", 1)(I(1))

    def test_extra_operands_ignored(self):
        assert unit_function("move", 2)(I(5), I(9)).value == 5
