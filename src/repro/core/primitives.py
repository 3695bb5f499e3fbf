"""Function units: the primitive methods of section 3.3.

When the ITLB resolves an abstract instruction to an entry whose
primitive bit is set, the method field "selects the result of a
function unit".  This module implements those units as pure functions
over tagged words:

* arithmetic on small integers and floats, including the primitive
  mixed-mode combinations;
* multiple-precision support (carry, mult1, mult2) on small integers;
* logical/bit-field operations treating small integers as 28-bit
  fields;
* comparisons on numbers, and the universal same-object comparison;
* moves and tag access.

A unit raises :class:`~repro.errors.TagMismatch` when handed operand
tags it does not implement; the machine treats that exactly like an
undefined (non-primitive) method and takes the method-call path, which
is the architecture's behaviour for non-primitive operand types.

The machine resolves a unit once per ITLB fill (:func:`unit_function`)
and calls it directly on every hit, so the hot units test their common
case first and build small-integer results with the trusted
:func:`~repro.memory.tags.small_integer_word` after their one range
check.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import TagMismatch, TrapError
from repro.memory.tags import (
    SMALL_INTEGER_BITS,
    Tag,
    Word,
    fits_small_integer,
    small_integer_word,
)
from repro.core.constants import FALSE, TRUE, boolean_word


class ArithmeticTrap(TrapError):
    """Division by zero or small-integer overflow in a function unit."""


_FIELD_MASK = (1 << SMALL_INTEGER_BITS) - 1
_SIGN_BIT = 1 << (SMALL_INTEGER_BITS - 1)
_INT = Tag.SMALL_INTEGER
_NUMBER_TAGS = (Tag.SMALL_INTEGER, Tag.FLOAT)


def _to_field(value: int) -> int:
    """Signed small integer -> unsigned 28-bit field."""
    return value & _FIELD_MASK


def _from_field(field: int) -> int:
    """Unsigned 28-bit field -> signed small integer."""
    field &= _FIELD_MASK
    return field - (1 << SMALL_INTEGER_BITS) if field & _SIGN_BIT else field


def _int_result(value: int) -> Word:
    if not fits_small_integer(value):
        raise ArithmeticTrap(f"small integer overflow: {value}")
    return small_integer_word(value)


def _require_numbers(*words: Word) -> None:
    for word in words:
        if word.tag not in _NUMBER_TAGS:
            raise TagMismatch(f"numeric unit got {word.tag.name}")


def _require_ints(*words: Word) -> None:
    for word in words:
        if word.tag is not _INT:
            raise TagMismatch(f"integer unit got {word.tag.name}")


# -- arithmetic ----------------------------------------------------------------
#
# The hot units test their common case (two small integers; two numbers
# for the comparisons) first; otherwise _require_numbers raises the
# TagMismatch that sends the machine down the method-call path.


def unit_add(a: Word, b: Word) -> Word:
    if a.tag is _INT and b.tag is _INT:
        return _int_result(a.value + b.value)
    _require_numbers(a, b)
    return Word.floating(a.value + b.value)


def unit_sub(a: Word, b: Word) -> Word:
    if a.tag is _INT and b.tag is _INT:
        return _int_result(a.value - b.value)
    _require_numbers(a, b)
    return Word.floating(a.value - b.value)


def unit_mul(a: Word, b: Word) -> Word:
    if a.tag is _INT and b.tag is _INT:
        return _int_result(a.value * b.value)
    _require_numbers(a, b)
    return Word.floating(a.value * b.value)


def unit_div(a: Word, b: Word) -> Word:
    if a.tag is _INT and b.tag is _INT:
        if b.value == 0:
            raise ArithmeticTrap("integer division by zero")
        # Truncate toward zero, as hardware dividers do.
        quotient = abs(a.value) // abs(b.value)
        if (a.value < 0) != (b.value < 0):
            quotient = -quotient
        return _int_result(quotient)
    _require_numbers(a, b)
    if b.value == 0.0:
        raise ArithmeticTrap("float division by zero")
    return Word.floating(a.value / b.value)


def unit_mod(a: Word, b: Word) -> Word:
    # Modulo is defined for small integers only (section 3.3).
    _require_ints(a, b)
    if b.value == 0:
        raise ArithmeticTrap("modulo by zero")
    return _int_result(a.value % b.value)


def unit_neg(a: Word) -> Word:
    _require_numbers(a)
    if a.tag is _INT:
        return _int_result(-a.value)
    return Word.floating(-a.value)


# -- multiple precision support ---------------------------------------------------


def unit_carry(a: Word, b: Word) -> Word:
    """Carry-out of the 28-bit unsigned sum of a and b (0 or 1)."""
    _require_ints(a, b)
    return Word.small_integer((_to_field(a.value) + _to_field(b.value))
                              >> SMALL_INTEGER_BITS)


def unit_mult1(a: Word, b: Word) -> Word:
    """Low 28 bits of the unsigned product (no flags needed)."""
    _require_ints(a, b)
    return Word.small_integer(
        _from_field(_to_field(a.value) * _to_field(b.value))
    )


def unit_mult2(a: Word, b: Word) -> Word:
    """High 28 bits of the unsigned product."""
    _require_ints(a, b)
    product = _to_field(a.value) * _to_field(b.value)
    return Word.small_integer(_from_field(product >> SMALL_INTEGER_BITS))


# -- logical and bit field ------------------------------------------------------------


def unit_shift(a: Word, b: Word) -> Word:
    """Logical shift of the 28-bit field; positive counts shift left."""
    _require_ints(a, b)
    fieldval = _to_field(a.value)
    count = b.value
    if count >= 0:
        fieldval = (fieldval << min(count, SMALL_INTEGER_BITS)) & _FIELD_MASK
    else:
        fieldval >>= min(-count, SMALL_INTEGER_BITS)
    return Word.small_integer(_from_field(fieldval))


def unit_ashift(a: Word, b: Word) -> Word:
    """Arithmetic shift: sign-propagating to the right."""
    _require_ints(a, b)
    count = b.value
    if count >= 0:
        return unit_shift(a, b)
    return Word.small_integer(a.value >> min(-count, SMALL_INTEGER_BITS))


def unit_rotate(a: Word, b: Word) -> Word:
    """Rotate the 28-bit field; positive counts rotate left."""
    _require_ints(a, b)
    fieldval = _to_field(a.value)
    count = b.value % SMALL_INTEGER_BITS
    rotated = ((fieldval << count) | (fieldval >> (SMALL_INTEGER_BITS - count))) \
        & _FIELD_MASK if count else fieldval
    return Word.small_integer(_from_field(rotated))


def unit_mask(a: Word, b: Word) -> Word:
    """Extract the low b bits of a (a bit-field mask operation)."""
    _require_ints(a, b)
    if b.value < 0:
        raise ArithmeticTrap("negative mask width")
    width = min(b.value, SMALL_INTEGER_BITS)
    return Word.small_integer(_from_field(_to_field(a.value)
                                          & ((1 << width) - 1)))


def unit_and(a: Word, b: Word) -> Word:
    _require_ints(a, b)
    return Word.small_integer(_from_field(_to_field(a.value) & _to_field(b.value)))


def unit_or(a: Word, b: Word) -> Word:
    _require_ints(a, b)
    return Word.small_integer(_from_field(_to_field(a.value) | _to_field(b.value)))


def unit_xor(a: Word, b: Word) -> Word:
    _require_ints(a, b)
    return Word.small_integer(_from_field(_to_field(a.value) ^ _to_field(b.value)))


def unit_not(a: Word) -> Word:
    _require_ints(a)
    return Word.small_integer(_from_field(~_to_field(a.value)))


# -- comparisons ------------------------------------------------------------------------


def unit_lt(a: Word, b: Word) -> Word:
    if a.tag not in _NUMBER_TAGS or b.tag not in _NUMBER_TAGS:
        _require_numbers(a, b)  # raises
    return TRUE if a.value < b.value else FALSE


def unit_le(a: Word, b: Word) -> Word:
    if a.tag not in _NUMBER_TAGS or b.tag not in _NUMBER_TAGS:
        _require_numbers(a, b)  # raises
    return TRUE if a.value <= b.value else FALSE


def unit_eq(a: Word, b: Word) -> Word:
    # "=" is defined for small integer and floating point; atoms also
    # compare by identity which coincides with "==" for them.
    if a.tag is Tag.ATOM and b.tag is Tag.ATOM:
        return TRUE if a.value == b.value else FALSE
    if a.tag not in _NUMBER_TAGS or b.tag not in _NUMBER_TAGS:
        _require_numbers(a, b)  # raises
    return TRUE if a.value == b.value else FALSE


def unit_same(a: Word, b: Word) -> Word:
    """The same-object comparison, defined for all types."""
    return boolean_word(a.same_object_as(b))


# -- moves and tags ----------------------------------------------------------------------


def unit_move(a: Word) -> Word:
    """Move is defined for all types (a pure copy)."""
    return a


def unit_tag(a: Word) -> Word:
    """The tag instruction: read a word's four-bit tag as an integer."""
    return Word.small_integer(int(a.tag))


#: Registry: unit name -> (arity, callable).  Units the *machine* must
#: implement itself (they touch machine state: movea, at:, at:put:,
#: as:, jumps, xfer) use the "machine." prefix and are not listed here.
UNITS: Dict[str, tuple] = {
    "arith.add": (2, unit_add),
    "arith.sub": (2, unit_sub),
    "arith.mul": (2, unit_mul),
    "arith.div": (2, unit_div),
    "arith.mod": (2, unit_mod),
    "arith.neg": (1, unit_neg),
    "mp.carry": (2, unit_carry),
    "mp.mult1": (2, unit_mult1),
    "mp.mult2": (2, unit_mult2),
    "bits.shift": (2, unit_shift),
    "bits.ashift": (2, unit_ashift),
    "bits.rotate": (2, unit_rotate),
    "bits.mask": (2, unit_mask),
    "bits.and": (2, unit_and),
    "bits.or": (2, unit_or),
    "bits.xor": (2, unit_xor),
    "bits.not": (1, unit_not),
    "cmp.lt": (2, unit_lt),
    "cmp.le": (2, unit_le),
    "cmp.eq": (2, unit_eq),
    "cmp.same": (2, unit_same),
    "move": (1, unit_move),
    "tag": (1, unit_tag),
}


def execute_unit(name: str, operands: List[Word]) -> Word:
    """Run a registered function unit on already-fetched operands."""
    try:
        arity, fn = UNITS[name]
    except KeyError:
        raise TagMismatch(f"unknown function unit {name!r}") from None
    count = len(operands)
    if count == arity:
        return fn(*operands)
    if count < arity:
        raise TagMismatch(
            f"unit {name} needs {arity} operands, got {count}"
        )
    return fn(*operands[:arity])


def unit_function(name: str, count: int) -> Callable[..., Word]:
    """The callable that runs unit ``name`` on ``count`` operand words.

    ``unit_function(name, len(words))(*words)`` behaves exactly like
    ``execute_unit(name, words)``.  The machine resolves it once, when an
    ITLB miss fills an entry (the entry's key fixes the operand count),
    and calls the unit directly on every hit.
    """
    spec = UNITS.get(name)
    if spec is not None and spec[0] == count:
        return spec[1]
    return lambda *operands: execute_unit(name, list(operands))
