"""Operand descriptors: the two COM addressing modes (section 3.4).

Each of the (up to) three operand descriptors in an instruction selects
either

* **context mode** -- one bit picks the current or next context and the
  remaining bits are a positive offset into it, counted from the arg0
  slot (the two header words RCP/RIP are not operand-addressable); or
* **constant mode** -- legal only in the last descriptor; the bits
  index a small constant table holding frequently used constants
  (short integers, bit fields, and the objects true, false and nil).

Our descriptors are 7 bits wide (see encoding.py): one mode bit, and in
context mode one current/next bit plus a 5-bit offset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import EncodingError

#: Bits per operand descriptor in the 32-bit encoding.
OPERAND_BITS = 7
#: Operand-addressable slots per context (32 words minus RCP and RIP).
MAX_CONTEXT_OFFSET = 29
#: Entries in the constant table reachable from constant mode.
CONSTANT_TABLE_SIZE = 1 << (OPERAND_BITS - 1)
#: The mode bit (set: constant mode) and, in context mode, the
#: current/next bit (set: next context) of an encoded descriptor.
_CONSTANT_BIT = 1 << (OPERAND_BITS - 1)
_NEXT_BIT = 1 << (OPERAND_BITS - 2)


class Mode(enum.Enum):
    """Addressing mode of one operand descriptor."""

    CONTEXT = "context"
    CONSTANT = "constant"


class Space(enum.Enum):
    """Which context a context-mode descriptor addresses."""

    CURRENT = "current"
    NEXT = "next"


@dataclass(frozen=True)
class Operand:
    """A decoded operand descriptor."""

    mode: Mode
    space: Space = Space.CURRENT   # context mode only
    offset: int = 0                # context slot or constant index

    def __post_init__(self):
        if self.mode is Mode.CONTEXT:
            if not 0 <= self.offset <= MAX_CONTEXT_OFFSET:
                raise EncodingError(
                    f"context offset {self.offset} out of 0..{MAX_CONTEXT_OFFSET}"
                )
        else:
            if not 0 <= self.offset < CONSTANT_TABLE_SIZE:
                raise EncodingError(
                    f"constant index {self.offset} out of table range"
                )

    # -- constructors ------------------------------------------------------

    # Each returns the interned instance of :data:`_DECODE_TABLE` for a
    # valid descriptor (operands are frozen values), and builds one,
    # whose check raises, for any other.

    @staticmethod
    def current(offset: int) -> "Operand":
        """Slot ``offset`` of the current context (c0, c1, ...)."""
        if 0 <= offset <= MAX_CONTEXT_OFFSET:
            return _DECODE_TABLE[offset]
        return Operand(Mode.CONTEXT, Space.CURRENT, offset)

    @staticmethod
    def next(offset: int) -> "Operand":
        """Slot ``offset`` of the next context (n0, n1, ...)."""
        if 0 <= offset <= MAX_CONTEXT_OFFSET:
            return _DECODE_TABLE[_NEXT_BIT | offset]
        return Operand(Mode.CONTEXT, Space.NEXT, offset)

    @staticmethod
    def constant(index: int) -> "Operand":
        """Entry ``index`` of the constant table (k0, k1, ...)."""
        if 0 <= index < CONSTANT_TABLE_SIZE:
            return _DECODE_TABLE[_CONSTANT_BIT | index]
        return Operand(Mode.CONSTANT, Space.CURRENT, index)

    # -- encoding ----------------------------------------------------------

    def encode(self) -> int:
        """Pack into OPERAND_BITS bits."""
        if self.mode is Mode.CONSTANT:
            return _CONSTANT_BIT | self.offset
        bits = self.offset
        if self.space is Space.NEXT:
            bits |= _NEXT_BIT
        return bits

    @staticmethod
    def decode(bits: int) -> "Operand":
        """Unpack from OPERAND_BITS bits.

        Operands are frozen value objects and the descriptor space is
        tiny (2**OPERAND_BITS encodings), so decoding returns interned
        instances from a precomputed table.
        """
        if not 0 <= bits < (1 << OPERAND_BITS):
            raise EncodingError(f"operand bits {bits:#x} out of range")
        operand = _DECODE_TABLE[bits]
        if operand is None:
            # Invalid encoding (e.g. context offset past the operand-
            # addressable slots): re-run the checked path for its error.
            return Operand._decode_bits(bits)
        return operand

    @staticmethod
    def _decode_bits(bits: int) -> "Operand":
        if bits & _CONSTANT_BIT:
            return Operand(Mode.CONSTANT, Space.CURRENT,
                           bits & (CONSTANT_TABLE_SIZE - 1))
        space = Space.NEXT if bits & _NEXT_BIT else Space.CURRENT
        offset = bits & (_NEXT_BIT - 1)
        return Operand(Mode.CONTEXT, space, offset)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if self.mode is Mode.CONSTANT:
            return f"k{self.offset}"
        prefix = "c" if self.space is Space.CURRENT else "n"
        return f"{prefix}{self.offset}"

    @staticmethod
    def parse(text: str) -> "Operand":
        """Parse the assembler spelling: c<k>, n<k> or k<k>."""
        text = text.strip()
        if len(text) < 2 or text[0] not in "cnk" or not text[1:].isdigit():
            raise EncodingError(f"bad operand spelling {text!r}")
        value = int(text[1:])
        if text[0] == "c":
            return Operand.current(value)
        if text[0] == "n":
            return Operand.next(value)
        return Operand.constant(value)


def _build_decode_table():
    table = []
    for bits in range(1 << OPERAND_BITS):
        try:
            table.append(Operand._decode_bits(bits))
        except EncodingError:
            table.append(None)      # invalid encoding: raises on use
    return tuple(table)


#: Interned decode results for every possible descriptor encoding.
_DECODE_TABLE = _build_decode_table()

#: The descriptor conventionally used for "operand absent".  The COM has
#: no unused-operand encoding; we reserve current-context slot 0 reads
#: as harmless and let the assembler emit c0 for don't-care positions.
DONT_CARE = Operand.current(0)
