"""The constant table (paper section 3.4).

Constant mode indexes a small table "used to hold frequently referenced
constants including short integers, bit fields for byte insertion and
the objects true, false, and nil".  Indices 0..2 are architecturally
nil, true and false; small integers 0..9 occupy the next slots; the
remaining entries are assigned on demand by the assembler/compiler.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import EncodingError
from repro.core.operands import CONSTANT_TABLE_SIZE
from repro.memory.tags import Word

#: Architectural constant indices.
NIL_INDEX = 0
TRUE_INDEX = 1
FALSE_INDEX = 2

NIL = Word.atom("nil")
TRUE = Word.atom("true")
FALSE = Word.atom("false")


def boolean_word(value: bool) -> Word:
    """The COM object for a Python truth value."""
    return TRUE if value else FALSE


def is_true(word: Word) -> bool:
    """Truthiness as the jump instructions see it.

    The atom ``true`` and any non-zero small integer are true; the atom
    ``false``, the atom ``nil`` and zero are false.
    """
    if word.is_small_integer:
        return word.value != 0
    if word.same_object_as(TRUE):
        return True
    return False


class ConstantTable:
    """A fixed-size table of Words addressable from constant mode."""

    def __init__(self) -> None:
        self._entries: List[Word] = [NIL, TRUE, FALSE]
        self._index: Dict[tuple, int] = {}
        for i, word in enumerate(self._entries):
            self._index[(word.tag, word.value)] = i
        for value in range(10):
            self.intern(Word.small_integer(value))

    def intern(self, word: Word) -> int:
        """Index of ``word``, adding it if absent."""
        key = (word.tag, word.value)
        index = self._index.get(key)
        if index is not None:
            return index
        if len(self._entries) >= CONSTANT_TABLE_SIZE:
            raise EncodingError(
                f"constant table full ({CONSTANT_TABLE_SIZE} entries)"
            )
        self._entries.append(word)
        index = len(self._entries) - 1
        self._index[key] = index
        return index

    def get(self, index: int) -> Word:
        try:
            return self._entries[index]
        except IndexError:
            raise EncodingError(f"constant index {index} unassigned") from None

    def __len__(self) -> int:
        return len(self._entries)
