"""Tagged memory words.

Every word of COM memory carries a four-bit *primitive tag* identifying
its primitive type (paper section 3.2): uninitialized, small integer,
floating point number, atom, instruction and object pointer.

When a word is cached in the context cache a 16-bit *class tag* is
cached alongside it.  For primitive words the class tag is the four-bit
tag zero-extended; for object pointers it identifies the class of the
pointed-to object and feeds the ITLB key (abstract-instruction
dispatch).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.errors import TagMismatch

#: Width of the primitive tag in bits.
PRIMITIVE_TAG_BITS = 4
#: Width of the class tag cached with each word in the context cache.
CLASS_TAG_BITS = 16
#: Number of distinct class tags (class ids live in [0, NUM_CLASS_TAGS)).
NUM_CLASS_TAGS = 1 << CLASS_TAG_BITS


class Tag(enum.IntEnum):
    """The four-bit primitive tags of COM memory words."""

    UNINITIALIZED = 0
    SMALL_INTEGER = 1
    FLOAT = 2
    ATOM = 3
    INSTRUCTION = 4
    OBJECT_POINTER = 5

    @property
    def is_primitive(self) -> bool:
        """True for tags whose class is fully determined by the tag itself."""
        return self is not Tag.OBJECT_POINTER

    def default_class_tag(self) -> int:
        """The 16-bit class tag for a primitive word: the tag zero-extended."""
        return int(self)


#: Range of the COM small integer (a 32-bit word minus the 4-bit tag
#: leaves 28 bits of payload; we model a signed 28-bit integer).
SMALL_INTEGER_BITS = 28
SMALL_INTEGER_MIN = -(1 << (SMALL_INTEGER_BITS - 1))
SMALL_INTEGER_MAX = (1 << (SMALL_INTEGER_BITS - 1)) - 1


def fits_small_integer(value: int) -> bool:
    """Whether ``value`` is representable as a COM small integer."""
    return SMALL_INTEGER_MIN <= value <= SMALL_INTEGER_MAX


@dataclass(frozen=True)
class Word:
    """One tagged word of COM memory.

    ``value`` is interpreted according to ``tag``:

    * ``SMALL_INTEGER`` -- a Python int in the 28-bit signed range,
    * ``FLOAT`` -- a Python float,
    * ``ATOM`` -- an interned symbol name (str),
    * ``INSTRUCTION`` -- a 32-bit encoded instruction (int),
    * ``OBJECT_POINTER`` -- a virtual address (int or FloatingPointAddress
      packed form) together with ``class_tag`` identifying the referent's
      class,
    * ``UNINITIALIZED`` -- value is ignored (kept as ``None``).
    """

    tag: Tag
    value: Any = None
    class_tag: int = -1

    def __post_init__(self):
        if self.class_tag == -1:
            if self.tag is Tag.OBJECT_POINTER:
                raise TagMismatch("object pointers must carry an explicit class tag")
            object.__setattr__(self, "class_tag", self.tag.default_class_tag())
        if not 0 <= self.class_tag < NUM_CLASS_TAGS:
            raise TagMismatch(f"class tag {self.class_tag} out of 16-bit range")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def uninitialized() -> "Word":
        """The word a freshly cleared context block contains."""
        return _UNINITIALIZED

    @staticmethod
    def small_integer(value: int) -> "Word":
        """A small integer word; the value must fit in 28 signed bits."""
        if not fits_small_integer(value):
            raise TagMismatch(f"{value} does not fit in a small integer")
        return small_integer_word(value)

    @staticmethod
    def floating(value: float) -> "Word":
        """A floating point number word."""
        return Word(Tag.FLOAT, float(value))

    @staticmethod
    def atom(name: str) -> "Word":
        """An atom (interned symbol) word."""
        return Word(Tag.ATOM, str(name))

    @staticmethod
    def instruction(encoded: int) -> "Word":
        """An instruction word holding a 32-bit encoding."""
        return Word(Tag.INSTRUCTION, int(encoded) & 0xFFFFFFFF)

    @staticmethod
    def pointer(address: int, class_tag: int) -> "Word":
        """An object pointer word: a capability naming ``address``.

        ``class_tag`` is the 16-bit class of the referent, cached with
        the word so the ITLB can form its key without a memory access.
        """
        return Word(Tag.OBJECT_POINTER, int(address), class_tag)

    # -- predicates ------------------------------------------------------

    @property
    def is_uninitialized(self) -> bool:
        return self.tag is Tag.UNINITIALIZED

    @property
    def is_small_integer(self) -> bool:
        return self.tag is Tag.SMALL_INTEGER

    @property
    def is_float(self) -> bool:
        return self.tag is Tag.FLOAT

    @property
    def is_pointer(self) -> bool:
        return self.tag is Tag.OBJECT_POINTER

    @property
    def is_number(self) -> bool:
        return self.tag in (Tag.SMALL_INTEGER, Tag.FLOAT)

    # -- accessors -------------------------------------------------------

    def expect(self, tag: Tag) -> Any:
        """Return the value, raising TagMismatch unless the tag matches."""
        if self.tag is not tag:
            raise TagMismatch(f"expected {tag.name}, found {self.tag.name}")
        return self.value

    def same_object_as(self, other: "Word") -> bool:
        """The COM ``==`` (same object) comparison, defined for all types."""
        return self.tag == other.tag and self.value == other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.tag is Tag.UNINITIALIZED:
            return "<uninit>"
        if self.tag is Tag.OBJECT_POINTER:
            return f"<ptr {self.value:#x} class={self.class_tag}>"
        return f"<{self.tag.name.lower()} {self.value!r}>"


_UNINITIALIZED = Word(Tag.UNINITIALIZED)
_SMALL_INTEGER_CLASS_TAG = Tag.SMALL_INTEGER.default_class_tag()


def small_integer_word(value: int) -> Word:
    """A small-integer word for a ``value`` the caller has range-checked.

    The trusted constructor of the arithmetic hot paths: callers check
    :func:`fits_small_integer` once (``Word.small_integer`` and the
    function units do), and this skips the frozen dataclass's
    ``__init__``/``__post_init__`` round trip, building the same word.
    """
    word = object.__new__(Word)
    object.__setattr__(word, "__dict__", {
        "tag": Tag.SMALL_INTEGER, "value": int(value),
        "class_tag": _SMALL_INTEGER_CLASS_TAG})
    return word
