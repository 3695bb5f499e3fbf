"""Floating point virtual addresses (paper section 2.2).

An address is an ``m``-bit mantissa plus an ``e``-bit exponent, with
``e = ceil(log2(m))``.  The exponent encodes the size of the offset
field: the low ``E`` bits of the mantissa are the offset within the
segment and the remaining high ``m - E`` bits are the *segment field*.
The segment field **combined with the exponent** names the segment
descriptor, so segments of different sizes live in disjoint regions of
the descriptor name space.

The paper's worked example uses a 16-bit address: ``0x8345`` splits into
exponent ``0x8`` (4 bits) and mantissa ``0x345`` (12 bits); offset is
the low 8 bits ``0x45`` and the *segment name* is the exponent
concatenated with the 4-bit segment field: ``0x83``.  This module
reproduces exactly that encoding for any format width.

Aliasing: an object that grows beyond ``2**E`` words is given a new
address with a larger exponent; both old and new names map to the same
segment, and accesses through the old name beyond the old bounds raise
an :class:`~repro.errors.AliasTrap` whose handler forwards the pointer
(see :mod:`repro.memory.mmu`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.errors import InvalidAddress


def _ceil_log2(n: int) -> int:
    if n <= 0:
        raise InvalidAddress(f"cannot take log2 of {n}")
    return (n - 1).bit_length()


@dataclass(frozen=True)
class AddressFormat:
    """A floating point address format of a given total width.

    ``total_bits`` is split into an exponent field of
    ``e = ceil(log2(m))`` bits and a mantissa of ``m`` bits, the unique
    split with ``e + m == total_bits``.  The exponent occupies the high
    bits (the paper's 0x8345 example).
    """

    total_bits: int

    def __post_init__(self):
        if self.total_bits < 3:
            raise InvalidAddress("address formats need at least 3 bits")
        # Find m with m + ceil(log2(m)) == total_bits.  m is monotone in
        # total_bits so a downward scan from total_bits terminates fast.
        m = None
        for candidate in range(self.total_bits - 1, 0, -1):
            if candidate + _ceil_log2(candidate) == self.total_bits:
                m = candidate
                break
        if m is None:
            # No exact split (happens just below powers of two); take the
            # largest mantissa that fits and widen the exponent field.
            for candidate in range(self.total_bits - 1, 0, -1):
                if candidate + _ceil_log2(candidate) <= self.total_bits:
                    m = candidate
                    break
        if m is None:  # pragma: no cover - total_bits >= 3 always finds one
            raise InvalidAddress(f"no mantissa fits in {self.total_bits} bits")
        object.__setattr__(self, "_mantissa_bits", m)
        object.__setattr__(self, "_exponent_bits", self.total_bits - m)
        object.__setattr__(
            self, "_max_exponent",
            min(m, (1 << (self.total_bits - m)) - 1))

    @property
    def mantissa_bits(self) -> int:
        """Width ``m`` of the mantissa field."""
        return self._mantissa_bits

    @property
    def exponent_bits(self) -> int:
        """Width ``e`` of the exponent field."""
        return self._exponent_bits

    @property
    def max_exponent(self) -> int:
        """Largest legal exponent.

        At most the full mantissa becomes the offset (E = m), clipped
        to what the exponent field can actually express -- the clip
        only bites when m is an exact power of two, which the paper's
        16- and 36-bit formats avoid.  Precomputed: address arithmetic
        checks it on every construction.
        """
        return self._max_exponent

    @property
    def max_segment_words(self) -> int:
        """Size of the largest representable segment, in words."""
        return 1 << self.max_exponent

    def total_segment_names(self) -> int:
        """How many distinct segment names the format can express.

        For each exponent ``E`` there are ``2**(m - E)`` segment fields,
        so the total is ``sum_{E=0}^{max} 2**(m-E)`` -- equal to
        ``2**(m+1) - 1`` when every exponent up to ``m`` is expressible
        (true of the paper's 16- and 36-bit formats).
        """
        m = self.mantissa_bits
        return (1 << (m + 1)) - (1 << (m - self.max_exponent))

    # -- packing ---------------------------------------------------------

    def pack(self, exponent: int, mantissa: int) -> int:
        """Pack (exponent, mantissa) into a single integer address."""
        self._check_exponent(exponent)
        if not 0 <= mantissa < (1 << self.mantissa_bits):
            raise InvalidAddress(
                f"mantissa {mantissa:#x} out of {self.mantissa_bits}-bit range"
            )
        return (exponent << self.mantissa_bits) | mantissa

    def unpack(self, packed: int) -> Tuple[int, int]:
        """Split a packed address back into (exponent, mantissa)."""
        if not 0 <= packed < (1 << self.total_bits):
            raise InvalidAddress(
                f"address {packed:#x} out of {self.total_bits}-bit range"
            )
        exponent = packed >> self.mantissa_bits
        mantissa = packed & ((1 << self.mantissa_bits) - 1)
        self._check_exponent(exponent)
        return exponent, mantissa

    def _check_exponent(self, exponent: int) -> None:
        if not 0 <= exponent <= self._max_exponent:
            raise InvalidAddress(
                f"exponent {exponent} out of range [0, {self._max_exponent}]"
            )

    # -- address construction --------------------------------------------

    def make(self, exponent: int, segment_field: int, offset: int) -> "FPAddress":
        """Build an address from explicit fields, validating each."""
        self._check_exponent(exponent)
        seg_bits = self.mantissa_bits - exponent
        if not 0 <= segment_field < (1 << seg_bits):
            raise InvalidAddress(
                f"segment field {segment_field:#x} out of {seg_bits}-bit range"
            )
        if not 0 <= offset < (1 << exponent):
            raise InvalidAddress(
                f"offset {offset:#x} exceeds 2**{exponent} segment span"
            )
        mantissa = (segment_field << exponent) | offset
        return FPAddress(self, exponent, mantissa)

    def from_packed(self, packed: int) -> "FPAddress":
        """Decode a packed integer into an :class:`FPAddress`."""
        exponent, mantissa = self.unpack(packed)
        return _make_address(self, exponent, mantissa)

    def exponent_for_size(self, size_words: int) -> int:
        """Smallest exponent whose offset range covers ``size_words``."""
        if size_words < 0:
            raise InvalidAddress("segment sizes are non-negative")
        if size_words <= 1:
            return 0
        exponent = _ceil_log2(size_words)
        if exponent > self.max_exponent:
            raise InvalidAddress(
                f"no exponent covers {size_words} words "
                f"(max segment is {self.max_segment_words} words)"
            )
        return exponent

    def segment_names_for_exponent(self, exponent: int) -> int:
        """How many segments of size class ``exponent`` can be named."""
        self._check_exponent(exponent)
        return 1 << (self.mantissa_bits - exponent)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AddressFormat({self.total_bits} bits: "
            f"e={self.exponent_bits}, m={self.mantissa_bits})"
        )


@lru_cache(maxsize=None)
def address_format(total_bits: int) -> AddressFormat:
    """Interned constructor for address formats (they are tiny and shared)."""
    return AddressFormat(total_bits)


#: The paper's two running examples.
FORMAT_16 = address_format(16)   # e=4, m=12 -- the 0x8345 example
FORMAT_36 = address_format(36)   # e=5, m=31 -- the MULTICS comparison


@dataclass(frozen=True)
class FPAddress:
    """A decoded floating point virtual address.

    Immutable value object; arithmetic (offset stepping) returns new
    addresses.  The *segment name* is the (exponent, segment field)
    pair, matching the paper's "integer part of the real address when
    combined with the exponent names the segment descriptor".
    """

    fmt: AddressFormat
    exponent: int
    mantissa: int

    def __post_init__(self):
        self.fmt._check_exponent(self.exponent)
        if not 0 <= self.mantissa < (1 << self.fmt.mantissa_bits):
            raise InvalidAddress(f"mantissa {self.mantissa:#x} out of range")

    @property
    def offset(self) -> int:
        """Offset within the segment: the low ``exponent`` mantissa bits."""
        return self.mantissa & ((1 << self.exponent) - 1)

    @property
    def segment_field(self) -> int:
        """The integer part of the real address (high mantissa bits)."""
        return self.mantissa >> self.exponent

    @property
    def segment_name(self) -> Tuple[int, int]:
        """The (exponent, segment field) pair indexing the segment table."""
        return (self.exponent, self.segment_field)

    @property
    def packed_segment_name(self) -> int:
        """Segment name as one integer: exponent concatenated with field.

        Reproduces the paper's 0x83 for address 0x8345 in the 16-bit
        format.
        """
        return (self.exponent << (self.fmt.mantissa_bits - self.exponent)) | (
            self.segment_field
        )

    @property
    def span(self) -> int:
        """Number of words addressable through this pointer: ``2**E``."""
        return 1 << self.exponent

    @property
    def packed(self) -> int:
        """The packed integer form of the whole address.

        Fields were validated at construction, so this packs directly
        (``AddressFormat.pack`` re-validates; pointer materialisation
        is too hot for that).
        """
        return (self.exponent << self.fmt._mantissa_bits) | self.mantissa

    def with_offset(self, offset: int) -> "FPAddress":
        """Same segment, different offset; offset must be within span."""
        exponent = self.exponent
        if not 0 <= offset < (1 << exponent):
            raise InvalidAddress(
                f"offset {offset} outside span {self.span} of {self!r}"
            )
        mantissa = (self.mantissa >> exponent << exponent) | offset
        return _make_address(self.fmt, exponent, mantissa)

    def step(self, delta: int) -> "FPAddress":
        """Move the offset by ``delta`` words (may raise on overflow)."""
        return self.with_offset(self.offset + delta)

    def base(self) -> "FPAddress":
        """The address of the segment's first word."""
        return self.with_offset(0)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FPA({self.fmt.total_bits}b E={self.exponent} "
            f"seg={self.segment_field:#x} off={self.offset:#x})"
        )


def _make_address(fmt: AddressFormat, exponent: int,
                  mantissa: int) -> FPAddress:
    """Trusted FPAddress constructor for already-validated fields.

    Address arithmetic (IP stepping, pointer chasing) constructs tens
    of addresses per interpreted instruction; skipping the dataclass
    __init__/__post_init__ re-validation there is a measurable win.
    Only call with fields known to satisfy the format's invariants.
    """
    address = object.__new__(FPAddress)
    object.__setattr__(address, "fmt", fmt)
    object.__setattr__(address, "exponent", exponent)
    object.__setattr__(address, "mantissa", mantissa)
    return address


def multics_style_capacity(total_bits: int) -> Tuple[int, int]:
    """Fixed-field capacity for the MULTICS-style comparison (section 2.2).

    Returns (number of segments, max segment words) for a conventional
    scheme that splits ``total_bits`` into two equal fixed fields, as in
    the 36-bit MULTICS address (256K segments of <= 256K words).
    """
    half = total_bits // 2
    return (1 << half, 1 << (total_bits - half))


def floating_capacity(total_bits: int) -> Tuple[int, int]:
    """(total segment names, max segment words) for the floating format."""
    fmt = address_format(total_bits)
    return (fmt.total_segment_names(), fmt.max_segment_words)
