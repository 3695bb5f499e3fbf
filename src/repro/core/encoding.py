"""Binary encoding of COM instructions.

All instructions are 32 bits (section 3.3).  The paper's figure 4
prints the three-operand format with a 12-bit opcode and three 8-bit
descriptors (36 bits); we follow the *text* -- 32 bits -- with this
layout (documented deviation, see DESIGN.md):

    three-operand:  R<1> F=0<1> OP<9> A<7> B<7> C<7>
    zero-operand:   R<1> F=1<1> OP<9> N<2> IMM<19>

``R`` is the return bit (section 3.5: a method returns by executing an
instruction with the return bit set).  ``F`` selects the format.  For
zero-operand instructions ``N`` says how many locals of the next
context are considered as operands for dispatch (zero, one or two --
section 3.5), and ``IMM`` is a signed immediate available to jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import EncodingError
from repro.core.isa import OPCODE_BITS, NUM_OPCODES, Op, OpcodeTable
from repro.core.operands import OPERAND_BITS, Operand

_RET_SHIFT = 31
_FMT_SHIFT = 30
_OP_SHIFT = _FMT_SHIFT - OPCODE_BITS          # 21
_A_SHIFT = _OP_SHIFT - OPERAND_BITS           # 14
_B_SHIFT = _A_SHIFT - OPERAND_BITS            # 7
_C_SHIFT = 0
_NARGS_SHIFT = _OP_SHIFT - 2                  # 19
_IMM_BITS = _NARGS_SHIFT                      # 19
_IMM_MASK = (1 << _IMM_BITS) - 1
_OPERAND_MASK = (1 << OPERAND_BITS) - 1
_OP_MASK = NUM_OPCODES - 1

#: Shared memo for :meth:`Instruction.decode_cached`.
_DECODE_CACHE = {}
_DECODE_CACHE_LIMIT = 1 << 16


@dataclass(frozen=True)
class Instruction:
    """A decoded COM instruction.

    ``operands`` is a 3-tuple for the three-operand format and ``None``
    for the zero-operand format (which instead carries ``nargs`` and
    ``immediate``).
    """

    opcode: int
    operands: Optional[Tuple[Operand, Operand, Operand]] = None
    returns: bool = False
    nargs: int = 0
    immediate: int = 0

    def __post_init__(self):
        if not 0 <= self.opcode < NUM_OPCODES:
            raise EncodingError(f"opcode {self.opcode} out of range")
        if self.operands is not None and len(self.operands) != 3:
            raise EncodingError("three-operand format needs exactly 3 operands")
        if self.operands is None:
            if not 0 <= self.nargs <= 2:
                raise EncodingError(f"nargs {self.nargs} out of 0..2")
            half = 1 << (_IMM_BITS - 1)
            if not -half <= self.immediate < half:
                raise EncodingError(f"immediate {self.immediate} out of range")

    @property
    def is_zero_operand(self) -> bool:
        return self.operands is None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def three(opcode: int, a: Operand, b: Operand, c: Operand,
              returns: bool = False) -> "Instruction":
        """A three-operand instruction ``a <- b OP c`` (or op-specific)."""
        return Instruction(opcode, (a, b, c), returns)

    @staticmethod
    def zero(opcode: int, nargs: int = 0, immediate: int = 0,
             returns: bool = False) -> "Instruction":
        """A zero-operand instruction (operands taken from next context)."""
        return Instruction(opcode, None, returns, nargs, immediate)

    # -- encoding ---------------------------------------------------------

    def encode(self) -> int:
        word = (int(self.returns) << _RET_SHIFT) | (
            (self.opcode & _OP_MASK) << _OP_SHIFT
        )
        if self.operands is not None:
            a, b, c = self.operands
            word |= a.encode() << _A_SHIFT
            word |= b.encode() << _B_SHIFT
            word |= c.encode() << _C_SHIFT
        else:
            word |= 1 << _FMT_SHIFT
            word |= (self.nargs & 0x3) << _NARGS_SHIFT
            word |= self.immediate & _IMM_MASK
        return word

    @staticmethod
    def decode(word: int) -> "Instruction":
        if not 0 <= word < (1 << 32):
            raise EncodingError(f"instruction word {word:#x} not 32 bits")
        returns = bool((word >> _RET_SHIFT) & 1)
        zero_format = bool((word >> _FMT_SHIFT) & 1)
        opcode = (word >> _OP_SHIFT) & _OP_MASK
        if zero_format:
            nargs = (word >> _NARGS_SHIFT) & 0x3
            if nargs == 3:
                raise EncodingError("nargs=3 is not encodable")
            immediate = word & _IMM_MASK
            half = 1 << (_IMM_BITS - 1)
            if immediate >= half:
                immediate -= 1 << _IMM_BITS
            return Instruction.zero(opcode, nargs, immediate, returns)
        a = Operand.decode((word >> _A_SHIFT) & _OPERAND_MASK)
        b = Operand.decode((word >> _B_SHIFT) & _OPERAND_MASK)
        c = Operand.decode((word >> _C_SHIFT) & _OPERAND_MASK)
        return Instruction.three(opcode, a, b, c, returns)

    @staticmethod
    def decode_cached(word: int) -> "Instruction":
        """Memoized :meth:`decode` for hot fetch paths.

        Instructions are frozen value objects, so sharing decode
        results is safe; a program's working set of distinct encodings
        is small.  The cache is bounded to keep pathological inputs
        (e.g. decoding random words) from growing it without limit.
        """
        inst = _DECODE_CACHE.get(word)
        if inst is None:
            inst = Instruction.decode(word)
            if len(_DECODE_CACHE) >= _DECODE_CACHE_LIMIT:
                _DECODE_CACHE.clear()
            _DECODE_CACHE[word] = inst
        return inst

    # -- display ------------------------------------------------------------

    def mnemonic(self, table: Optional[OpcodeTable] = None) -> str:
        if table is not None:
            name = table.selector_of(self.opcode)
        else:
            op = Op(self.opcode) if self.opcode in Op._value2member_map_ else None
            name = op.name.lower() if op else f"op{self.opcode}"
        suffix = " ^" if self.returns else ""
        if self.operands is None:
            return f"{name}/{self.nargs} imm={self.immediate}{suffix}"
        a, b, c = self.operands
        return f"{name} {a},{b},{c}{suffix}"

    def __str__(self) -> str:
        return self.mnemonic()


def disassemble(words, table: Optional[OpcodeTable] = None):
    """Decode a sequence of 32-bit words into printable lines."""
    lines = []
    for index, word in enumerate(words):
        inst = Instruction.decode(word)
        lines.append(f"{index:4d}: {word:08x}  {inst.mnemonic(table)}")
    return lines
