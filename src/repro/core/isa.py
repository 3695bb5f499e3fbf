"""The COM instruction set (paper section 3.3).

Every COM opcode is *abstract*: it is a message name, and what it does
depends on the classes of its operands.  The architecture ships a set
of opcodes with primitive methods for the common classes (arithmetic on
small integers and floats, moves, comparisons, ...); any opcode applied
to other classes, and any user-defined selector, resolves through the
ITLB to a defined method instead.

``OpcodeTable`` owns the opcode number space: architectural opcodes get
fixed low numbers and user selectors are assigned the remaining numbers
on demand (the compiler's "assembling opcodes" step from section 2.1).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.errors import EncodingError

#: Bits in the opcode field of our 32-bit encoding (see encoding.py for
#: the full layout and the DESIGN.md note on the paper's 36-bit figure).
OPCODE_BITS = 9
NUM_OPCODES = 1 << OPCODE_BITS


class Op(enum.IntEnum):
    """Architectural opcodes with primitive methods (section 3.3)."""

    # Arithmetic -- small integer and (except modulo) floating point,
    # plus the primitive mixed-mode combinations.
    ADD = 1
    SUB = 2
    MUL = 3
    DIV = 4
    MOD = 5
    NEG = 6
    # Multiple precision arithmetic support (small integer only).
    CARRY = 7
    MULT1 = 8
    MULT2 = 9
    # Logical and bit field instructions (small integers as bit fields).
    SHIFT = 10
    ASHIFT = 11
    ROTATE = 12
    MASK = 13
    AND = 14
    OR = 15
    NOT = 16
    XOR = 17
    # Comparisons -- small integer and floating point; SAME (same
    # object) is defined for all types.
    LT = 18
    LE = 19
    EQ = 20
    SAME = 21
    # Moves.  MOVE is defined for all types; MOVEA takes an effective
    # address; AT/ATPUT are the only memory-access instructions.
    MOVE = 22
    MOVEA = 23
    AT = 24
    ATPUT = 25
    # Tag access.  AS is conditionally privileged (capability forging).
    AS = 26
    TAG = 27
    # Control: jumps within a method, and the general context transfer.
    FJMP = 28
    RJMP = 29
    XFER = 30
    # Simulator control (not in the paper; ends a top-level program).
    HALT = 31


#: Canonical Smalltalk-ish selector spelling for each architectural opcode.
OP_SELECTORS: Dict[Op, str] = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.DIV: "/",
    Op.MOD: "\\\\", Op.NEG: "negated",
    Op.CARRY: "carry:", Op.MULT1: "mult1:", Op.MULT2: "mult2:",
    Op.SHIFT: "shift:", Op.ASHIFT: "ashift:", Op.ROTATE: "rotate:",
    Op.MASK: "mask:", Op.AND: "bitAnd:", Op.OR: "bitOr:",
    Op.NOT: "bitNot", Op.XOR: "bitXor:",
    Op.LT: "<", Op.LE: "<=", Op.EQ: "=", Op.SAME: "==",
    Op.MOVE: "move", Op.MOVEA: "movea",
    Op.AT: "at:", Op.ATPUT: "at:put:",
    Op.AS: "as:", Op.TAG: "tag",
    Op.FJMP: "fjmp", Op.RJMP: "rjmp", Op.XFER: "xfer",
    Op.HALT: "halt",
}

#: First opcode number available for user-defined selectors.
FIRST_USER_OPCODE = 64

#: Memoized opcode-number -> Op member (or None) for the whole opcode
#: space: looking an instruction's op up is a single index instead of
#: an enum construction.
ARCHITECTURAL_OPS: tuple = tuple(
    Op(number) if (0 < number < FIRST_USER_OPCODE
                   and number in Op._value2member_map_) else None
    for number in range(NUM_OPCODES)
)


def architectural_op(number: int) -> Optional[Op]:
    """The :class:`Op` member for an architectural number, else None."""
    if 0 <= number < NUM_OPCODES:
        return ARCHITECTURAL_OPS[number]
    return None


class OpcodeTable:
    """Bidirectional map between opcode numbers and selector names.

    Architectural opcodes occupy numbers 1..63; user selectors are
    assigned 64 onward in first-come order, which makes compiled code
    deterministic for a given compilation order.
    """

    def __init__(self) -> None:
        self._by_number: Dict[int, str] = {}
        self._by_selector: Dict[str, int] = {}
        self._next_user = FIRST_USER_OPCODE
        for op in Op:
            self._bind(int(op), OP_SELECTORS[op])

    def _bind(self, number: int, selector: str) -> None:
        self._by_number[number] = selector
        self._by_selector[selector] = number

    def intern(self, selector: str) -> int:
        """Opcode number for a selector, assigning a fresh one if new."""
        number = self._by_selector.get(selector)
        if number is not None:
            return number
        if self._next_user >= NUM_OPCODES:
            raise EncodingError("user opcode space exhausted")
        number = self._next_user
        self._next_user += 1
        self._bind(number, selector)
        return number

    def selector_of(self, number: int) -> str:
        try:
            return self._by_number[number]
        except KeyError:
            raise EncodingError(f"unassigned opcode number {number}") from None

    def number_of(self, selector: str) -> Optional[int]:
        """Existing number for a selector, or None (no assignment)."""
        return self._by_selector.get(selector)

    def __len__(self) -> int:
        return len(self._by_number)
