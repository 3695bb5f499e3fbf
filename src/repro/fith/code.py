"""Instruction set of the Fith Machine (paper section 5).

The Fith Machine "was a stack machine and had an instruction set very
different from the three address instruction set of the COM; however
the instruction translation mechanisms of the two machines are
identical".  We model it with a compact stack ISA:

* pure stack manipulation and branches are *machine operations*
  (``dispatched=False`` in traces);
* every other word is an abstract ``SEND`` whose meaning is resolved
  from the class of the object on top of the stack -- Forth syntax,
  Smalltalk semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.memory.tags import Word


class FithOp(enum.Enum):
    """Stack-machine operations."""

    PUSH = "push"              # push a literal word
    DUP = "dup"
    DROP = "drop"
    SWAP = "swap"
    OVER = "over"
    ROT = "rot"
    BRANCH = "branch"          # unconditional relative branch
    BRANCH_IF_FALSE = "0branch"  # pop; branch when false
    DO = "do"                  # pop start, limit; push loop frame
    LOOP = "loop"              # bump index; branch back while index < limit
    LOOP_I = "i"               # push innermost loop index
    LOOP_J = "j"               # push next-outer loop index
    RETURN = "return"          # return from a colon definition
    EXIT = "exit"              # early return
    SEND = "send"              # abstract instruction: dispatch on TOS class
    HALT = "halt"              # end of the main word


#: Spellings used when interning machine ops into an opcode table so
#: that every traced instruction has a well-defined opcode number.
MACHINE_OP_SELECTORS = {
    FithOp.PUSH: "(push)",
    FithOp.DUP: "(dup)",
    FithOp.DROP: "(drop)",
    FithOp.SWAP: "(swap)",
    FithOp.OVER: "(over)",
    FithOp.ROT: "(rot)",
    FithOp.BRANCH: "(branch)",
    FithOp.BRANCH_IF_FALSE: "(0branch)",
    FithOp.DO: "(do)",
    FithOp.LOOP: "(loop)",
    FithOp.LOOP_I: "(i)",
    FithOp.LOOP_J: "(j)",
    FithOp.RETURN: "(return)",
    FithOp.EXIT: "(exit)",
    FithOp.HALT: "(halt)",
}


@dataclass
class FithInstruction:
    """One stack-machine instruction.

    ``literal`` is set for PUSH; ``displacement`` for branches and
    LOOP; ``selector`` for SEND.
    """

    op: FithOp
    literal: Optional[Word] = None
    displacement: int = 0
    selector: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover
        if self.op is FithOp.PUSH:
            return f"PUSH {self.literal!r}"
        if self.op is FithOp.SEND:
            return f"SEND {self.selector}"
        if self.op in (FithOp.BRANCH, FithOp.BRANCH_IF_FALSE, FithOp.LOOP):
            return f"{self.op.name} {self.displacement:+d}"
        return self.op.name


@dataclass
class CompiledWord:
    """A compiled Fith word: a method on some class."""

    name: str
    class_name: str
    base_address: int
    instructions: List[FithInstruction]
    #: Predecoded plan tuples, filled lazily by the interpreter
    #: (``FithMachine._plan_of``); words are immutable once compiled.
    plan: Optional[list] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instructions)
