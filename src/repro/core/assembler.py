"""A textual assembler for COM programs.

The syntax follows the flavour of the paper's figure 9 compiled-code
listing.  One statement per line; ``;`` starts a comment; a trailing
``^`` sets the return bit.  Operands are ``cN`` (current context slot),
``nN`` (next context slot) or literals (integers, floats, ``true``,
``false``, ``nil``, ``#atom``), which are interned into the constant
table and addressed in constant mode.

Statement forms::

    c2 = c1 + c3          ; binary op (architectural or user selector)
    c2 = c1               ; move
    c2 = neg c1           ; unary op (neg, bitnot, tag)
    c2 = & c3             ; movea (effective address)
    c2 = c1 [ c3 ]        ; at:      (c2 <- field c3 of object c1)
    c1 [ c3 ] = c2        ; at:put:  (field c3 of object c1 <- c2)
    c2 = c1 as 1          ; as: (privileged retag)
    loop:                 ; label
    jt c2 loop            ; jump to label if c2 is true
    jf c2 done            ; jump to label if c2 is false (via eq/false)
    jmp loop              ; unconditional jump
    send foo: 2           ; zero-operand send, nargs=2
    xfer c2               ; transfer to context c2
    halt                  ; stop the simulator
    ret c2                ; return c2 (c0 = c2 with the return bit)
    ret                   ; bare return

Programs (see :func:`load_program`) add directives::

    class Point < Object
    method Point >> norm2 args=1 frame=8
        ...
    main
        ...
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AssemblerError
from repro.core.constants import ConstantTable, FALSE, NIL, TRUE
from repro.core.encoding import Instruction
from repro.core.isa import Op, OpcodeTable
from repro.core.operands import Operand
from repro.memory.tags import Word

#: Spellings accepted for binary architectural opcodes.
BINARY_OPS: Dict[str, Op] = {
    "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV, "%": Op.MOD,
    "mod": Op.MOD,
    "carry": Op.CARRY, "mult1": Op.MULT1, "mult2": Op.MULT2,
    "shift": Op.SHIFT, "ashift": Op.ASHIFT, "rotate": Op.ROTATE,
    "mask": Op.MASK,
    "band": Op.AND, "bor": Op.OR, "bxor": Op.XOR,
    "<": Op.LT, "<=": Op.LE, "=": Op.EQ, "eq": Op.EQ,
    "==": Op.SAME, "same": Op.SAME,
}

UNARY_OPS: Dict[str, Op] = {
    "neg": Op.NEG,
    "bitnot": Op.NOT,
    "tag": Op.TAG,
}

_LABEL_RE = re.compile(r"^(\w+):$")
_INT_RE = re.compile(r"^-?\d+$")
_FLOAT_RE = re.compile(r"^-?\d+\.\d+$")
_CTX_RE = re.compile(r"^[cn]\d+$")


class Assembler:
    """Two-pass assembler sharing a machine's opcode and constant tables."""

    def __init__(self, opcodes: OpcodeTable, constants: ConstantTable) -> None:
        self.opcodes = opcodes
        self.constants = constants
        #: token -> descriptor.  A token always resolves to the same
        #: descriptor: a literal interns to the same constant index.
        self._operands: Dict[str, Operand] = {}

    # -- operand handling --------------------------------------------------

    def _literal_word(self, token: str) -> Optional[Word]:
        if token == "true":
            return TRUE
        if token == "false":
            return FALSE
        if token == "nil":
            return NIL
        if token.startswith("#"):
            return Word.atom(token[1:])
        if _INT_RE.match(token):
            return Word.small_integer(int(token))
        if _FLOAT_RE.match(token):
            return Word.floating(float(token))
        return None

    def operand(self, token: str) -> Operand:
        """Resolve an operand token to a descriptor."""
        operand = self._operands.get(token)
        if operand is None:
            if _CTX_RE.match(token):
                operand = Operand.parse(token)
            else:
                word = self._literal_word(token)
                if word is None:
                    raise AssemblerError(f"unrecognised operand {token!r}")
                operand = Operand.constant(self.constants.intern(word))
            self._operands[token] = operand
        return operand

    def _dest(self, token: str) -> Operand:
        op = self.operand(token)
        if op.mode.value == "constant":
            raise AssemblerError(f"destination {token!r} must be a context slot")
        return op

    # -- statement assembly --------------------------------------------------

    def _tokenize(self, line: str) -> List[str]:
        line = line.split(";", 1)[0]
        line = line.replace("[", " [ ").replace("]", " ] ").replace(",", " ")
        return line.split()

    def assemble_lines(self, lines: Sequence[str]) -> List[Instruction]:
        """Assemble a method body (labels resolved in a second pass)."""
        # Pass 1: collect statements and label positions.
        statements: List[List[str]] = []
        labels: Dict[str, int] = {}
        for raw in lines:
            tokens = self._tokenize(raw)
            if not tokens:
                continue
            match = _LABEL_RE.match(tokens[0]) if len(tokens) == 1 else None
            if match:
                name = match.group(1)
                if name in labels:
                    raise AssemblerError(f"duplicate label {name!r}")
                labels[name] = len(statements)
                continue
            statements.append(tokens)
        # Pass 2: emit instructions.
        return [
            self._assemble_statement(tokens, index, labels)
            for index, tokens in enumerate(statements)
        ]

    def _jump(self, cond: Operand, index: int, target: int) -> Instruction:
        displacement = target - (index + 1)
        if displacement >= 0:
            op, magnitude = Op.FJMP, displacement
        else:
            op, magnitude = Op.RJMP, -displacement
        disp_operand = Operand.constant(
            self.constants.intern(Word.small_integer(magnitude)))
        return Instruction.three(int(op), cond, Operand.current(0),
                                 disp_operand)

    def _assemble_statement(
        self, tokens: List[str], index: int, labels: Dict[str, int]
    ) -> Instruction:
        returns = False
        if tokens and tokens[-1] == "^":
            returns = True
            tokens = tokens[:-1]
        if not tokens:
            raise AssemblerError("empty statement with return marker")
        head = tokens[0]

        def label_target(name: str) -> int:
            if name not in labels:
                raise AssemblerError(f"undefined label {name!r}")
            return labels[name]

        if head == "halt":
            return Instruction.zero(int(Op.HALT), returns=False)
        if head == "ret":
            if returns:
                raise AssemblerError("ret already implies the return bit")
            if len(tokens) == 1:
                slot = Operand.current(1)
                return Instruction.three(int(Op.MOVE), slot, slot,
                                         Operand.current(0), returns=True)
            value = self.operand(tokens[1])
            return Instruction.three(int(Op.MOVE), Operand.current(0),
                                     value, Operand.current(0), returns=True)
        if head == "jmp":
            if len(tokens) != 2:
                raise AssemblerError("jmp takes one label")
            cond = Operand.constant(self.constants.intern(TRUE))
            inst = self._jump(cond, index, label_target(tokens[1]))
            return self._with_return(inst, returns)
        if head in ("jt", "jf"):
            if len(tokens) != 3:
                raise AssemblerError(f"{head} takes a condition and a label")
            cond = self.operand(tokens[1])
            if head == "jf":
                raise AssemblerError(
                    "jf requires an inverted condition; compute it with "
                    "'= false' and use jt")
            inst = self._jump(cond, index, label_target(tokens[2]))
            return self._with_return(inst, returns)
        if head == "send":
            if len(tokens) != 3 or not tokens[2].isdigit():
                raise AssemblerError("send takes a selector and an arg count")
            nargs = int(tokens[2])
            if nargs > 2:
                raise AssemblerError("send supports at most 2 dispatch args")
            opcode = self.opcodes.intern(tokens[1])
            return Instruction.zero(opcode, nargs=nargs, returns=returns)
        if head == "xfer":
            if len(tokens) != 2:
                raise AssemblerError("xfer takes one operand")
            target = self.operand(tokens[1])
            return Instruction.three(int(Op.XFER), target, target,
                                     Operand.current(0), returns=returns)

        # Bracket store:  obj [ idx ] = value
        if "[" in tokens and "=" in tokens and \
                tokens.index("[") < tokens.index("="):
            try:
                obj, lb, idx, rb, eq, value = tokens
                if (lb, rb, eq) != ("[", "]", "="):
                    raise ValueError
            except ValueError:
                raise AssemblerError(
                    f"bad at:put: statement: {' '.join(tokens)!r}") from None
            return Instruction.three(
                int(Op.ATPUT), self.operand(value), self.operand(obj),
                self.operand(idx), returns=returns)

        # Everything else is  dest = <rhs>
        if len(tokens) < 3 or tokens[1] != "=":
            raise AssemblerError(f"cannot parse statement {' '.join(tokens)!r}")
        dest = self._dest(tokens[0])
        rhs = tokens[2:]
        return self._assemble_assignment(dest, rhs, returns)

    def _with_return(self, inst: Instruction, returns: bool) -> Instruction:
        if not returns:
            return inst
        raise AssemblerError("jumps cannot carry the return bit")

    def _assemble_assignment(
        self, dest: Operand, rhs: List[str], returns: bool
    ) -> Instruction:
        if len(rhs) == 1:
            return Instruction.three(int(Op.MOVE), dest,
                                     self.operand(rhs[0]),
                                     Operand.current(0), returns=returns)
        if rhs[0] == "&" and len(rhs) == 2:
            return Instruction.three(int(Op.MOVEA), dest,
                                     self._dest(rhs[1]),
                                     Operand.current(0), returns=returns)
        if rhs[0] in UNARY_OPS and len(rhs) == 2:
            return Instruction.three(int(UNARY_OPS[rhs[0]]), dest,
                                     self.operand(rhs[1]),
                                     Operand.current(0), returns=returns)
        # Bracket load:  dest = obj [ idx ]
        if len(rhs) == 4 and rhs[1] == "[" and rhs[3] == "]":
            return Instruction.three(int(Op.AT), dest, self.operand(rhs[0]),
                                     self.operand(rhs[2]), returns=returns)
        if len(rhs) == 3 and rhs[1] == "as":
            return Instruction.three(int(Op.AS), dest, self.operand(rhs[0]),
                                     self.operand(rhs[2]), returns=returns)
        if len(rhs) == 3:
            left, op_token, right = rhs
            if op_token in BINARY_OPS:
                opcode = int(BINARY_OPS[op_token])
            else:
                opcode = self.opcodes.intern(op_token)
            return Instruction.three(opcode, dest, self.operand(left),
                                     self.operand(right), returns=returns)
        raise AssemblerError(f"cannot parse right-hand side {' '.join(rhs)!r}")


# ----------------------------------------------------------------------
# whole-program loading
# ----------------------------------------------------------------------

_METHOD_RE = re.compile(
    r"^method\s+(\w+)\s*>>\s*(\S+)"
    r"(?:\s+args=(\d+))?(?:\s+frame=(\d+))?\s*$"
)
_CLASS_RE = re.compile(r"^class\s+(\w+)(?:\s*<\s*(\w+))?\s*$")


def parse_program(source: str) -> "ProgramSource":
    """Split program text into class decls, method bodies and main."""
    classes: List[Tuple[str, Optional[str]]] = []
    methods: List[dict] = []
    main_lines: Optional[List[str]] = None
    current: Optional[List[str]] = None
    for raw in source.splitlines():
        line = raw.split(";", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        class_match = _CLASS_RE.match(stripped)
        method_match = _METHOD_RE.match(stripped)
        if class_match:
            classes.append((class_match.group(1), class_match.group(2)))
            current = None
        elif method_match:
            body: List[str] = []
            methods.append({
                "class_name": method_match.group(1),
                "selector": method_match.group(2),
                "argument_count": int(method_match.group(3) or 0),
                "frame_words": int(method_match.group(4) or 32),
                "lines": body,
            })
            current = body
        elif stripped == "main":
            main_lines = []
            current = main_lines
        else:
            if current is None:
                raise AssemblerError(
                    f"statement outside any method or main: {stripped!r}")
            current.append(stripped)
    return ProgramSource(classes, methods, main_lines)


@dataclass
class ProgramSource:
    """Parsed but not yet assembled program text."""

    classes: List[Tuple[str, Optional[str]]]
    methods: List[dict]
    main_lines: Optional[List[str]]


def load_program(machine, source: str):
    """Assemble and install a program on a machine; returns main.

    ``machine`` is a :class:`~repro.core.machine.COMMachine`.  Classes
    are defined (defaulting to Object as superclass), methods assembled
    and installed, and the ``main`` body installed as a method on
    Object named ``__main__``.
    """
    parsed = parse_program(source)
    assembler = Assembler(machine.opcodes, machine.constants)
    for name, super_name in parsed.classes:
        if name in machine.registry:
            continue
        superclass = (machine.registry.by_name(super_name)
                      if super_name else machine.object_class)
        machine.registry.define_class(name, superclass)
    for spec in parsed.methods:
        cls = machine.registry.by_name(spec["class_name"])
        instructions = assembler.assemble_lines(spec["lines"])
        machine.install_method(
            cls, spec["selector"], instructions,
            argument_count=spec["argument_count"],
            frame_words=spec["frame_words"],
        )
    if parsed.main_lines is None:
        raise AssemblerError("program has no main")
    main_instructions = assembler.assemble_lines(parsed.main_lines)
    return machine.install_method(
        machine.object_class, "__main__", main_instructions)
