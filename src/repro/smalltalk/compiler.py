"""Compiler from the Smalltalk subset to COM three-address code.

Follows the execution model of paper section 4:

* the context layout of figure 8 (c0 = result pointer, c1 = receiver,
  c2.. = arguments, then temporaries);
* expression temporaries live in context slots because the COM "forgoes
  the use of an expression stack";
* compilation is "a simple matter of assembling opcodes": arithmetic
  and comparisons compile to single abstract instructions regardless of
  operand types -- the ITLB resolves them at run time;
* sends with at most one argument use the three-operand send form (the
  processor copies arg0/arg1/arg2 automatically); wider sends set up
  the next context explicitly (movea the result slot into n0, receiver
  into n1, arguments onward) exactly like figure 9's call to ``bar``;
* the control selectors ``ifTrue:``/``ifFalse:``/``whileTrue:``/
  ``to:do:``/``timesRepeat:``/``and:``/``or:`` are opened in line when
  given literal blocks, the standard Smalltalk-80 technique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CompileError
from repro.core.constants import ConstantTable, FALSE, NIL, TRUE
from repro.core.context import CONTEXT_WORDS, HEADER_WORDS
from repro.core.encoding import Instruction
from repro.core.isa import Op, OpcodeTable
from repro.core.operands import MAX_CONTEXT_OFFSET, Mode, Operand
from repro.memory.tags import Word
from repro.smalltalk.nodes import (
    Assign,
    BlockNode,
    ClassDecl,
    ExprStmt,
    Literal,
    MainDecl,
    MethodDecl,
    Return,
    Send,
    VarRef,
)
from repro.smalltalk.parser import parse

#: Binary selectors that compile straight to architectural opcodes.
_DIRECT_BINARY: Dict[str, Op] = {
    "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV, "\\\\": Op.MOD,
    "<": Op.LT, "<=": Op.LE, "=": Op.EQ, "==": Op.SAME,
    "bitAnd:": Op.AND, "bitOr:": Op.OR, "bitXor:": Op.XOR,
    "bitShift:": Op.SHIFT,
}
#: Selectors compiled by swapping the operands.
_SWAPPED_BINARY: Dict[str, Op] = {">": Op.LT, ">=": Op.LE}
#: Unary selectors with architectural opcodes.
_DIRECT_UNARY: Dict[str, Op] = {
    "negated": Op.NEG, "bitInvert": Op.NOT, "tag": Op.TAG,
}

_DONT_CARE = Operand.current(0)


@dataclass
class _Label:
    """A forward-patchable jump target."""

    name: str
    position: Optional[int] = None


@dataclass
class _PendingJump:
    index: int          # instruction index of the placeholder
    condition: Operand
    label: _Label


class _Emitter:
    """Accumulates instructions, resolving labels in a second pass."""

    def __init__(self, constants: ConstantTable) -> None:
        self.constants = constants
        self.instructions: List[Optional[Instruction]] = []
        self._pending: List[_PendingJump] = []
        self._label_count = 0

    def emit(self, instruction: Instruction) -> int:
        self.instructions.append(instruction)
        return len(self.instructions) - 1

    def new_label(self, hint: str = "L") -> _Label:
        self._label_count += 1
        return _Label(f"{hint}{self._label_count}")

    def mark(self, label: _Label) -> None:
        if label.position is not None:
            raise CompileError(f"label {label.name} marked twice")
        label.position = len(self.instructions)

    def jump_if(self, condition: Operand, label: _Label) -> None:
        self.instructions.append(None)
        self._pending.append(
            _PendingJump(len(self.instructions) - 1, condition, label))

    def jump(self, label: _Label) -> None:
        always = Operand.constant(self.constants.intern(TRUE))
        self.jump_if(always, label)

    def finish(self) -> List[Instruction]:
        for pending in self._pending:
            if pending.label.position is None:
                raise CompileError(f"unresolved label {pending.label.name}")
            displacement = pending.label.position - (pending.index + 1)
            if displacement >= 0:
                opcode, magnitude = Op.FJMP, displacement
            else:
                opcode, magnitude = Op.RJMP, -displacement
            disp = Operand.constant(
                self.constants.intern(Word.small_integer(magnitude)))
            self.instructions[pending.index] = Instruction.three(
                int(opcode), pending.condition, _DONT_CARE, disp)
        if any(inst is None for inst in self.instructions):
            raise CompileError("unpatched jump placeholder")
        return list(self.instructions)


@dataclass
class ClassInfo:
    """Compile-time knowledge of a class: its field layout."""

    name: str
    superclass: Optional[str]
    fields: List[str] = field(default_factory=list)

    def field_index(self, name: str) -> Optional[int]:
        try:
            return self.fields.index(name)
        except ValueError:
            return None


class MethodScope:
    """Slot allocation for one method (figure 8 layout)."""

    def __init__(self, params: List[str], temps: List[str]) -> None:
        self._names: Dict[str, int] = {"self": 1}
        next_slot = 2
        for name in params + temps:
            if name in self._names:
                raise CompileError(f"duplicate variable {name!r}")
            self._names[name] = next_slot
            next_slot += 1
        self._next_scratch = next_slot
        self._scratch_stack: List[int] = []
        self.high_water = next_slot

    def slot_of(self, name: str) -> Optional[int]:
        return self._names.get(name)

    def declare(self, name: str) -> int:
        """Bind a block parameter/temp in the enclosing method frame."""
        if name in self._names:
            return self._names[name]
        slot = self.alloc_scratch()
        # Block variables stay allocated for the method's lifetime.
        self._scratch_stack.pop()
        self._names[name] = slot
        self._next_scratch = max(self._next_scratch, slot + 1)
        return slot

    def alloc_scratch(self) -> int:
        # Never hand out a slot that has since been bound to a name
        # (the cursor can rewind below late-declared block variables).
        named = set(self._names.values())
        slot = self._next_scratch
        while slot in named:
            slot += 1
        self._next_scratch = slot + 1
        if slot > MAX_CONTEXT_OFFSET:
            raise CompileError(
                "method needs more than 30 context slots; "
                "spill to a heap object (not supported by this compiler)")
        self._scratch_stack.append(slot)
        self.high_water = max(self.high_water, slot + 1)
        return slot

    def free_scratch(self, slot: int) -> None:
        if self._scratch_stack and self._scratch_stack[-1] == slot:
            self._scratch_stack.pop()
            self._next_scratch = slot

    @property
    def frame_words(self) -> int:
        return self.high_water + HEADER_WORDS


class SmalltalkCompiler:
    """Compiles parsed programs onto a COMMachine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.opcodes: OpcodeTable = machine.opcodes
        self.constants: ConstantTable = machine.constants
        self.classes: Dict[str, ClassInfo] = {}

    # -- program driver ------------------------------------------------------

    def compile_program(self, source: str):
        """Compile and install a program; returns the main method."""
        program = parse(source)
        for decl in program.classes:
            self._declare_class(decl)
        for method in program.methods:
            self._compile_method(method)
        if program.main is None:
            raise CompileError("program has no main")
        return self._compile_main(program.main)

    def _declare_class(self, decl: ClassDecl) -> None:
        if decl.name in self.classes:
            raise CompileError(f"class {decl.name!r} declared twice")
        fields: List[str] = []
        if decl.superclass:
            parent = self.classes.get(decl.superclass)
            if parent is not None:
                fields.extend(parent.fields)
        fields.extend(decl.fields)
        info = ClassInfo(decl.name, decl.superclass, fields)
        self.classes[decl.name] = info
        if decl.name not in self.machine.registry:
            superclass = (
                self.machine.registry.by_name(decl.superclass)
                if decl.superclass else self.machine.object_class)
            self.machine.registry.define_class(
                decl.name, superclass, instance_size=len(fields))
        else:
            self.machine.registry.by_name(decl.name).instance_size = \
                len(fields)

    # -- method compilation -----------------------------------------------------

    def _compile_method(self, decl: MethodDecl) -> None:
        try:
            cls = self.machine.registry.by_name(decl.class_name)
        except Exception as exc:
            raise CompileError(
                f"method on unknown class {decl.class_name!r}") from exc
        info = self.classes.get(decl.class_name)
        scope = MethodScope(decl.params, decl.temps)
        emitter = _Emitter(self.constants)
        body_compiler = _BodyCompiler(self, scope, emitter, info)
        body_compiler.compile_body(decl.body, implicit_return_self=True)
        self.machine.install_method(
            cls, decl.selector, emitter.finish(),
            argument_count=len(decl.params),
            frame_words=min(scope.frame_words, CONTEXT_WORDS),
        )

    def _compile_main(self, decl: MainDecl):
        scope = MethodScope([], decl.temps)
        emitter = _Emitter(self.constants)
        body_compiler = _BodyCompiler(self, scope, emitter, None)
        body_compiler.compile_body(decl.body, implicit_return_self=False)
        emitter.emit(Instruction.zero(int(Op.HALT)))
        return self.machine.install_method(
            self.machine.object_class, "__main__", emitter.finish(),
            frame_words=min(scope.frame_words, CONTEXT_WORDS),
        )

    # -- shared helpers ----------------------------------------------------------

    def constant_operand(self, word: Word) -> Operand:
        return Operand.constant(self.constants.intern(word))

    def literal_operand(self, literal: Literal) -> Operand:
        if literal.kind == "int":
            return self.constant_operand(Word.small_integer(literal.value))
        if literal.kind == "float":
            return self.constant_operand(Word.floating(literal.value))
        if literal.kind == "atom":
            return self.constant_operand(Word.atom(literal.value))
        word = {"true": TRUE, "false": FALSE, "nil": NIL}[literal.value]
        return self.constant_operand(word)

    def is_class_name(self, name: str) -> bool:
        return name in self.classes or name in self.machine.registry


class _BodyCompiler:
    """Statement/expression code generation for one method body."""

    def __init__(self, compiler: SmalltalkCompiler, scope: MethodScope,
                 emitter: _Emitter, class_info: Optional[ClassInfo]) -> None:
        self.compiler = compiler
        self.scope = scope
        self.emitter = emitter
        self.class_info = class_info

    # -- entry point ----------------------------------------------------------

    def compile_body(self, body: List, implicit_return_self: bool) -> None:
        returned = False
        for statement in body:
            returned = self._compile_statement(statement)
        if not returned:
            if implicit_return_self:
                self.emitter.emit(Instruction.three(
                    int(Op.MOVE), Operand.current(0), Operand.current(1),
                    _DONT_CARE, returns=True))

    def _compile_statement(self, statement) -> bool:
        """Compile one statement; True when it was a return."""
        if isinstance(statement, Return):
            source = self._expression_operand(statement.expression)
            self.emitter.emit(Instruction.three(
                int(Op.MOVE), Operand.current(0), source, _DONT_CARE,
                returns=True))
            self._release(source)
            return True
        if isinstance(statement, Assign):
            self._compile_assignment(statement)
            return False
        if isinstance(statement, ExprStmt):
            operand = self._expression_operand(statement.expression)
            self._release(operand)
            return False
        raise CompileError(f"unknown statement {statement!r}")

    # -- operand management ------------------------------------------------------

    def _scratch(self) -> Operand:
        return Operand.current(self.scope.alloc_scratch())

    def _release(self, operand: Operand) -> None:
        if operand.mode is Mode.CONTEXT and operand.offset >= 2:
            self.scope.free_scratch(operand.offset)

    def _expression_operand(self, expression) -> Operand:
        """An operand holding the expression's value.

        Literals and plain variables are returned in place (no move);
        anything else is compiled into a scratch slot the caller must
        release.
        """
        if isinstance(expression, Literal):
            return self.compiler.literal_operand(expression)
        if isinstance(expression, VarRef):
            slot = self.scope.slot_of(expression.name)
            if slot is not None:
                return Operand.current(slot)
            if self._field_index(expression.name) is not None:
                dest = self._scratch()
                self._load_field(dest, expression.name)
                return dest
            if self.compiler.is_class_name(expression.name):
                return self.compiler.constant_operand(
                    Word.atom(expression.name))
            raise CompileError(f"unknown variable {expression.name!r}")
        dest = self._scratch()
        self._compile_expression(expression, dest)
        return dest

    def _field_index(self, name: str) -> Optional[int]:
        if self.class_info is None:
            return None
        return self.class_info.field_index(name)

    def _load_field(self, dest: Operand, name: str) -> None:
        index = self._field_index(name)
        idx_operand = self.compiler.constant_operand(
            Word.small_integer(index))
        self.emitter.emit(Instruction.three(
            int(Op.AT), dest, Operand.current(1), idx_operand))

    # -- assignment ------------------------------------------------------------------

    def _compile_assignment(self, statement: Assign) -> None:
        slot = self.scope.slot_of(statement.name)
        if slot is not None:
            self._compile_expression_into(
                statement.expression, Operand.current(slot))
            return
        index = self._field_index(statement.name)
        if index is None:
            raise CompileError(
                f"assignment to unknown variable {statement.name!r}")
        value = self._expression_operand(statement.expression)
        idx_operand = self.compiler.constant_operand(Word.small_integer(index))
        self.emitter.emit(Instruction.three(
            int(Op.ATPUT), value, Operand.current(1), idx_operand))
        self._release(value)

    def _compile_expression_into(self, expression, dest: Operand) -> None:
        """Compile an expression, ensuring its value lands in ``dest``."""
        if isinstance(expression, (Literal, VarRef)):
            source = self._expression_operand(expression)
            if source != dest:
                self.emitter.emit(Instruction.three(
                    int(Op.MOVE), dest, source, _DONT_CARE))
            self._release(source)
            return
        self._compile_expression(expression, dest)

    # -- expressions --------------------------------------------------------------------

    def _compile_expression(self, expression, dest: Operand) -> None:
        if isinstance(expression, (Literal, VarRef)):
            self._compile_expression_into(expression, dest)
            return
        if isinstance(expression, BlockNode):
            raise CompileError(
                "blocks are only supported as arguments of the inlined "
                "control selectors (ifTrue:, whileTrue:, to:do:, ...)")
        if isinstance(expression, Send):
            self._compile_send(expression, dest)
            return
        raise CompileError(f"unknown expression {expression!r}")

    def _compile_send(self, send: Send, dest: Operand) -> None:
        if self._try_inline_control(send, dest):
            return
        selector = send.selector
        if selector in _DIRECT_BINARY and len(send.args) == 1:
            self._binary(int(_DIRECT_BINARY[selector]),
                         send.receiver, send.args[0], dest)
            return
        if selector in _SWAPPED_BINARY and len(send.args) == 1:
            self._binary(int(_SWAPPED_BINARY[selector]),
                         send.args[0], send.receiver, dest)
            return
        if selector == "~=" and len(send.args) == 1:
            self._binary(int(Op.EQ), send.receiver, send.args[0], dest)
            false_const = self.compiler.constant_operand(FALSE)
            self.emitter.emit(Instruction.three(
                int(Op.EQ), dest, dest, false_const))
            return
        if selector in _DIRECT_UNARY and not send.args:
            source = self._expression_operand(send.receiver)
            self.emitter.emit(Instruction.three(
                int(_DIRECT_UNARY[selector]), dest, source, _DONT_CARE))
            self._release(source)
            return
        if selector == "at:" and len(send.args) == 1:
            self._binary(int(Op.AT), send.receiver, send.args[0], dest)
            return
        if selector == "at:put:" and len(send.args) == 2:
            receiver = self._expression_operand(send.receiver)
            index = self._expression_operand(send.args[0])
            value = self._expression_operand(send.args[1])
            self.emitter.emit(Instruction.three(
                int(Op.ATPUT), value, receiver, index))
            # at:put: answers the stored value.
            if dest != value:
                self.emitter.emit(Instruction.three(
                    int(Op.MOVE), dest, value, _DONT_CARE))
            for operand in (value, index, receiver):
                self._release(operand)
            return
        self._compile_general_send(send, dest)

    def _binary(self, opcode: int, left, right, dest: Operand) -> None:
        left_operand = self._expression_operand(left)
        right_operand = self._expression_operand(right)
        self.emitter.emit(Instruction.three(
            opcode, dest, left_operand, right_operand))
        self._release(right_operand)
        self._release(left_operand)

    def _compile_general_send(self, send: Send, dest: Operand) -> None:
        opcode = self.compiler.opcodes.intern(send.selector)
        if len(send.args) <= 1:
            receiver = self._expression_operand(send.receiver)
            argument = (self._expression_operand(send.args[0])
                        if send.args else receiver)
            self.emitter.emit(Instruction.three(
                opcode, dest, receiver, argument))
            if send.args:
                self._release(argument)
            self._release(receiver)
            return
        # Wide send: set up the next context explicitly (figure 9).
        if dest.mode is not Mode.CONTEXT:
            raise CompileError("send destination must be a context slot")
        receiver = self._expression_operand(send.receiver)
        arguments = [self._expression_operand(arg) for arg in send.args]
        self.emitter.emit(Instruction.three(
            int(Op.MOVEA), Operand.next(0), dest, _DONT_CARE))
        self.emitter.emit(Instruction.three(
            int(Op.MOVE), Operand.next(1), receiver, _DONT_CARE))
        for position, argument in enumerate(arguments):
            self.emitter.emit(Instruction.three(
                int(Op.MOVE), Operand.next(2 + position), argument,
                _DONT_CARE))
        self.emitter.emit(Instruction.zero(opcode, nargs=2))
        for argument in reversed(arguments):
            self._release(argument)
        self._release(receiver)

    # -- inlined control flow -------------------------------------------------------------

    def _try_inline_control(self, send: Send, dest: Operand) -> bool:
        selector = send.selector
        args = send.args
        if selector == "ifTrue:" and self._is_block(args):
            self._inline_if(send.receiver, args[0], None, dest)
            return True
        if selector == "ifFalse:" and self._is_block(args):
            self._inline_if(send.receiver, None, args[0], dest)
            return True
        if selector == "ifTrue:ifFalse:" and self._is_block(args):
            self._inline_if(send.receiver, args[0], args[1], dest)
            return True
        if selector == "ifFalse:ifTrue:" and self._is_block(args):
            self._inline_if(send.receiver, args[1], args[0], dest)
            return True
        if selector == "whileTrue:" and isinstance(send.receiver, BlockNode) \
                and self._is_block(args):
            self._inline_while(send.receiver, args[0], dest)
            return True
        if selector == "to:do:" and len(args) == 2 and \
                isinstance(args[1], BlockNode):
            self._inline_to_do(send.receiver, args[0], None, args[1], dest)
            return True
        if selector == "to:by:do:" and len(args) == 3 and \
                isinstance(args[2], BlockNode):
            self._inline_to_do(send.receiver, args[0], args[1], args[2], dest)
            return True
        if selector == "timesRepeat:" and self._is_block(args):
            self._inline_times_repeat(send.receiver, args[0], dest)
            return True
        if selector in ("and:", "or:") and self._is_block(args):
            self._inline_and_or(selector, send.receiver, args[0], dest)
            return True
        return False

    @staticmethod
    def _is_block(args: List) -> bool:
        return bool(args) and all(isinstance(a, BlockNode) for a in args)

    def _compile_block_value(self, block: Optional[BlockNode],
                             dest: Operand) -> None:
        """Open a block in line; its value (last statement) lands in dest."""
        if block is None or not block.body:
            nil_const = self.compiler.constant_operand(NIL)
            self.emitter.emit(Instruction.three(
                int(Op.MOVE), dest, nil_const, _DONT_CARE))
            return
        for name in block.temps:
            self.scope.declare(name)
        for statement in block.body[:-1]:
            self._compile_statement(statement)
        last = block.body[-1]
        if isinstance(last, ExprStmt):
            self._compile_expression_into(last.expression, dest)
        elif isinstance(last, Assign):
            self._compile_assignment(last)
            slot = self.scope.slot_of(last.name)
            if slot is not None:
                self.emitter.emit(Instruction.three(
                    int(Op.MOVE), dest, Operand.current(slot), _DONT_CARE))
        else:
            self._compile_statement(last)

    def _inline_if(self, condition, true_block: Optional[BlockNode],
                   false_block: Optional[BlockNode], dest: Operand) -> None:
        cond = self._expression_operand(condition)
        true_label = self.emitter.new_label("true")
        end_label = self.emitter.new_label("endif")
        self.emitter.jump_if(cond, true_label)
        self._release(cond)
        self._compile_block_value(false_block, dest)
        self.emitter.jump(end_label)
        self.emitter.mark(true_label)
        self._compile_block_value(true_block, dest)
        self.emitter.mark(end_label)

    def _invert(self, operand: Operand, dest: Operand) -> None:
        false_const = self.compiler.constant_operand(FALSE)
        self.emitter.emit(Instruction.three(
            int(Op.EQ), dest, operand, false_const))

    def _inline_while(self, cond_block: BlockNode, body_block: BlockNode,
                      dest: Operand) -> None:
        loop_label = self.emitter.new_label("while")
        end_label = self.emitter.new_label("endwhile")
        cond_slot = self._scratch()
        self.emitter.mark(loop_label)
        self._compile_block_value(cond_block, cond_slot)
        self._invert(cond_slot, cond_slot)
        self.emitter.jump_if(cond_slot, end_label)
        body_dest = self._scratch()
        self._compile_block_value(body_block, body_dest)
        self._release(body_dest)
        self.emitter.jump(loop_label)
        self.emitter.mark(end_label)
        self._release(cond_slot)
        nil_const = self.compiler.constant_operand(NIL)
        self.emitter.emit(Instruction.three(
            int(Op.MOVE), dest, nil_const, _DONT_CARE))

    def _inline_to_do(self, start, stop, step, block: BlockNode,
                      dest: Operand) -> None:
        if len(block.params) != 1:
            raise CompileError("to:do: block takes exactly one parameter")
        index_slot = Operand.current(self.scope.declare(block.params[0]))
        self._compile_expression_into(start, index_slot)
        stop_operand = self._expression_operand(stop)
        step_operand = (self._expression_operand(step)
                        if step is not None else
                        self.compiler.constant_operand(Word.small_integer(1)))
        loop_label = self.emitter.new_label("todo")
        end_label = self.emitter.new_label("endtodo")
        test_slot = self._scratch()
        self.emitter.mark(loop_label)
        # Exit when stop < index (ascending loops).
        self.emitter.emit(Instruction.three(
            int(Op.LT), test_slot, stop_operand, index_slot))
        self.emitter.jump_if(test_slot, end_label)
        body_dest = self._scratch()
        self._compile_block_value(block, body_dest)
        self._release(body_dest)
        self.emitter.emit(Instruction.three(
            int(Op.ADD), index_slot, index_slot, step_operand))
        self.emitter.jump(loop_label)
        self.emitter.mark(end_label)
        self._release(test_slot)
        if step is not None:
            self._release(step_operand)
        self._release(stop_operand)
        nil_const = self.compiler.constant_operand(NIL)
        self.emitter.emit(Instruction.three(
            int(Op.MOVE), dest, nil_const, _DONT_CARE))

    def _inline_times_repeat(self, count, block: BlockNode,
                             dest: Operand) -> None:
        counter = self._scratch()
        zero = self.compiler.constant_operand(Word.small_integer(0))
        one = self.compiler.constant_operand(Word.small_integer(1))
        self._compile_expression_into(count, counter)
        loop_label = self.emitter.new_label("times")
        end_label = self.emitter.new_label("endtimes")
        test_slot = self._scratch()
        self.emitter.mark(loop_label)
        self.emitter.emit(Instruction.three(
            int(Op.LT), test_slot, counter, one))
        self.emitter.jump_if(test_slot, end_label)
        body_dest = self._scratch()
        self._compile_block_value(block, body_dest)
        self._release(body_dest)
        self.emitter.emit(Instruction.three(
            int(Op.SUB), counter, counter, one))
        self.emitter.jump(loop_label)
        self.emitter.mark(end_label)
        self._release(test_slot)
        self._release(counter)
        nil_const = self.compiler.constant_operand(NIL)
        self.emitter.emit(Instruction.three(
            int(Op.MOVE), dest, nil_const, _DONT_CARE))

    def _inline_and_or(self, selector: str, left, block: BlockNode,
                       dest: Operand) -> None:
        self._compile_expression_into(left, dest)
        end_label = self.emitter.new_label("shortcut")
        if selector == "and:":
            # dest false -> skip the block (answer false).
            inverted = self._scratch()
            self._invert(dest, inverted)
            self.emitter.jump_if(inverted, end_label)
            self._release(inverted)
        else:
            self.emitter.jump_if(dest, end_label)
        self._compile_block_value(block, dest)
        self.emitter.mark(end_label)


def compile_program(machine, source: str):
    """Compile Smalltalk source and install it; returns the main method."""
    return SmalltalkCompiler(machine).compile_program(source)
