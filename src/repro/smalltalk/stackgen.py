"""A Smalltalk-80-style stack-bytecode compiler and evaluator.

Section 5 reports the design study that killed the Fith Machine:
"Stack machines while offering small code size require almost twice as
many instructions to implement a given source language program than a
three address machine."  To reproduce that comparison we compile the
*same* Smalltalk-subset AST both ways:

* :mod:`repro.smalltalk.compiler` emits COM three-address code;
* this module emits zero-address stack bytecodes (the Smalltalk-80
  virtual machine flavour: push/store/send/jump) and counts the
  instructions a stack machine executes for the same program.

The control selectors are inlined identically in both compilers so the
comparison isolates the operand-addressing difference, not compiler
smartness.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError, FithError
from repro.memory.tags import Tag, Word
from repro.objects.model import ClassRegistry, ObjectClass, PrimitiveMethod
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

_TRUE = Word.atom("true")
_FALSE = Word.atom("false")
_NIL = Word.atom("nil")


class SOp(enum.Enum):
    """Stack bytecodes (one executed instruction each)."""

    PUSH_SELF = "push_self"
    PUSH_TEMP = "push_temp"
    PUSH_LIT = "push_lit"
    PUSH_FIELD = "push_field"
    STORE_TEMP = "store_temp"
    STORE_FIELD = "store_field"
    POP = "pop"
    DUP = "dup"
    SEND = "send"
    JUMP = "jump"
    JUMP_FALSE = "jump_false"
    RETURN_TOP = "return_top"
    HALT = "halt"


@dataclass
class SInstr:
    op: SOp
    arg: int = 0
    literal: Optional[Word] = None
    selector: Optional[str] = None
    argc: int = 0

    def __repr__(self) -> str:  # pragma: no cover
        extra = self.selector or (self.literal if self.literal else self.arg)
        return f"{self.op.name}({extra})"


@dataclass
class StackMethod:
    selector: str
    class_name: str
    num_params: int
    num_temps: int
    code: List[SInstr]


class StackCompiler:
    """Compiles the Smalltalk subset to stack bytecodes."""

    def __init__(self) -> None:
        self.registry = ClassRegistry()
        self.object_class = self.registry.define_class("Object")
        for name in ("Uninitialized", "SmallInteger", "Float", "Atom",
                     "Instruction", "ObjectPointer"):
            self.registry.by_name(name).superclass = self.object_class
        self.array_class = self.registry.define_class(
            "Array", self.object_class)
        self.fields: Dict[str, List[str]] = {}
        self.class_names = {"Object", "Array", "SmallInteger", "Float",
                            "Atom"}
        self.main: Optional[StackMethod] = None

    # -- program driver ------------------------------------------------------

    def compile_program(self, source: str) -> StackMethod:
        program = parse(source)
        for decl in program.classes:
            self._declare_class(decl)
        for method in program.methods:
            self._compile_method(method)
        if program.main is None:
            raise CompileError("program has no main")
        self.main = self._compile_main(program.main)
        return self.main

    def _declare_class(self, decl: ClassDecl) -> None:
        inherited: List[str] = []
        if decl.superclass and decl.superclass in self.fields:
            inherited = list(self.fields[decl.superclass])
        self.fields[decl.name] = inherited + decl.fields
        self.class_names.add(decl.name)
        if decl.name not in self.registry:
            superclass = (self.registry.by_name(decl.superclass)
                          if decl.superclass else self.object_class)
            self.registry.define_class(
                decl.name, superclass,
                instance_size=len(self.fields[decl.name]))

    def _compile_method(self, decl: MethodDecl) -> StackMethod:
        cls = self.registry.by_name(decl.class_name)
        generator = _StackBody(self, decl.class_name, decl.params, decl.temps)
        generator.compile_body(decl.body, implicit_return_self=True)
        method = StackMethod(decl.selector, decl.class_name,
                             len(decl.params), generator.num_temps,
                             generator.code)
        cls.define_method(decl.selector, method, len(decl.params))
        return method

    def _compile_main(self, decl: MainDecl) -> StackMethod:
        generator = _StackBody(self, None, [], decl.temps)
        generator.compile_body(decl.body, implicit_return_self=False)
        generator.code.append(SInstr(SOp.HALT))
        return StackMethod("__main__", "Object", 0, generator.num_temps,
                           generator.code)


class _StackBody:
    """Bytecode generation for one method body."""

    def __init__(self, compiler: StackCompiler, class_name: Optional[str],
                 params: List[str], temps: List[str]) -> None:
        self.compiler = compiler
        self.class_name = class_name
        self.slots: Dict[str, int] = {}
        for name in params + temps:
            if name in self.slots:
                raise CompileError(f"duplicate variable {name!r}")
            self.slots[name] = len(self.slots)
        self.num_params = len(params)
        self.code: List[SInstr] = []

    @property
    def num_temps(self) -> int:
        return len(self.slots)

    def _declare(self, name: str) -> int:
        if name not in self.slots:
            self.slots[name] = len(self.slots)
        return self.slots[name]

    def _field_index(self, name: str) -> Optional[int]:
        if self.class_name is None:
            return None
        fields = self.compiler.fields.get(self.class_name, [])
        return fields.index(name) if name in fields else None

    # -- body ------------------------------------------------------------------

    def compile_body(self, body: List, implicit_return_self: bool) -> None:
        returned = False
        for statement in body:
            returned = self._statement(statement)
        if not returned and implicit_return_self:
            self.code.append(SInstr(SOp.PUSH_SELF))
            self.code.append(SInstr(SOp.RETURN_TOP))

    def _statement(self, statement) -> bool:
        if isinstance(statement, Return):
            self._expression(statement.expression)
            self.code.append(SInstr(SOp.RETURN_TOP))
            return True
        if isinstance(statement, Assign):
            self._assign(statement, leave_value=False)
            return False
        if isinstance(statement, ExprStmt):
            self._expression(statement.expression)
            self.code.append(SInstr(SOp.POP))
            return False
        raise CompileError(f"unknown statement {statement!r}")

    def _assign(self, statement: Assign, leave_value: bool) -> None:
        self._expression(statement.expression)
        if leave_value:
            self.code.append(SInstr(SOp.DUP))
        slot = self.slots.get(statement.name)
        if slot is not None:
            self.code.append(SInstr(SOp.STORE_TEMP, slot))
            return
        index = self._field_index(statement.name)
        if index is None:
            raise CompileError(
                f"assignment to unknown variable {statement.name!r}")
        self.code.append(SInstr(SOp.STORE_FIELD, index))

    # -- expressions --------------------------------------------------------------

    def _expression(self, expression) -> None:
        if isinstance(expression, Literal):
            self.code.append(SInstr(SOp.PUSH_LIT,
                                    literal=_literal_word(expression)))
            return
        if isinstance(expression, VarRef):
            name = expression.name
            if name == "self":
                self.code.append(SInstr(SOp.PUSH_SELF))
                return
            slot = self.slots.get(name)
            if slot is not None:
                self.code.append(SInstr(SOp.PUSH_TEMP, slot))
                return
            index = self._field_index(name)
            if index is not None:
                self.code.append(SInstr(SOp.PUSH_FIELD, index))
                return
            if name in self.compiler.class_names or \
                    name in self.compiler.registry:
                self.code.append(SInstr(SOp.PUSH_LIT,
                                        literal=Word.atom(name)))
                return
            raise CompileError(f"unknown variable {name!r}")
        if isinstance(expression, Send):
            self._send(expression)
            return
        if isinstance(expression, BlockNode):
            raise CompileError("blocks only as inlined control arguments")
        raise CompileError(f"unknown expression {expression!r}")

    def _send(self, send: Send) -> None:
        if self._inline_control(send):
            return
        self._expression(send.receiver)
        for argument in send.args:
            self._expression(argument)
        self.code.append(SInstr(SOp.SEND, selector=send.selector,
                                argc=len(send.args)))

    # -- inlined control (mirrors the three-address compiler) ------------------------

    def _inline_control(self, send: Send) -> bool:
        selector = send.selector
        args = send.args
        blocks = all(isinstance(a, BlockNode) for a in args) and args
        if selector == "ifTrue:" and blocks:
            self._if(send.receiver, args[0], None)
            return True
        if selector == "ifFalse:" and blocks:
            self._if(send.receiver, None, args[0])
            return True
        if selector == "ifTrue:ifFalse:" and blocks:
            self._if(send.receiver, args[0], args[1])
            return True
        if selector == "ifFalse:ifTrue:" and blocks:
            self._if(send.receiver, args[1], args[0])
            return True
        if selector == "whileTrue:" and blocks \
                and isinstance(send.receiver, BlockNode):
            self._while(send.receiver, args[0])
            return True
        if selector == "to:do:" and len(args) == 2 \
                and isinstance(args[1], BlockNode):
            self._to_do(send.receiver, args[0], None, args[1])
            return True
        if selector == "to:by:do:" and len(args) == 3 \
                and isinstance(args[2], BlockNode):
            self._to_do(send.receiver, args[0], args[1], args[2])
            return True
        if selector == "timesRepeat:" and blocks:
            self._times_repeat(send.receiver, args[0])
            return True
        if selector in ("and:", "or:") and blocks:
            self._and_or(selector, send.receiver, args[0])
            return True
        return False

    def _block_value(self, block: Optional[BlockNode]) -> None:
        """Inline a block, leaving its value on the stack."""
        if block is None or not block.body:
            self.code.append(SInstr(SOp.PUSH_LIT, literal=_NIL))
            return
        for name in block.temps:
            self._declare(name)
        for statement in block.body[:-1]:
            self._statement(statement)
        last = block.body[-1]
        if isinstance(last, ExprStmt):
            self._expression(last.expression)
        elif isinstance(last, Assign):
            self._assign(last, leave_value=True)
        elif isinstance(last, Return):
            self._statement(last)
            self.code.append(SInstr(SOp.PUSH_LIT, literal=_NIL))
        else:
            self._statement(last)
            self.code.append(SInstr(SOp.PUSH_LIT, literal=_NIL))

    def _if(self, condition, true_block, false_block) -> None:
        self._expression(condition)
        jump_false = len(self.code)
        self.code.append(SInstr(SOp.JUMP_FALSE))
        self._block_value(true_block)
        jump_end = len(self.code)
        self.code.append(SInstr(SOp.JUMP))
        self.code[jump_false].arg = len(self.code)
        self._block_value(false_block)
        self.code[jump_end].arg = len(self.code)

    def _while(self, cond_block: BlockNode, body_block: BlockNode) -> None:
        loop_top = len(self.code)
        self._block_value(cond_block)
        jump_out = len(self.code)
        self.code.append(SInstr(SOp.JUMP_FALSE))
        self._block_value(body_block)
        self.code.append(SInstr(SOp.POP))
        self.code.append(SInstr(SOp.JUMP, loop_top))
        self.code[jump_out].arg = len(self.code)
        self.code.append(SInstr(SOp.PUSH_LIT, literal=_NIL))

    def _to_do(self, start, stop, step, block: BlockNode) -> None:
        if len(block.params) != 1:
            raise CompileError("to:do: block takes exactly one parameter")
        index_slot = self._declare(block.params[0])
        limit_slot = self._declare(f"__limit{len(self.code)}")
        self._expression(start)
        self.code.append(SInstr(SOp.STORE_TEMP, index_slot))
        self._expression(stop)
        self.code.append(SInstr(SOp.STORE_TEMP, limit_slot))
        loop_top = len(self.code)
        self.code.append(SInstr(SOp.PUSH_TEMP, index_slot))
        self.code.append(SInstr(SOp.PUSH_TEMP, limit_slot))
        self.code.append(SInstr(SOp.SEND, selector="<=", argc=1))
        jump_out = len(self.code)
        self.code.append(SInstr(SOp.JUMP_FALSE))
        self._block_value(block)
        self.code.append(SInstr(SOp.POP))
        self.code.append(SInstr(SOp.PUSH_TEMP, index_slot))
        if step is None:
            self.code.append(SInstr(SOp.PUSH_LIT,
                                    literal=Word.small_integer(1)))
        else:
            self._expression(step)
        self.code.append(SInstr(SOp.SEND, selector="+", argc=1))
        self.code.append(SInstr(SOp.STORE_TEMP, index_slot))
        self.code.append(SInstr(SOp.JUMP, loop_top))
        self.code[jump_out].arg = len(self.code)
        self.code.append(SInstr(SOp.PUSH_LIT, literal=_NIL))

    def _times_repeat(self, count, block: BlockNode) -> None:
        counter = self._declare(f"__count{len(self.code)}")
        self._expression(count)
        self.code.append(SInstr(SOp.STORE_TEMP, counter))
        loop_top = len(self.code)
        self.code.append(SInstr(SOp.PUSH_TEMP, counter))
        self.code.append(SInstr(SOp.PUSH_LIT, literal=Word.small_integer(1)))
        self.code.append(SInstr(SOp.SEND, selector=">=", argc=1))
        jump_out = len(self.code)
        self.code.append(SInstr(SOp.JUMP_FALSE))
        self._block_value(block)
        self.code.append(SInstr(SOp.POP))
        self.code.append(SInstr(SOp.PUSH_TEMP, counter))
        self.code.append(SInstr(SOp.PUSH_LIT, literal=Word.small_integer(1)))
        self.code.append(SInstr(SOp.SEND, selector="-", argc=1))
        self.code.append(SInstr(SOp.STORE_TEMP, counter))
        self.code.append(SInstr(SOp.JUMP, loop_top))
        self.code[jump_out].arg = len(self.code)
        self.code.append(SInstr(SOp.PUSH_LIT, literal=_NIL))

    def _and_or(self, selector: str, left, block: BlockNode) -> None:
        self._expression(left)
        self.code.append(SInstr(SOp.DUP))
        if selector == "or:":
            # left true -> skip; need the inverse jump: jump_false to
            # the block means "false -> evaluate block".
            jump = len(self.code)
            self.code.append(SInstr(SOp.JUMP_FALSE))
            end_jump = len(self.code)
            self.code.append(SInstr(SOp.JUMP))
            self.code[jump].arg = len(self.code)
            self.code.append(SInstr(SOp.POP))
            self._block_value(block)
            self.code[end_jump].arg = len(self.code)
        else:
            jump = len(self.code)
            self.code.append(SInstr(SOp.JUMP_FALSE))
            self.code.append(SInstr(SOp.POP))
            self._block_value(block)
            self.code[jump].arg = len(self.code)


def _literal_word(literal: Literal) -> Word:
    if literal.kind == "int":
        return Word.small_integer(literal.value)
    if literal.kind == "float":
        return Word.floating(literal.value)
    if literal.kind == "atom":
        return Word.atom(literal.value)
    return {"true": _TRUE, "false": _FALSE, "nil": _NIL}[literal.value]


# ----------------------------------------------------------------------
# the stack VM
# ----------------------------------------------------------------------


@dataclass
class _StackObject:
    class_tag: int
    fields: List[Word]


@dataclass
class _VMFrame:
    method: StackMethod
    receiver: Word
    temps: List[Word]
    stack: List[Word] = field(default_factory=list)
    pc: int = 0
    caller_wants_value: bool = True


# -- primitives ------------------------------------------------------------
#
# A send first tries its selector's primitive handler.  A handler takes
# (receiver, args) and returns the result word, or None when the
# operands have no primitive meaning: the send then takes the method
# lookup, as a COM instruction whose operand classes fit no primitive
# takes the defined-method path.

_INT = Tag.SMALL_INTEGER
_NUMBERS = (Tag.SMALL_INTEGER, Tag.FLOAT)


def _arithmetic(operation):
    """``+ - *``: two small integers give a small integer (one past 28
    bits raises, as ``Word.small_integer`` does); any other two numbers
    give a float."""
    def handler(receiver: Word, args: List[Word]) -> Optional[Word]:
        if len(args) == 1:
            arg = args[0]
            if receiver.tag is _INT and arg.tag is _INT:
                return Word.small_integer(
                    operation(receiver.value, arg.value))
            if receiver.tag in _NUMBERS and arg.tag in _NUMBERS:
                return Word.floating(
                    float(operation(receiver.value, arg.value)))
        return None
    return handler


def _comparison(operation):
    """``< <= > >=`` on two numbers."""
    def handler(receiver: Word, args: List[Word]) -> Optional[Word]:
        if (len(args) == 1 and receiver.tag in _NUMBERS
                and args[0].tag in _NUMBERS):
            return (_TRUE if operation(receiver.value, args[0].value)
                    else _FALSE)
        return None
    return handler


def _divide(receiver: Word, args: List[Word]) -> Optional[Word]:
    if (len(args) == 1 and receiver.tag in _NUMBERS
            and args[0].tag in _NUMBERS):
        a, b = receiver.value, args[0].value
        if b == 0:
            raise FithError("division by zero")
        if receiver.tag is _INT and args[0].tag is _INT:
            # Truncate toward zero, as the COM's divide unit does.
            quotient = abs(a) // abs(b)
            return Word.small_integer(
                -quotient if (a < 0) != (b < 0) else quotient)
        return Word.floating(float(a / b))
    return None


def _modulo(receiver: Word, args: List[Word]) -> Optional[Word]:
    """``\\\\`` is defined on two small integers only, like the COM's
    mod unit: any other receiver takes the method lookup."""
    if len(args) == 1 and receiver.tag is _INT and args[0].tag is _INT:
        if args[0].value == 0:
            raise FithError("modulo by zero")
        return Word.small_integer(receiver.value % args[0].value)
    return None


def _equal(receiver: Word, args: List[Word]) -> Optional[Word]:
    """``=``: numeric equality on two numbers, identity otherwise."""
    if len(args) != 1:
        return None
    arg = args[0]
    if receiver.tag in _NUMBERS and arg.tag in _NUMBERS:
        return _TRUE if receiver.value == arg.value else _FALSE
    return _TRUE if receiver.same_object_as(arg) else _FALSE


def _identical(receiver: Word, args: List[Word]) -> Optional[Word]:
    if len(args) == 1:
        return _TRUE if receiver.same_object_as(args[0]) else _FALSE
    return None


def _not_identical(receiver: Word, args: List[Word]) -> Optional[Word]:
    if len(args) == 1:
        return _FALSE if receiver.same_object_as(args[0]) else _TRUE
    return None


def _negated(receiver: Word, args: List[Word]) -> Optional[Word]:
    if not args:
        if receiver.tag is _INT:
            return Word.small_integer(-receiver.value)
        if receiver.tag is Tag.FLOAT:
            return Word.floating(-receiver.value)
    return None


#: Selector -> handler for the primitives that need no VM state
#: (StackVM adds allocation and indexing).
_PRIMITIVES = {
    "+": _arithmetic(operator.add),
    "-": _arithmetic(operator.sub),
    "*": _arithmetic(operator.mul),
    "/": _divide,
    "\\\\": _modulo,
    "<": _comparison(operator.lt),
    "<=": _comparison(operator.le),
    ">": _comparison(operator.gt),
    ">=": _comparison(operator.ge),
    "=": _equal,
    "==": _identical,
    "~=": _not_identical,
    "negated": _negated,
}


class StackVM:
    """Executes stack bytecodes, counting instructions.

    Dispatch is by receiver class through the same class registry the
    compiler filled, so late binding behaves exactly like the COM's.
    """

    def __init__(self, compiler: StackCompiler) -> None:
        self.compiler = compiler
        self.registry = compiler.registry
        self.instructions = 0
        self.sends = 0
        self._objects: Dict[int, _StackObject] = {}
        self._next_oid = 1
        self._primitives = dict(_PRIMITIVES)
        self._primitives.update({"new": self._new, "new:": self._new_sized,
                                 "at:": self._at, "at:put:": self._at_put})

    # -- heap ------------------------------------------------------------------

    def _allocate(self, cls: ObjectClass, size: Optional[int] = None) -> Word:
        oid = self._next_oid
        self._next_oid += 1
        count = cls.instance_size if size is None else size
        self._objects[oid] = _StackObject(cls.class_tag,
                                          [_NIL] * max(count, 0))
        return Word.pointer(oid, cls.class_tag)

    def _object(self, pointer: Word) -> _StackObject:
        if not pointer.is_pointer or pointer.value not in self._objects:
            raise FithError(f"bad pointer {pointer!r}")
        return self._objects[pointer.value]

    # -- heap primitives ---------------------------------------------------------

    def _new(self, receiver: Word, args: List[Word]) -> Optional[Word]:
        if not args and receiver.tag is Tag.ATOM:
            return self._allocate(self.registry.by_name(receiver.value))
        return None

    def _new_sized(self, receiver: Word, args: List[Word]) -> Optional[Word]:
        if len(args) == 1 and receiver.tag is Tag.ATOM:
            return self._allocate(self.registry.by_name(receiver.value),
                                  args[0].value)
        return None

    def _at(self, receiver: Word, args: List[Word]) -> Optional[Word]:
        if len(args) == 1 and receiver.is_pointer:
            return self._object(receiver).fields[args[0].value]
        return None

    def _at_put(self, receiver: Word, args: List[Word]) -> Optional[Word]:
        if len(args) == 2 and receiver.is_pointer:
            self._object(receiver).fields[args[0].value] = args[1]
            return args[1]
        return None

    # -- execution ----------------------------------------------------------------

    def run_main(self, max_instructions: int = 5_000_000) -> Optional[Word]:
        """Run the compiled main; returns its result word.

        Register-style: the running frame's code, stack, temporaries
        and pc live in locals and go back to the frame only when
        control leaves it (a send to a defined method).
        ``instructions`` and ``sends`` are written back on every exit,
        the budget error included.  Ops are tested in order of their
        dynamic frequency on the TAB-3ADDR programs.
        """
        main = self.compiler.main
        if main is None:
            raise FithError("no compiled main")
        (send, push_temp, push_lit, store_temp, jump_false, pop, dup,
         jump, push_self, return_top, store_field, push_field,
         halt) = (SOp.SEND, SOp.PUSH_TEMP, SOp.PUSH_LIT, SOp.STORE_TEMP,
                  SOp.JUMP_FALSE, SOp.POP, SOp.DUP, SOp.JUMP,
                  SOp.PUSH_SELF, SOp.RETURN_TOP, SOp.STORE_FIELD,
                  SOp.PUSH_FIELD, SOp.HALT)
        primitives = self._primitives
        lookup = self.registry.lookup_by_tag
        frame = _VMFrame(main, _NIL, [_NIL] * main.num_temps)
        frames = [frame]
        code, stack, temps, pc = main.code, frame.stack, frame.temps, 0
        instructions = self.instructions
        sends = self.sends
        result: Optional[Word] = None
        try:
            while True:
                if pc >= len(code):
                    # Fell off the end of a method: no value returns.
                    frames.pop()
                    if not frames:
                        break
                    frame = frames[-1]
                    code, stack, temps, pc = (frame.method.code, frame.stack,
                                              frame.temps, frame.pc)
                    continue
                if instructions >= max_instructions:
                    raise FithError("instruction budget exceeded")
                instr = code[pc]
                pc += 1
                instructions += 1
                op = instr.op
                if op is send:
                    sends += 1
                    argc = instr.argc
                    if argc:
                        args = stack[-argc:]
                        del stack[-argc:]
                    else:
                        args = []
                    receiver = stack.pop()
                    handler = primitives.get(instr.selector)
                    if handler is not None:
                        value = handler(receiver, args)
                        if value is not None:
                            stack.append(value)
                            continue
                    method = lookup(instr.selector, receiver.class_tag).method
                    if isinstance(method, PrimitiveMethod):
                        raise FithError(
                            f"unimplemented primitive {instr.selector!r}")
                    target: StackMethod = method.code
                    callee_temps = [_NIL] * max(target.num_temps, argc)
                    callee_temps[:argc] = args
                    frame.pc = pc
                    frame = _VMFrame(target, receiver, callee_temps)
                    frames.append(frame)
                    code, stack, temps, pc = (target.code, frame.stack,
                                              callee_temps, 0)
                elif op is push_temp:
                    stack.append(temps[instr.arg])
                elif op is push_lit:
                    stack.append(instr.literal)
                elif op is store_temp:
                    temps[instr.arg] = stack.pop()
                elif op is jump_false:
                    value = stack.pop()
                    if value is not _TRUE and not value.same_object_as(_TRUE):
                        pc = instr.arg
                elif op is pop:
                    stack.pop()
                elif op is dup:
                    stack.append(stack[-1])
                elif op is jump:
                    pc = instr.arg
                elif op is push_self:
                    stack.append(frame.receiver)
                elif op is return_top:
                    value = stack.pop()
                    frames.pop()
                    if not frames:
                        result = value
                        break
                    frame = frames[-1]
                    code, stack, temps, pc = (frame.method.code, frame.stack,
                                              frame.temps, frame.pc)
                    stack.append(value)
                elif op is store_field:
                    self._object(frame.receiver).fields[instr.arg] = \
                        stack.pop()
                elif op is push_field:
                    stack.append(
                        self._object(frame.receiver).fields[instr.arg])
                elif op is halt:
                    result = stack[-1] if stack else None
                    break
                else:  # pragma: no cover
                    raise FithError(f"unhandled stack op {op}")
        finally:
            self.instructions = instructions
            self.sends = sends
        return result


def run_stack_program(source: str,
                      max_instructions: int = 5_000_000
                      ) -> Tuple[Optional[Word], StackVM]:
    """Compile and run a program on the stack VM; returns (result, vm)."""
    compiler = StackCompiler()
    compiler.compile_program(source)
    vm = StackVM(compiler)
    result = vm.run_main(max_instructions)
    return result, vm
