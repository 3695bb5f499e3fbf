"""The Fith interpreter: Forth syntax, Smalltalk semantics (section 5).

Every word that is not stack manipulation or control flow is a
*message* sent to the object on top of the stack, resolved against the
class hierarchy exactly like a Smalltalk send -- which is why traces of
Fith execution exercise the same instruction-translation mechanism the
COM uses, and why the paper's ITLB results transfer.

Source language::

    \\ line comment        ( inline comment )
    : square  dup * ;                 \\ define 'square' on Object
    :: SmallInteger half  2 / ;       \\ define 'half' on SmallInteger
    class Point 2                     \\ class with 2 fields
    variable total                    \\ a global one-field cell
    5 square total !                  \\ immediate (main) code
    10 0 do i . loop
    flag @ if 1 else 2 then

Control words: ``if else then``, ``begin until``, ``begin while
repeat``, ``do loop`` with ``i``/``j``, ``exit``.

The interpreter records one trace record per instruction when tracing
is enabled -- instruction address, opcode number and the class of the
top of stack, the exact record of section 5 -- into a columnar
:class:`~repro.trace.columnar.TraceBuilder`.  Each step appends only
the address and the receiver class; the opcode and the dispatched bit
are functions of the address and are filled in bulk when the run ends.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FithError
from repro.memory.tags import (
    SMALL_INTEGER_MAX,
    SMALL_INTEGER_MIN,
    Tag,
    Word,
    fits_small_integer,
    small_integer_word,
)
from repro.objects.model import ClassRegistry, ObjectClass, PrimitiveMethod
from repro.core.isa import OpcodeTable
from repro.fith.code import (
    CompiledWord,
    FithInstruction,
    FithOp,
    MACHINE_OP_SELECTORS,
)
from repro.trace.columnar import TraceBuilder

_TRUE = Word.atom("true")
_FALSE = Word.atom("false")
_NIL = Word.atom("nil")


def _bool(value: bool) -> Word:
    return _TRUE if value else _FALSE


def _is_true(word: Word) -> bool:
    if word.is_small_integer:
        return word.value != 0
    return word.same_object_as(_TRUE)


@dataclass
class FithObject:
    """A heap object: a class tag and a list of field words."""

    class_tag: int
    fields: List[Word]


@dataclass
class _LoopFrame:
    index: int
    limit: int


class FithMachine:
    """Compiler plus interpreter for Fith programs."""

    def __init__(self, *, trace: bool = False) -> None:
        self.registry = ClassRegistry()
        self.opcodes = OpcodeTable()
        self.object_class = self.registry.define_class("Object")
        for name in ("Uninitialized", "SmallInteger", "Float", "Atom",
                     "Instruction", "ObjectPointer"):
            self.registry.by_name(name).superclass = self.object_class
        self.array_class = self.registry.define_class(
            "Array", self.object_class)
        self.stack: List[Word] = []
        self.output: List[Word] = []
        self.trace: Optional[TraceBuilder] = \
            TraceBuilder() if trace else None
        self.steps = 0
        self._objects: Dict[int, FithObject] = {}
        self._next_oid = 1
        self._words: Dict[str, CompiledWord] = {}
        self._globals: Dict[str, Word] = {}
        self._next_address = 0
        self._machine_opcode = {
            op: self.opcodes.intern(spelling)
            for op, spelling in MACHINE_OP_SELECTORS.items()
        }
        self._primitives: Dict[str, Callable[["FithMachine"], None]] = {}
        #: Send-translation memo, the Fith analogue of the COM's ITLB
        #: ("the instruction translation mechanisms of the two machines
        #: are identical"): ``opcode << 16 | receiver tag`` -> resolved
        #: action (see :meth:`_translate`).  Cleared whenever
        #: definitions can change (load, define_class).
        self._send_memo: Dict[int, tuple] = {}
        #: Address -> trace opcode and dispatched flag (0/1) of the plan
        #: entry at that address, filled as plans are built.  Each
        #: address names one entry (``_next_address`` never reuses
        #: one), so a traced run records only addresses and receiver
        #: classes and completes its events from these at exit.
        self._opcode_at: List[int] = []
        self._dispatched_at: List[int] = []
        self._install_primitives()

    # ------------------------------------------------------------------
    # object model
    # ------------------------------------------------------------------

    def define_class(self, name: str, fields: int = 0,
                     superclass: Optional[str] = None) -> ObjectClass:
        self._send_memo.clear()
        parent = (self.registry.by_name(superclass)
                  if superclass else self.object_class)
        if name in self.registry:
            cls = self.registry.by_name(name)
            cls.instance_size = fields
            return cls
        return self.registry.define_class(name, parent, instance_size=fields)

    def allocate(self, cls: ObjectClass, size: Optional[int] = None) -> Word:
        oid = self._next_oid
        self._next_oid += 1
        count = cls.instance_size if size is None else size
        self._objects[oid] = FithObject(cls.class_tag, [_NIL] * max(count, 0))
        return Word.pointer(oid, cls.class_tag)

    def object_of(self, pointer: Word) -> FithObject:
        if not pointer.is_pointer:
            raise FithError(f"not an object pointer: {pointer!r}")
        try:
            return self._objects[pointer.value]
        except KeyError:
            raise FithError(f"dangling pointer {pointer!r}") from None

    # ------------------------------------------------------------------
    # stack helpers
    # ------------------------------------------------------------------

    def push(self, word: Word) -> None:
        self.stack.append(word)

    def pop(self) -> Word:
        try:
            return self.stack.pop()
        except IndexError:
            raise FithError("stack underflow") from None

    def pop_int(self) -> int:
        word = self.pop()
        if not word.is_small_integer:
            raise FithError(f"expected a small integer, got {word!r}")
        return word.value

    # ------------------------------------------------------------------
    # primitive vocabulary
    # ------------------------------------------------------------------

    def _register(self, class_name: str, selector: str,
                  handler: Callable[["FithMachine"], None]) -> None:
        unit = f"fith.{class_name}.{selector}"
        self._primitives[unit] = handler
        self.registry.by_name(class_name).define_primitive(selector, unit)
        self.opcodes.intern(selector)

    def _numeric_binary(self, fn) -> Callable[["FithMachine"], None]:
        def handler(machine: "FithMachine") -> None:
            b = machine.pop()
            a = machine.pop()
            if not (a.is_number and b.is_number):
                raise FithError(f"numeric word applied to {a!r}, {b!r}")
            result = fn(a.value, b.value)
            if isinstance(result, bool):
                machine.push(_bool(result))
            elif a.is_small_integer and b.is_small_integer \
                    and isinstance(result, int):
                machine.push(Word.small_integer(result))
            else:
                machine.push(Word.floating(float(result)))
        return handler

    def _install_primitives(self) -> None:
        for class_name in ("SmallInteger", "Float"):
            self._register(class_name, "+", self._numeric_binary(
                lambda a, b: a + b))
            self._register(class_name, "-", self._numeric_binary(
                lambda a, b: a - b))
            self._register(class_name, "*", self._numeric_binary(
                lambda a, b: a * b))
            self._register(class_name, "/", self._numeric_binary(_fith_div))
            self._register(class_name, "<", self._numeric_binary(
                lambda a, b: a < b))
            self._register(class_name, "<=", self._numeric_binary(
                lambda a, b: a <= b))
            self._register(class_name, ">", self._numeric_binary(
                lambda a, b: a > b))
            self._register(class_name, ">=", self._numeric_binary(
                lambda a, b: a >= b))
            self._register(class_name, "max", self._numeric_binary(max))
            self._register(class_name, "min", self._numeric_binary(min))
        self._register("SmallInteger", "mod", self._numeric_binary(
            lambda a, b: a % b if b else _raise_div0()))
        self._register("SmallInteger", "neg", _unary_numeric(
            lambda v: -v))
        self._register("Float", "neg", _unary_numeric(lambda v: -v))
        self._register("SmallInteger", "abs", _unary_numeric(abs))
        self._register("Float", "abs", _unary_numeric(abs))
        self._register("Float", "floor", _float_floor)
        self._register("SmallInteger", "float", _int_to_float)

        # Equality and printing live on Object: any receiver works.
        self._register("Object", "=", _generic_eq)
        self._register("Object", "<>", _generic_ne)
        self._register("Object", ".", _print_pop)

        # Boolean algebra on the atoms true/false.
        self._register("Atom", "and", _logical(lambda a, b: a and b))
        self._register("Atom", "or", _logical(lambda a, b: a or b))
        self._register("Atom", "not", _logical_not)

        # Object and array vocabulary.
        self._register("Atom", "new", _new_instance)
        self._register("SmallInteger", "array", _new_array)
        self._register("SmallInteger", "at", _array_at)
        self._register("Object", "put", _array_put)
        # Dispatch sees the *referent's* class in a pointer word, so the
        # generic pointer vocabulary lives on Object.
        self._register("Object", "size", _array_size)
        self._register("Object", "@", _cell_fetch)
        self._register("Object", "!", _cell_store)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    @staticmethod
    def _tokenize(source: str) -> List[str]:
        tokens: List[str] = []
        for raw_line in source.splitlines():
            line = raw_line.split("\\", 1)[0]
            parts = line.split()
            tokens.extend(parts)
        # Strip ( ... ) comments (token-delimited, possibly multi-token).
        result: List[str] = []
        depth = 0
        for token in tokens:
            if token == "(":
                depth += 1
                continue
            if token == ")":
                if depth == 0:
                    raise FithError("unbalanced comment )")
                depth -= 1
                continue
            if depth == 0:
                result.append(token)
        if depth:
            raise FithError("unterminated ( comment")
        return result

    def _literal(self, token: str) -> Optional[Word]:
        if token == "true":
            return _TRUE
        if token == "false":
            return _FALSE
        if token == "nil":
            return _NIL
        if token.startswith("#") and len(token) > 1:
            return Word.atom(token[1:])
        try:
            value = int(token)
        except ValueError:
            pass
        else:
            if not fits_small_integer(value):
                raise FithError(
                    f"integer literal {token} out of small-integer range")
            return Word.small_integer(value)
        try:
            if "." in token:
                return Word.floating(float(token))
        except ValueError:
            pass
        return None

    def load(self, source: str) -> Optional[CompiledWord]:
        """Compile a program; returns the main word (immediate code).

        Definitions are installed as methods; immediate (outside-
        definition) code is collected into an anonymous main word.
        """
        self._send_memo.clear()
        tokens = self._tokenize(source)
        main_instructions: List[FithInstruction] = []
        main_control: List[Tuple[str, int]] = []
        position = 0
        while position < len(tokens):
            token = tokens[position]
            if token == ":":
                position = self._compile_definition(
                    tokens, position + 1, "Object")
            elif token == "::":
                if position + 1 >= len(tokens):
                    raise FithError(":: needs a class name")
                class_name = tokens[position + 1]
                if class_name not in self.registry:
                    raise FithError(f":: on unknown class {class_name!r}")
                position = self._compile_definition(
                    tokens, position + 2, class_name)
            elif token == "class":
                if position + 2 >= len(tokens) or \
                        not tokens[position + 2].isdigit():
                    raise FithError("class needs a name and a field count")
                self.define_class(tokens[position + 1],
                                  int(tokens[position + 2]))
                position += 3
            elif token == "variable":
                if position + 1 >= len(tokens):
                    raise FithError("variable needs a name")
                name = tokens[position + 1]
                self._globals[name] = self.allocate(self.array_class, 1)
                position += 2
            else:
                consumed = self._compile_token(token, main_instructions,
                                               control_stack=main_control)
                position += consumed
        if main_control:
            raise FithError("unterminated control structure in main code")
        if not main_instructions:
            return None
        main_instructions.append(FithInstruction(FithOp.HALT))
        word = CompiledWord("(main)", "Object", self._next_address,
                            main_instructions)
        self._next_address += len(main_instructions)
        self._words.setdefault("(main)", word)
        self._main = word
        return word

    _STACK_OPS = {
        "dup": FithOp.DUP, "drop": FithOp.DROP, "swap": FithOp.SWAP,
        "over": FithOp.OVER, "rot": FithOp.ROT,
        "i": FithOp.LOOP_I, "j": FithOp.LOOP_J, "exit": FithOp.EXIT,
    }

    def _compile_definition(self, tokens: List[str], position: int,
                            class_name: str) -> int:
        if position >= len(tokens):
            raise FithError("definition missing a name")
        name = tokens[position]
        position += 1
        instructions: List[FithInstruction] = []
        control: List[Tuple[str, int]] = []
        while position < len(tokens):
            token = tokens[position]
            if token == ";":
                if control:
                    raise FithError(
                        f"unterminated control structure in {name!r}")
                instructions.append(FithInstruction(FithOp.RETURN))
                word = CompiledWord(name, class_name, self._next_address,
                                    instructions)
                self._next_address += len(instructions)
                self._words[f"{class_name}>>{name}"] = word
                cls = self.registry.by_name(class_name)
                cls.define_method(name, word)
                self.opcodes.intern(name)
                return position + 1
            position += self._compile_token(token, instructions, control)
        raise FithError(f"definition {name!r} missing ;")

    def _compile_token(self, token: str,
                       instructions: List[FithInstruction],
                       control_stack: Optional[List[Tuple[str, int]]]) -> int:
        """Compile one token into ``instructions``; returns tokens used."""
        word = self._literal(token)
        if word is not None:
            instructions.append(FithInstruction(FithOp.PUSH, literal=word))
            return 1
        if token in self._STACK_OPS:
            instructions.append(FithInstruction(self._STACK_OPS[token]))
            return 1
        if token in ("if", "else", "then", "begin", "until", "while",
                     "repeat", "do", "loop"):
            if control_stack is None:
                raise FithError(
                    f"control word {token!r} outside a definition")
            self._compile_control(token, instructions, control_stack)
            return 1
        if token in self._globals:
            instructions.append(
                FithInstruction(FithOp.PUSH, literal=self._globals[token]))
            return 1
        # Everything else is an abstract instruction: a late-bound send.
        self.opcodes.intern(token)
        instructions.append(FithInstruction(FithOp.SEND, selector=token))
        return 1

    def _compile_control(self, token: str,
                         instructions: List[FithInstruction],
                         control: List[Tuple[str, int]]) -> None:
        here = len(instructions)
        if token == "if":
            instructions.append(FithInstruction(FithOp.BRANCH_IF_FALSE))
            control.append(("if", here))
        elif token == "else":
            kind, origin = _pop_control(control, "if", "else")
            instructions.append(FithInstruction(FithOp.BRANCH))
            instructions[origin].displacement = \
                len(instructions) - origin - 1
            control.append(("else", len(instructions) - 1))
        elif token == "then":
            kind, origin = _pop_control(control, "if", "then", "else")
            instructions[origin].displacement = \
                len(instructions) - origin - 1
        elif token == "begin":
            control.append(("begin", here))
        elif token == "until":
            kind, origin = _pop_control(control, "begin", "until")
            instructions.append(FithInstruction(
                FithOp.BRANCH_IF_FALSE,
                displacement=origin - here - 1))
        elif token == "while":
            kind, origin = _pop_control(control, "begin", "while")
            instructions.append(FithInstruction(FithOp.BRANCH_IF_FALSE))
            control.append(("while", here))
            control.append(("begin-while", origin))
        elif token == "repeat":
            kind, begin_origin = _pop_control(
                control, "begin-while", "repeat")
            kind, while_origin = _pop_control(control, "while", "repeat")
            instructions.append(FithInstruction(
                FithOp.BRANCH, displacement=begin_origin - here - 1))
            instructions[while_origin].displacement = \
                len(instructions) - while_origin - 1
        elif token == "do":
            instructions.append(FithInstruction(FithOp.DO))
            control.append(("do", here))
        elif token == "loop":
            kind, origin = _pop_control(control, "do", "loop")
            instructions.append(FithInstruction(
                FithOp.LOOP, displacement=origin - here))
        else:  # pragma: no cover - guarded by caller
            raise FithError(f"unknown control word {token!r}")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _plan_of(self, word: CompiledWord) -> list:
        """Predecode a word's instructions into plan tuples.

        Each entry is ``(code, literal, displacement, selector,
        send_key)``: the integer opcode replaces enum identity chains,
        and ``send_key`` is a send's trace opcode shifted left 16
        bits, ready to OR with the receiver tag into its memo key.
        The trace opcode and dispatched flag of each entry go into the
        machine's address tables.  The plan is cached on the word;
        compiled words are immutable after :meth:`load` returns.
        """
        plan = []
        opcode_at = self._opcode_at
        dispatched_at = self._dispatched_at
        missing = word.base_address + len(word.instructions) \
            - len(opcode_at)
        if missing > 0:
            opcode_at.extend([0] * missing)
            dispatched_at.extend([0] * missing)
        address = word.base_address
        for inst in word.instructions:
            op = inst.op
            dispatched = op is FithOp.SEND
            trace_opcode = (self.opcodes.number_of(inst.selector)
                            if dispatched else self._machine_opcode[op])
            plan.append((_CODE_OF[op], inst.literal, inst.displacement,
                         inst.selector,
                         trace_opcode << 16 if dispatched else 0))
            opcode_at[address] = trace_opcode
            dispatched_at[address] = int(dispatched)
            address += 1
        word.plan = plan
        return plan

    def _translate(self, selector: str, key: int, receiver_tag: int):
        """Resolve a send the memo misses and memoize it under ``key``.

        The action is ``(fast, handler, callee, fn, depth)``:
        ``fast`` names the run loop's inline fast path for the
        primitive (0 for none), ``fn`` its operator and ``depth`` the
        stack depth it needs; ``handler`` is the primitive's handler,
        which the fast path falls back to for any other operand mix;
        ``callee`` is a compiled method's word.
        """
        method = self.registry.lookup_by_tag(selector, receiver_tag).method
        if isinstance(method, PrimitiveMethod):
            fast, fn = _FAST_PATHS.get(method.unit, (0, None))
            action = (fast, self._primitives[method.unit], None, fn,
                      _FAST_DEPTH[fast])
        else:
            action = (0, None, method.code, None, 0)
        self._send_memo[key] = action
        return action

    def run(self, max_steps: int = 5_000_000) -> None:
        """Execute the main word compiled by :meth:`load`.

        The interpreter runs each word's predecoded plan in a tight
        inner loop with a local program counter; the hottest operations
        (push, send, branches, dup, swap, drop) are inlined and the
        rest dispatch through the ``_HANDLERS`` table.  Sends of the
        hottest primitives run inline on the local stack when their
        operands are small integers or object pointers, falling back to
        the primitive's handler otherwise.  A traced step appends its
        address and receiver class; the run completes those events in
        bulk when it exits, normally or by an error.  Trace events,
        step counts and error messages are identical to the seed
        interpreter.
        """
        main = getattr(self, "_main", None)
        if main is None:
            raise FithError("no main code loaded")
        # Suspended callers as (word, return pc); returning to the
        # bottom entry's None word ends the run.
        frames: List[Tuple[Optional[CompiledWord], int]] = [(None, 0)]
        word = main
        pc = 0
        loops: List[_LoopFrame] = []
        stack = self.stack
        objects = self._objects
        send_memo = self._send_memo
        translate = self._translate
        handlers = _HANDLERS
        object_tag = self.object_class.class_tag
        steps = self.steps
        trace = self.trace
        recording = trace is not None
        if recording:
            record_address, record_class = trace.partial_recorders()
        try:
            while word is not None:
                if steps >= max_steps:
                    raise FithError(f"exceeded step budget {max_steps}")
                plan = word.plan
                if plan is None:
                    plan = self._plan_of(word)
                base = word.base_address
                limit = len(plan)
                while pc < limit:
                    if steps >= max_steps:
                        raise FithError(
                            f"exceeded step budget {max_steps}")
                    entry = plan[pc]
                    steps += 1
                    if recording:
                        record_address(base + pc)
                        record_class(stack[-1].class_tag if stack else -1)
                    pc += 1
                    code = entry[0]
                    if code == _PUSH:
                        stack.append(entry[1])
                    elif code == _SEND:
                        receiver_tag = (stack[-1].class_tag if stack
                                        else object_tag)
                        key = entry[4] | receiver_tag
                        action = send_memo.get(key)
                        if action is None:
                            action = translate(entry[3], key, receiver_tag)
                        fast = action[0]
                        if fast and len(stack) >= action[4]:
                            if fast == _F_ARITH:
                                b = stack[-1]
                                a = stack[-2]
                                if a.tag is _SMALL and b.tag is _SMALL:
                                    result = action[3](a.value, b.value)
                                    if SMALL_INTEGER_MIN <= result \
                                            <= SMALL_INTEGER_MAX:
                                        stack.pop()
                                        stack[-1] = small_integer_word(result)
                                        continue
                            elif fast == _F_FETCH:
                                pointer = stack[-1]
                                if pointer.tag is _POINTER:
                                    obj = objects.get(pointer.value)
                                    if obj is not None and obj.fields:
                                        stack[-1] = obj.fields[0]
                                        continue
                            elif fast == _F_AT:
                                index = stack[-1]
                                pointer = stack[-2]
                                if index.tag is _SMALL \
                                        and pointer.tag is _POINTER:
                                    obj = objects.get(pointer.value)
                                    if obj is not None and 0 <= \
                                            index.value < len(obj.fields):
                                        stack.pop()
                                        stack[-1] = obj.fields[index.value]
                                        continue
                            elif fast == _F_COMPARE:
                                b = stack[-1]
                                a = stack[-2]
                                if a.tag is _SMALL and b.tag is _SMALL:
                                    stack.pop()
                                    stack[-1] = (
                                        _TRUE if action[3](a.value, b.value)
                                        else _FALSE)
                                    continue
                            elif fast == _F_PUT:
                                index = stack[-2]
                                pointer = stack[-3]
                                if index.tag is _SMALL \
                                        and pointer.tag is _POINTER:
                                    obj = objects.get(pointer.value)
                                    if obj is not None and 0 <= \
                                            index.value < len(obj.fields):
                                        obj.fields[index.value] = stack[-1]
                                        del stack[-3:]
                                        continue
                            elif fast == _F_MOD:
                                b = stack[-1]
                                a = stack[-2]
                                if a.tag is _SMALL and b.tag is _SMALL \
                                        and b.value:
                                    # A remainder is smaller than its
                                    # small-integer divisor: it fits.
                                    stack.pop()
                                    stack[-1] = small_integer_word(
                                        a.value % b.value)
                                    continue
                            elif fast == _F_STORE:
                                pointer = stack[-1]
                                if pointer.tag is _POINTER:
                                    obj = objects.get(pointer.value)
                                    if obj is not None and obj.fields:
                                        obj.fields[0] = stack[-2]
                                        del stack[-2:]
                                        continue
                        handler = action[1]
                        if handler is not None:
                            handler(self)
                        else:
                            frames.append((word, pc))
                            word = action[2]
                            pc = 0
                            break
                    elif code == _RETURN or code == _EXIT:
                        word, pc = frames.pop()
                        break
                    elif code == _DUP:
                        if not stack:
                            raise FithError("dup on empty stack")
                        stack.append(stack[-1])
                    elif code == _SWAP:
                        if len(stack) >= 2:
                            stack[-1], stack[-2] = stack[-2], stack[-1]
                        else:
                            _op_swap(self, entry, pc, stack, loops)
                    elif code == _BRANCH_IF_FALSE:
                        if not stack:
                            raise FithError("stack underflow")
                        top = stack.pop()
                        if top is _FALSE or (top is not _TRUE
                                             and not _is_true(top)):
                            pc += entry[2]
                    elif code == _DROP:
                        if not stack:
                            raise FithError("stack underflow")
                        stack.pop()
                    elif code == _BRANCH:
                        pc += entry[2]
                    elif code == _HALT:
                        word = None
                        break
                    else:
                        pc = handlers[code](self, entry, pc, stack, loops)
                else:
                    # Ran off the end of the word with no explicit
                    # return: the frame simply pops.
                    word, pc = frames.pop()
        finally:
            self.steps = steps
            if recording:
                trace.complete(self._opcode_at, self._dispatched_at)

    # -- conveniences -----------------------------------------------------

    def run_source(self, source: str, max_steps: int = 5_000_000) -> None:
        self.load(source)
        self.run(max_steps)

    def result(self) -> Optional[Word]:
        """Top of stack after a run (None when empty)."""
        return self.stack[-1] if self.stack else None


# ----------------------------------------------------------------------
# interpreter dispatch table
# ----------------------------------------------------------------------

#: Dense integer opcodes for the plan tuples (see FithMachine._plan_of).
(_PUSH, _DUP, _DROP, _SWAP, _OVER, _ROT, _BRANCH, _BRANCH_IF_FALSE,
 _DO, _LOOP, _LOOP_I, _LOOP_J, _RETURN, _EXIT, _SEND, _HALT) = range(16)

_CODE_OF = {
    FithOp.PUSH: _PUSH, FithOp.DUP: _DUP, FithOp.DROP: _DROP,
    FithOp.SWAP: _SWAP, FithOp.OVER: _OVER, FithOp.ROT: _ROT,
    FithOp.BRANCH: _BRANCH, FithOp.BRANCH_IF_FALSE: _BRANCH_IF_FALSE,
    FithOp.DO: _DO, FithOp.LOOP: _LOOP, FithOp.LOOP_I: _LOOP_I,
    FithOp.LOOP_J: _LOOP_J, FithOp.RETURN: _RETURN, FithOp.EXIT: _EXIT,
    FithOp.SEND: _SEND, FithOp.HALT: _HALT,
}


def _op_swap(machine, entry, pc, stack, loops):
    b = machine.pop()
    a = machine.pop()
    stack.append(b)
    stack.append(a)
    return pc


def _op_over(machine, entry, pc, stack, loops):
    if len(stack) < 2:
        raise FithError("over on short stack")
    stack.append(stack[-2])
    return pc


def _op_rot(machine, entry, pc, stack, loops):
    c = machine.pop()
    b = machine.pop()
    a = machine.pop()
    stack.append(b)
    stack.append(c)
    stack.append(a)
    return pc


def _op_do(machine, entry, pc, stack, loops):
    start = machine.pop_int()
    limit = machine.pop_int()
    loops.append(_LoopFrame(start, limit))
    return pc


def _op_loop(machine, entry, pc, stack, loops):
    if not loops:
        raise FithError("loop without do")
    loop = loops[-1]
    loop.index += 1
    if loop.index < loop.limit:
        # Branch back to the instruction after the DO.
        return pc + entry[2]
    loops.pop()
    return pc


def _op_loop_i(machine, entry, pc, stack, loops):
    if not loops:
        raise FithError("i outside a do loop")
    stack.append(Word.small_integer(loops[-1].index))
    return pc


def _op_loop_j(machine, entry, pc, stack, loops):
    if len(loops) < 2:
        raise FithError("j needs two nested do loops")
    stack.append(Word.small_integer(loops[-2].index))
    return pc


#: Handlers for the ops the run loop does not inline, indexed by the
#: integer opcode.  ``None`` marks ops handled inline (or that end the
#: inner loop) and is never reached through the table.
_HANDLERS = [
    None,          # PUSH (inline)
    None,          # DUP (inline)
    None,          # DROP (inline)
    None,          # SWAP (inline)
    _op_over,
    _op_rot,
    None,          # BRANCH (inline)
    None,          # BRANCH_IF_FALSE (inline)
    _op_do,
    _op_loop,
    _op_loop_i,
    _op_loop_j,
    None,          # RETURN (inline)
    None,          # EXIT (inline)
    None,          # SEND (inline)
    None,          # HALT (inline)
]


#: Inline fast paths for sends of the hottest primitives (see
#: FithMachine.run): SmallInteger arithmetic and comparisons, array
#: ``at``/``put`` and the cell words ``@``/``!``.  Each takes the
#: operands straight off the local stack when they are small integers
#: or live object pointers in range, and otherwise leaves the stack
#: alone and falls back to the primitive's handler, so every error and
#: its message is the handler's.
(_F_ARITH, _F_FETCH, _F_AT, _F_COMPARE, _F_PUT, _F_MOD,
 _F_STORE) = range(1, 8)

#: Stack depth each fast path needs (index 0: no fast path).
_FAST_DEPTH = (0, 2, 1, 2, 2, 3, 2, 2)

#: primitive unit -> (fast path, operator)
_FAST_PATHS = {
    "fith.SmallInteger.+": (_F_ARITH, operator.add),
    "fith.SmallInteger.-": (_F_ARITH, operator.sub),
    "fith.SmallInteger.*": (_F_ARITH, operator.mul),
    "fith.SmallInteger.mod": (_F_MOD, None),
    "fith.SmallInteger.<": (_F_COMPARE, operator.lt),
    "fith.SmallInteger.<=": (_F_COMPARE, operator.le),
    "fith.SmallInteger.>": (_F_COMPARE, operator.gt),
    "fith.SmallInteger.>=": (_F_COMPARE, operator.ge),
    "fith.Object.=": (_F_COMPARE, operator.eq),
    "fith.SmallInteger.at": (_F_AT, None),
    "fith.Object.put": (_F_PUT, None),
    "fith.Object.@": (_F_FETCH, None),
    "fith.Object.!": (_F_STORE, None),
}

_SMALL = Tag.SMALL_INTEGER
_POINTER = Tag.OBJECT_POINTER


def _pop_control(control: List[Tuple[str, int]], expected: str,
                 closer: str, alt: str = None):
    if not control or control[-1][0] not in (expected, alt):
        raise FithError(f"{closer!r} without matching {expected!r}")
    return control.pop()


def _fith_div(a, b):
    if b == 0:
        raise FithError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        quotient = abs(a) // abs(b)
        return -quotient if (a < 0) != (b < 0) else quotient
    return a / b


def _raise_div0():
    raise FithError("modulo by zero")


def _unary_numeric(fn):
    def handler(machine: FithMachine) -> None:
        a = machine.pop()
        if not a.is_number:
            raise FithError(f"numeric word applied to {a!r}")
        value = fn(a.value)
        if a.is_small_integer:
            machine.push(Word.small_integer(int(value)))
        else:
            machine.push(Word.floating(float(value)))
    return handler


def _float_floor(machine: FithMachine) -> None:
    a = machine.pop()
    if not a.is_number:
        raise FithError("floor needs a number")
    machine.push(Word.small_integer(int(a.value // 1)))


def _int_to_float(machine: FithMachine) -> None:
    a = machine.pop()
    if not a.is_number:
        raise FithError("float needs a number")
    machine.push(Word.floating(float(a.value)))


def _generic_eq(machine: FithMachine) -> None:
    b = machine.pop()
    a = machine.pop()
    machine.push(_bool(a.same_object_as(b)))


def _generic_ne(machine: FithMachine) -> None:
    b = machine.pop()
    a = machine.pop()
    machine.push(_bool(not a.same_object_as(b)))


def _print_pop(machine: FithMachine) -> None:
    machine.output.append(machine.pop())


def _logical(fn):
    def handler(machine: FithMachine) -> None:
        b = machine.pop()
        a = machine.pop()
        machine.push(_bool(fn(_is_true(a), _is_true(b))))
    return handler


def _logical_not(machine: FithMachine) -> None:
    machine.push(_bool(not _is_true(machine.pop())))


def _new_instance(machine: FithMachine) -> None:
    atom = machine.pop()
    if atom.tag is not Tag.ATOM or atom.value not in machine.registry:
        raise FithError(f"new on non-class {atom!r}")
    machine.push(machine.allocate(machine.registry.by_name(atom.value)))


def _new_array(machine: FithMachine) -> None:
    size = machine.pop_int()
    if size < 0:
        raise FithError("array size must be non-negative")
    machine.push(machine.allocate(machine.array_class, size))


def _array_at(machine: FithMachine) -> None:
    index = machine.pop_int()
    pointer = machine.pop()
    obj = machine.object_of(pointer)
    if not 0 <= index < len(obj.fields):
        raise FithError(f"index {index} out of bounds")
    machine.push(obj.fields[index])


def _array_put(machine: FithMachine) -> None:
    value = machine.pop()
    index = machine.pop_int()
    pointer = machine.pop()
    obj = machine.object_of(pointer)
    if not 0 <= index < len(obj.fields):
        raise FithError(f"index {index} out of bounds")
    obj.fields[index] = value


def _array_size(machine: FithMachine) -> None:
    pointer = machine.pop()
    machine.push(Word.small_integer(len(machine.object_of(pointer).fields)))


def _cell_fetch(machine: FithMachine) -> None:
    pointer = machine.pop()
    obj = machine.object_of(pointer)
    if not obj.fields:
        raise FithError("@ on empty object")
    machine.push(obj.fields[0])


def _cell_store(machine: FithMachine) -> None:
    # Forth convention: ( value addr -- ), address on top.  Dispatch is
    # still on the top of stack, so ! is installed on Object (any value
    # class may sit beneath the pointer).
    pointer = machine.pop()
    value = machine.pop()
    obj = machine.object_of(pointer)
    if not obj.fields:
        raise FithError("! on empty object")
    obj.fields[0] = value
