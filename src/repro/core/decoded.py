"""Predecoded instruction streams for the COM interpreter.

The functional simulator's hottest path is :meth:`COMMachine.step`:
the seed re-decoded the same 32-bit word into frozen ``Instruction``/
``Operand`` dataclasses on every fetch, re-derived the architectural
:class:`~repro.core.isa.Op` three or four times per instruction, and
re-translated the IP through the MMU.  None of that work depends on
machine state -- a method's code is immutable between installation and
redefinition -- so it can be done once, when
:meth:`COMMachine.install_method` stores the method.

This module holds the result of that one-time work:

* :class:`DecodedInstruction` -- one instruction's *plan*: the decoded
  ``Instruction``, its memoized architectural op, the dispatch shape
  (which operand words form the ITLB key), precomputed operand slots,
  the destination-write shape, the RAW-hazard source set, the
  pretranslated fall-through IP and, for a conditional jump with a
  constant small-integer displacement, the pretranslated target IP;
* :class:`DecodedMethod` -- a method's plan array plus the absolute
  base of its code segment (the IP-translation cache for straight-line
  fetch: ``absolute = base_absolute + offset`` with a descriptor
  validity check, no MMU walk) and a ``live`` flag that a shootdown
  clears, so the fetch loop can keep the method across fall-through
  instructions;
* :class:`DecodedProgramCache` -- the per-machine registry, keyed by
  the code segment name and indexed by absolute code address for
  invalidation.

Invalidation rules (documented in DESIGN.md):

* **re-installation** -- ``install_method`` shoots down the redefined
  method's plans exactly like the existing ITLB selector shootdown;
* **heap writes** -- the machine registers :meth:`note_write` as an
  absolute-memory write watcher, so any store into predecoded code
  (e.g. ``at:put:`` into a method object) drops that method's plans;
* **frees** -- a freed block (the old block of a method that
  ``MMU.grow_object`` relocated) drops any plans it covered via
  :meth:`note_free`;
* **segment moves** -- the fetch fast path revalidates the captured
  segment descriptor (base unchanged, no alias forward) before
  trusting a plan, so grown/aliased code falls back to the slow path.

A jump's target IP cannot go stale: the constant table is
append-only, so the displacement word a plan read never changes, and
the target lies in the plan's own segment, so it dies with the plan.

Every plan consumer preserves the seed's cycle accounting, trace
events and :class:`~repro.caches.stats.AccessProfile` tallies exactly;
``tests/test_predecode.py`` pins that equivalence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.context import operand_slot
from repro.core.encoding import Instruction
from repro.core.isa import Op, architectural_op
from repro.core.operands import Mode, Operand, Space

#: Dispatch shapes: which operand words form the ITLB key (receiver
#: first), mirroring ``COMMachine._dispatch_sources``.
K_HALT = 0      # no dispatch; stops the machine
K_ZERO = 1      # zero-operand format: nargs next-context locals
K_SOURCES = 2   # three-operand format: read the plan's source list

#: Destination-write shapes, mirroring ``COMMachine._write_result`` /
#: ``_write_operand`` for a three-operand primitive result.
D_NONE = 0      # at:put: has no destination
D_ZERO = 1      # zero-operand: through the next context's result pointer
D_CUR0 = 2      # current-context slot 0: indirect through arg0 if pointer
D_CUR = 3       # current-context slot write
D_NEXT = 4      # next-context slot write
D_SLOW = 5      # constant-mode destination: defer to the slow writer (raises)

#: Ops whose sources are operands B and C, destination A (re-exported
#: by machine.py for its slow path).
BINARY_OPS = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
    Op.CARRY, Op.MULT1, Op.MULT2,
    Op.SHIFT, Op.ASHIFT, Op.ROTATE, Op.MASK,
    Op.AND, Op.OR, Op.XOR,
    Op.LT, Op.LE, Op.EQ, Op.SAME,
})
#: Ops whose single source is operand B, destination A.
UNARY_OPS = frozenset({Op.NEG, Op.NOT, Op.TAG, Op.MOVE})

#: Ops that never record a previous-destination for hazard tracking.
_NO_DEST_OPS = frozenset({Op.FJMP, Op.RJMP, Op.XFER, Op.HALT, Op.ATPUT})

#: The conditional jumps: the machine unit each runs as, and the sign
#: of its displacement (``COMMachine._unit_fjmp``/``_unit_rjmp``).
_JUMPS = {Op.FJMP: ("machine.fjmp", 1), Op.RJMP: ("machine.rjmp", -1)}


def _source_operands(inst: Instruction, arch) -> Tuple[Operand, ...]:
    """The operands whose words form the ITLB key, receiver first."""
    a, b, c = inst.operands
    if arch in BINARY_OPS or arch is None:
        return (b, c)                 # user sends dispatch like binaries
    if arch in UNARY_OPS or arch is Op.MOVEA:
        return (b,)
    if arch is Op.AT or arch is Op.AS:
        return (b, c)
    if arch is Op.ATPUT:
        return (b, c, a)
    if arch in (Op.FJMP, Op.RJMP, Op.XFER):
        return (a,)
    return ()                          # HALT (three-operand spelling)


def _reader_of(operand: Operand) -> Tuple[bool, bool, int]:
    """(is_constant, is_current, table_index_or_context_slot)."""
    if operand.mode is Mode.CONSTANT:
        return (True, False, operand.offset)
    return (False, operand.space is Space.CURRENT,
            operand_slot(operand.offset))


def _jump_target(inst: Instruction, index: int,
                 constants) -> Optional[Tuple[str, int]]:
    """``(unit, target offset)`` of the conditional jump at ``index``
    when its displacement is a small-integer constant; else None."""
    jump = _JUMPS.get(architectural_op(inst.opcode))
    if jump is None or inst.is_zero_operand:
        return None
    displacement = inst.operands[2]
    if (displacement.mode is not Mode.CONSTANT
            or displacement.offset >= len(constants)):
        return None
    word = constants.get(displacement.offset)
    if not word.is_small_integer or not isinstance(word.value, int):
        return None
    unit, sign = jump
    return unit, index + 1 + sign * word.value


def _word_fields(inst: Instruction, word: int, selector: str) -> tuple:
    """The fields of a plan that depend on the instruction word alone,
    in :data:`_WORD_FIELDS` order (everything but the pretranslated
    IPs)."""
    arch = architectural_op(inst.opcode)
    if arch is Op.HALT:
        kind = K_HALT
    elif inst.is_zero_operand:
        kind = K_ZERO
    else:
        kind = K_SOURCES
    head = (inst, word, inst.opcode, selector, arch, kind, inst.returns,
            inst.nargs)
    if inst.is_zero_operand:
        return head + ((), frozenset(), D_ZERO, 0, None)
    sources = tuple(_reader_of(op) for op in _source_operands(inst, arch))
    # RAW hazard: operands B/C reading the previous instruction's
    # context destination (COMMachine._check_raw_hazard).
    hazards = frozenset(
        (op.space.value, op.offset)
        for op in inst.operands[1:] if op.mode is Mode.CONTEXT
    )
    a = inst.operands[0]
    if arch is Op.ATPUT:
        dest_kind, dest_slot = D_NONE, 0
    elif a.mode is Mode.CONSTANT:
        dest_kind, dest_slot = D_SLOW, 0
    elif a.space is Space.CURRENT:
        dest_kind = D_CUR0 if a.offset == 0 else D_CUR
        dest_slot = operand_slot(a.offset)
    else:
        dest_kind, dest_slot = D_NEXT, operand_slot(a.offset)
    # Previous-destination bookkeeping (COMMachine._record_dest).
    if arch in _NO_DEST_OPS or a.mode is not Mode.CONTEXT:
        dest_prev = None
    else:
        dest_prev = (a.space.value, a.offset)
    return head + (sources, hazards, dest_kind, dest_slot, dest_prev)


#: The plan fields :func:`_word_fields` computes, in its order.
_WORD_FIELDS = (
    "inst", "word", "opcode", "selector", "arch", "kind", "returns",
    "nargs", "sources", "hazards", "dest_kind", "dest_slot", "dest_prev",
)


class DecodedInstruction:
    """One instruction's execution plan (see module docstring).

    ``fields`` is :func:`_word_fields`'s tuple for the instruction's
    word; the pretranslated fall-through IP and, for a predecoded
    conditional jump, the unit it must resolve to and its taken IP
    (both None for every other instruction) depend on where the
    instruction sits.
    """

    __slots__ = _WORD_FIELDS + ("next_ip", "jump_unit", "jump_ip")

    def __init__(self, fields: tuple, next_ip,
                 jump_unit: Optional[str] = None, jump_ip=None) -> None:
        (self.inst, self.word, self.opcode, self.selector, self.arch,
         self.kind, self.returns, self.nargs, self.sources, self.hazards,
         self.dest_kind, self.dest_slot, self.dest_prev) = fields
        self.next_ip = next_ip
        self.jump_unit = jump_unit
        self.jump_ip = jump_ip


class DecodedMethod:
    """A method's predecoded plan array plus its pretranslated base.

    ``live`` is True until the method's plans are shot down
    (``DecodedProgramCache._drop`` and ``flush`` clear it).  The fetch
    loop keeps the running method across fall-through instructions
    instead of probing ``by_segment`` again, and tests ``live`` on
    each of them, so a shootdown takes effect at the next fetch.
    """

    __slots__ = ("segment_key", "base_absolute", "descriptor", "plans",
                 "live")

    def __init__(self, segment_key: Tuple[int, int], base_absolute: int,
                 descriptor, plans: List[Optional[DecodedInstruction]]) -> None:
        self.segment_key = segment_key
        self.base_absolute = base_absolute
        self.descriptor = descriptor
        self.plans = plans
        self.live = True


class DecodedProgramCache:
    """Per-machine registry of predecoded methods.

    ``by_segment`` is consulted by the fetch fast path (one dict probe
    per instruction); ``_owner_of`` maps every covered absolute code
    address back to its method for write invalidation.
    """

    def __init__(self) -> None:
        self.by_segment: Dict[Tuple[int, int], DecodedMethod] = {}
        self._owner_of: Dict[int, Tuple[int, int]] = {}
        #: (word, selector) -> _word_fields tuple: a word's plan fields
        #: are computed once however often the word occurs.
        self._fields_of: Dict[Tuple[int, str], tuple] = {}
        self.installs = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self.by_segment)

    def predecode(self, code_base, instructions, words, base_absolute,
                  descriptor, selector_of, constants) -> DecodedMethod:
        """Build and register a method's plans.

        ``code_base`` is the method's virtual base address,
        ``instructions`` its decoded instructions, ``words`` the encoded
        32-bit values, ``selector_of`` the opcode-number -> selector map
        and ``constants`` the machine's constant table.
        """
        span = code_base.span
        plans: List[Optional[DecodedInstruction]] = []
        fields_of = self._fields_of
        for index, (inst, word) in enumerate(zip(instructions, words)):
            selector = selector_of(inst.opcode)
            fields = fields_of.get((word, selector))
            if fields is None:
                fields = fields_of[word, selector] = _word_fields(
                    inst, word, selector)
            # The fall-through IP is pretranslated here; the last slot
            # of a full segment has none (stepping past it must raise
            # exactly as the slow path would).
            next_ip = (code_base.step(index + 1)
                       if index + 1 < span else None)
            # So is a jump's taken IP, when its displacement is a
            # small-integer constant and the target stays inside the
            # segment; any other jump runs its machine unit.
            jump_unit = jump_ip = None
            jump = _jump_target(inst, index, constants)
            if jump is not None and 0 <= jump[1] < span:
                jump_unit, jump_ip = jump[0], code_base.step(jump[1])
            plans.append(DecodedInstruction(
                fields, next_ip, jump_unit, jump_ip))
        method = DecodedMethod(
            code_base.segment_name, base_absolute, descriptor, plans)
        self.install(method)
        return method

    def install(self, method: DecodedMethod) -> None:
        old = self.by_segment.get(method.segment_key)
        if old is not None:
            self._drop(old)
        self.by_segment[method.segment_key] = method
        for index in range(len(method.plans)):
            self._owner_of[method.base_absolute + index] = method.segment_key
        self.installs += 1

    # -- invalidation ------------------------------------------------------

    def _drop(self, method: DecodedMethod) -> None:
        method.live = False
        self.by_segment.pop(method.segment_key, None)
        for index in range(len(method.plans)):
            self._owner_of.pop(method.base_absolute + index, None)
        self.invalidations += 1

    def invalidate_segment(self, segment_key: Tuple[int, int]) -> bool:
        """Shoot down one method's plans (method redefinition)."""
        method = self.by_segment.get(segment_key)
        if method is None:
            return False
        self._drop(method)
        return True

    def note_write(self, absolute: int) -> None:
        """Absolute-memory write watcher: drop plans covering ``absolute``."""
        owner = self._owner_of.get(absolute)
        if owner is not None:
            self.invalidate_segment(owner)

    def note_free(self, base: int, block_size: int) -> None:
        """Absolute-memory free watcher: drop plans inside the freed block."""
        if not self.by_segment:
            return
        end = base + block_size
        victims = [
            method for method in self.by_segment.values()
            if method.base_absolute < end
            and base < method.base_absolute + len(method.plans)
        ]
        for method in victims:
            self._drop(method)
