"""The Caltech Object Machine: a functional, cycle-accounted simulator.

This module wires every architectural piece together (paper section 3):

* tagged memory and three-level addressing (:mod:`repro.memory`);
* the ITLB resolving abstract instructions to methods (section 2.1);
* the context cache, free-list context pool and the call/return
  sequences of section 3.6;
* the five-step pipeline's cycle accounting (figure 6);
* an instruction cache on the fetch path;
* trace recording compatible with the section-5 experiments (one event
  per instruction: address, opcode, receiver class).

The machine executes real encoded 32-bit instructions out of method
objects stored in tagged memory.  Method dispatch is *always* abstract:
every instruction forms an ITLB key from its opcode and the classes of
its fetched operands, and either fires a function unit (primitive
methods) or performs the method-call sequence (defined methods).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.caches.icache import InstructionCache
from repro.caches.itlb import ITLB, ITLBEntry
from repro.caches.setassoc import MISS
from repro.caches.stats import AccessProfile
from repro.errors import (
    AliasTrap,
    DoesNotUnderstandTrap,
    EncodingError,
    MachineHalted,
    ProtectionTrap,
    ReproError,
    SimulationLimitExceeded,
    TagMismatch,
)
from repro.memory.fpa import FPAddress, address_format
from repro.memory.mmu import MMU
from repro.memory.tags import Tag, Word, pointer_word
from repro.objects.gc import ContextRecycler
from repro.objects.heap import ObjectHeap
from repro.objects.model import (
    ClassRegistry,
    DefinedMethod,
    ObjectClass,
    PrimitiveMethod,
)
from repro.core.constants import ConstantTable, is_true
from repro.core.context import (
    ARG0_SLOT,
    ARG1_SLOT,
    CONTEXT_WORDS,
    ContextPool,
    FrameSizeHistogram,
    RCP_SLOT,
    RIP_SLOT,
    operand_slot,
)
from repro.core.context_cache import ContextCache
from repro.core.decoded import (
    BINARY_OPS as _BINARY_OPS,
    D_CUR,
    D_CUR0,
    D_NEXT,
    D_SLOW,
    D_ZERO,
    DecodedProgramCache,
    K_SOURCES,
    K_ZERO,
    UNARY_OPS as _UNARY_OPS,
)
from repro.core.encoding import Instruction
from repro.core.isa import Op, OpcodeTable
from repro.core.operands import Mode, Operand, Space
from repro.core.pipeline import CycleAccountant, CycleParams
from repro.core.primitives import execute_unit, unit_function
from repro.core.registers import RegisterFile
from repro.trace.columnar import TraceBuilder

_INT = Tag.SMALL_INTEGER
_ATOM = Tag.ATOM
_POINTER = Tag.OBJECT_POINTER
_CONSTANT = Mode.CONSTANT
_CURRENT = Space.CURRENT


@dataclass
class CompiledMethod:
    """A method's code object plus its metadata."""

    selector: str
    code_address: FPAddress
    instruction_count: int
    argument_count: int = 0
    frame_words: int = CONTEXT_WORDS

    @cached_property
    def entry(self) -> FPAddress:
        return self.code_address.base()


class COMMachine:
    """A complete COM system: processor, caches, memory and runtime."""

    def __init__(
        self,
        *,
        address_bits: int = 36,
        itlb_size: int = 512,
        itlb_associativity=2,
        icache_size: int = 4096,
        icache_associativity=2,
        context_blocks: int = 32,
        cycle_params: Optional[CycleParams] = None,
        context_pool_limit: Optional[int] = None,
        predecode: bool = True,
    ) -> None:
        self.mmu = MMU(address_format(address_bits))
        self.registry = ClassRegistry()
        self.opcodes = OpcodeTable()
        self.constants = ConstantTable()
        self.heap = ObjectHeap(self.mmu, team=0)
        self.regs = RegisterFile()
        self.cycles = CycleAccountant(cycle_params or CycleParams())
        self.profile = AccessProfile()
        self.recycler = ContextRecycler()
        self.itlb = ITLB(itlb_size, itlb_associativity)
        self.icache = InstructionCache(icache_size, icache_associativity)
        self.frame_sizes = FrameSizeHistogram()
        self._bootstrap_classes()
        self.pool = ContextPool(self.heap, self.context_class,
                                limit=context_pool_limit)
        self.context_cache = ContextCache(
            self._context_writeback, self._context_load,
            num_blocks=context_blocks,
        )
        self.ip: Optional[FPAddress] = None
        self.halted = False
        self.trace: Optional[TraceBuilder] = None
        self._result_cell: Optional[FPAddress] = None
        self._methods: Dict[Tuple[int, str], CompiledMethod] = {}
        self._prev_dest: Optional[Tuple[str, int]] = None
        self.activation_count = 0
        #: Call depth of the running program (top-level frame = 1).
        self.depth = 0
        self.max_depth = 0
        #: Predecode layer: per-method instruction plans consulted by
        #: the fetch fast path.  Disable (predecode=False) to force the
        #: decode-every-step interpreter -- the equivalence tests run
        #: both and require identical cycles, profile and trace.
        self.predecode = predecode
        self.decoded = DecodedProgramCache()
        if predecode:
            self.mmu.absolute.watch_writes(self.decoded.note_write)
            self.mmu.absolute.watch_frees(self.decoded.note_free)
        #: Machine-level function units by name: replaces the former
        #: string-compare chain in _run_machine_unit with one dict
        #: lookup of a bound handler.
        self._machine_units = {
            "machine.movea": self._unit_movea,
            "machine.at": self._unit_at,
            "machine.atput": self._unit_atput,
            "machine.as": self._unit_as,
            "machine.fjmp": self._unit_fjmp,
            "machine.rjmp": self._unit_rjmp,
            "machine.xfer": self._unit_xfer,
            "machine.new": self._unit_new,
            "machine.newsize": self._unit_newsize,
        }

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------

    def _bootstrap_classes(self) -> None:
        """Create the base class hierarchy and install primitive methods."""
        registry = self.registry
        self.object_class = registry.define_class("Object")
        # Primitive tag classes inherit the universal behaviour.
        for name in ("Uninitialized", "SmallInteger", "Float", "Atom",
                     "Instruction", "ObjectPointer"):
            registry.by_name(name).superclass = self.object_class
        self.context_class = registry.define_class(
            "Context", self.object_class, CONTEXT_WORDS)
        self.method_class = registry.define_class(
            "CompiledMethodObject", self.object_class)
        self.array_class = registry.define_class("Array", self.object_class)

        sel = lambda op: self.opcodes.selector_of(int(op))
        obj = self.object_class
        obj.define_primitive(sel(Op.MOVE), "move")
        obj.define_primitive(sel(Op.SAME), "cmp.same")
        obj.define_primitive(sel(Op.TAG), "tag")
        obj.define_primitive(sel(Op.AS), "machine.as")
        obj.define_primitive(sel(Op.MOVEA), "machine.movea")
        obj.define_primitive(sel(Op.AT), "machine.at")
        obj.define_primitive(sel(Op.ATPUT), "machine.atput")
        obj.define_primitive(sel(Op.XFER), "machine.xfer")

        integer = registry.by_name("SmallInteger")
        for op, unit in (
            (Op.ADD, "arith.add"), (Op.SUB, "arith.sub"),
            (Op.MUL, "arith.mul"), (Op.DIV, "arith.div"),
            (Op.MOD, "arith.mod"), (Op.NEG, "arith.neg"),
            (Op.CARRY, "mp.carry"), (Op.MULT1, "mp.mult1"),
            (Op.MULT2, "mp.mult2"),
            (Op.SHIFT, "bits.shift"), (Op.ASHIFT, "bits.ashift"),
            (Op.ROTATE, "bits.rotate"), (Op.MASK, "bits.mask"),
            (Op.AND, "bits.and"), (Op.OR, "bits.or"),
            (Op.NOT, "bits.not"), (Op.XOR, "bits.xor"),
            (Op.LT, "cmp.lt"), (Op.LE, "cmp.le"), (Op.EQ, "cmp.eq"),
            (Op.FJMP, "machine.fjmp"), (Op.RJMP, "machine.rjmp"),
        ):
            integer.define_primitive(sel(op), unit)

        floating = registry.by_name("Float")
        for op, unit in (
            (Op.ADD, "arith.add"), (Op.SUB, "arith.sub"),
            (Op.MUL, "arith.mul"), (Op.DIV, "arith.div"),
            (Op.NEG, "arith.neg"),
            (Op.LT, "cmp.lt"), (Op.LE, "cmp.le"), (Op.EQ, "cmp.eq"),
        ):
            floating.define_primitive(sel(op), unit)

        atom = registry.by_name("Atom")
        atom.define_primitive(sel(Op.EQ), "cmp.eq")
        # Classes are denoted by atoms at runtime; allocation is an
        # operating-system primitive the architecture leaves to
        # software (section 3: "the COM achieves flexibility by
        # providing only primitives").
        atom.define_primitive("new", "machine.new")
        atom.define_primitive("new:", "machine.newsize")
        # Jumps test boolean atoms as well as integers (section 3.3
        # defines them for integers; our compiler branches on the atoms
        # true/false that the comparison units produce).
        atom.define_primitive(sel(Op.FJMP), "machine.fjmp")
        atom.define_primitive(sel(Op.RJMP), "machine.rjmp")

    # ------------------------------------------------------------------
    # context plumbing
    # ------------------------------------------------------------------

    def _context_writeback(self, base: int, words: List[Word]) -> None:
        self.mmu.absolute.write_block(base, words)

    def _context_load(self, base: int) -> List[Word]:
        return self.mmu.absolute.read_block(base, CONTEXT_WORDS)

    def _translate(self, address: FPAddress) -> int:
        """Virtual->absolute with one alias-forward retry (trap handler)."""
        try:
            return self.mmu.translate_absolute(self.heap.team, address)
        except AliasTrap as trap:
            forwarded = trap.new_address.with_offset(0).step(address.offset)
            return self.mmu.translate_absolute(self.heap.team, forwarded)

    def _allocate_next_context(self) -> None:
        address = self.pool.allocate()
        base = self._translate(address)
        cache = self.context_cache
        block = cache.allocate_next(base)
        self.regs.ncp.set(address, base)
        caller = self.regs.cp.virtual
        if caller is not None:
            # ContextCache.write_next(RCP_SLOT, ...), inline (the block
            # is dirty from its allocation).
            cache.stats.fast_writes += 1
            cache.blocks[block][RCP_SLOT] = pointer_word(
                caller.packed, self.context_class.class_tag)

    def _release_context(self, address: FPAddress, base: int) -> None:
        self.context_cache.release(base)
        self.pool.free(address)

    # ------------------------------------------------------------------
    # program installation
    # ------------------------------------------------------------------

    def install_method(
        self,
        cls: ObjectClass,
        selector: str,
        instructions: Sequence[Instruction],
        argument_count: int = 0,
        frame_words: int = CONTEXT_WORDS,
    ) -> CompiledMethod:
        """Store a method's code in tagged memory and bind it to a class.

        Re-installation (redefinition) shoots down the stale ITLB
        entries for the selector -- the smooth-extensibility story of
        section 2.1: no caller's object code changes -- and, exactly
        like that shootdown, drops the replaced method's predecoded
        instruction plans (see :mod:`repro.core.decoded`).
        """
        opcode = self.opcodes.intern(selector)
        if not instructions:
            raise EncodingError(f"method {selector!r} has no instructions")
        count = len(instructions)
        code = self.heap.allocate(self.method_class, count, kind="method")
        words = [inst.encode() for inst in instructions]
        # What heap.store of each word does, with one translation: the
        # segment is fresh and exactly ``count`` words long, so every
        # word passes the first word's checks, and each store after the
        # first would probe the same ATLB entry and hit without moving
        # it.  Those hits are counted in bulk.  The predecoded plans
        # reuse the same translation.
        mmu = self.mmu
        translation = mmu.translate(self.heap.team, code)
        base = translation.absolute
        mmu.atlb.stats.hits += count - 1
        write = mmu.absolute.write
        for index, word in enumerate(words):
            write(base + index, Word.instruction(word))
        compiled = CompiledMethod(
            selector, code, len(instructions), argument_count, frame_words)
        previous = self._methods.get((cls.class_tag, selector))
        cls.define_method(selector, compiled, argument_count)
        self.itlb.invalidate_selector(opcode)
        if previous is not None:
            self.decoded.invalidate_segment(
                previous.code_address.segment_name)
        if self.predecode:
            self.decoded.predecode(
                code, instructions, words, base, translation.descriptor,
                self.opcodes.selector_of, self.constants)
        self._methods[(cls.class_tag, selector)] = compiled
        self.frame_sizes.record(frame_words)
        if frame_words > CONTEXT_WORDS:
            self.pool.note_overflow()
        return compiled

    def method_for(self, cls: ObjectClass, selector: str) -> CompiledMethod:
        return self._methods[(cls.class_tag, selector)]

    # ------------------------------------------------------------------
    # trace support
    # ------------------------------------------------------------------

    def enable_trace(self) -> TraceBuilder:
        """Start recording (address, opcode, receiver class) events
        into a columnar :class:`~repro.trace.columnar.TraceBuilder`."""
        self.trace = TraceBuilder()
        return self.trace

    # ------------------------------------------------------------------
    # operand access
    # ------------------------------------------------------------------

    def _read_operand(self, operand: Operand) -> Word:
        if operand.mode is Mode.CONSTANT:
            return self.constants.get(operand.offset)
        slot = operand_slot(operand.offset)
        if operand.space is Space.CURRENT:
            self.profile.context_reads += 1
            return self.context_cache.read_current(slot)
        self.profile.context_reads += 1
        return self.context_cache.read_next(slot)

    def _write_operand(self, operand: Operand, word: Word) -> None:
        if operand.mode is Mode.CONSTANT:
            raise EncodingError("constant operands are not writable")
        slot = operand_slot(operand.offset)
        if operand.space is Space.CURRENT:
            if operand.offset == 0:
                # Writes to arg0 indirect through the result pointer:
                # "the method indirects through the result pointer"
                # (section 4).  A non-pointer arg0 stores in place
                # (top-level frames hold their result locally).
                target = self.context_cache.read_current(ARG0_SLOT)
                if target.is_pointer:
                    self._store_through_pointer(target, word)
                    return
            self.profile.context_writes += 1
            self.context_cache.write_current(slot, word)
        else:
            self.profile.context_writes += 1
            self.context_cache.write_next(slot, word)

    def _effective_address(self, operand: Operand) -> int:
        """The packed virtual address of a context-mode operand's slot
        (movea, and a call's result pointer): the base of the CP's or
        NCP's segment plus the slot."""
        if operand.mode is _CONSTANT:
            raise EncodingError("constants have no effective address")
        virtual = (self.regs.cp if operand.space is _CURRENT
                   else self.regs.ncp).virtual
        if virtual is None:
            raise ReproError("effective address taken with no context")
        slot = operand_slot(operand.offset)
        exponent = virtual.exponent
        if slot >> exponent:
            virtual.with_offset(slot)   # raises InvalidAddress
        return (virtual.packed >> exponent << exponent) | slot

    # -- memory routing (context cache first, then absolute memory) -------

    def _note_capture_if_context(self, word: Word) -> None:
        """Storing a context pointer into memory makes it non-LIFO."""
        if word.is_pointer and word.class_tag == self.context_class.class_tag:
            base = self.mmu.fmt.from_packed(word.value).base().packed
            self.recycler.note_capture(base)

    def _store_through_pointer(self, pointer: Word, word: Word) -> None:
        address = self.mmu.fmt.from_packed(pointer.value)
        absolute = self._translate(address)
        index = absolute % CONTEXT_WORDS
        if self.context_cache.write_absolute(absolute - index, index, word):
            self.profile.context_writes += 1
            return
        self.profile.heap_writes += 1
        self.mmu.absolute.write(absolute, word)

    def _load_memory_word(self, address: FPAddress) -> Word:
        absolute = self._translate(address)
        index = absolute % CONTEXT_WORDS
        cached = self.context_cache.read_absolute(absolute - index, index)
        if cached is not None:
            self.profile.context_reads += 1
            return cached
        self.profile.heap_reads += 1
        return self.mmu.absolute.read(absolute)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch_sources(
        self, inst: Instruction
    ) -> Tuple[List[Word], List[Operand]]:
        """Fetch the operand words that form the ITLB key, receiver first."""
        arch = self.opcodes.architectural_op(inst.opcode)
        if inst.is_zero_operand:
            words = []
            if inst.nargs >= 1:
                self.profile.context_reads += 1
                words.append(self.context_cache.read_next(ARG1_SLOT))
            if inst.nargs >= 2:
                self.profile.context_reads += 1
                words.append(self.context_cache.read_next(ARG1_SLOT + 1))
            return words, []
        a, b, c = inst.operands
        if arch in _BINARY_OPS or arch is None:
            # User three-operand sends dispatch like binary messages.
            return [self._read_operand(b), self._read_operand(c)], [b, c]
        if arch in _UNARY_OPS:
            return [self._read_operand(b)], [b]
        if arch is Op.MOVEA:
            return [self._read_operand(b)], [b]
        if arch is Op.AT:
            return [self._read_operand(b), self._read_operand(c)], [b, c]
        if arch is Op.ATPUT:
            return [
                self._read_operand(b), self._read_operand(c),
                self._read_operand(a),
            ], [b, c, a]
        if arch is Op.AS:
            return [self._read_operand(b), self._read_operand(c)], [b, c]
        if arch in (Op.FJMP, Op.RJMP):
            return [self._read_operand(a)], [a]
        if arch is Op.XFER:
            return [self._read_operand(a)], [a]
        return [], []   # HALT

    def _itlb_translate(self, inst: Instruction,
                        sources: List[Word]) -> ITLBEntry:
        class_tags = tuple(word.class_tag for word in sources)
        entry = self.itlb.probe((inst.opcode, class_tags))
        if entry is MISS:
            entry = self._itlb_miss(
                inst.opcode, self.opcodes.selector_of(inst.opcode),
                class_tags)
        if self.trace is not None:
            receiver = class_tags[0] if class_tags else -1
            address = getattr(self, "_fetch_absolute", self.ip.packed)
            self.trace.record(address, inst.opcode, receiver)
        return entry

    def _itlb_miss(self, opcode: int, selector: str,
                   class_tags: Tuple[int, ...]) -> ITLBEntry:
        """An ITLB miss: full method lookup, fill, and the lookup's stall.

        A primitive entry carries its function unit resolved for the
        key's operand count (``ITLBEntry.function``), so a hit calls the
        unit directly; units that act on machine state keep
        ``function=None`` and run from ``self._machine_units``.  A
        failed lookup (doesNotUnderstand) raises before the fill, so it
        is never cached.
        """
        receiver_tag = (class_tags[0] if class_tags
                        else self.object_class.class_tag)
        lookup = self.registry.lookup_by_tag(selector, receiver_tag)
        method = lookup.method
        function = None
        if (getattr(method, "is_primitive", False)
                and method.unit not in self._machine_units):
            function = unit_function(method.unit, len(class_tags))
        entry = ITLBEntry.from_method(method, function)
        self.itlb.fill((opcode, class_tags), entry)
        self.cycles.itlb_miss(lookup.probes)
        return entry

    # ------------------------------------------------------------------
    # call / return / xfer
    # ------------------------------------------------------------------

    def _method_call(
        self,
        inst: Instruction,
        method: DefinedMethod,
        source_words: List[Word],
        return_ip: Optional[FPAddress] = None,
    ) -> None:
        """The call sequence of section 3.6.

        ``return_ip`` is the caller's pretranslated fall-through IP
        (the plan's ``next_ip``); without one the IP steps by one.  The
        context-cache writes go straight to the blocks, as
        ``ContextCache.write_next``/``write_current`` would make them,
        and each counter is bumped once per call.
        """
        compiled: CompiledMethod = method.code
        cache = self.context_cache
        profile = self.profile
        copies = 0
        if not inst.is_zero_operand:
            # The processor expands the operands into words and copies
            # them to the new context: arg0 = effective address of the
            # destination, arg1.. = source values (section 3.5).
            result_pointer = pointer_word(
                self._effective_address(inst.operands[0]),
                self.context_class.class_tag)
            block = cache.next
            if block is None:
                raise ReproError("no next context resident")
            copies = 1 + len(source_words)
            cache.blocks[block][ARG0_SLOT:ARG0_SLOT + copies] = \
                [result_pointer, *source_words]
            cache.dirty[block] = True
            cache.stats.fast_writes += copies
            profile.context_writes += copies
        self.cycles.method_call(copies)
        # Save the continuation in the calling context's RIP.
        if return_ip is None:
            return_ip = self.ip.step(1)
        profile.context_writes += 1
        block = cache.current
        if block is None:
            raise ReproError("no current context resident")
        cache.stats.fast_writes += 1
        cache.blocks[block][RIP_SLOT] = pointer_word(
            return_ip.packed, self.method_class.class_tag)
        cache.dirty[block] = True
        # CP <- NCP (the next context's RCP was written at allocation).
        cache.on_call()
        regs = self.regs
        regs.cp.set(regs.ncp.virtual, regs.ncp.absolute)
        regs.ncp.clear()
        self._allocate_next_context()
        self.activation_count += 1
        self.recycler.note_allocation(regs.cp.virtual.packed)
        depth = self.depth = self.depth + 1
        if depth > self.max_depth:
            self.max_depth = depth
        self.ip = compiled.entry
        self._prev_dest = None

    def _method_return(self) -> None:
        """The return sequence of section 3.6, reading RCP and RIP
        straight from the current block (``ContextCache.read_current``
        inline)."""
        self.cycles.method_return()
        cache = self.context_cache
        stats = cache.stats
        profile = self.profile
        profile.context_reads += 1
        block = cache.current
        if block is None:
            raise ReproError("no current context resident")
        stats.fast_reads += 1
        rcp = cache.blocks[block][RCP_SLOT]
        if rcp.tag is not _POINTER:
            # Top-level return: nothing to return into.
            self.halted = True
            self.ip = None
            return
        regs = self.regs
        cp, ncp = regs.cp, regs.ncp
        returning_virtual = cp.virtual
        returning_base = cp.absolute
        caller_virtual = self.mmu.fmt.from_packed(rcp.value)
        caller_base = self._translate(caller_virtual)
        # The never-used next context of the returning method goes back
        # on the free list (one memory reference in the COM).
        old_next_virtual = ncp.virtual
        old_next_base = ncp.absolute
        ncp.clear()
        self._release_context(old_next_virtual, old_next_base)
        lifo = self.recycler.on_return(returning_virtual.packed)
        hit = cache.on_return(caller_base, reuse_current_as_next=lifo)
        if not hit:
            self.cycles.context_fault()
        cp.set(caller_virtual, caller_base)
        if lifo:
            # The returning context is immediately recycled as the next
            # context; its RCP already names the caller, so no write is
            # needed (section 3.6's return sequence).
            ncp.set(returning_virtual, returning_base)
        else:
            self._allocate_next_context()
        self.depth -= 1
        profile.context_reads += 1
        stats.fast_reads += 1
        rip = cache.blocks[cache.current][RIP_SLOT]
        if rip.tag is not _POINTER:
            raise ReproError("return into a context with no RIP")
        self.ip = self.mmu.fmt.from_packed(rip.value)
        self._prev_dest = None

    def _xfer(self, target: Word) -> None:
        """General control transfer to another context (Lampson XFER)."""
        if not target.is_pointer or \
                target.class_tag != self.context_class.class_tag:
            raise DoesNotUnderstandTrap(
                "xfer target is not a context",
                selector="xfer", receiver_class=None)
        target_virtual = self.mmu.fmt.from_packed(target.value).base()
        target_base = self._translate(target_virtual)
        self.recycler.note_capture(target_virtual.packed)
        self.recycler.note_capture(self.regs.cp.virtual.packed)
        # Save our continuation so control can transfer back.
        self.profile.context_writes += 1
        self.context_cache.write_current(
            RIP_SLOT,
            Word.pointer(self.ip.step(1).packed, self.method_class.class_tag),
        )
        self.context_cache.adopt_current(target_base)
        self.regs.cp.set(target_virtual, target_base)
        self.profile.context_reads += 1
        rip = self.context_cache.read_current(RIP_SLOT)
        if not rip.is_pointer:
            raise ReproError("xfer into a context with no RIP")
        self.ip = self.mmu.fmt.from_packed(rip.value)
        self._prev_dest = None

    # ------------------------------------------------------------------
    # machine-level primitive units
    # ------------------------------------------------------------------

    def _run_machine_unit(
        self, unit: str, inst: Instruction, sources: List[Word]
    ) -> bool:
        """Execute a primitive that needs machine state.

        Returns True when the unit changed control flow (IP already
        set); False when the default IP increment should happen.  The
        units live in ``self._machine_units``, a dict of bound
        handlers keyed by unit name.
        """
        handler = self._machine_units.get(unit)
        if handler is None:
            raise TagMismatch(f"unknown machine unit {unit!r}")
        return handler(inst, sources)

    def _unit_movea(self, inst: Instruction, sources: List[Word]) -> bool:
        address = self._effective_address(inst.operands[1])
        self._write_operand(
            inst.operands[0],
            Word.pointer(address, self.context_class.class_tag))
        return False

    def _unit_at(self, inst: Instruction, sources: List[Word]) -> bool:
        obj, index = sources[0], sources[1]
        if not obj.is_pointer or not index.is_small_integer:
            raise TagMismatch("at: needs (pointer, small integer)")
        self.cycles.memory_instruction()
        word = self._load_memory_word(
            self.mmu.fmt.from_packed(obj.value).step(index.value))
        self._write_operand(inst.operands[0], word)
        return False

    def _unit_atput(self, inst: Instruction, sources: List[Word]) -> bool:
        obj, index, value = sources[0], sources[1], sources[2]
        if not obj.is_pointer or not index.is_small_integer:
            raise TagMismatch("at:put: needs (pointer, small integer)")
        self.cycles.memory_instruction()
        self._note_capture_if_context(value)
        self._store_through_pointer(
            Word.pointer(
                self.mmu.fmt.from_packed(obj.value)
                    .step(index.value).packed,
                obj.class_tag),
            value)
        return False

    def _unit_as(self, inst: Instruction, sources: List[Word]) -> bool:
        if not self.regs.ps.privileged:
            raise ProtectionTrap(
                "the as instruction is privileged (capability forging)")
        value, tag_word = sources[0], sources[1]
        if not tag_word.is_small_integer:
            raise TagMismatch("as: needs a small integer tag")
        tag = Tag(tag_word.value)
        if tag is Tag.OBJECT_POINTER:
            retagged = Word.pointer(int(value.value),
                                    self.object_class.class_tag)
        else:
            retagged = Word(tag, value.value)
        self._write_operand(inst.operands[0], retagged)
        return False

    def _unit_fjmp(self, inst: Instruction, sources: List[Word]) -> bool:
        displacement = self._read_operand(inst.operands[2])
        if not displacement.is_small_integer:
            raise TagMismatch("jump displacement must be an integer")
        if is_true(sources[0]):
            self.ip = self.ip.step(1 + displacement.value)
            self.cycles.taken_branch()
            self._prev_dest = None
            return True
        return False

    def _unit_rjmp(self, inst: Instruction, sources: List[Word]) -> bool:
        displacement = self._read_operand(inst.operands[2])
        if not displacement.is_small_integer:
            raise TagMismatch("jump displacement must be an integer")
        if is_true(sources[0]):
            self.ip = self.ip.step(1 - displacement.value)
            self.cycles.taken_branch()
            self._prev_dest = None
            return True
        return False

    def _unit_xfer(self, inst: Instruction, sources: List[Word]) -> bool:
        self._xfer(sources[0])
        return True

    def _unit_new(self, inst: Instruction, sources: List[Word]) -> bool:
        cls = self._class_from_atom(sources[0])
        instance = self.heap.allocate(cls, max(cls.instance_size, 1))
        self._write_result_or_operand(inst, self.heap.pointer_to(instance))
        return False

    def _unit_newsize(self, inst: Instruction, sources: List[Word]) -> bool:
        cls = self._class_from_atom(sources[0])
        size = sources[1]
        if not size.is_small_integer or size.value < 0:
            raise TagMismatch("new: needs a non-negative size")
        instance = self.heap.allocate(cls, max(size.value, 1))
        self._write_result_or_operand(inst, self.heap.pointer_to(instance))
        return False

    def _class_from_atom(self, word: Word) -> ObjectClass:
        if word.tag is not Tag.ATOM or word.value not in self.registry:
            raise TagMismatch(f"not a class atom: {word!r}")
        return self.registry.by_name(word.value)

    def _write_result_or_operand(self, inst: Instruction, word: Word) -> None:
        """Destination write that also works for zero-operand formats."""
        if inst.is_zero_operand:
            self._write_result(inst, word)
        else:
            self._write_operand(inst.operands[0], word)

    # ------------------------------------------------------------------
    # the interpretation loop
    # ------------------------------------------------------------------

    def _fetch(self) -> Instruction:
        # The instruction cache holds absolute addresses: methods are
        # packed densely in absolute space, which is what a hardware
        # icache would index (virtual code addresses put segment bits
        # in the high bits and would alias every method's entry point
        # onto the same sets).  The IP is pretranslated (section 3.1),
        # so this lookup costs nothing extra.
        absolute = self._translate(self.ip)
        self._fetch_absolute = absolute
        if not self.icache.reference(absolute):
            self.cycles.icache_miss()
        self.profile.instruction_fetches += 1
        word = self.mmu.absolute.read(absolute)
        if word.tag is not Tag.INSTRUCTION:
            raise ProtectionTrap(
                f"attempt to execute non-instruction word at {self.ip!r}")
        return Instruction.decode_cached(word.value)

    def _check_raw_hazard(self, inst: Instruction) -> None:
        if self._prev_dest is None or inst.is_zero_operand:
            return
        for operand in inst.operands[1:]:
            if operand.mode is Mode.CONTEXT and \
                    (operand.space.value, operand.offset) == self._prev_dest:
                self.cycles.raw_hazard()
                break

    def step(self) -> None:
        """Interpret exactly one instruction: one turn of the run loop."""
        if self.halted or self.ip is None:
            raise MachineHalted("machine is halted")
        self._execute(1)

    def _execute(self, limit: int) -> int:
        """The interpretation loop: run until the machine halts or
        ``limit`` instructions have executed; returns how many did.

        :meth:`run` and :meth:`step` both come here, so the predecode
        probe exists once.  Each turn looks the IP's segment name up in
        the predecode layer, or, when the previous plan fell through to
        its ``next_ip``, keeps that plan's method while it is ``live``
        (not shot down): when the IP falls inside a predecoded method
        whose code segment still translates to the captured absolute
        base, the instruction's plan runs inline below with no MMU walk
        and no word decode.  Everything else (predecode disabled, plan
        shot down, code outside installed methods) takes
        :meth:`_step_slow`, the seed's decode-every-step path.  Both
        produce identical cycles, profile tallies and trace events
        (pinned by tests/test_predecode.py).

        Loop-invariant objects are bound to locals once per call, and
        so are the counters the loop bumps per instruction: fetches,
        issued instructions and their issue cycles, context reads and
        writes with the context cache's fast reads and writes, and the
        icache-miss, RAW-hazard and taken-branch stalls.  The
        ``finally`` clause adds them onto their objects, so after a
        trap, the budget exit or a :meth:`step` every counter is exact.
        Calls, returns, machine units and the slow path count on the
        objects directly.
        """
        by_segment = self.decoded.by_segment if self.predecode else {}
        cycles = self.cycles
        params = cycles.params
        profile = self.profile
        cache = self.context_cache
        blocks = cache.blocks
        dirty = cache.dirty
        cache_stats = cache.stats
        constants = self.constants
        icache_reference = self.icache.reference
        itlb_probe = self.itlb.probe
        machine_units = self._machine_units
        trace = self.trace
        executed = 0
        # Per-instruction counters.  ``fast_reads``/``fast_writes`` are
        # block accesses made here, each one context read or write;
        # ``reads``/``writes`` count the other context accesses, whose
        # fast-path halves ContextCache counts itself.
        fetched = reads = writes = fast_reads = fast_writes = 0
        icache_misses = hazards = taken = 0
        # The method of the previous plan when it fell through to its
        # next_ip, so this turn needs no by_segment probe.
        following = None
        offset = 0
        try:
            while executed < limit and not self.halted:
                ip = self.ip
                if ip is None:
                    raise MachineHalted("machine is halted")
                executed += 1
                method = following
                following = None
                if method is not None and method.live:
                    offset += 1             # the IP is the plan's next_ip
                else:
                    exponent = ip.exponent
                    mantissa = ip.mantissa
                    method = by_segment.get((exponent, mantissa >> exponent))
                    if method is None:
                        self._step_slow()
                        continue
                    offset = mantissa & ((1 << exponent) - 1)
                base = method.base_absolute
                descriptor = method.descriptor
                plans = method.plans
                # The captured translation must still hold (no move or
                # alias since predecode).
                if not (descriptor.base == base
                        and descriptor.forward is None
                        and offset < len(plans)):
                    self._step_slow()
                    continue
                plan = plans[offset]

                absolute = base + offset
                if not icache_reference(absolute):
                    icache_misses += 1
                fetched += 1                  # fetch + CycleAccountant.issue
                prev = self._prev_dest
                if prev is not None and prev in plan.hazards:
                    hazards += 1
                kind = plan.kind
                if kind == K_SOURCES:
                    # Context operands come straight from the current or
                    # next block (ContextCache.read_current/read_next).
                    sources = []
                    for is_constant, is_current, index in plan.sources:
                        if is_constant:
                            sources.append(constants.get(index))
                            continue
                        block = cache.current if is_current else cache.next
                        if block is None:
                            raise ReproError(
                                "operand read with no context resident")
                        fast_reads += 1
                        sources.append(blocks[block][index])
                elif kind == K_ZERO:
                    sources = []
                    if plan.nargs >= 1:
                        reads += 1
                        sources.append(cache.read_next(ARG1_SLOT))
                        if plan.nargs >= 2:
                            reads += 1
                            sources.append(cache.read_next(ARG1_SLOT + 1))
                else:   # K_HALT
                    self.halted = True
                    self.ip = None
                    continue
                count = len(sources)
                if count == 2:
                    class_tags = (sources[0].class_tag, sources[1].class_tag)
                elif count == 1:
                    class_tags = (sources[0].class_tag,)
                elif count == 0:
                    class_tags = ()
                else:
                    class_tags = tuple(word.class_tag for word in sources)
                opcode = plan.opcode
                entry = itlb_probe((opcode, class_tags))
                if entry is MISS:
                    entry = self._itlb_miss(opcode, plan.selector, class_tags)
                if trace is not None:
                    trace.record(absolute, opcode,
                                 class_tags[0] if class_tags else -1)
                inst = plan.inst
                if not entry.primitive:
                    self._method_call(inst, entry.method, sources,
                                      plan.next_ip)
                    continue
                function = entry.function
                try:
                    if function is None:
                        unit = entry.unit
                        if unit == plan.jump_unit:
                            # A predecoded conditional jump, by
                            # constants.is_true's rule: a non-zero small
                            # integer or the atom true.
                            condition = sources[0]
                            tag = condition.tag
                            if (condition.value != 0 if tag is _INT
                                    else tag == _ATOM
                                    and condition.value == "true"):
                                taken += 1
                                self.ip = plan.jump_ip
                                self._prev_dest = None
                                continue
                        elif unit in machine_units:
                            # A machine unit: it writes its own
                            # destination.
                            if machine_units[unit](inst, sources):
                                continue    # control transfer: IP set
                        else:
                            # An entry filled without its unit resolved
                            # (ITLB.fill with ITLBEntry.from_method's
                            # default): resolve it here.
                            function = unit_function(unit, count)
                    if function is not None:
                        if count == 2:
                            result = function(sources[0], sources[1])
                        else:
                            result = function(*sources)
                        # The destination write (ContextCache.write_*
                        # inline for the current and next blocks).
                        dest = plan.dest_kind
                        if dest == D_CUR:
                            block = cache.current
                            if block is None:
                                writes += 1
                                raise ReproError(
                                    "no current context resident")
                            fast_writes += 1
                            blocks[block][plan.dest_slot] = result
                            dirty[block] = True
                        elif dest == D_ZERO:
                            reads += 1
                            target = cache.read_next(ARG0_SLOT)
                            if target.tag is _POINTER:
                                self._store_through_pointer(target, result)
                            else:
                                writes += 1
                                cache.write_next(ARG0_SLOT, result)
                        elif dest == D_CUR0:
                            target = cache.read_current(ARG0_SLOT)
                            if target.tag is _POINTER:
                                self._store_through_pointer(target, result)
                            else:
                                writes += 1
                                cache.write_current(plan.dest_slot, result)
                        elif dest == D_NEXT:
                            block = cache.next
                            if block is None:
                                writes += 1
                                raise ReproError("no next context resident")
                            fast_writes += 1
                            blocks[block][plan.dest_slot] = result
                            dirty[block] = True
                        elif dest == D_SLOW:
                            self._write_operand(inst.operands[0], result)
                        # D_NONE (at:put:): no destination.
                except TagMismatch:
                    # The operand classes had no primitive meaning after
                    # all: take the defined-method path via full lookup.
                    self._dispatch_defined(inst, sources)
                    continue
                if plan.returns:
                    self._method_return()
                elif plan.next_ip is not None:
                    self.ip = plan.next_ip
                    self._prev_dest = plan.dest_prev
                    following = method
                else:
                    # Fall-through past the segment's last word: raise
                    # exactly as the slow path's ip.step(1) would.
                    self.ip = ip.step(1)
        finally:
            profile.instruction_fetches += fetched
            profile.context_reads += reads + fast_reads
            profile.context_writes += writes + fast_writes
            cache_stats.fast_reads += fast_reads
            cache_stats.fast_writes += fast_writes
            cycles.instructions += fetched
            cycles.cycles += fetched * params.issue_cycles
            cycles.stall("icache_miss", icache_misses * params.icache_miss)
            cycles.stall("raw_hazard", hazards * params.raw_hazard_bubble)
            cycles.stall("branch", taken * params.branch_penalty)
        return executed

    def _step_slow(self) -> None:
        """Fetch, decode and interpret the instruction at the IP.

        The seed's decode-every-step path: the fallback of
        :meth:`_execute`, and with ``predecode=False`` the reference
        its predecoded path is pinned against.
        """
        inst = self._fetch()
        self.cycles.issue()
        self._check_raw_hazard(inst)
        arch = self.opcodes.architectural_op(inst.opcode)
        if arch is Op.HALT:
            self.halted = True
            self.ip = None
            return
        sources, source_operands = self._dispatch_sources(inst)
        entry = self._itlb_translate(inst, sources)
        control_transfer = False
        if entry.primitive:
            unit = entry.unit
            try:
                if unit.startswith("machine."):
                    control_transfer = self._run_machine_unit(
                        unit, inst, sources)
                else:
                    result = execute_unit(unit, sources)
                    self._write_result(inst, result)
            except TagMismatch:
                # The operand classes had no primitive meaning after
                # all: take the defined-method path via full lookup.
                self._dispatch_defined(inst, sources)
                control_transfer = True
        else:
            self._method_call(inst, entry.method, sources)
            control_transfer = True
        if not control_transfer:
            if inst.returns:
                self._method_return()
            else:
                self.ip = self.ip.step(1)
                self._record_dest(inst)
        # A control transfer with the return bit set (jump/xfer/call)
        # is a program error the assembler rejects; the transfer wins.

    def _record_dest(self, inst: Instruction) -> None:
        if inst.is_zero_operand:
            self._prev_dest = None
            return
        arch = self.opcodes.architectural_op(inst.opcode)
        if arch in (Op.FJMP, Op.RJMP, Op.XFER, Op.HALT, Op.ATPUT):
            self._prev_dest = None
            return
        a = inst.operands[0]
        if a.mode is Mode.CONTEXT:
            self._prev_dest = (a.space.value, a.offset)
        else:
            self._prev_dest = None

    def _write_result(self, inst: Instruction, result: Word) -> None:
        if inst.is_zero_operand:
            # Result goes through the next context's result pointer.
            self.profile.context_reads += 1
            target = self.context_cache.read_next(ARG0_SLOT)
            if target.is_pointer:
                self._store_through_pointer(target, result)
            else:
                self.profile.context_writes += 1
                self.context_cache.write_next(ARG0_SLOT, result)
            return
        arch = self.opcodes.architectural_op(inst.opcode)
        if arch is Op.ATPUT:
            return  # at:put: has no destination
        self._write_operand(inst.operands[0], result)

    def _dispatch_defined(self, inst: Instruction, sources: List[Word]) -> None:
        """Primitive unit refused the operands: full lookup, defined call."""
        selector = self.opcodes.selector_of(inst.opcode)
        receiver_tag = sources[0].class_tag if sources else \
            self.object_class.class_tag
        lookup = self.registry.lookup_by_tag(selector, receiver_tag)
        self.cycles.itlb_miss(lookup.probes)
        if isinstance(lookup.method, PrimitiveMethod):
            raise DoesNotUnderstandTrap(
                f"operands of {selector!r} fit no primitive and no "
                f"defined method",
                selector=selector,
                receiver_class=self.registry.by_tag(receiver_tag),
            )
        self._method_call(inst, lookup.method, sources)

    # ------------------------------------------------------------------
    # program execution
    # ------------------------------------------------------------------

    def start(self, main: CompiledMethod,
              arguments: Sequence[Word] = ()) -> None:
        """Set up the initial contexts and point the machine at ``main``.

        Re-starting releases any contexts left from a previous run (the
        caches stay warm -- deliberately, so repeated runs measure
        steady-state behaviour).
        """
        self.halted = False
        for pointer in (self.regs.ncp, self.regs.cp):
            if pointer.is_set:
                self._release_context(pointer.virtual, pointer.absolute)
                pointer.clear()
        self._prev_dest = None
        self._allocate_next_context()
        self.context_cache.on_call()
        self.regs.cp.set(self.regs.ncp.virtual, self.regs.ncp.absolute)
        self.regs.ncp.clear()
        self._allocate_next_context()
        self.activation_count += 1
        self.recycler.note_allocation(self.regs.cp.virtual.packed)
        self.depth = 1
        self.max_depth = 1
        # Top-level result convention: arg0 holds a pointer to a result
        # cell so a returning main stores its answer somewhere readable.
        self._result_cell = self.heap.allocate(self.array_class, 1,
                                               kind="result")
        self.context_cache.write_current(
            ARG0_SLOT,
            self.heap.pointer_to(self._result_cell),
        )
        for index, word in enumerate(arguments):
            self.context_cache.write_current(ARG1_SLOT + index, word)
        self.ip = main.entry

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Step until halt; returns the number of instructions executed.

        Raises :class:`SimulationLimitExceeded` once ``max_instructions``
        have executed without a halt.
        """
        executed = self._execute(max_instructions)
        if not self.halted:
            raise SimulationLimitExceeded(
                f"exceeded budget of {max_instructions} instructions")
        return executed

    def result(self) -> Word:
        """The word the top-level method stored through its result pointer."""
        if self._result_cell is None:
            raise MachineHalted("no program was started")
        return self.heap.load(self._result_cell, 0)

    def run_program(
        self,
        main: CompiledMethod,
        arguments: Sequence[Word] = (),
        max_instructions: int = 1_000_000,
    ) -> Word:
        """Convenience: start, run to halt, return the result word."""
        self.start(main, arguments)
        self.run(max_instructions)
        return self.result()
