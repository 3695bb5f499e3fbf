"""Tests for the COM functional simulator (repro.core.machine)."""

import dataclasses

import pytest

from repro.caches.itlb import ITLBEntry
from repro.core.assembler import load_program
from repro.core.machine import COMMachine
from repro.errors import (
    DoesNotUnderstandTrap,
    MachineHalted,
    ProtectionTrap,
    SimulationLimitExceeded,
)
from repro.memory.tags import Tag, Word
from repro.smalltalk import compile_program


def run(source: str, machine: COMMachine = None, budget: int = 100_000):
    machine = machine or COMMachine()
    main = load_program(machine, source)
    result = machine.run_program(main, max_instructions=budget)
    return result, machine


class TestArithmeticPrograms:
    def test_integer_arithmetic(self):
        result, _ = run("""
        main
            c2 = 10
            c3 = 3
            c4 = c2 + c3
            c5 = c4 * c3
            c6 = c5 - c2
            c7 = c6 / c3
            c8 = c7 % 7
            c0 = c8
            halt
        """)
        # ((10+3)*3 - 10) / 3 = 9; 9 % 7 = 2
        assert result.value == 2

    def test_float_and_mixed(self):
        result, _ = run("""
        main
            c2 = 1.5
            c3 = c2 + c2
            c4 = c3 * 2
            c0 = c4
            halt
        """)
        assert result.tag is Tag.FLOAT
        assert result.value == 6.0

    def test_comparisons_and_constants(self):
        result, _ = run("""
        main
            c2 = 3 < 5
            c3 = c2 = true
            c0 = c3
            halt
        """)
        assert result.value == "true"

    def test_bit_operations(self):
        result, _ = run("""
        main
            c2 = 12 band 10
            c3 = c2 bor 1
            c4 = c3 bxor 15
            c0 = c4
            halt
        """)
        assert result.value == (12 & 10 | 1) ^ 15

    def test_zero_operand_result_written_in_place(self):
        # A zero-operand primitive writes its result through the next
        # context's arg0, in place when arg0 is not a pointer.  Five
        # context writes: n0, n1, n2, the sum into n0, and c2 (c0
        # stores through the result pointer, a heap write).
        for predecode in (True, False):
            result, machine = run("""
            main
                n0 = 0
                n1 = 7
                n2 = 5
                send + 2
                c2 = n0
                c0 = c2
                halt
            """, machine=COMMachine(predecode=predecode))
            assert result.value == 12
            assert machine.profile.context_writes == 5
            assert machine.profile.heap_writes == 1

    def test_negate_unary(self):
        result, _ = run("""
        main
            c2 = neg 42
            c0 = c2
            halt
        """)
        assert result.value == -42


class TestControlFlow:
    def test_forward_jump(self):
        result, _ = run("""
        main
            c2 = 1
            jt c2 skip
            c2 = 99
            skip:
            c0 = c2
            halt
        """)
        assert result.value == 1

    def test_not_taken(self):
        result, _ = run("""
        main
            c2 = 0
            jt c2 skip
            c2 = 99
            skip:
            c0 = c2
            halt
        """)
        assert result.value == 99

    def test_backward_jump_loop(self):
        result, _ = run("""
        main
            c2 = 0
            c3 = 10
            loop:
            c2 = c2 + 1
            c4 = c2 < c3
            jt c4 loop
            c0 = c2
            halt
        """)
        assert result.value == 10

    def test_taken_branch_costs_a_cycle(self):
        _, machine = run("""
        main
            c2 = 1
            jt c2 skip
            skip:
            c0 = c2
            halt
        """)
        assert machine.cycles.stalls.get("branch", 0) == 1


class TestMethodCalls:
    def test_three_operand_send(self):
        result, machine = run("""
        method SmallInteger >> plus args=2
            c3 = c1 + c2
            ret c3
        main
            c2 = 4 plus 5
            c0 = c2
            halt
        """)
        assert result.value == 9
        assert machine.cycles.calls == 1
        assert machine.cycles.returns == 1

    def test_zero_operand_send(self):
        result, _ = run("""
        method SmallInteger >> triple args=1
            c2 = c1 * 3
            ret c2
        main
            c5 = 0
            c6 = & c5
            n0 = c6
            n1 = 7
            send triple 1
            c0 = c5
            halt
        """)
        assert result.value == 21

    def test_recursion(self):
        result, machine = run("""
        method SmallInteger >> fact args=1
            c2 = c1 < 2
            jt c2 base
            c3 = c1 - 1
            c4 = c3 fact c3
            c5 = c1 * c4
            ret c5
            base:
            ret 1
        """ + "\nmain\n    c2 = 8 fact 8\n    c0 = c2\n    halt\n")
        assert result.value == 40320
        assert machine.max_depth == 9

    def test_dispatch_on_receiver_class(self):
        result, _ = run("""
        method SmallInteger >> describe args=1
            ret 1
        method Float >> describe args=1
            ret 2
        method Atom >> describe args=1
            ret 3
        main
            c2 = 5 describe 0
            c3 = 5.0 describe 0
            c4 = #foo describe 0
            c5 = c2 + c3
            c6 = c5 + c4
            c0 = c6
            halt
        """)
        assert result.value == 6.0

    def test_inheritance_dispatch(self):
        result, _ = run("""
        class Animal
        class Dog < Animal
        method Animal >> noise args=1
            ret 1
        method Dog >> noise args=1
            ret 2
        main
            c2 = #Dog new c2
            c3 = c2 noise c2
            c0 = c3
            halt
        """)
        assert result.value == 2

    def test_super_method_found_through_hierarchy(self):
        result, _ = run("""
        class Animal
        class Dog < Animal
        method Animal >> kind args=1
            ret 7
        main
            c2 = #Dog new c2
            c3 = c2 kind c2
            c0 = c3
            halt
        """)
        assert result.value == 7

    def test_dnu_trap(self):
        machine = COMMachine()
        main = load_program(machine, """
        main
            c2 = 1 zorble 2
            halt
        """)
        machine.start(main)
        with pytest.raises(DoesNotUnderstandTrap):
            machine.run()

    def test_lookup_failure_not_cached(self):
        # A failed lookup raises before the ITLB fill, as in the real
        # machine where the trap handler runs instead: the same send
        # misses again.
        machine = COMMachine()
        main = load_program(machine, """
        main
            c2 = 1 zorble 2
            halt
        """)
        key = (machine.opcodes.number_of("zorble"),
               (Word.small_integer(0).class_tag,) * 2)
        for sends in (1, 2):
            machine.start(main)
            with pytest.raises(DoesNotUnderstandTrap):
                machine.run()
            assert machine.itlb.stats.misses == sends
        assert key not in [resident for resident, _
                           in machine.itlb._cache.items()]

    def test_redefinition_invalidates_itlb(self):
        machine = COMMachine()
        main = load_program(machine, """
        method SmallInteger >> answer args=1
            ret 1
        main
            c2 = 5 answer 0
            c0 = c2
            halt
        """)
        assert machine.run_program(main).value == 1
        # Redefine; no caller code changes (smooth extensibility).
        from repro.core.assembler import Assembler
        assembler = Assembler(machine.opcodes, machine.constants)
        machine.install_method(
            machine.registry.by_name("SmallInteger"), "answer",
            assembler.assemble_lines(["ret 2"]), argument_count=1)
        assert machine.run_program(main).value == 2

    def test_redefinition_invalidates_decoded_plans(self):
        """install_method shoots down ITLB entries *and* decoded plans.

        The predecode layer caches per-method instruction plans; a
        redefined selector must drop the replaced method's plans just
        like its ITLB entries, and old callers -- whose object code
        never changes -- must execute the new method.
        """
        machine = COMMachine()
        main = load_program(machine, """
        method SmallInteger >> answer args=1
            ret 1
        main
            c2 = 5 answer 0
            c0 = c2
            halt
        """)
        assert machine.run_program(main).value == 1
        integer = machine.registry.by_name("SmallInteger")
        old_key = machine.method_for(
            integer, "answer").code_address.segment_name
        assert old_key in machine.decoded.by_segment
        itlb_invalidations = machine.itlb.stats.invalidations
        plan_invalidations = machine.decoded.invalidations
        from repro.core.assembler import Assembler
        assembler = Assembler(machine.opcodes, machine.constants)
        machine.install_method(
            integer, "answer",
            assembler.assemble_lines(["ret 2"]), argument_count=1)
        assert machine.itlb.stats.invalidations > itlb_invalidations
        assert machine.decoded.invalidations > plan_invalidations
        assert old_key not in machine.decoded.by_segment
        new_key = machine.method_for(
            integer, "answer").code_address.segment_name
        assert new_key in machine.decoded.by_segment
        assert machine.run_program(main).value == 2

    def test_frame_over_32_words_counts_an_overflow(self):
        """A frame that needs more than a 32-word context spills it:
        TAB-CTX's frame-size row reads these two counts."""
        from repro.core.assembler import Assembler
        machine = COMMachine()
        integer = machine.registry.by_name("SmallInteger")
        assembler = Assembler(machine.opcodes, machine.constants)
        machine.install_method(
            integer, "fits", assembler.assemble_lines(["ret 1"]),
            argument_count=1, frame_words=32)
        assert machine.pool.stats.overflow_allocations == 0
        machine.install_method(
            integer, "spills", assembler.assemble_lines(["ret 1"]),
            argument_count=1, frame_words=33)
        assert machine.pool.stats.overflow_allocations == 1
        assert machine.frame_sizes.fraction_fitting(32) < 1


class TestMemoryInstructions:
    def test_at_atput(self):
        result, _ = run("""
        main
            c2 = #Array new: 4
            c2 [ 0 ] = 10
            c2 [ 3 ] = 32
            c3 = c2 [ 0 ]
            c4 = c2 [ 3 ]
            c5 = c3 + c4
            c0 = c5
            halt
        """)
        assert result.value == 42

    def test_movea_and_store_through(self):
        result, _ = run("""
        main
            c2 = 5
            c3 = & c2
            c4 = #Array new: 1
            c4 [ 0 ] = c3
            c5 = c4 [ 0 ]
            c6 = c5 [ 0 ]
            c0 = c6
            halt
        """)
        # c6 reads through the pointer back into the context slot c2.
        assert result.value == 5

    def test_at_on_non_pointer_is_dnu(self):
        machine = COMMachine()
        main = load_program(machine, """
        main
            c2 = 5
            c3 = c2 [ 0 ]
            halt
        """)
        machine.start(main)
        with pytest.raises(DoesNotUnderstandTrap):
            machine.run()

    def test_at_stalls_pipeline(self):
        _, machine = run("""
        main
            c2 = #Array new: 2
            c2 [ 0 ] = 1
            c3 = c2 [ 0 ]
            c0 = c3
            halt
        """)
        assert machine.cycles.stalls.get("at_memory", 0) == 2


class TestTagInstructions:
    def test_tag_instruction(self):
        result, _ = run("""
        main
            c2 = tag 5
            c3 = tag 5.0
            c4 = c2 + c3
            c0 = c4
            halt
        """)
        assert result.value == int(Tag.SMALL_INTEGER) + int(Tag.FLOAT)

    def test_as_requires_privilege(self):
        machine = COMMachine()
        main = load_program(machine, """
        main
            c2 = 5 as 2
            halt
        """)
        machine.start(main)
        with pytest.raises(ProtectionTrap):
            machine.run()

    def test_as_with_privilege(self):
        machine = COMMachine()
        machine.regs.ps.privileged = True
        result, _ = run("""
        main
            c2 = 5 as 2
            c3 = tag c2
            c0 = c3
            halt
        """, machine=machine)
        assert result.value == int(Tag.FLOAT)


class TestAllocationPrimitives:
    def test_new_uses_declared_size(self):
        result, machine = run("""
        class Pair
        main
            c2 = #Pair new c2
            c0 = c2
            halt
        """)
        assert result.is_pointer
        assert machine.registry.by_name("Pair").class_tag == result.class_tag

    def test_new_unknown_class_is_dnu(self):
        machine = COMMachine()
        main = load_program(machine, """
        main
            c2 = #Nonexistent new c2
            halt
        """)
        machine.start(main)
        with pytest.raises(DoesNotUnderstandTrap):
            machine.run()


class TestXfer:
    def test_coroutine_yield_and_resume(self):
        result, machine = run("""
        method Object >> park args=1
            c3 = & c3
            c1 [ 0 ] = c3
            c4 = c3 [ -5 ]
            xfer c4
            c0 = 42
            ret 42
        main
            c2 = #Array new: 2
            c3 = c2 park c2
            c4 = c2 [ 0 ]
            xfer c4
            c0 = c3
            halt
        """)
        assert result.value == 42
        assert machine.recycler.stats.returned_non_lifo == 1


class TestMachineLifecycle:
    def test_step_after_halt_raises(self):
        machine = COMMachine()
        main = load_program(machine, "main\n    halt\n")
        machine.run_program(main)
        with pytest.raises(MachineHalted):
            machine.step()

    def test_result_before_start(self):
        with pytest.raises(MachineHalted):
            COMMachine().result()

    def test_instruction_budget(self):
        machine = COMMachine()
        main = load_program(machine, """
        main
            c2 = 1
            loop:
            jt c2 loop
            halt
        """)
        machine.start(main)
        with pytest.raises(SimulationLimitExceeded):
            machine.run(max_instructions=100)
        # The budget exit leaves every executed instruction charged.
        assert machine.cycles.instructions == 100

    def test_step_executes_exactly_one_instruction(self):
        source = """
        SmallInteger >> twice
            ^self + self
        main
            ^(3 twice) + 1
        """
        steps = {}
        for predecode in (True, False):
            machine = COMMachine(predecode=predecode)
            main = compile_program(machine, source)
            assert bool(machine.decoded) is predecode
            trace = machine.enable_trace()
            machine.start(main)
            observed = []
            while not machine.halted:
                before = machine.cycles.instructions
                machine.step()
                assert machine.cycles.instructions == before + 1
                observed.append((machine.cycles.snapshot(), len(trace),
                                 trace[-1:].to_bytes()))
            assert machine.result().value == 7
            with pytest.raises(MachineHalted):
                machine.step()
            steps[predecode] = observed
        assert steps[True] == steps[False]

    def test_itlb_entry_filled_without_its_unit(self):
        # ITLBEntry.from_method's default leaves a primitive entry's
        # unit function unresolved; a hit on such an entry still runs
        # the unit.
        source = """
        SmallInteger >> twice
            ^self + self
        main
            ^(3 twice) + 1
        """
        machine = COMMachine()
        main = compile_program(machine, source)
        opcode = machine.opcodes.number_of("+")
        tags = (Word.small_integer(0).class_tag,) * 2
        lookup = machine.registry.lookup_by_tag("+", tags[0])
        machine.itlb.fill((opcode, tags),
                          ITLBEntry.from_method(lookup.method))
        misses = machine.itlb.stats.misses
        assert machine.run_program(main).value == 7
        # Both additions hit the pre-filled entry: one miss fewer than
        # on a cold ITLB.
        cold = COMMachine()
        assert cold.run_program(compile_program(cold, source)).value == 7
        assert machine.itlb.stats.misses - misses == \
            cold.itlb.stats.misses - 1

    def test_arguments_passed_to_main(self):
        machine = COMMachine()
        main = load_program(machine, """
        main
            c3 = c1 + c2
            c0 = c3
            halt
        """)
        result = machine.run_program(
            main, arguments=[Word.small_integer(30),
                             Word.small_integer(12)])
        assert result.value == 42

    def test_rerun_same_program(self):
        machine = COMMachine()
        main = load_program(machine, """
        main
            c2 = 21
            c3 = c2 + c2
            c0 = c3
            halt
        """)
        assert machine.run_program(main).value == 42
        assert machine.run_program(main).value == 42

    def test_top_level_return_halts(self):
        result, machine = run("""
        main
            ret 7
        """)
        assert machine.halted
        assert result.value == 7


class TestTraceRecording:
    def test_events_have_paper_fields(self):
        machine = COMMachine()
        trace = machine.enable_trace()
        run("""
        main
            c2 = 1
            c3 = c2 + c2
            c0 = c3
            halt
        """, machine=machine)
        assert len(trace) >= 3
        opcodes = trace.opcodes()
        adds = [i for i in range(len(trace))
                if machine.opcodes.selector_of(opcodes[i]) == "+"]
        assert adds
        assert trace.receiver_classes()[adds[0]] == int(Tag.SMALL_INTEGER)

    def test_trace_addresses_distinct_per_instruction(self):
        machine = COMMachine()
        trace = machine.enable_trace()
        run("""
        main
            c2 = 1
            c3 = 2
            c4 = c2 + c3
            c0 = c4
            halt
        """, machine=machine)
        addresses = list(trace.addresses())
        assert len(set(addresses)) == len(addresses)


class TestProfiling:
    def test_context_references_dominate(self):
        _, machine = run("""
        method SmallInteger >> fib args=1
            c2 = c1 < 2
            jt c2 base
            c3 = c1 - 1
            c4 = c3 fib c3
            c5 = c1 - 2
            c6 = c5 fib c5
            c7 = c4 + c6
            ret c7
            base:
            ret c1
        main
            c2 = 10 fib 10
            c0 = c2
            halt
        """)
        assert machine.profile.context_fraction > 0.9
        assert machine.recycler.stats.lifo_fraction == 1.0


def _counters(machine, trace):
    """Every counter a run leaves on the machine, the ATLB's and the
    MMU's trap counts included, plus the recorded trace bytes."""
    return {
        "cycles": machine.cycles.snapshot(),
        "profile": dataclasses.asdict(machine.profile),
        "itlb": dataclasses.asdict(machine.itlb.stats),
        "icache": dataclasses.asdict(machine.icache.stats),
        "atlb": dataclasses.asdict(machine.mmu.atlb.stats),
        "context_cache": dataclasses.asdict(machine.context_cache.stats),
        "pool": dataclasses.asdict(machine.pool.stats),
        "recycler": dataclasses.asdict(machine.recycler.stats),
        "heap": dataclasses.asdict(machine.heap.stats),
        "alias_traps": machine.mmu.alias_traps_taken,
        "bounds_faults": machine.mmu.bounds_faults,
        "depth": (machine.depth, machine.max_depth),
        "trace": trace.to_bytes(),
    }


def _reconcile_fetch_probes(states, plan_fetches):
    """Remove from the ATLB hits the one difference the two paths may
    have: the reference path (predecode off) translates every fetch
    through the ATLB, a hit on the code segment, where a predecoded
    method's ``plan_fetches`` instructions run from its plans.  The
    plans reuse the translation that installed the code, so predecode
    adds no probe of its own."""
    slow, fast = states[False]["atlb"], states[True]["atlb"]
    assert slow == dict(fast, hits=fast["hits"] + plan_fetches)
    del states[False]["atlb"], states[True]["atlb"]


class TestPredecodedFetchAndTranslation:
    """The fetch loop keeps the running method across fall-through
    instructions, and the call, return and store sequences translate
    through the machine's inline ATLB probe; both must stay exactly
    the reference path's behaviour."""

    def test_self_modifying_code_traps_on_its_new_word(self):
        # main receives its own code object in c1 and stores a small
        # integer over its next instruction (index 3) with at:put:.
        # The write drops main's plans; the fall-through fetch must
        # notice (DecodedMethod.live) and fetch the new word from
        # memory, which is not an instruction.
        source = """
        main
            c2 = 3
            c3 = 7
            c1 [ c2 ] = c3
            c4 = c3 + c3
            halt
        """
        states = {}
        for predecode in (True, False):
            machine = COMMachine(predecode=predecode)
            main = load_program(machine, source)
            code = machine.heap.pointer_to(main.code_address)
            trace = machine.enable_trace()
            with pytest.raises(ProtectionTrap, match="non-instruction word"):
                machine.run_program(main, arguments=[code])
            assert machine.ip == main.code_address.step(3)
            states[predecode] = _counters(machine, trace)
        _reconcile_fetch_probes(states, plan_fetches=3)
        assert states[True] == states[False]
        assert states[True]["cycles"]["instructions"] == 3

    def test_stale_pointer_accesses_take_the_alias_forward(self):
        # A 3-word array grown to 6 words outgrows its exponent: it gets
        # a new name, and its old name forwards beyond the old length.
        # at:put: and at: at offset 3 through the old name each take
        # one alias trap and must land in the grown object.
        source = """
        main
            c2 = 3
            c3 = 42
            c1 [ c2 ] = c3
            c4 = c1 [ c2 ]
            ret c4
        """
        states = {}
        for predecode in (True, False):
            machine = COMMachine(predecode=predecode)
            main = load_program(machine, source)
            array = machine.heap.allocate(machine.array_class, 3)
            stale = machine.heap.pointer_to(array)
            grown = machine.mmu.grow_object(machine.heap.team, array, 6)
            assert grown.segment_name != array.segment_name
            trace = machine.enable_trace()
            assert machine.run_program(main, arguments=[stale]).value == 42
            states[predecode] = _counters(machine, trace)
            assert machine.heap.load(grown, 3).value == 42
        assert states[True]["alias_traps"] == 2
        assert states[True]["bounds_faults"] == 0
        _reconcile_fetch_probes(states, plan_fetches=5)
        assert states[True] == states[False]
