"""The predecode layer: equivalence with the reference fetch and
invalidation.

Installed plans (repro.core.decoded) exist purely to make the
simulator faster; they must be architecturally invisible.  These tests
run the same workload with predecode enabled and disabled (every fetch
through the MMU, planned on the spot) and require byte-identical cycle
counts, AccessProfile tallies, trace events, cache statistics and
results -- plus the invalidation rules: plans die on method
re-installation and on heap writes into method objects.
"""

import dataclasses

import pytest

from repro.core.assembler import Assembler, load_program
from repro.core.encoding import Instruction
from repro.core.isa import Op
from repro.core.machine import COMMachine
from repro.core.operands import Operand
from repro.errors import (
    DoesNotUnderstandTrap,
    ProtectionTrap,
    SimulationLimitExceeded,
)
from repro.fith.interp import FithMachine
from repro.fith.programs import fib as fith_fib
from repro.memory.tags import Word
from repro.smalltalk import compile_program

_FIB = """
SmallInteger >> fib
    self < 2 ifTrue: [^self].
    ^(self - 1) fib + (self - 2) fib
main
    ^10 fib
"""


def _run_fib(predecode: bool):
    machine = COMMachine(predecode=predecode)
    main = compile_program(machine, _FIB)
    trace = machine.enable_trace()
    machine.run_program(main, max_instructions=1_000_000)
    return machine, trace


def _profile_of(machine):
    profile = machine.profile
    return (profile.context_reads, profile.context_writes,
            profile.heap_reads, profile.heap_writes,
            profile.instruction_fetches)


class TestEquivalence:
    """Predecode on vs off must be observationally identical."""

    def test_fib_cycles_profile_and_trace_identical(self):
        fast, fast_trace = _run_fib(predecode=True)
        slow, slow_trace = _run_fib(predecode=False)
        assert fast.cycles.snapshot() == slow.cycles.snapshot()
        assert _profile_of(fast) == _profile_of(slow)
        assert fast_trace == slow_trace
        assert len(fast_trace) == fast.cycles.instructions
        assert fast.result().value == slow.result().value == 55

    def test_cache_statistics_identical(self):
        fast, _ = _run_fib(predecode=True)
        slow, _ = _run_fib(predecode=False)
        for name in ("hits", "misses", "fills", "evictions"):
            assert getattr(fast.itlb.stats, name) == \
                getattr(slow.itlb.stats, name)
            assert getattr(fast.icache.stats, name) == \
                getattr(slow.icache.stats, name)
        fast_cc, slow_cc = fast.context_cache.stats, slow.context_cache.stats
        assert fast_cc.fast_reads == slow_cc.fast_reads
        assert fast_cc.fast_writes == slow_cc.fast_writes
        assert fast_cc.block_clears == slow_cc.block_clears

    def test_fast_path_is_actually_used(self):
        fast, _ = _run_fib(predecode=True)
        assert len(fast.decoded) > 0
        assert fast.decoded.installs >= 2   # fib + main at least

    def test_memory_and_branch_workload_identical(self):
        source = """
        main
            c2 = #Array new: 8
            c3 = 0
            c4 = 0
        loop:
            c2 [ c3 ] = c3
            c5 = c2 [ c3 ]
            c4 = c4 + c5
            c3 = c3 + 1
            c6 = c3 < 8
            jt c6 loop
            c0 = c4
            halt
        """
        results = {}
        for predecode in (True, False):
            machine = COMMachine(predecode=predecode)
            main = load_program(machine, source)
            trace = machine.enable_trace()
            result = machine.run_program(main, max_instructions=100_000)
            results[predecode] = (result.value, machine.cycles.snapshot(),
                                  _profile_of(machine), trace)
        assert results[True] == results[False]
        assert results[True][0] == 28
        # Pins the plan builder's rule that at:put: has no destination:
        # each of the 8 passes stalls where `c4 = c4 + c5` reads the c5
        # just written and where `c6 = c3 < 8` reads the c3 just
        # written.  An at:put: that recorded its value operand c3 as a
        # destination would add a stall at `c5 = c2 [ c3 ]` (24).
        assert results[True][1]["stalls"]["raw_hazard"] == 16


#: Recursive fib whose base case sends an unimplemented selector to a
#: negative receiver: main computes 8 fib first (calls, returns and
#: taken jumps), then ``(0 - 1) fib`` traps with doesNotUnderstand.
_FIB_DNU = """
SmallInteger >> fib
    self < 0 ifTrue: [^self foo].
    self < 2 ifTrue: [^self].
    ^(self - 1) fib + (self - 2) fib
main
    ^8 fib + (0 - 1) fib
"""


def _machine_state(machine, trace, atlb=True):
    """Every counter a run leaves on the machine, plus the trace bytes.

    ``atlb=False`` leaves out the ATLB stats: the reference fetch walks
    the MMU on every fetch, the predecoded path only on calls and
    returns.
    """
    state = {
        "cycles": machine.cycles.snapshot(),
        "profile": dataclasses.asdict(machine.profile),
        "itlb": dataclasses.asdict(machine.itlb.stats),
        "icache": dataclasses.asdict(machine.icache.stats),
        "context_cache": dataclasses.asdict(machine.context_cache.stats),
        "pool": dataclasses.asdict(machine.pool.stats),
        "recycler": dataclasses.asdict(machine.recycler.stats),
        "activation_count": machine.activation_count,
        "depth": machine.depth,
        "max_depth": machine.max_depth,
        "trace": trace.to_bytes(),
    }
    if atlb:
        state["atlb"] = dataclasses.asdict(machine.mmu.atlb.stats)
    return state


def _stopped_run(source, predecode, error, **run_kwargs):
    machine = COMMachine(predecode=predecode)
    main = compile_program(machine, source)
    trace = machine.enable_trace()
    with pytest.raises(error):
        machine.run_program(main, **run_kwargs)
    return machine, trace


class TestEarlyStop:
    """A run cut short by the budget or a trap leaves every counter
    exactly where the reference path leaves it."""

    def test_budget_exit_inside_recursion(self):
        states = []
        for predecode in (True, False):
            machine, trace = _stopped_run(
                _FIB, predecode, SimulationLimitExceeded,
                max_instructions=537)
            assert machine.cycles.instructions == 537
            assert machine.depth > 2          # stopped mid-recursion
            states.append(_machine_state(machine, trace, atlb=False))
        assert states[0] == states[1]

    def test_does_not_understand_after_calls_and_returns(self):
        states = []
        for predecode in (True, False):
            machine, trace = _stopped_run(
                _FIB_DNU, predecode, DoesNotUnderstandTrap)
            snapshot = machine.cycles.snapshot()
            assert snapshot["returns"] > 10
            assert snapshot["stalls"]["branch"] > 10
            states.append(_machine_state(machine, trace, atlb=False))
        assert states[0] == states[1]

    def test_step_by_step_matches_run(self):
        ran, ran_trace = _stopped_run(_FIB_DNU, True, DoesNotUnderstandTrap)
        stepped = COMMachine()
        main = compile_program(stepped, _FIB_DNU)
        stepped_trace = stepped.enable_trace()
        stepped.start(main)
        with pytest.raises(DoesNotUnderstandTrap):
            for _ in range(100_000):
                stepped.step()
        assert _machine_state(stepped, stepped_trace) == \
            _machine_state(ran, ran_trace)

    def test_jumps_with_context_displacements(self):
        # fjmp and rjmp whose displacement is a context operand, not a
        # constant: the loop counts c2 up to 5 through both jumps.
        results = {}
        for predecode in (True, False):
            machine = COMMachine(predecode=predecode)
            assembler = Assembler(machine.opcodes, machine.constants)
            code = assembler.assemble_lines([
                "c2 = 0",
                "c3 = 1",                  # fjmp displacement
                "c4 = 5",                  # rjmp displacement
                "loop:",
                "c2 = c2 + 1",
                "c5 = c2 < 5",
                "c0 = c0",                 # 5: fjmp c5 by c3 -> 7
                "jmp done",
                "c0 = c0",                 # 7: rjmp true by c4 -> 3
                "done:",
                "c0 = c2",
                "halt",
            ])
            true = assembler.operand("true")
            code[5] = Instruction.three(int(Op.FJMP), Operand.current(5),
                                        Operand.current(0),
                                        Operand.current(3))
            code[7] = Instruction.three(int(Op.RJMP), true,
                                        Operand.current(0),
                                        Operand.current(4))
            main = machine.install_method(machine.object_class,
                                          "__main__", code)
            trace = machine.enable_trace()
            result = machine.run_program(main, max_instructions=1_000)
            results[predecode] = (result.value,
                                  _machine_state(machine, trace, atlb=False))
        assert results[True] == results[False]
        assert results[True][0] == 5
        assert results[True][1]["cycles"]["stalls"]["branch"] == 9


class TestInvalidation:
    # Re-installation shootdown (ITLB + decoded plans, old callers see
    # the new method) is covered by test_machine.py::
    # test_redefinition_invalidates_decoded_plans.

    def test_heap_write_into_method_drops_plans(self):
        machine = COMMachine()
        main = load_program(machine, """
        main
            c2 = 1 + 2
            c0 = c2
            halt
        """)
        assert machine.run_program(main).value == 3
        compiled = machine.method_for(
            machine.registry.by_name("Object"), "__main__")
        key = compiled.code_address.segment_name
        assert key in machine.decoded.by_segment
        # Patch the method's first word with a non-instruction: the
        # write watcher must drop the stale plans so the next run sees
        # the new memory contents (and traps on the bad word).
        machine.heap.store(compiled.code_address, 0, Word.small_integer(7))
        assert key not in machine.decoded.by_segment
        with pytest.raises(ProtectionTrap):
            machine.run_program(main)

    def test_freed_code_drops_plans(self):
        machine = COMMachine()
        main = load_program(machine, """
        main
            c0 = 1
            halt
        """)
        machine.run_program(main)
        compiled = machine.method_for(
            machine.registry.by_name("Object"), "__main__")
        key = compiled.code_address.segment_name
        assert key in machine.decoded.by_segment
        # Growing the method past its span relocates its block; the
        # free of the old block must drop the plans it covered.
        machine.mmu.grow_object(machine.heap.team, compiled.code_address, 64)
        assert key not in machine.decoded.by_segment

    def test_predecode_disabled_keeps_no_plans(self):
        machine = COMMachine(predecode=False)
        main = load_program(machine, """
        main
            c0 = 1
            halt
        """)
        machine.run_program(main)
        assert len(machine.decoded) == 0


class TestFithPlans:
    def test_plans_cached_and_results_unchanged(self):
        machine = FithMachine(trace=True)
        machine.run_source(fith_fib(scale=1), max_steps=2_000_000)
        word = machine._main
        assert word.plan is not None
        assert len(word.plan) == len(word.instructions)
        assert len(machine.trace) == machine.steps
        # Every traced event carries the predecoded opcode/dispatch bit.
        assert machine.trace.dispatched_count()

    def test_send_memo_cleared_on_reload(self):
        machine = FithMachine()
        machine.run_source(": twice 2 * ; 4 twice .")
        assert machine._send_memo
        machine.load(": twice 3 * ; 4 twice .")
        assert not machine._send_memo
        machine.run()
        assert machine.output[-1].value == 12
