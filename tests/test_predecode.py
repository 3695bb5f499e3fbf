"""The predecode layer: equivalence with the slow path and invalidation.

The predecode layer (repro.core.decoded) exists purely to make the
simulator faster; it must be architecturally invisible.  These tests
run the same workload with predecode enabled and disabled and require
byte-identical cycle counts, AccessProfile tallies, trace events,
cache statistics and results -- plus the invalidation rules: plans die
on method re-installation and on heap writes into method objects.
"""

import pytest

from repro.core.assembler import load_program
from repro.core.machine import COMMachine
from repro.errors import ProtectionTrap
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
        machine.heap.free(compiled.code_address)
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
