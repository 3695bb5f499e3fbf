"""Cross-module integration tests: whole-system behaviours."""

import pytest

from repro.core.assembler import load_program
from repro.core.machine import COMMachine
from repro.core.pipeline import CycleParams
from repro.memory.tags import Tag, Word
from repro.smalltalk import compile_program
from repro.smalltalk.stackgen import run_stack_program
from repro.trace.cachesim import simulate_itlb
from repro.trace.workloads import interleaved_trace


class TestSmalltalkOnFullMachine:
    """A sizeable Smalltalk application on the complete simulator."""

    SOURCE = """
    class Shape extends Object
    class Circle extends Shape fields: radius
    class Rectangle extends Shape fields: width height

    Circle >> setRadius: r
        radius := r. ^self
    Circle >> area
        ^radius * radius * 3
    Rectangle >> setW: w h: h
        width := w. height := h. ^self
    Rectangle >> area
        ^width * height

    SmallInteger >> triangular
        | acc |
        acc := 0.
        1 to: self do: [:k | acc := acc + k].
        ^acc

    main | shapes total i |
        shapes := Array new: 6.
        i := 0.
        [i < 6] whileTrue: [
            (i \\\\ 2) = 0
                ifTrue: [shapes at: i put: (Circle new setRadius: i + 1)]
                ifFalse: [shapes at: i put:
                    (Rectangle new setW: i h: i + 2)].
            i := i + 1
        ].
        total := 0.
        0 to: 5 do: [:k | total := total + (shapes at: k) area].
        ^total + 10 triangular
    """

    def _expected(self):
        total = 0
        for i in range(6):
            if i % 2 == 0:
                total += (i + 1) * (i + 1) * 3
            else:
                total += i * (i + 2)
        return total + 55

    def test_result(self):
        machine = COMMachine()
        main = compile_program(machine, self.SOURCE)
        result = machine.run_program(main, max_instructions=1_000_000)
        assert result.value == self._expected()

    def test_stack_backend_agrees(self):
        result, _vm = run_stack_program(self.SOURCE)
        assert result.value == self._expected()

    def test_caches_effective(self):
        machine = COMMachine()
        main = compile_program(machine, self.SOURCE)
        # Warm run first (the paper's warm-up methodology), then two
        # measured runs dominated by steady-state behaviour.
        for _ in range(3):
            machine.run_program(main, max_instructions=1_000_000)
        assert machine.itlb.stats.hit_ratio > 0.95
        assert machine.icache.stats.hit_ratio > 0.9

    def test_with_small_itlb_more_misses(self):
        big = COMMachine(itlb_size=512)
        small = COMMachine(itlb_size=8, itlb_associativity=1)
        for machine in (big, small):
            main = compile_program(machine, self.SOURCE)
            machine.run_program(main, max_instructions=1_000_000)
        assert small.itlb.stats.miss_ratio >= big.itlb.stats.miss_ratio


class TestDeepRecursionCopyBack:
    def test_depth_beyond_cache_is_correct(self):
        machine = COMMachine()
        main = compile_program(machine, """
        SmallInteger >> sumDown
            self < 1 ifTrue: [^0].
            ^(self - 1) sumDown + self
        main
            ^150 sumDown
        """)
        result = machine.run_program(main, max_instructions=1_000_000)
        assert result.value == 150 * 151 // 2
        assert machine.context_cache.stats.copybacks > 0
        assert machine.cycles.stalls.get("context_fault", 0) > 0

    def test_custom_cycle_params_scale_costs(self):
        cheap = COMMachine(cycle_params=CycleParams(context_fault=0))
        costly = COMMachine(cycle_params=CycleParams(context_fault=64))
        source = """
        SmallInteger >> sumDown
            self < 1 ifTrue: [^0].
            ^(self - 1) sumDown + self
        main
            ^100 sumDown
        """
        for machine in (cheap, costly):
            main = compile_program(machine, source)
            machine.run_program(main, max_instructions=1_000_000)
        assert costly.cycles.cycles > cheap.cycles.cycles


class TestComTraceFeedsCacheSim:
    def test_machine_trace_drives_itlb_model(self):
        machine = COMMachine()
        trace = machine.enable_trace()
        main = compile_program(machine, """
        SmallInteger >> fib
            self < 2 ifTrue: [^self].
            ^(self - 1) fib + (self - 2) fib
        main
            ^13 fib
        """)
        machine.run_program(main, max_instructions=1_000_000)
        assert len(trace) > 1000
        stats = simulate_itlb(trace, 64, 2, warmup_fraction=0.1)
        assert stats.hit_ratio > 0.95


class TestInterleavedWorkload:
    def test_interleaving_stresses_caches_more(self):
        events = interleaved_trace(scale=1, chunk=500)
        assert len(events) > 20_000
        small = simulate_itlb(events, 32, 2)
        large = simulate_itlb(events, 1024, 2)
        assert small.hit_ratio <= large.hit_ratio


class TestAssemblyAndSmalltalkInterop:
    def test_assembly_method_called_from_smalltalk(self):
        machine = COMMachine()
        main = compile_program(machine, """
        main
            ^5 assemblyDouble: 0
        """)
        from repro.core.assembler import Assembler
        assembler = Assembler(machine.opcodes, machine.constants)
        machine.install_method(
            machine.registry.by_name("SmallInteger"), "assemblyDouble:",
            assembler.assemble_lines(["c3 = c1 + c1", "ret c3"]),
            argument_count=1)
        assert machine.run_program(main).value == 10

    def test_smalltalk_method_called_from_assembly(self):
        machine = COMMachine()
        compile_program(machine, """
        SmallInteger >> smalltalkSquare
            ^self * self
        main
            ^0
        """)
        main = load_program(machine, """
        main
            c2 = 7 smalltalkSquare 0
            c0 = c2
            halt
        """)
        assert machine.run_program(main).value == 49
