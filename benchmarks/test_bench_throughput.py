"""Simulator throughput benchmarks (not paper claims; engineering data).

The calibration note for this reproduction flags "easy functional
simulator, but slow for benchmarks" -- these benches quantify the
simulator's speed so users can size their workloads.
"""

from repro.core.machine import COMMachine
from repro.fith.interp import FithMachine
from repro.fith.programs import fib as fith_fib
from repro.smalltalk import compile_program

_FIB = """
SmallInteger >> fib
    self < 2 ifTrue: [^self].
    ^(self - 1) fib + (self - 2) fib
main
    ^15 fib
"""


def test_com_instructions_per_second(benchmark):
    machine = COMMachine()
    main = compile_program(machine, _FIB)

    def run():
        machine.run_program(main, max_instructions=5_000_000)
        return machine.cycles.instructions

    executed = benchmark(run)
    assert executed > 10_000


def test_fith_steps_per_second(benchmark):
    source = fith_fib(scale=4)

    def run():
        machine = FithMachine()
        machine.run_source(source, max_steps=20_000_000)
        return machine.steps

    steps = benchmark(run)
    assert steps > 10_000


def test_smalltalk_compile_speed(benchmark):
    def compile_once():
        machine = COMMachine()
        return compile_program(machine, _FIB)

    main = benchmark(compile_once)
    assert main.instruction_count > 0
