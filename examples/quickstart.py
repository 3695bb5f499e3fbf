"""Quickstart: assemble, run and inspect a COM program.

Demonstrates the lowest-level public API: the textual assembler, the
machine's cycle accounting and the figure-6 pipeline diagram.

Run:  python examples/quickstart.py
"""

from repro import COMMachine, load_program, pipeline_diagram

PROGRAM = """
; Compute 10 factorial with a recursive method on SmallInteger.
method SmallInteger >> fact args=1
    c2 = c1 < 2          ; base case test
    jt c2 base
    c3 = c1 - 1
    c4 = c3 fact c3      ; abstract instruction: late-bound send
    c5 = c1 * c4
    ret c5
    base:
    ret 1

main
    c2 = 10 fact 10
    c0 = c2              ; store through the result pointer
    halt
"""


def main() -> None:
    machine = COMMachine()
    program = load_program(machine, PROGRAM)
    result = machine.run_program(program)
    print(f"10 factorial = {result.value}")

    snapshot = machine.cycles.snapshot()
    print("\n-- cycle accounting (section 3.6 cost model) --")
    print(f"instructions: {snapshot['instructions']}")
    print(f"cycles:       {snapshot['cycles']}  "
          f"(cpi {snapshot['cpi']:.2f})")
    print(f"calls:        {snapshot['calls']}, "
          f"returns: {snapshot['returns']}")
    for reason, cycles in sorted(snapshot["stalls"].items()):
        print(f"  stall {reason:<14} {cycles} cycles")

    print("\n-- caches --")
    print(f"ITLB:   {machine.itlb.stats}")
    print(f"icache: {machine.icache.stats}")
    print(f"context cache: faults={machine.context_cache.stats.faults} "
          f"copybacks={machine.context_cache.stats.copybacks}")
    print(f"LIFO contexts: "
          f"{machine.recycler.stats.lifo_fraction:.0%}")

    print("\n-- the five-step pipeline (figure 6) --")
    print(pipeline_diagram(3))


if __name__ == "__main__":
    main()
