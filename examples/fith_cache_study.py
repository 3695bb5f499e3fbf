"""Reproduce the section-5 methodology end to end on one Fith program.

Writes a Fith program (Forth syntax, Smalltalk semantics), traces its
execution -- recording, per instruction: address, opcode and the class
of the top of stack -- and replays the trace through the single-pass
sweep engine (repro.sweep): one sweep per cache (the ITLB and the
instruction cache) yields the full size x associativity hit-ratio
surface, with fully-associative LRU and OPT/Belady reference columns,
from a single replay of the trace per cache instead of one per
configuration.

Run:  python examples/fith_cache_study.py
"""

from repro import make_fith
from repro.sweep import SweepSpec, run_sweep
from repro.trace.cachesim import ascii_plot

PROGRAM = """
\\ A polymorphic queue simulation: three task classes, one 'work' verb.
class Quick 1
class Slow 1
class Batch 1

:: Quick work   dup 0 at 1 + over swap 0 swap put drop ;
:: Slow work    dup 0 at 2 + over swap 0 swap put drop ;
:: Batch work   dup 0 at 5 + over swap 0 swap put drop ;

variable tasks
9 array tasks !
: setup
    9 0 do
        i 3 mod 0 = if #Quick new else
        i 3 mod 1 = if #Slow new else #Batch new then then
        dup 0 0 put
        tasks @ i rot put
    loop ;
: run-round  9 0 do tasks @ i at work loop ;
: total ( -- n )
    0 9 0 do tasks @ i at 0 at + loop ;

setup
200 0 do run-round loop
total .
"""


def main() -> None:
    machine = make_fith(trace=True)
    machine.run_source(PROGRAM, max_steps=10_000_000)
    print(f"total work units: {machine.output[0].value}")
    events = machine.trace.snapshot()
    stats = events.stats()
    print(f"trace: {stats['events']} instructions, "
          f"{stats['dispatched']} dispatched, "
          f"{stats['unique_itlb_keys']} distinct ITLB keys, "
          f"{stats['unique_addresses']} distinct addresses")

    sizes = tuple(1 << k for k in range(3, 11))
    itlb, icache = (
        run_sweep(SweepSpec(cache=cache, sizes=sizes, double_pass=True,
                            include_full=True, include_opt=True), events)
        for cache in ("itlb", "icache"))

    print()
    print(itlb.table())
    print(f"(engine: {itlb.meta['engine']}, "
          f"{itlb.meta['trace_passes']} simulation passes for "
          f"{len(sizes) * 3 + len(sizes)} LRU configurations)")
    print()
    print(ascii_plot(itlb, width=48, height=12))

    print()
    print(icache.table())
    target = 0.99
    reach = icache.isoratio(target)
    print(f"(99% thresholds: " + ", ".join(
        f"{assoc if assoc == 'full' else f'{assoc}-way'} at "
        f"{size if size is not None else '> ' + str(sizes[-1])}"
        for assoc, size in reach.items()) + ")")


if __name__ == "__main__":
    main()
