"""TAB-CTX: context allocation and reference statistics (section 2.3).

The paper motivates its context hardware with measurements from the
Smalltalk-80 system [1, 7, 19]:

* "85% of all object allocations and deallocations involve contexts";
* "over 91% of all memory references are to contexts";
* "85% of contexts allocated in Smalltalk are indeed LIFO contexts";
* 32-word contexts cover the overwhelming majority of frames (for C,
  90% of frames are under 32 words; Smalltalk methods are smaller).

We reproduce the *regime*, not the third decimal: a mixed Smalltalk
workload (recursion, object allocation and access, iteration, plus a
block-like capture pattern built from movea/at:put:) runs on the COM
and the machine's own counters are compared against those figures.
"""

from __future__ import annotations

from repro.core.assembler import Assembler
from repro.core.machine import COMMachine
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import ExperimentSpec, register
from repro.smalltalk import compile_program

#: The measurement workload.  fib supplies deep LIFO recursion; Point
#: allocation and access supply non-context objects and heap traffic;
#: the escape: sends capture their activation (non-LIFO contexts).
WORKLOAD = """
class Point extends Object fields: x y

Point >> setX: ax y: ay
    x := ax. y := ay. ^self

Point >> sum
    ^x + y

SmallInteger >> fib
    self < 2 ifTrue: [^self].
    ^(self - 1) fib + (self - 2) fib

SmallInteger >> sumTo
    | acc |
    acc := 0.
    1 to: self do: [:k | acc := acc + k].
    ^acc

main | cell total p i |
    cell := Array new: 8.
    total := 0.
    total := total + 12 fib.
    i := 0.
    [i < 40] whileTrue: [
        p := Point new. p := Point new. p := Point new.
        p := Point new. p := Point new.
        p setX: i y: i.
        total := total + p sum.
        total := total + 50 sumTo.
        i := i + 1.
        i escape: cell.
        total escape: cell
    ].
    ^total
"""

#: Assembly for the capture pattern: stores a pointer into the current
#: context into a heap object, making this activation non-LIFO (the
#: stand-in for a Smalltalk block capturing its home context).
ESCAPE_METHOD = """
c3 = & c4
c2 [ 0 ] = c3
ret c1
"""


def build_machine() -> COMMachine:
    machine = COMMachine()
    main = compile_program(machine, WORKLOAD)
    assembler = Assembler(machine.opcodes, machine.constants)
    machine.install_method(
        machine.registry.by_name("SmallInteger"), "escape:",
        assembler.assemble_lines(ESCAPE_METHOD.strip().splitlines()),
        argument_count=1,
    )
    machine._workload_main = main
    return machine


def run(max_instructions: int = 2_000_000) -> ExperimentResult:
    machine = build_machine()
    machine.run_program(machine._workload_main,
                        max_instructions=max_instructions)

    # -- allocations/deallocations involving contexts -------------------
    # Contexts are freed on the LIFO path; no other object is freed.
    activations = machine.activation_count
    context_frees = machine.recycler.stats.freed_lifo
    other_allocs = sum(n for kind, n in machine.heap.stats.allocations.items()
                       if kind != "context")
    context_events = activations + context_frees
    total_events = context_events + other_allocs
    context_alloc_fraction = context_events / total_events

    # -- memory references to contexts ----------------------------------
    profile = machine.profile
    context_ref_fraction = profile.context_fraction

    # -- LIFO fraction ----------------------------------------------------
    lifo_fraction = machine.recycler.stats.lifo_fraction

    # -- frame sizes -------------------------------------------------------
    fitting = machine.frame_sizes.fraction_fitting(32)

    result = ExperimentResult(
        "TAB-CTX context allocation / reference statistics",
        "A mixed Smalltalk workload (recursion, allocation, iteration "
        "and context capture) measured by the machine's own counters.",
    )
    rows = [
        ("allocations+frees involving contexts", "85%",
         f"{context_alloc_fraction:.1%}"),
        ("memory references to contexts", ">91%",
         f"{context_ref_fraction:.1%}"),
        ("contexts freed on the LIFO fast path", "85%",
         f"{lifo_fraction:.1%}"),
        ("method frames fitting 32 words", ">=90%", f"{fitting:.1%}"),
    ]
    width = max(len(r[0]) for r in rows) + 2
    lines = [f"{'quantity':<{width}}{'paper':>8}{'measured':>12}",
             "-" * (width + 20)]
    lines += [f"{n:<{width}}{p:>8}{m:>12}" for n, p, m in rows]
    result.table = "\n".join(lines)

    result.check(
        "the context-allocation share dominates (paper: 85%)",
        "~0.85", f"{context_alloc_fraction:.3f}",
        context_alloc_fraction > 0.70,
    )
    result.check(
        "memory references are overwhelmingly to contexts (paper: 91%)",
        ">0.91 in Smalltalk-80", f"{context_ref_fraction:.3f}",
        context_ref_fraction > 0.75,
    )
    result.check(
        "most contexts are LIFO (paper: 85%)",
        "~0.85", f"{lifo_fraction:.3f}",
        0.70 <= lifo_fraction < 1.0,
    )
    result.check(
        "32-word contexts cover nearly all frames (paper: >=90% for C, "
        "Smalltalk smaller)",
        ">=0.90", f"{fitting:.3f}", fitting >= 0.90,
    )
    result.data = {
        "context_alloc_fraction": context_alloc_fraction,
        "context_ref_fraction": context_ref_fraction,
        "lifo_fraction": lifo_fraction,
        "frames_fitting": fitting,
        "activations": activations,
        "other_allocations": other_allocs,
    }
    return result


def _run(ctx) -> ExperimentResult:
    return run()


register(ExperimentSpec(
    id="TAB-CTX",
    figure="section 2.3",
    order=40,
    title="context allocation / reference statistics",
    description="mixed Smalltalk workload measured by the machine's "
                "own allocation and reference counters",
    runner=_run,
))
