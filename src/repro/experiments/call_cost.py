"""TAB-CALL: method call and return cycle costs (paper section 3.6).

Claims reproduced on the COM pipeline model:

* steady-state issue is one instruction per two clock cycles;
* "a method call with no operands only delays execution four clock
  cycles" (two to execute the calling instruction, one flush, one for
  the call operations);
* "an additional cycle is required for each operand copied to the next
  context";
* "method returns cost only two clock cycles".

Methodology: three microprograms run on the functional simulator with
warm caches (a warm-up run precedes measurement):

1. a straight-line program (baseline cycles/instruction);
2. a program performing N zero-operand sends to an empty method;
3. a program performing N three-operand sends (which copy arg0 plus
   two operand words).

The per-call overhead is the cycle delta per call over the baseline.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.machine import COMMachine
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import ExperimentSpec, register


def _run_cycles(machine: COMMachine, main, warm_runs: int = 1) -> dict:
    """Run a program ``warm_runs + 1`` times; measure the last run."""
    for _ in range(warm_runs):
        machine.run_program(main, max_instructions=10_000_000)
        machine.cycles.reset()
    machine.run_program(main, max_instructions=10_000_000)
    return machine.cycles.snapshot()


def _straightline_program(machine: COMMachine, count: int):
    asm_lines = ["main"]
    asm_lines.append("    c2 = 1")
    for _ in range(count):
        asm_lines.append("    c3 = c2 + c2")
        asm_lines.append("    c4 = c2 + c2")  # avoid RAW on c3
    asm_lines.append("    halt")
    from repro.core.assembler import load_program
    return load_program(machine, "\n".join(asm_lines))


def _zero_operand_call_program(machine: COMMachine, count: int):
    from repro.core.assembler import load_program
    lines = [
        "method Object >> bounce args=0",
        "    ret",
        "main",
        "    c2 = 1",
    ]
    # Each iteration: load receiver into the next context and send with
    # no automatic operand copying (figure 9's call style, nargs=1).
    for _ in range(count):
        lines.append("    n1 = c2")
        lines.append("    send bounce 1")
    lines.append("    halt")
    return load_program(machine, "\n".join(lines))


def _three_operand_call_program(machine: COMMachine, count: int):
    from repro.core.assembler import load_program
    lines = [
        "method SmallInteger >> combine args=2",
        "    c4 = c1 + c2",
        "    ret c4",
        "main",
        "    c2 = 1",
        "    c3 = 2",
    ]
    for _ in range(count):
        lines.append("    c5 = c2 combine c3")
    lines.append("    halt")
    return load_program(machine, "\n".join(lines))


def run(calls: int = 200) -> ExperimentResult:
    result = ExperimentResult(
        "TAB-CALL method call / return cycle costs",
        "Cycle deltas per call measured on the pipeline cost model with "
        "warm caches, versus the paper's stated costs.",
    )

    machine = COMMachine()
    base_main = _straightline_program(machine, calls)
    base = _run_cycles(machine, base_main)
    base_cpi = base["cycles"] / base["instructions"]

    machine0 = COMMachine()
    zero_main = _zero_operand_call_program(machine0, calls)
    zero = _run_cycles(machine0, zero_main)

    machine3 = COMMachine()
    three_main = _three_operand_call_program(machine3, calls)
    three = _run_cycles(machine3, three_main)

    # Per call-return pair, cycles beyond plain instruction issue.
    def call_cost(snapshot) -> Tuple[float, float]:
        call_stall = snapshot["stalls"].get("call", 0) / snapshot["calls"]
        return_stall = snapshot["stalls"].get("return", 0) / max(
            snapshot["returns"], 1)
        return call_stall, return_stall

    zero_call_stall, zero_return_stall = call_cost(zero)
    three_call_stall, _ = call_cost(three)

    issue = machine0.cycles.params.issue_cycles
    zero_call_total = issue + zero_call_stall       # the paper's "4 cycles"
    return_total = issue + zero_return_stall        # the paper's "2 cycles"
    three_call_total = issue + three_call_stall
    operands_per_call = three["operands_copied"] / three["calls"]

    rows = [
        ("steady-state cycles/instruction", "2", f"{base_cpi:.3f}"),
        ("no-operand call delay (cycles)", "4", f"{zero_call_total:.1f}"),
        ("method return cost (cycles)", "2", f"{return_total:.1f}"),
        ("extra cycles per copied operand", "1",
         f"{(three_call_total - zero_call_total) / operands_per_call:.2f} "
         f"({operands_per_call:.0f} operands/call)"),
    ]
    width = max(len(r[0]) for r in rows) + 2
    table_lines = [f"{'quantity':<{width}}{'paper':>8}{'measured':>12}"]
    table_lines.append("-" * (width + 36))
    for name, paper, measured in rows:
        table_lines.append(f"{name:<{width}}{paper:>8}{measured:>28}")
    result.table = "\n".join(table_lines)

    result.check("steady state issues one instruction per two clocks",
                 "2.0 cycles/instruction",
                 f"{base_cpi:.3f}", abs(base_cpi - 2.0) < 0.1)
    result.check("a no-operand method call delays execution 4 cycles",
                 "4", f"{zero_call_total:.1f}",
                 abs(zero_call_total - 4.0) < 0.51)
    result.check("a method return costs 2 cycles",
                 "2", f"{return_total:.1f}",
                 abs(return_total - 2.0) < 0.01)
    per_operand = ((three_call_total - zero_call_total) /
                   max(operands_per_call, 1))
    result.check("each copied operand adds one cycle",
                 "1", f"{per_operand:.2f}", abs(per_operand - 1.0) < 0.01)
    result.data = {
        "base_cpi": base_cpi,
        "zero_call_total": zero_call_total,
        "return_total": return_total,
        "per_operand": per_operand,
        "operands_per_call": operands_per_call,
        "snapshots": {"base": base, "zero": zero, "three": three},
    }
    return result


def _run(ctx) -> ExperimentResult:
    return run(50 if ctx.quick else 200)


register(ExperimentSpec(
    id="TAB-CALL",
    figure="section 3.6",
    order=30,
    title="method call / return cycle costs",
    description="microprogram cycle deltas on the pipeline cost model "
                "with warm caches",
    runner=_run,
))
