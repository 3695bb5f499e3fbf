"""Pipeline timing model (paper section 3.6, figure 6).

Instruction interpretation proceeds in five steps -- Fetch, Read, ITLB,
Op, Write -- pipelined so that a new instruction starts every two clock
cycles (the context cache can do two reads or one write per cycle, but
not both).  On top of that steady state the paper specifies:

* a taken branch is *delayed one clock cycle* (MIPS-style);
* the pipeline stalls on a miss in any cache and on ``at:``/
  ``at:put:`` memory cycles;
* a non-primitive method is detected in step three, flushes the next
  (already fetched) instruction and runs the call sequence: "a method
  call with no operands only delays execution four clock cycles: two to
  execute the instruction which caused the call, one for flushing the
  instruction in the pipeline, and one for performing the operations
  listed below.  An additional cycle is required for each operand
  copied to the next context";
* return "can be detected early in the pipeline [...] thus method
  returns cost only two clock cycles" -- the base cost, no extra;
* the compiler must keep an instruction from reading the previous
  instruction's result; we charge a one-cycle bubble when generated
  code violates that, standing in for the interlock the paper omits.

:class:`CycleAccountant` accumulates these costs as the functional
machine reports events; :func:`pipeline_diagram` renders the figure-6
style overlap picture for a short instruction sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: The five interpretation steps, in order.
STAGES = ("Fetch", "Read", "ITLB", "Op", "Write")


@dataclass
class CycleParams:
    """Tunable cost model; defaults follow the paper's stated numbers."""

    issue_cycles: int = 2              # steady-state cycles per instruction
    branch_penalty: int = 1            # taken-jump delay slot
    call_flush: int = 1                # flush of the prefetched instruction
    call_sequence: int = 1             # the bundled call operations
    operand_copy: int = 1              # per operand copied to the new context
    return_extra: int = 0              # returns cost only the base two cycles
    at_memory_stall: int = 1           # at:/at:put: wait for a memory cycle
    icache_miss: int = 4               # refill an instruction from memory
    itlb_miss_base: int = 6            # trap into the lookup routine
    itlb_miss_per_probe: int = 2       # per hash probe of a message dictionary
    context_fault: int = 16            # fault a 32-word context into the cache
    raw_hazard_bubble: int = 1         # interlock bubble (see module docstring)

    def call_overhead(self, operands_copied: int) -> int:
        """Extra cycles a call adds beyond its own issue slots.

        With the two issue cycles of the calling instruction included,
        a no-operand call totals 4 cycles, matching section 3.6.
        """
        return (
            self.call_flush
            + self.call_sequence
            + operands_copied * self.operand_copy
        )


@dataclass
class CycleAccountant:
    """Accumulates cycles and a breakdown of where they went."""

    params: CycleParams = field(default_factory=CycleParams)
    instructions: int = 0
    cycles: int = 0
    calls: int = 0
    returns: int = 0
    operands_copied: int = 0
    stalls: Dict[str, int] = field(default_factory=dict)

    def stall(self, reason: str, cycles: int) -> None:
        """Charge ``cycles`` stall cycles to ``reason``; nothing (not
        even a zero entry) when ``cycles <= 0``.  The machine's fetch
        loop charges its per-instruction stalls here in one call per
        reason: ``count * penalty``."""
        if cycles <= 0:
            return
        self.cycles += cycles
        self.stalls[reason] = self.stalls.get(reason, 0) + cycles

    # -- events reported by the machine -------------------------------------

    def issue(self) -> None:
        """One instruction entered the pipeline (two-cycle issue slot)."""
        self.instructions += 1
        self.cycles += self.params.issue_cycles

    def taken_branch(self) -> None:
        self.stall("branch", self.params.branch_penalty)

    def memory_instruction(self) -> None:
        """An at: or at:put: instruction waited for a memory cycle."""
        self.stall("at_memory", self.params.at_memory_stall)

    def icache_miss(self) -> None:
        self.stall("icache_miss", self.params.icache_miss)

    def itlb_miss(self, dictionary_probes: int) -> None:
        """A full method lookup ran; cost scales with hash probes."""
        self.stall(
            "itlb_miss",
            self.params.itlb_miss_base
            + dictionary_probes * self.params.itlb_miss_per_probe,
        )

    def method_call(self, operands_copied: int) -> None:
        self.calls += 1
        self.operands_copied += operands_copied
        self.stall("call", self.params.call_overhead(operands_copied))

    def method_return(self) -> None:
        self.returns += 1
        self.stall("return", self.params.return_extra)

    def context_fault(self) -> None:
        self.stall("context_fault", self.params.context_fault)

    # -- reporting -----------------------------------------------------------

    @property
    def cycles_per_instruction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    def snapshot(self) -> dict:
        return {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "cpi": self.cycles_per_instruction,
            "calls": self.calls,
            "returns": self.returns,
            "operands_copied": self.operands_copied,
            "stalls": dict(self.stalls),
        }

    def reset(self) -> None:
        self.instructions = 0
        self.cycles = 0
        self.calls = 0
        self.returns = 0
        self.operands_copied = 0
        self.stalls.clear()


def pipeline_schedule(
    count: int, issue_cycles: int = 2, stages=STAGES
) -> List[List[Optional[str]]]:
    """Stage occupancy for ``count`` back-to-back instructions.

    Returns a matrix indexed [cycle][stage-index] holding the label of
    the instruction occupying that stage ("i0", "i1", ...), mirroring
    figure 6 where instruction *i+1* reads its operands while *i* is in
    its ITLB step.
    """
    total_cycles = (count - 1) * issue_cycles + len(stages) if count else 0
    grid: List[List[Optional[str]]] = [
        [None] * len(stages) for _ in range(total_cycles)
    ]
    for i in range(count):
        start = i * issue_cycles
        for s, _stage in enumerate(stages):
            grid[start + s][s] = f"i{i}"
    return grid


def pipeline_diagram(count: int = 3, issue_cycles: int = 2) -> str:
    """An ASCII rendition of figure 6 for ``count`` instructions."""
    grid = pipeline_schedule(count, issue_cycles)
    width = 7
    header = "cycle | " + " ".join(stage.center(width) for stage in STAGES)
    lines = [header, "-" * len(header)]
    for cycle, row in enumerate(grid):
        cells = " ".join(
            (cell or "").center(width) for cell in row
        )
        lines.append(f"{cycle:5d} | {cells}")
    return "\n".join(lines)
