"""TAB-3ADDR: stack machine vs three-address instruction counts (section 5).

"Stack machines while offering small code size require almost twice as
many instructions to implement a given source language program than a
three address machine."  This was the design study that retired the
Fith Machine in favour of the three-address COM.

We compile the *same* Smalltalk-subset sources with both back ends --
the COM three-address compiler and the Smalltalk-80-style stack
bytecode compiler (identical control-selector inlining) -- execute
both, verify they compute the same results, and compare dynamic
instruction counts.  Static code size is also reported, where the
stack machine should win (its stated advantage).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.machine import COMMachine
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import ExperimentSpec, register
from repro.smalltalk import compile_program
from repro.smalltalk.stackgen import run_stack_program

#: Benchmark sources: each computes a scalar the two backends must agree on.
SOURCES: Dict[str, str] = {
    "fib": """
SmallInteger >> fib
    self < 2 ifTrue: [^self].
    ^(self - 1) fib + (self - 2) fib
main
    ^14 fib
""",
    "loops": """
main | total |
    total := 0.
    1 to: 60 do: [:i |
        1 to: 20 do: [:j | total := total + (i * j)]
    ].
    ^total
""",
    "objects": """
class Point extends Object fields: x y
Point >> setX: ax y: ay
    x := ax. y := ay. ^self
Point >> dot: other
    ^(x * (other at: 0)) + (y * (other at: 1))
main | p q total i |
    total := 0.
    i := 0.
    [i < 50] whileTrue: [
        p := Point new.
        p setX: i y: i + 1.
        q := Point new.
        q setX: i + 2 y: i + 3.
        total := total + (p dot: q).
        i := i + 1
    ].
    ^total
""",
    "arith": """
SmallInteger >> collatzLength | n len |
    n := self. len := 0.
    [n > 1] whileTrue: [
        (n \\\\ 2) = 0 ifTrue: [n := n / 2] ifFalse: [n := (3 * n) + 1].
        len := len + 1
    ].
    ^len
main | total |
    total := 0.
    2 to: 60 do: [:k | total := total + k collatzLength].
    ^total
""",
}


def run(max_instructions: int = 5_000_000) -> ExperimentResult:
    result = ExperimentResult(
        "TAB-3ADDR stack machine vs three-address instruction counts",
        "The same Smalltalk sources compiled by both back ends; dynamic "
        "instruction counts compared (paper: stack needs ~2x).",
    )
    rows: List[tuple] = []
    ratios: List[float] = []
    static_ratios: List[float] = []
    for name, source in sorted(SOURCES.items()):
        machine = COMMachine()
        main = compile_program(machine, source)
        com_result = machine.run_program(
            main, max_instructions=max_instructions)
        com_count = machine.cycles.instructions
        com_static = sum(m.instruction_count
                         for m in machine._methods.values())
        stack_result, vm = run_stack_program(source, max_instructions)
        if not com_result.same_object_as(stack_result):
            raise AssertionError(
                f"{name}: backends disagree "
                f"({com_result!r} vs {stack_result!r})")
        stack_static = sum(
            len(method.code.code)
            for cls in vm.registry.classes()
            for selector in cls.methods.selectors()
            for method in [cls.methods.lookup(selector)]
            if hasattr(method, "code") and hasattr(method.code, "code")
        ) + len(vm.compiler.main.code)
        ratio = vm.instructions / com_count
        ratios.append(ratio)
        # Code *size* compares bytes: Smalltalk-80-style bytecodes
        # average under two bytes while every COM instruction is a
        # 4-byte word -- the stack machine's stated advantage.
        stack_bytes = stack_static * 2
        com_bytes = com_static * 4
        static_ratios.append(stack_bytes / max(com_bytes, 1))
        rows.append((name, com_count, vm.instructions, ratio,
                     com_result.value))

    lines = [f"{'program':<10}{'3-addr':>10}{'stack':>10}{'ratio':>8}"
             f"{'result':>12}", "-" * 50]
    for name, com_count, stack_count, ratio, value in rows:
        lines.append(f"{name:<10}{com_count:>10}{stack_count:>10}"
                     f"{ratio:>8.2f}{value:>12}")
    mean_ratio = sum(ratios) / len(ratios)
    mean_static = sum(static_ratios) / len(static_ratios)
    lines.append("-" * 50)
    lines.append(f"{'mean':<10}{'':>10}{'':>10}{mean_ratio:>8.2f}")
    result.table = "\n".join(lines)

    result.check(
        "a stack machine needs almost twice as many instructions",
        "~2x", f"mean dynamic ratio {mean_ratio:.2f}x "
        f"(range {min(ratios):.2f}-{max(ratios):.2f})",
        1.4 <= mean_ratio <= 2.6,
    )
    result.check(
        "both back ends compute identical results",
        "equal results", "all programs agree", True,
    )
    result.check(
        "the stack machine offers smaller code (its stated advantage)",
        "stack code bytes < three-address code bytes",
        f"mean byte ratio {mean_static:.2f}x",
        mean_static < 1.0,
    )
    result.data = {
        "ratios": {row[0]: row[3] for row in rows},
        "mean_ratio": mean_ratio,
        "mean_static_ratio": mean_static,
    }
    return result


def _run(ctx) -> ExperimentResult:
    return run()


register(ExperimentSpec(
    id="TAB-3ADDR",
    figure="section 5",
    order=70,
    title="stack machine vs three-address instruction counts",
    description="the same Smalltalk sources on both back ends; "
                "dynamic instruction counts compared",
    runner=_run,
))
