"""TAB-CCACHE: context cache behaviour vs nesting depth (section 2.3).

Claims reproduced:

* "most programs rarely exceed a stack depth of 1024 words or 32
  contexts.  Thus a context cache of this modest size would almost
  never miss" -- recursion within 30 frames produces zero directory
  misses and zero context faults;
* "to handle larger nesting depths, a copy back mechanism could be
  employed" -- recursion past the cache's 32 blocks triggers the
  copy-back engine (LRU contexts retire to memory) and returns fault
  caller contexts back in, while execution stays functionally correct.
"""

from __future__ import annotations

from repro.core.machine import COMMachine
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import ExperimentSpec, register
from repro.smalltalk import compile_program

_PROGRAM = """
SmallInteger >> down
    self < 1 ifTrue: [^0].
    ^(self - 1) down + 1

main | d |
    d := {depth} down.
    ^d
"""


def _run_depth(depth: int) -> COMMachine:
    machine = COMMachine()
    main = compile_program(machine, _PROGRAM.format(depth=depth))
    machine.run_program(main, max_instructions=5_000_000)
    return machine


def run(shallow_depth: int = 25, deep_depth: int = 200) -> ExperimentResult:
    result = ExperimentResult(
        "TAB-CCACHE context cache vs nesting depth",
        "Linear recursion at two depths on the 32-block context cache "
        "with a 2-block copy-back reserve.",
    )
    shallow = _run_depth(shallow_depth)
    deep = _run_depth(deep_depth)

    s_stats = shallow.context_cache.stats
    d_stats = deep.context_cache.stats

    rows = [
        ("recursion depth", str(shallow_depth), str(deep_depth)),
        ("context faults (reloads)", str(s_stats.faults),
         str(d_stats.faults)),
        ("copy-backs to memory", str(s_stats.copybacks),
         str(d_stats.copybacks)),
        ("directory hit ratio", f"{s_stats.directory_hit_ratio:.3f}",
         f"{d_stats.directory_hit_ratio:.3f}"),
        ("result correct", str(shallow.result().value == shallow_depth),
         str(deep.result().value == deep_depth)),
    ]
    width = max(len(r[0]) for r in rows) + 2
    lines = [f"{'quantity':<{width}}{'shallow':>10}{'deep':>10}",
             "-" * (width + 20)]
    lines += [f"{n:<{width}}{a:>10}{b:>10}" for n, a, b in rows]
    result.table = "\n".join(lines)

    result.check(
        "within 32 contexts the cache almost never misses",
        "0 faults at depth <= 30",
        f"{s_stats.faults} faults, {s_stats.copybacks} copy-backs at "
        f"depth {shallow_depth}",
        s_stats.faults == 0 and s_stats.copybacks == 0,
    )
    result.check(
        "deep nesting engages the copy-back engine",
        "copy-backs > 0 and faults > 0 at depth >> 32",
        f"{d_stats.copybacks} copy-backs, {d_stats.faults} faults at "
        f"depth {deep_depth}",
        d_stats.copybacks > 0 and d_stats.faults > 0,
    )
    result.check(
        "execution stays correct across copy-back and fault-in",
        "results equal the recursion depths",
        f"shallow={shallow.result().value}, deep={deep.result().value}",
        shallow.result().value == shallow_depth
        and deep.result().value == deep_depth,
    )
    result.data = {
        "shallow": {"faults": s_stats.faults,
                    "copybacks": s_stats.copybacks},
        "deep": {"faults": d_stats.faults, "copybacks": d_stats.copybacks},
    }
    return result


def _run(ctx) -> ExperimentResult:
    return run()


register(ExperimentSpec(
    id="TAB-CCACHE",
    figure="section 2.3",
    order=50,
    title="context cache vs nesting depth",
    description="linear recursion at two depths on the 32-block "
                "context cache with copy-back",
    runner=_run,
))
