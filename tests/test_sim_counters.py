"""Golden simulated statistics of the COM and stack-VM experiments.

Runs the full-scale TAB-CALL, TAB-CTX, TAB-CCACHE and TAB-3ADDR
experiments with ``COMMachine.run_program`` and ``StackVM.run_main``
wrapped, records every simulated statistic after each call, and
compares them exactly with ``sim_counters.golden.json``:

* per ``run_program`` (13 calls): the cycle snapshot with its
  per-reason stall breakdown, calls, returns and operands copied;
  the ITLB, icache and ATLB ``CacheStats``; every ``AccessProfile``
  field; the context-cache, context-pool and context-recycler stats
  (with the LIFO fraction and LIFO frees that TAB-CTX reads); the
  heap's allocations by kind; the MMU's alias-trap and bounds-fault
  counts; the activation count and maximum depth; and the result
  word;
* per ``run_main`` (4 calls): the stack VM's instructions and sends.

A simulator speed-up must leave every one of these identical.  An
intended change to the simulated machine regenerates the file::

    PYTHONPATH=src python tests/test_sim_counters.py \\
        > tests/sim_counters.golden.json
"""

import dataclasses
import json
import sys
from pathlib import Path

from repro.core.machine import COMMachine
from repro.experiments import (
    call_cost,
    context_cache,
    context_stats,
    stack_vs_3addr,
)
from repro.smalltalk.stackgen import StackVM

GOLDEN = Path(__file__).with_name("sim_counters.golden.json")

#: Suite order (the registry's ``order``), each at its full-scale run().
EXPERIMENTS = (
    ("TAB-CALL", call_cost.run),
    ("TAB-CTX", context_stats.run),
    ("TAB-CCACHE", context_cache.run),
    ("TAB-3ADDR", stack_vs_3addr.run),
)


def _com_record(experiment, machine, result):
    return {
        "experiment": experiment,
        "result": [int(result.tag), result.value],
        "cycles": machine.cycles.snapshot(),
        "itlb": dataclasses.asdict(machine.itlb.stats),
        "icache": dataclasses.asdict(machine.icache.stats),
        "profile": dataclasses.asdict(machine.profile),
        "context_cache": dataclasses.asdict(machine.context_cache.stats),
        "atlb": dataclasses.asdict(machine.mmu.atlb.stats),
        "mmu": {"alias_traps_taken": machine.mmu.alias_traps_taken,
                "bounds_faults": machine.mmu.bounds_faults},
        "pool": dataclasses.asdict(machine.pool.stats),
        "recycler": dict(dataclasses.asdict(machine.recycler.stats),
                         lifo_fraction=machine.recycler.stats.lifo_fraction),
        "heap": dataclasses.asdict(machine.heap.stats),
        "activation_count": machine.activation_count,
        "max_depth": machine.max_depth,
    }


def collect():
    """Run the experiments once; returns ``{"com": [...], "stack_vm":
    [...]}`` in call order."""
    records = {"com": [], "stack_vm": []}
    run_program = COMMachine.run_program
    run_main = StackVM.run_main
    current = [None]

    def recorded_run_program(machine, *args, **kwargs):
        result = run_program(machine, *args, **kwargs)
        records["com"].append(_com_record(current[0], machine, result))
        return result

    def recorded_run_main(vm, *args, **kwargs):
        result = run_main(vm, *args, **kwargs)
        records["stack_vm"].append({
            "experiment": current[0],
            "instructions": vm.instructions,
            "sends": vm.sends,
        })
        return result

    COMMachine.run_program = recorded_run_program
    StackVM.run_main = recorded_run_main
    try:
        for experiment, run in EXPERIMENTS:
            current[0] = experiment
            run()
    finally:
        COMMachine.run_program = run_program
        StackVM.run_main = run_main
    # The JSON round trip turns tuples into lists, as the file has them.
    return json.loads(json.dumps(records))


def test_simulated_statistics_match_golden():
    golden = json.loads(GOLDEN.read_text())
    measured = collect()
    assert len(measured["com"]) == len(golden["com"]) == 13
    assert len(measured["stack_vm"]) == len(golden["stack_vm"]) == 4
    for index, (got, want) in enumerate(zip(measured["com"],
                                            golden["com"])):
        assert got == want, f"run_program call {index} ({want['experiment']})"
    for index, (got, want) in enumerate(zip(measured["stack_vm"],
                                            golden["stack_vm"])):
        assert got == want, f"run_main call {index} ({want['experiment']})"


if __name__ == "__main__":
    json.dump(collect(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
