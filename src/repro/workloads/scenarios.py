"""The registered scenario catalogue.

Importing this module populates the workload registry
(:mod:`repro.workloads.spec`).  Two kinds of entries:

* ports of the original hand-wired traces (``paper``,
  ``interleaved``, ``monomorphic``) -- same generators, same
  calibrated defaults, now named, parameterized and cached;
* new stress scenarios (``gc-churn``, ``megamorphic``,
  ``deep-calls``, ``redefine-churn``) that each exaggerate one
  mechanism the paper's architecture bets on.

Adding a scenario is one generator function plus one
:func:`workload` registration -- about ten lines; the CLI, harness,
store and tests pick it up automatically.

Each generator imports Fith (and :mod:`repro.trace.workloads`) when
it runs, not here: ``import repro.cli`` registers the catalogue, and a
command that only loads stored traces never loads Fith.
"""

from __future__ import annotations

from repro.trace.columnar import Trace
from repro.workloads.spec import WorkloadSpec, register

_MAX_STEPS = 50_000_000


def workload(name: str, description: str, *, defaults=None, quick=None,
             version: int = 1):
    """Decorator: register the function as a workload generator."""
    def wrap(build):
        register(WorkloadSpec(
            name=name, description=description, build=build,
            defaults=dict(defaults or {}),
            quick_overrides=dict(quick or {}), version=version))
        return build
    return wrap


def _run_traced(source: str) -> Trace:
    from repro.fith.interp import FithMachine

    machine = FithMachine(trace=True)
    machine.run_source(source, max_steps=_MAX_STEPS)
    return machine.trace.snapshot()


# -- ports of the original hand-wired traces ---------------------------

@workload(
    "paper",
    "the section-5 measurement trace: the whole Fith corpus plus the "
    "calibrated polymorphic workload (figures 10 and 11 run on this)",
    defaults={"scale": 1, "classes": 20, "selectors": 32, "rounds": 450,
              "phase_length": 700, "stray_percent": 2,
              "hot_selectors": 10},
    quick={"phase_length": 280},
)
def _paper_events(**params) -> Trace:
    from repro.trace.workloads import paper_trace
    return paper_trace(**params)


@workload(
    "interleaved",
    "the corpus round-robin interleaved in fixed-size slices: a "
    "multiprogramming workload with alternating working sets",
    defaults={"scale": 1, "chunk": 2000},
)
def _interleaved_events(**params) -> Trace:
    from repro.trace.workloads import interleaved_trace
    return interleaved_trace(**params)


@workload(
    "monomorphic",
    "degenerate single-key trace; the control case for cache experiments",
    defaults={"length": 20_000},
    quick={"length": 5_000},
)
def _monomorphic_events(**params) -> Trace:
    from repro.trace.workloads import monomorphic_trace
    return monomorphic_trace(**params)


# -- new stress scenarios ----------------------------------------------

@workload(
    "gc-churn",
    "allocation churn: a rotating window of short-lived objects "
    "(new/put-dominated traffic, a moving object population)",
    defaults={"scale": 1, "slots": 16, "batch": 48},
)
def _gc_churn_events(scale: int = 1, slots: int = 16,
                     batch: int = 48) -> Trace:
    from repro.fith.programs import gc_churn
    return _run_traced(gc_churn(scale, slots=slots, batch=batch))


@workload(
    "megamorphic",
    "megamorphic dispatch storm: one call site cycling through N "
    "receiver classes (worst case for translation caches)",
    defaults={"scale": 1, "classes": 26},
)
def _megamorphic_events(scale: int = 1,
                        classes: int = 26) -> Trace:
    from repro.fith.programs import megamorphic
    return _run_traced(megamorphic(scale, classes=classes))


@workload(
    "deep-calls",
    "deep-recursion call stress: single and mutual recursion to "
    "depths far past the 32-block context cache",
    defaults={"scale": 1, "depth": 500},
    quick={"depth": 200},
)
def _deep_calls_events(scale: int = 1,
                       depth: int = 500) -> Trace:
    from repro.fith.programs import deep_calls
    return _run_traced(deep_calls(scale, depth=depth))


@workload(
    "redefine-churn",
    "method-redefinition churn: reload epochs redefine every class's "
    "method, shooting down send translations (the PR-1 predecode "
    "invalidation path) and shifting the code footprint",
    defaults={"scale": 1, "epochs": 8, "classes": 6},
    quick={"epochs": 4},
)
def _redefine_churn_events(scale: int = 1, epochs: int = 8,
                           classes: int = 6) -> Trace:
    from repro.fith.interp import FithMachine
    from repro.fith.programs import redefinition_epoch

    machine = FithMachine(trace=True)
    for epoch in range(epochs):
        machine.load(redefinition_epoch(epoch, scale, classes=classes))
        machine.run(max_steps=_MAX_STEPS)
    return machine.trace.snapshot()
