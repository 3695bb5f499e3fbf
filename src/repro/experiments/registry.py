"""The experiment registry: specs instead of a hand-wired driver.

Each experiment module registers an :class:`ExperimentSpec` -- id,
figure/table, description, the workloads it replays, and a runner --
at import time; :func:`load_all` imports the whole suite in DESIGN.md
order.  The harness (:mod:`repro.experiments.harness`) drives the
registry: ``--only``/``--skip`` select specs, and each selected
spec's ``spec.runner(ctx)`` produces the finished
:class:`~repro.experiments.common.ExperimentResult`.  The runner is
the suite's way in to an experiment; the modules do not run as
scripts (``repro run --only ID`` runs one).

A :class:`RunContext` carries the run-wide knobs (scale, quick, the
trace-store root).  It deliberately holds no live machine: every
experiment builds its own machines from scratch (``COMMachine()``,
``FithMachine()``) and shares *only* the immutable traces through the
store, so experiments cannot alias mutable simulator state.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.common import ExperimentResult
from repro.trace.columnar import Trace
from repro.workloads.store import TraceStore

#: DESIGN.md section-4 order; also the seed harness's stage order.
_MODULES = (
    "repro.experiments.fig10",
    "repro.experiments.fig11",
    "repro.experiments.call_cost",
    "repro.experiments.context_stats",
    "repro.experiments.context_cache",
    "repro.experiments.addr_compare",
    "repro.experiments.stack_vs_3addr",
)


@dataclass
class RunContext:
    """Run-wide parameters shared by every experiment of a run."""

    scale: int = 1
    quick: bool = False
    trace_dir: Optional[str] = None
    _store: Optional[TraceStore] = field(default=None, repr=False,
                                         compare=False)

    @property
    def store(self) -> TraceStore:
        if self._store is None:
            self._store = TraceStore(self.trace_dir)
        return self._store

    def events(self, workload: str, **overrides) -> Trace:
        """The named workload's trace at this run's scale/quick mode,
        loaded through the content-keyed store."""
        return self.store.load(workload, quick=self.quick,
                               scale=self.scale, **overrides)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment.

    ``runner(ctx)`` must return a picklable
    :class:`ExperimentResult` (the run journal stores it).
    """

    id: str
    figure: str
    title: str
    description: str
    runner: Callable[[RunContext], ExperimentResult]
    #: Suite position (DESIGN.md section-4 order); ties break by
    #: registration.  Import order must not matter: tests import
    #: experiment modules in arbitrary orders.
    order: int = 1000
    workloads: Tuple[str, ...] = ()


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    existing = _REGISTRY.get(spec.id)
    if existing is not None and existing != spec:
        raise ValueError(
            f"experiment {spec.id!r} already registered differently")
    _REGISTRY[spec.id] = spec
    return spec


def load_all() -> Tuple[ExperimentSpec, ...]:
    """Import every experiment module; returns specs in suite order."""
    for module in _MODULES:
        importlib.import_module(module)
    return specs()


def get(exp_id: str) -> ExperimentSpec:
    if exp_id not in _REGISTRY:
        load_all()
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        known = ", ".join(_REGISTRY) or "(none)"
        raise KeyError(
            f"unknown experiment {exp_id!r}; registered: {known}") from None


def specs() -> Tuple[ExperimentSpec, ...]:
    """Registered specs in suite order (ExperimentSpec.order)."""
    ordered = sorted(_REGISTRY.values(),
                     key=lambda spec: (spec.order, spec.id))
    return tuple(ordered)


def select(only: Optional[List[str]] = None,
           skip: Optional[List[str]] = None) -> Tuple[ExperimentSpec, ...]:
    """Suite-order specs filtered by --only/--skip id lists."""
    load_all()
    chosen = list(specs())
    if only:
        wanted = {exp_id.upper() for exp_id in only}
        unknown = wanted - {spec.id for spec in chosen}
        if unknown:
            raise KeyError(f"unknown experiment id(s): {sorted(unknown)}")
        chosen = [spec for spec in chosen if spec.id in wanted]
    if skip:
        dropped = {exp_id.upper() for exp_id in skip}
        unknown = dropped - {spec.id for spec in specs()}
        if unknown:
            raise KeyError(f"unknown experiment id(s): {sorted(unknown)}")
        chosen = [spec for spec in chosen if spec.id not in dropped]
    return tuple(chosen)
