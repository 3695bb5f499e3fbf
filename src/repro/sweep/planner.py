"""Batched sweep queries: N queries over one trace, answered in order.

:class:`Query`
    One sweep question: a :class:`~repro.sweep.spec.SweepSpec`
    against the batch's trace.

:func:`run_batch`
    Answers each query in input order.  A store-backed trace (one
    carrying ``store_key`` / ``store_root``) first probes the disk
    :class:`~repro.workloads.library.ResultCache` under the query's
    own key; a miss -- or any trace without a store stamp -- goes to
    :func:`~repro.sweep.runner.run_sweep`, which probes once more,
    replays and writes the entry.  The surfaces are exactly what
    per-query ``run_sweep`` calls return, and the
    :class:`BatchReport` says how many were replayed and how many
    came from the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro import telemetry
from repro.sweep.runner import _result_cache, result_cache_key, run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.surface import ResultSurface
from repro.trace.columnar import Trace
from repro.workloads.library import ResultCache


@dataclass(frozen=True)
class Query:
    """One sweep question against the batch's trace."""

    spec: SweepSpec


@dataclass
class BatchReport:
    """What one batch cost, for footers/telemetry."""

    queries: int = 0
    #: Queries that missed the batch's probe and went to run_sweep.
    replays: int = 0
    #: Queries answered from their own result-cache entry.
    disk_hits: int = 0


@dataclass
class BatchResult:
    """Per-query surfaces (aligned with the input order) + the bill."""

    queries: List[Query]
    surfaces: List[ResultSurface]
    report: BatchReport = field(default_factory=BatchReport)


def run_batch(queries: Sequence[Query], events: Trace) -> BatchResult:
    """Answer every query over one trace, in input order (see the
    module docstring)."""
    queries = list(queries)
    trace_key = events.store_key
    disk = _result_cache(events.store_root) \
        if trace_key and events.store_root and ResultCache.enabled() \
        else None

    report = BatchReport(queries=len(queries))
    telemetry.inc("planner.queries", len(queries))
    surfaces: List[ResultSurface] = []
    with telemetry.span("planner.batch", queries=len(queries)) as sp:
        for query in queries:
            surface = None
            if disk is not None:
                payload = disk.get(result_cache_key(query.spec, trace_key))
                if payload is not None:
                    surface = ResultSurface.from_payload(query.spec,
                                                         payload)
            if surface is not None:
                report.disk_hits += 1
                telemetry.inc("planner.cache_hit", tier="disk")
            else:
                surface = run_sweep(query.spec, events)
                report.replays += 1
                telemetry.inc("planner.replays")
            surfaces.append(surface)
        sp.set(replays=report.replays, cache_hits=report.disk_hits)
    return BatchResult(queries=queries, surfaces=surfaces,
                       report=report)
